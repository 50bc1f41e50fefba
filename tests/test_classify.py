"""Classification of Poisson lifts, Lie algebra examples, and worked cases."""
import math
import random
from fractions import Fraction

import pytest

from densalg import (
    Chart,
    DensityElement,
    DomainError,
    EVEN,
    KernelBasis,
    LieAlgebraData,
    ODD,
    antibracket,
    classify_lifts,
    decompose,
    density_evolution,
    divergence,
    lie_poisson,
    lift,
    master_check,
    master_residual_of_lift,
    q_manifold_lifts,
    r_ary_bracket,
    supertrace_extension,
)
from densalg import brackets
from densalg.classify import (
    _invert_matrix,
    _rref,
    attach_correction,
    change_basis,
    darboux_form,
    de_rham_element,
    exterior_derivative,
    monomial_ansatz,
    nullspace,
    q_manifold_chart,
)
from conftest import (
    dense_kernel_matrix,
    dense_nullspace,
    random_poly,
    reference_monomial_ansatz,
    row_space_rref,
)


SO3 = [
    (0, 1, 2, 1), (1, 0, 2, -1),
    (1, 2, 0, 1), (2, 1, 0, -1),
    (2, 0, 1, 1), (0, 2, 1, -1),
]
SOLVABLE = [(0, 1, 1, 1), (1, 0, 1, -1)]  # [e1, e2] = e2


class TestLinearAlgebra:
    def test_fraction_free_matches_dense_oracle(self, rng):
        def entry():
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

        def matrix(shape, m, n):
            if shape == "dense":
                return [[entry() for _ in range(n)] for _ in range(m)]
            rows = [[Fraction(0)] * n for _ in range(m)]
            if shape == "zero":
                return rows
            for i in range(m):
                for j in range(n):
                    if shape == "sparse" and rng.random() < 0.25:
                        rows[i][j] = entry()
                    elif shape == "block" and i // 3 == j // 3 and rng.random() < 0.8:
                        rows[i][j] = entry()
            if m > 1:  # a repeated row and a zero row
                rows[rng.randrange(m)] = list(rows[rng.randrange(m)])
                rows[rng.randrange(m)] = [Fraction(0)] * n
            return rows

        for shape in ("dense", "sparse", "block", "zero"):
            sizes = [(12, 3), (3, 12), (12, 12)]  # tall, wide, square
            sizes += [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(30)]
            for m, n in sizes:
                rows = matrix(shape, m, n)
                sparse = [dict(enumerate(row)) for row in rows]
                assert nullspace(sparse, n) == dense_nullspace(rows, n)

    def test_kernel_vectors_annihilate(self, rng):
        for _ in range(20):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            for vec in nullspace([dict(enumerate(row)) for row in rows], n):
                for row in rows:
                    assert sum(r * v for r, v in zip(row, vec)) == 0

    def test_empty_system(self):
        # no rows: every column is free; no columns: nothing to solve for
        assert nullspace([], 3) == dense_nullspace([], 3) == [
            (1, 0, 0), (0, 1, 0), (0, 0, 1)
        ]
        assert nullspace([{}, {}], 0) == nullspace([], 0) == []
        # integer entries reduce to the same Fractions
        assert nullspace([{0: 2, 1: 4}], 2) == [(Fraction(-2), Fraction(1))]

    @staticmethod
    def awkward_matrix(rng, kind, m, n, degenerate=True):
        """Rows the other tests never draw: 30-40-digit numerators and
        denominators, a common integer factor per row, integral Fraction and
        int entries, big combinations of a few rows (`low_rank`) and, when
        `degenerate`, a repeated row and a zero row."""
        def big():
            return rng.choice((-1, 1)) * rng.randint(10 ** 29, 10 ** 40)

        def entry():
            if kind == "huge":
                return Fraction(big(), rng.randint(10 ** 29, 10 ** 40))
            if kind == "common":
                return rng.randint(-9, 9)
            return rng.choice((Fraction(rng.randint(-9, 9)), rng.randint(-9, 9),
                               Fraction(rng.randint(-9, 9), rng.randint(1, 9))))

        if kind == "low_rank":  # big combinations of a few rows
            base = [[entry() for _ in range(n)] for _ in range(rng.randint(1, 3))]
            rows = []
            for _ in range(m):
                coeffs = [Fraction(big(), rng.randint(1, 10 ** 35)) for _ in base]
                rows.append([sum(f * b[j] for f, b in zip(coeffs, base)) for j in range(n)])
        else:
            rows = [[entry() if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(m)]
        if kind == "common":
            rows = [[rng.choice((2, 6, 10 ** 30, -35)) * x for x in row] for row in rows]
        if degenerate and m > 1:
            rows[rng.randrange(m)] = list(rows[rng.randrange(m)])
            rows[rng.randrange(m)] = [0] * n
        return rows

    KINDS = ("huge", "common", "mixed", "low_rank")

    def test_rref_rows_are_primitive_integer_rows(self):
        rng = random.Random(12)
        for kind in self.KINDS:
            for _ in range(25):
                m, n = rng.randint(1, 8), rng.randint(1, 8)
                rows = self.awkward_matrix(rng, kind, m, n)
                reduced = _rref(dict(enumerate(row)) for row in rows)
                for p, row in reduced.items():
                    assert all(type(x) is int and x for x in row.values())
                    assert p == min(row) and row[p] > 0
                    assert math.gcd(*row.values()) == 1
                expected = row_space_rref(rows, n)
                assert tuple(
                    tuple(Fraction(reduced[p].get(c, 0), reduced[p][p]) for c in range(n))
                    for p in sorted(reduced)
                ) == expected

    def test_awkward_entries_match_dense_oracle(self):
        rng = random.Random(13)
        for kind in self.KINDS:
            for _ in range(25):
                m, n = rng.randint(1, 8), rng.randint(1, 8)
                rows = self.awkward_matrix(rng, kind, m, n)
                basis = nullspace([dict(enumerate(row)) for row in rows], n)
                assert basis == dense_nullspace(rows, n)
                assert all(type(x) is Fraction for vec in basis for x in vec)
                P = self.awkward_matrix(rng, kind, n, n, degenerate=False)
                if dense_nullspace(P, n):
                    with pytest.raises(DomainError):
                        _invert_matrix(P)
                    continue
                Pinv = _invert_matrix(P)
                product = [
                    [sum(Pinv[i][k] * P[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)
                ]
                assert product == [[int(i == j) for j in range(n)] for i in range(n)]


class TestDecomposition:
    def test_roundtrip(self, rng, small_chart):
        C = small_chart
        for lam in (Fraction(0), Fraction(2), Fraction(-1)):
            s = DensityElement(C["xi"] * C["#x"], lam)
            Q = C["x"] * C["xi"] + C["y"]
            S = attach_correction(s, Q)
            dec = decompose(S, s)
            assert dec.q_part == Q
            assert dec.base == s

    def test_bare_lift_gives_zero_q(self, small_chart):
        C = small_chart
        s = DensityElement(C["x"] * C["#x"], Fraction(0))
        assert decompose(lift(s), s).q_part.is_zero()

    def test_stray_term_rejected(self, small_chart):
        C = small_chart
        h = C.hatted_version()
        s = DensityElement(C["x"] * C["#x"], Fraction(0))
        with pytest.raises(DomainError):
            decompose(lift(s) + h["y"] * h["#t"] * h["#x"], s)

    def test_wrong_projection_rejected(self, small_chart):
        C = small_chart
        s = DensityElement(C["x"] * C["#x"], Fraction(0))
        other = DensityElement(C["y"] * C["#x"], Fraction(0))
        with pytest.raises(DomainError):
            decompose(lift(s), other)

    def test_symplectic_hamiltonian_field_recovered(self):
        C = Chart([("p", EVEN), ("x", EVEN)])
        omega = darboux_form(C)
        f = C["x"] * C["p"]
        x_f = antibracket(omega, f)
        s = DensityElement(omega, Fraction(0))
        assert decompose(attach_correction(s, x_f), s).q_part == x_f


class TestMasterResidual:
    def test_residual_formula_even_s(self, rng):
        C = Chart([("x1", EVEN), ("x2", EVEN), ("x3", EVEN)])
        pi = (
            C["x3"] * C["#x2"] * C["#x1"]
            + C["x1"] * C["#x3"] * C["#x2"]
            + C["x2"] * C["#x1"] * C["#x3"]
        )
        s = DensityElement(pi, Fraction(0))
        ansatz = monomial_ansatz(C, 1, 2, ODD)
        assert len(ansatz) >= 10
        for Q in ansatz:
            master_residual_of_lift(s, Q)  # raises if the formula fails

    def test_residual_zero_iff_kernel(self):
        C = Chart([("x1", EVEN), ("x2", EVEN), ("x3", EVEN)])
        pi = (
            C["x3"] * C["#x2"] * C["#x1"]
            + C["x1"] * C["#x3"] * C["#x2"]
            + C["x2"] * C["#x1"] * C["#x3"]
        )
        s = DensityElement(pi, Fraction(0))
        # the rotation generator x1 #x1 - is not in the kernel; a Casimir is
        casimir_field = antibracket(
            pi, C["x1"] * C["x1"] + C["x2"] * C["x2"] + C["x3"] * C["x3"]
        )
        assert master_residual_of_lift(s, casimir_field).is_zero()
        assert not master_residual_of_lift(s, C["#x1"]).is_zero()

    def test_odd_s_residual_vanishes_identically(self, small_chart):
        C = small_chart
        s = DensityElement(C["x"] * C["#y"], Fraction(0))  # odd vector field
        assert s.body.parity() == ODD
        for Q in (C["x"] * C["x"], C["y"], C["x"] * C["y"]):
            assert master_residual_of_lift(s, Q).is_zero()

    def test_nonzero_weight_rejected(self, small_chart):
        C = small_chart
        s = DensityElement(C["x"] * C["#x"], Fraction(2))
        with pytest.raises(DomainError):
            master_residual_of_lift(s, C["y"])


def _assert_matches_oracle(s, bound, kb):
    """classify_lifts output vs the dense Gauss-Jordan oracle: the same
    reduced basis over the ansatz order, bit for bit."""
    rows = dense_kernel_matrix(s, kb.ansatz)
    assert kb.basis == tuple(dense_nullspace(rows, len(kb.ansatz)))
    # every claimed kernel element actually annihilates
    for e in kb.elements():
        assert antibracket(s.body, e).is_zero()


class TestClassification:
    def test_pitr1_dimension_d_plus_2(self):
        chart = q_manifold_chart(1)
        s = DensityElement(de_rham_element(chart), Fraction(0))
        for d in range(4):
            kb = q_manifold_lifts(chart, d)
            assert kb.dimension == d + 2
            _assert_matches_oracle(s, d, kb)
            for theta in kb.elements():
                assert exterior_derivative(theta).is_zero()

    def test_pitr2_closed_one_forms(self):
        chart = q_manifold_chart(2)
        s = DensityElement(de_rham_element(chart), Fraction(0))
        kb = q_manifold_lifts(chart, 1)
        _assert_matches_oracle(s, 1, kb)
        # constants + closed affine 1-forms: 1 + (2 constants + 3 exact-linear)
        assert kb.dimension == 6
        x1, x2 = chart["x1"], chart["x2"]
        dx1, dx2 = chart["dx1"], chart["dx2"]

        def in_kernel_span(candidate):
            vec = [candidate.coefficient(next(iter(m.terms))) for m in kb.ansatz]
            n = len(kb.ansatz)
            before = row_space_rref(kb.basis, n)
            after = row_space_rref(list(kb.basis) + [tuple(vec)], n)
            return before == after

        assert not in_kernel_span(x1 * dx2)  # d(x1 dx2) != 0
        assert in_kernel_span(x1 * dx2 + x2 * dx1)  # the curl-free partner

    def test_darboux_affine_symplectic_fields(self):
        C = Chart([("p", EVEN), ("x", EVEN)])
        omega = darboux_form(C)
        s = DensityElement(omega, Fraction(0))
        kb = classify_lifts(s, 1)
        _assert_matches_oracle(s, 1, kb)
        # translations (2) + sl(2) linear symplectic fields (3)
        assert kb.dimension == 5
        # defining relation of symplectic vector fields: the contracted
        # 1-form is closed, i.e. (omega, X) = 0 -- and divergence-free
        from densalg import divergence

        for X in kb.elements():
            assert antibracket(omega, X).is_zero()
            assert divergence(X).is_zero()

    def test_more_oracle_instances(self):
        # remaining instances for the >= 10 oracle-agreement requirement
        instances = []
        g_so3 = LieAlgebraData(3, None, SO3)
        instances.append((lie_poisson(g_so3), 1))
        instances.append((lie_poisson(g_so3), 0))
        g_solv = LieAlgebraData(2, None, SOLVABLE)
        instances.append((lie_poisson(g_solv), 1))
        C = Chart([("p", EVEN), ("x", EVEN)])
        instances.append((DensityElement(darboux_form(C), Fraction(0)), 0))
        instances.append((DensityElement(darboux_form(C), Fraction(0)), 2))
        for s, bound in instances:
            kb = classify_lifts(s, bound)
            _assert_matches_oracle(s, bound, kb)

    def test_one_table_of_s_per_classification(self, monkeypatch):
        # s's right partial rows are built once per call, not once per column
        C = Chart([(name, EVEN) for name in ("p1", "p2", "x1", "x2")])
        s = DensityElement(darboux_form(C), Fraction(0))
        partial_rows = brackets._partial_rows
        tables = []

        def counted(chart, terms, left):
            tables[-1] += not left
            return partial_rows(chart, terms, left)

        monkeypatch.setattr(brackets, "_partial_rows", counted)
        columns = []
        for bound in (1, 3):
            tables.append(0)
            columns.append(len(classify_lifts(s, bound).ansatz))
        assert columns[0] < columns[1]
        assert tables[0] == tables[1] == 1

    def test_so3_bound0_kernel_trivial(self):
        # constants #x_j are not in Ker(pi, .) for so(3): empty basis
        s = lie_poisson(LieAlgebraData(3, None, SO3))
        kb = classify_lifts(s, 0)
        assert kb.ansatz  # candidates exist ...
        assert kb.dimension == 0  # ... none survive

    def test_empty_ansatz(self, small_chart):
        # no even fiber-degree-1 monomials exist over an all-even base slice
        C = Chart([("x", EVEN), ("y", EVEN)])
        assert monomial_ansatz(C, 1, 0, EVEN) == []

    def test_ansatz_matches_reference(self):
        rng = random.Random(31)
        lengths = set()
        for _ in range(60):
            coords = [("c%d" % i, rng.choice([EVEN, ODD])) for i in range(rng.randint(0, 4))]
            C = Chart(coords)
            for fiber_degree in range(4):
                for bound in range(4):
                    for parity in (EVEN, ODD):
                        got = monomial_ansatz(C, fiber_degree, bound, parity)
                        assert got == reference_monomial_ansatz(C, fiber_degree, bound, parity)
                        lengths.add(len(got))
        assert 0 in lengths and len(lengths) > 10  # empty results occur too

    def test_odd_s_flagged_mode(self, small_chart):
        C = small_chart
        s = DensityElement(C["x"] * C["#y"], Fraction(0))
        kb = classify_lifts(s, 1)
        assert kb.flagged_odd_base
        # every ansatz element is a solution: the residual vanishes anyway
        n = len(kb.ansatz)
        assert n and kb.dimension == n
        assert kb.basis == tuple(dense_nullspace([], n))  # the identity
        assert kb.elements() == list(kb.ansatz)

    def test_preconditions(self, small_chart):
        C = small_chart
        s_bad = DensityElement(
            C["x"] * C["#x"] * C["#y"] + C["y"] * C["#x"] * C["#y"], Fraction(0)
        )
        if not master_check(s_bad.body).is_zero():
            with pytest.raises(DomainError):
                classify_lifts(s_bad, 1)
        with pytest.raises(Exception):
            classify_lifts(DensityElement(C["x"] * C["#x"], Fraction(1)), 1)

    def test_zero_s_rejected(self, small_chart):
        # 0 is homogeneous of every degree, so it fixes no ansatz for Q
        with pytest.raises(DomainError, match="fiber degree") as err:
            classify_lifts(DensityElement(small_chart.zero(), 0), 1)
        assert "homogeneous" not in str(err.value)


class TestLieAlgebra:
    def test_abelian(self):
        g = LieAlgebraData(3)
        assert lie_poisson(g).body.is_zero()
        assert supertrace_extension(g) == (0, 0, 0)

    def test_so3(self):
        g = LieAlgebraData(3, None, SO3)
        s = lie_poisson(g)
        assert master_check(s.body).is_zero()
        assert supertrace_extension(g) == (0, 0, 0)

    def test_solvable(self):
        g = LieAlgebraData(2, None, SOLVABLE)
        s = lie_poisson(g)
        assert master_check(s.body).is_zero()
        # str(ad e1) = 1, str(ad e2) = 0
        assert supertrace_extension(g) == (1, 0)
        # pi = x^2 x*_2 x*_1 up to the convention's ordering sign
        C = s.chart
        assert s.body in (
            C["x2"] * C["#x2"] * C["#x1"],
            -C["x2"] * C["#x2"] * C["#x1"],
        )

    def test_jacobi_violation_detected(self):
        bad = [(0, 1, 2, 1), (1, 0, 2, -1), (1, 2, 0, 1), (2, 1, 0, -1),
               (0, 2, 0, 1), (2, 0, 0, -1)]
        g = LieAlgebraData(3, None, bad)
        assert not master_check(lie_poisson(g).body).is_zero()
        with pytest.raises(DomainError):
            supertrace_extension(g)

    def test_antisymmetry_enforced(self):
        with pytest.raises(DomainError):
            LieAlgebraData(2, None, [(0, 1, 1, 1)])  # missing mirror entry

    def test_parity_enforced(self):
        # C^{ij}_k != 0 needs p_k = p_i + p_j mod 2
        with pytest.raises(DomainError, match=r"\(0,1,0\) breaks parity"):
            LieAlgebraData(2, [0, 1], [(0, 1, 0, 1), (1, 0, 0, -1)])
        with pytest.raises(DomainError, match=r"\(1,1,1\) breaks parity"):
            LieAlgebraData(2, [0, 1], [(1, 1, 1, 1)])
        g = LieAlgebraData(2, [0, 1], [(0, 1, 1, 1), (1, 0, 1, -1), (1, 1, 0, 2)])
        assert g.c(1, 1, 0) == 2
        # a basis change mixing an even and an odd element has no homogeneous result
        with pytest.raises(DomainError, match="breaks parity"):
            change_basis(LieAlgebraData(2, [0, 1], [(0, 1, 1, 1), (1, 0, 1, -1)]),
                         [[1, 1], [0, 1]])

    def test_basis_change_covector_law(self, rng):
        g = LieAlgebraData(2, None, SOLVABLE)
        phi = supertrace_extension(g)
        for _ in range(5):
            while True:
                P = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
                if P[0][0] * P[1][1] - P[0][1] * P[1][0]:
                    break
            g2 = change_basis(g, P)
            phi2 = supertrace_extension(g2)
            # phi'_i = sum_a P[a][i] phi_a: pulls back as a covector
            expected = tuple(
                sum(Fraction(P[a][i]) * phi[a] for a in range(2)) for i in range(2)
            )
            assert phi2 == expected

    @pytest.mark.parametrize("dimension, constants", [(3, SO3), (2, SOLVABLE)])
    def test_modular_class_route(self, rng, dimension, constants):
        # the divergence of the Lie-Poisson element is the supertrace
        # functional read as the fiber-linear element sum_j phi_j #x_j,
        # in the given basis and after unimodular changes of basis
        g = LieAlgebraData(dimension, None, constants)
        algebras = [g]
        for _ in range(3):
            P = [[int(i == j) for j in range(dimension)] for i in range(dimension)]
            for _ in range(4):  # row additions keep the determinant 1
                i, j = rng.sample(range(dimension), 2)
                c = rng.choice((-2, -1, 1, 2))
                P[i] = [a + c * b for a, b in zip(P[i], P[j])]
            algebras.append(change_basis(g, P))
        for h in algebras:
            s = lie_poisson(h)
            phi = supertrace_extension(h)
            C = s.chart
            expected = C.sum(phi[j] * C["#" + name] for j, name in enumerate(h.names))
            assert divergence(s.body) == expected

    def test_invert_matrix(self, rng):
        g = LieAlgebraData(3, None, SO3)
        with pytest.raises(DomainError):
            change_basis(g, [[1, 2, 0], [2, 4, 0], [0, 0, 1]])
        with pytest.raises(DomainError):
            _invert_matrix([[0, 0], [0, 0]])
        for _ in range(40):
            n = rng.randint(1, 5)
            P = [[Fraction(rng.randint(-1, 1), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
            if dense_nullspace(P, n):
                with pytest.raises(DomainError):
                    _invert_matrix(P)
                continue
            Pinv = _invert_matrix(P)
            product = [
                [sum(Pinv[i][k] * P[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert product == [[int(i == j) for j in range(n)] for i in range(n)]

    def test_json_roundtrip(self, tmp_path):
        import json

        data = {
            "dimension": 2,
            "names": ["e1", "e2"],
            "constants": [[1, 2, 2, "1"], [2, 1, 2, "-1"]],
        }
        path = tmp_path / "solv.json"
        path.write_text(json.dumps(data))
        g = LieAlgebraData.from_json(str(path))
        assert supertrace_extension(g) == (1, 0)


class TestDensityEvolution:
    def test_randomized_agreement(self, rng):
        # the closed form asserts equality with the direct route internally
        C = Chart([("p", EVEN), ("x", EVEN)])
        base = Chart([("p", EVEN), ("x", EVEN)])
        from densalg.brackets import restrict_to_base

        for _ in range(200):
            H = restrict_to_base(random_poly(rng, C, parity=EVEN))
            f = restrict_to_base(random_poly(rng, C, parity=EVEN))
            psi = restrict_to_base(random_poly(rng, C, parity=EVEN))
            lam = rng.choice([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)])
            density_evolution(H, f, psi, lam)  # raises on disagreement

    def test_free_particle_half_density(self):
        C = Chart([("p", EVEN), ("x", EVEN)])
        H = Fraction(1, 2) * C["p"] * C["p"]
        out = density_evolution(H, C["x"], C["x"], Fraction(1, 2))
        h = C.hatted_version()
        pb_Hx = r_ary_bracket(darboux_form(C), [H, C["x"]])
        expected = (pb_Hx * C["x"] * Fraction(1, 2) + pb_Hx * C["x"] * 0 + pb_Hx).transport(
            h
        ) * h.t_power(Fraction(1, 2))
        # ({H,x} + 1/2 {H,x} x) t^(1/2)
        closed = (pb_Hx + Fraction(1, 2) * pb_Hx * C["x"]).transport(h) * h.t_power(
            Fraction(1, 2)
        )
        assert out == closed

    def test_lambda_zero_is_hamiltonian_flow(self, rng):
        C = Chart([("p", EVEN), ("x", EVEN)])
        from densalg.brackets import restrict_to_base

        omega = darboux_form(C)
        for _ in range(20):
            H = restrict_to_base(random_poly(rng, C, parity=EVEN))
            psi = restrict_to_base(random_poly(rng, C, parity=EVEN))
            out = density_evolution(H, C["x"], psi, Fraction(0))
            assert out == r_ary_bracket(omega, [H, psi]).transport(C.hatted_version())


class TestQManifolds:
    def test_de_rham_element_squares_to_zero(self):
        for n in (1, 2, 3):
            chart = q_manifold_chart(n)
            d = de_rham_element(chart)
            assert d.parity() == EVEN  # odd vector field = even function
            assert master_check(d).is_zero()

    def test_exterior_derivative_matches_bracket_action(self, rng):
        # (d-element, theta) acts as the exterior derivative up to sign
        chart = q_manifold_chart(2)
        s = de_rham_element(chart)
        from densalg.brackets import restrict_to_base

        for _ in range(50):
            theta = restrict_to_base(random_poly(rng, chart))
            b = antibracket(s, theta)
            dtheta = exterior_derivative(theta)
            assert b in (dtheta, -dtheta)

    def test_chart_shape_validated(self):
        with pytest.raises(DomainError):
            q_manifold_lifts(Chart([("x", EVEN), ("y", EVEN)]), 1)
