"""Classification of Poisson lifts, Lie algebra examples, and worked cases."""
import itertools
import math
import os
import random
from fractions import Fraction

import pytest

from densalg import (
    Chart,
    ChartMismatchError,
    DensityElement,
    DomainError,
    EVEN,
    KernelBasis,
    LieAlgebraData,
    ODD,
    WeightOneError,
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
from densalg import classify as classify_module
from densalg.cli import EXIT_DOMAIN, EXIT_OK, main
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
    densify,
    direct_density_evolution,
    gl_super_constants,
    random_poly,
    reference_monomial_ansatz,
    row_space_rref,
    super_jacobi_holds,
    supertrace_of_ad,
)


SO3 = [
    (0, 1, 2, 1), (1, 0, 2, -1),
    (1, 2, 0, 1), (2, 1, 0, -1),
    (2, 0, 1, 1), (0, 2, 1, -1),
]
SOLVABLE = [(0, 1, 1, 1), (1, 0, 1, -1)]  # [e1, e2] = e2


def gl(m, n):
    """gl(m|n) as LieAlgebraData arguments (dimension, parities, constants)."""
    parities, constants = gl_super_constants(m, n)
    return len(parities), parities, constants


GL2, GL3 = gl(2, 0), gl(3, 0)
HQ = (2, [0, 1], [(0, 1, 1, 1), (1, 0, 1, -1)])  # [H, Q] = Q, H even and Q odd
SUPER = {"gl11": gl(1, 1), "gl21": gl(2, 1), "gl12": gl(1, 2), "hq": HQ}
EVEN_ALGEBRAS = {"so3": (3, None, SO3), "solvable": (2, None, SOLVABLE), "gl2": GL2, "gl3": GL3}


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
                assert densify(nullspace(sparse, n), n) == dense_nullspace(rows, n)

    def test_kernel_vectors_annihilate(self, rng):
        for _ in range(20):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            for vec in densify(nullspace([dict(enumerate(row)) for row in rows], n), n):
                for row in rows:
                    assert sum(r * v for r, v in zip(row, vec)) == 0

    def test_empty_system(self):
        # no rows: every column is free; no columns: nothing to solve for
        assert densify(nullspace([], 3), 3) == dense_nullspace([], 3) == [
            (1, 0, 0), (0, 1, 0), (0, 0, 1)
        ]
        assert nullspace([], 3) == [{0: 1}, {1: 1}, {2: 1}]  # one entry each
        assert nullspace([{}, {}], 0) == nullspace([], 0) == []
        # integer entries reduce to the same Fractions, held only where nonzero
        assert densify(nullspace([{0: 2, 1: 4}], 2), 2) == [(Fraction(-2), Fraction(1))]
        assert nullspace([{0: 2, 1: 4}, {2: 3}], 3) == [{1: 1, 0: -2}]

    def test_rref_does_not_depend_on_row_order(self):
        # empty and all-zero rows, rows tied on their first column and mixed
        # int and Fraction entries: every order reduces to the same rows
        rng = random.Random(14)
        for _ in range(40):
            n = rng.randint(1, 8)
            leads = rng.sample(range(n), min(n, 2))
            rows = [{}, dict.fromkeys(range(n), 0)]
            for _ in range(rng.randint(1, 8)):
                lead = rng.choice(leads)
                row = {c: rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-5, 5), 3)))
                       for c in range(lead + 1, n) if rng.random() < 0.5}
                row[lead] = rng.choice((-1, 1)) * rng.choice((rng.randint(1, 5), Fraction(5, 3)))
                rows.append(row)
            expected = _rref(rows)
            oracle = dense_nullspace([[row.get(c, 0) for c in range(n)] for row in rows], n)
            assert densify(nullspace(rows, n), n) == oracle
            for _ in range(6):
                rng.shuffle(rows)
                assert _rref(rows) == expected
                assert densify(nullspace(rows, n), n) == oracle

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
                basis = densify(nullspace([dict(enumerate(row)) for row in rows], n), n)
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
            assert decompose(S, s) == Q
        # seeded draws: s of both parities, a random Q, integral and fractional weights
        for lam in (0, 2, -1, Fraction(1, 2), Fraction(-1, 3)):
            for parity in (EVEN, ODD):
                for _ in range(10):
                    s = DensityElement(random_poly(rng, C, parity), lam)
                    Q = random_poly(rng, C)
                    S = attach_correction(s, Q)
                    Q_back = decompose(S, s)
                    assert Q_back == Q
                    assert attach_correction(s, Q_back) == S

    def test_bare_lift_gives_zero_q(self, small_chart):
        C = small_chart
        s = DensityElement(C["x"] * C["#x"], Fraction(0))
        assert decompose(lift(s), s).is_zero()

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
        assert decompose(attach_correction(s, x_f), s) == x_f


def _lifted_residual(s, Q):
    """The residual oracle: (S, S) of the hatted S = lift(s) + Q w, bracketed."""
    return master_check(attach_correction(s, Q))


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
            assert master_residual_of_lift(s, Q) == _lifted_residual(s, Q)

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
        for Q in (casimir_field, C["#x1"]):
            assert master_residual_of_lift(s, Q) == _lifted_residual(s, Q)
        assert master_residual_of_lift(s, casimir_field).is_zero()
        assert not master_residual_of_lift(s, C["#x1"]).is_zero()

    def test_odd_s_residual_vanishes_identically(self, small_chart):
        C = small_chart
        s = DensityElement(C["x"] * C["#y"], Fraction(0))  # odd vector field
        assert s.body.parity() == ODD
        for Q in (C["x"] * C["x"], C["y"], C["x"] * C["y"]):
            assert master_residual_of_lift(s, Q).is_zero()
            assert _lifted_residual(s, Q).is_zero()

    def test_any_parity_of_q_matches_oracle(self, rng):
        # off the ansatz parity the closed form still holds: for even s every
        # part of Q counts, for odd s only the odd part, twice
        C = Chart([("x1", EVEN), ("x2", EVEN), ("x3", EVEN), ("xi", ODD)])
        pi = (
            C["x3"] * C["#x2"] * C["#x1"]
            + C["x1"] * C["#x3"] * C["#x2"]
            + C["x2"] * C["#x1"] * C["#x3"]
        )
        bodies = (pi, C["xi"] * C["#x1"], C["x1"] * C["#x2"] + C["x3"] * C["#x1"],
                  C["xi"] * C["#x1"] * C["#x2"], C.zero())
        nonzero = 0
        for body in bodies:
            s = DensityElement(body, Fraction(0))
            for _ in range(8):
                even, odd = random_poly(rng, C, EVEN), random_poly(rng, C, ODD)
                for Q in (even, odd, even + odd):
                    residual = master_residual_of_lift(s, Q)
                    assert residual == _lifted_residual(s, Q)
                    nonzero += not residual.is_zero()
        assert nonzero > 0

    def test_no_hatted_element_is_built(self, monkeypatch, small_chart):
        # each closed form is computed once: neither function attaches a correction
        calls = []

        def counted(*args):
            calls.append(args)
            return attach_correction(*args)

        monkeypatch.setattr(classify_module, "attach_correction", counted)
        C = Chart([("p", EVEN), ("x", EVEN)])
        density_evolution(Fraction(1, 2) * C["p"] * C["p"], C["x"], C["x"], Fraction(1, 2))
        s = DensityElement(small_chart["x"] * small_chart["#x"], Fraction(0))
        master_residual_of_lift(s, small_chart["#y"])
        assert calls == []

    def test_nonzero_weight_rejected(self, small_chart):
        C = small_chart
        s = DensityElement(C["x"] * C["#x"], Fraction(2))
        with pytest.raises(DomainError):
            master_residual_of_lift(s, C["y"])

    def test_q_on_another_chart_rejected(self, small_chart):
        C = small_chart
        s = DensityElement(C["x"] * C["#x"], Fraction(0))
        for Q in (C.hatted_version()["y"], Chart([("x", EVEN)])["#x"]):
            with pytest.raises(DomainError, match="Q must live on the unhatted chart of s") as err:
                master_residual_of_lift(s, Q)
            assert err.type is ChartMismatchError
            with pytest.raises(DomainError, match="Q must live on the unhatted chart of s") as err:
                attach_correction(s, Q)
            assert err.type is ChartMismatchError

    def test_s_must_be_poisson_and_homogeneous(self):
        C = Chart([("x1", EVEN), ("x2", EVEN), ("x3", EVEN)])
        x1, x3 = C["x1"], C["x3"]
        broken = x3 * C["#x2"] * C["#x1"] + x1 * C["#x3"] * C["#x2"] + x1 * C["#x1"] * C["#x3"]
        with pytest.raises(DomainError, match="s does not satisfy the master equation"):
            master_residual_of_lift(DensityElement(broken, 0), C["x2"])
        mixed = C["#x1"] + C["#x1"] * C["#x2"]  # (s, s) = 0: no term holds a base coordinate
        assert master_check(mixed).is_zero()
        with pytest.raises(DomainError, match="s must be parity homogeneous"):
            master_residual_of_lift(DensityElement(mixed, 0), C["x2"])


def _assert_matches_oracle(s, bound, kb):
    """classify_lifts output vs the dense Gauss-Jordan oracle: the same
    reduced basis over the ansatz order, bit for bit."""
    rows = dense_kernel_matrix(s, kb.ansatz)
    oracle = dense_nullspace(rows, len(kb.ansatz))
    assert kb.basis == tuple(oracle)
    # the elements read off the sparse vectors are the oracle's
    assert kb.elements() == [kb.chart.sum(c * q for c, q in zip(vec, kb.ansatz)) for vec in oracle]
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
        # non-integral image coefficients: so(3) in the basis 5/3 e_i
        g_scaled = change_basis(g_so3, [[Fraction(5, 3) * (i == j) for j in range(3)]
                                        for i in range(3)])
        assert set(g_scaled.constants.values()) == {Fraction(5, 3), Fraction(-5, 3)}
        instances.append((lie_poisson(g_scaled), 1))
        # odd base coordinates: column derivatives carry sign masks, and on
        # gl(1|1) a column is derived by an odd coordinate inside it
        instances.append((DensityElement(de_rham_element(q_manifold_chart(3)), Fraction(0)), 2))
        instances.append((lie_poisson(LieAlgebraData(*SUPER["gl11"])), 1))
        C6 = Chart([(name, EVEN) for name in ("p1", "p2", "p3", "x1", "x2", "x3")])
        instances.append((DensityElement(darboux_form(C6), Fraction(0)), 2))
        for s, bound in instances:
            kb = classify_lifts(s, bound)
            _assert_matches_oracle(s, bound, kb)

    def test_one_table_of_s_per_classification(self, monkeypatch):
        # s's right partial rows are built once per call, not once per column,
        # and a column's left derivatives are read off its key: the one left
        # table is s's own, for the master check.  s keeps both, so a second
        # classification of the same s builds none
        C = Chart([(name, EVEN) for name in ("p1", "p2", "x1", "x2")])
        partial_rows = brackets._partial_rows
        tables = []

        def counted(chart, terms, left):
            tables[-1][left] += 1
            return partial_rows(chart, terms, left)

        monkeypatch.setattr(brackets, "_partial_rows", counted)
        bases = []
        for bound in (1, 3):
            s = DensityElement(darboux_form(C), Fraction(0))
            tables.append([0, 0])  # right, left
            bases.append(classify_lifts(s, bound))
        assert len(bases[0].ansatz) < len(bases[1].ansatz)
        assert tables == [[1, 1], [1, 1]]
        tables.append([0, 0])
        assert classify_lifts(s, 3).vectors == bases[1].vectors
        assert tables[-1] == [0, 0]

    def test_huge_ansatz_rejected(self):
        # the columns are counted before any is enumerated: a huge bound, or
        # a huge fiber degree over odd base coordinates, is a DomainError
        C = Chart([("x", EVEN), ("y", EVEN), ("z", EVEN)])
        with pytest.raises(DomainError, match="666706667400004 columns, over 65536"):
            classify_lifts(DensityElement(C["#x"] * C["#y"], 0), 100000)
        D = Chart([(name, ODD) for name in "abcde"])
        with pytest.raises(DomainError, match="columns, over 65536"):
            classify_lifts(DensityElement(D["#a"] ** 300, 0), 0)
        # the largest recorded system, Darboux n = 8 at bound 4, passes
        C8 = Chart([("p%d" % i, EVEN) for i in range(4)] + [("x%d" % i, EVEN) for i in range(4)])
        assert len(monomial_ansatz(C8, 1, 4, ODD)) == 3960

    @pytest.mark.parametrize("weight, bound, message", [
        (0, 10 ** 5000, "the ansatz may have about 10^15000 columns, over 65536"),
        (0, -10 ** 5000, "bound must be a nonnegative integer, got about -10^5000"),
        (10 ** 5000, 0, "only at weight 0, got weight about 10^5000"),
    ], ids=["huge_bound", "huge_negative_bound", "huge_weight"])
    def test_huge_values_in_messages(self, weight, bound, message):
        # a number past 2,048 bits is named by its size, so the message never
        # meets Python's int/str digit limit, which only the CLI lifts
        C = Chart([("x", EVEN), ("y", EVEN), ("z", EVEN)])
        with pytest.raises(DomainError) as err:
            classify_lifts(DensityElement(C["#x"] * C["#y"], weight), bound)
        assert message in str(err.value)

    def test_ansatz_needs_unhatted_chart(self, small_chart):
        with pytest.raises(DomainError, match="unhatted chart"):
            monomial_ansatz(small_chart.hatted_version(), 1, 0, EVEN)

    def test_inhomogeneous_or_non_poisson_s_rejected(self):
        C = Chart([("x1", EVEN), ("x2", EVEN), ("x3", EVEN)])
        x1, x3 = C["x1"], C["x3"]
        s = x3 * C["#x2"] * C["#x1"] + x1 * C["#x3"] * C["#x2"] + x1 * C["#x1"] * C["#x3"]
        with pytest.raises(DomainError, match="s does not satisfy the master equation"):
            classify_lifts(DensityElement(s, 0), 1)
        # constant coefficients: each s below is Poisson
        with pytest.raises(DomainError, match="fiber-degree homogeneous"):
            classify_lifts(DensityElement(C["#x1"] + C["#x1"] * C["#x2"] * C["#x3"], 0), 1)
        D = Chart([("x", EVEN), ("xi", ODD)])
        with pytest.raises(DomainError, match="parity homogeneous"):
            classify_lifts(DensityElement(D["#x"] + D["xi"] * D["#x"], 0), 1)

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

    def test_ansatz_stops_at_its_budget(self, monkeypatch):
        # 16 odd fiber coordinates at fiber degree 1: the enumeration returns as
        # soon as a pattern exceeds the degree, not after all 2^16 patterns
        C = Chart([("x%d" % i, EVEN) for i in range(16)])
        vectors = classify_module._exponent_vectors
        calls = [0]

        def counted(variables, budget, exact):
            calls[0] += 1
            return vectors(variables, budget, exact)

        monkeypatch.setattr(classify_module, "_exponent_vectors", counted)
        got = monomial_ansatz(C, 1, 0, ODD)
        assert calls[0] < 400
        assert len(got) == 16 and got == reference_monomial_ansatz(C, 1, 0, ODD)

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

    def test_odd_s_kernel_stays_sparse(self):
        # 1,771 columns: the identity basis holds one entry per vector, not n^2
        C = Chart([("x", EVEN), ("y", EVEN), ("z", EVEN)])
        kb = classify_lifts(DensityElement(C["x"] * C["#y"], Fraction(0)), 20)
        n = len(kb.ansatz)
        assert n == kb.dimension == 1771
        assert kb.vectors == tuple({c: 1} for c in range(n))
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

    @pytest.mark.parametrize("weight", [2, Fraction(-1, 2), Fraction(1, 3)])
    def test_even_s_needs_weight_zero(self, weight):
        # at weight 2, #z solves (s, Q) = 0 but lift(s) + #z t^3 #t is not
        # Poisson: the residual gains a term in s Q
        C = Chart([("x", EVEN), ("y", EVEN), ("z", EVEN)])
        s = DensityElement(C["#x"] * C["#y"], weight)
        assert antibracket(s.body, C["#z"]).is_zero()
        if weight == 2:
            h = C.hatted_version()
            residual = -4 * h["#x"] * h["#y"] * h["#z"] * h.t_power(4)
            assert master_check(attach_correction(s, C["#z"])) == residual
        with pytest.raises(DomainError, match="only at weight 0, got weight %s" % weight):
            classify_lifts(s, 0)
        with pytest.raises(WeightOneError):
            classify_lifts(DensityElement(s.body, 1), 0)

    @pytest.mark.parametrize("weight", [2, Fraction(-1, 2), Fraction(1, 3)])
    def test_odd_s_whole_ansatz_at_any_weight(self, weight):
        # (S, S) = 0 for every odd S, so each ansatz element gives a Poisson lift
        C = Chart([("x", EVEN), ("y", EVEN), ("z", EVEN)])
        s = DensityElement(C["x"] * C["#y"] + C["z"] * C["#x"], weight)
        kb = classify_lifts(s, 1)
        assert kb.flagged_odd_base and kb.dimension == len(kb.ansatz) > 0
        for Q in kb.elements():
            assert master_check(attach_correction(s, Q)).is_zero()

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
        assert not super_jacobi_holds(g)
        assert not master_check(lie_poisson(g).body).is_zero()
        with pytest.raises(DomainError):
            supertrace_extension(g)

    def test_antisymmetry_enforced(self):
        with pytest.raises(DomainError):
            LieAlgebraData(2, None, [(0, 1, 1, 1)])  # missing mirror entry

    def test_lengths_and_indices_enforced(self):
        with pytest.raises(DomainError, match="parity list does not match"):
            LieAlgebraData(2, [0])
        with pytest.raises(DomainError, match="name list does not match"):
            LieAlgebraData(2, None, (), ["a", "b", "c"])
        for index in (2, -1):
            with pytest.raises(DomainError, match="index out of range"):
                LieAlgebraData(2, None, [(0, index, 1, 1)])

    def test_constant_lookup_reads_its_indices(self):
        so3 = LieAlgebraData(3, None, [(0, 1, 2, 1), (1, 0, 2, -1), (1, 2, 0, 1),
                                       (2, 1, 0, -1), (2, 0, 1, 1), (0, 2, 1, -1)])
        assert (so3.c(0, 1, 2), so3.c(1, 0, 2), so3.c(Fraction(2), 2, 2)) == (1, -1, 0)
        with pytest.raises(DomainError, match="structure constant index must be an integer, got list"):
            so3.c([1], 0, 0)
        with pytest.raises(DomainError, match=r"structure constant index must be in 0\.\.2, got 3"):
            so3.c(3, 0, 0)

    def test_from_json_path_is_a_string_or_path_object(self, tmp_path):
        # open() takes an int as a file descriptor, which it reads and closes:
        # a number is refused before open(), and a descriptor stays open
        path = tmp_path / "so3.json"
        path.write_text('{"dimension": 3, "constants": []}')
        fd = os.open(path, os.O_RDONLY)
        try:
            for bad in (fd, None, 1.5, [1], 10 ** 5000):
                with pytest.raises(DomainError, match="a Lie algebra file path is a string or "
                                                     "path object, got %s" % type(bad).__name__):
                    LieAlgebraData.from_json(bad)
            os.fstat(fd)
        finally:
            os.close(fd)
        for good in (str(path), os.fsencode(path), path):
            assert LieAlgebraData.from_json(good).dimension == 3

    @pytest.mark.parametrize("args, message", [
        ((Fraction(10 ** 5000 + 1, 2),), "dimension must be an integer, got about 10^5000"),
        ((2, [Fraction(10 ** 5000 + 1, 2), 0]), "parity must be an integer, got about 10^5000"),
        ((Fraction(7, 2),), "dimension must be an integer, got 7/2"),
        ((10 ** 12,), "the dimension must be in 0..4096, got 1000000000000"),
        ((10 ** 5000,), "the dimension must be in 0..4096, got about 10^5000"),
        ((-1,), "the dimension must be in 0..4096, got -1"),
        (([Fraction(10 ** 5000)],), "dimension must be an integer, got list"),
        ((2, [[10 ** 5000], 0]), "parity must be an integer, got list"),
    ], ids=["huge_dimension", "huge_parity", "fractional_dimension", "large_dimension",
            "huge_integral_dimension", "negative_dimension", "list_dimension", "list_parity"])
    def test_dimension_and_parity_values(self, args, message):
        # a value past 2,048 bits is named by its size and a value that is no
        # number by its type, under any int/str digit limit; a dimension is
        # refused before anything of its size is built
        with pytest.raises(DomainError) as err:
            LieAlgebraData(*args)
        assert message in str(err.value)

    def test_largest_dimension_accepted(self):
        assert LieAlgebraData(classify_module.MAX_LIE_DIMENSION).dimension == 4096

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

    @staticmethod
    def _assert_basis_change(g, P):
        # sum_k C'^{ij}_k P[c][k] = sum_{a,b} P[a][i] P[b][j] C^{ab}_c, both sides dense
        h, n = change_basis(g, P), g.dimension
        for i in range(n):
            for j in range(n):
                for c in range(n):
                    assert sum(h.c(i, j, k) * P[c][k] for k in range(n)) == sum(
                        P[a][i] * P[b][j] * g.c(a, b, c) for a in range(n) for b in range(n)
                    )
        return h

    @pytest.mark.parametrize("dimension, constants, bases", [
        (3, SO3, 20), (2, SOLVABLE, 20), (4, GL2[2], 10), (9, GL3[2], 1),
    ], ids=["so3", "solvable", "gl2", "gl3"])
    def test_change_basis_defining_identity(self, rng, dimension, constants, bases):
        g = LieAlgebraData(dimension, None, constants)
        while bases:
            P = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dimension)]
                 for _ in range(dimension)]
            if not dense_nullspace(P, dimension):  # invertible
                self._assert_basis_change(g, P)
                bases -= 1

    def test_odd_square(self, rng):
        # [Q, Q] = 2H: the odd-odd constant leaves phi = 0 in every diagonal basis
        g = LieAlgebraData(2, [0, 1], [(1, 1, 0, 2)])
        assert supertrace_extension(g) == (0, 0)
        for _ in range(10):  # a diagonal basis change keeps the parities
            p, q = (Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) for _ in "pq")
            h = self._assert_basis_change(g, [[p, 0], [0, q]])
            assert h.constants == {(1, 1, 0): 2 * q * q / p}
            assert supertrace_extension(h) == (0, 0)

    def test_even_odd_bracket(self, tmp_path, capsys, monkeypatch):
        # [H, Q] = Q: without the sign (-1)^p_i the two terms of its Lie-Poisson
        # element cancel; with it pi = x2 #x1 #x2, and str ad H = -1
        g = LieAlgebraData(*HQ)
        assert lie_poisson(g).body
        assert supertrace_extension(g) == (-1, 0)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.json").write_text(
            '{"dimension": 2, "parities": [0, 1], "constants": [[1, 2, 2, "1"], [2, 1, 2, "-1"]]}')
        (tmp_path / "g.dsl").write_text('liealg("g.json")\n')
        assert main(["g.dsl"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert "liealg: jacobi PASS\nliealg: supertrace functional (-1, 0)\n" in out and not err

    @staticmethod
    def _parity_preserving_change(rng, g):
        """g in a random basis that keeps each element's parity."""
        n, parities = g.dimension, g.parities
        P = [[Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) * (i == j)
              for j in range(n)] for i in range(n)]
        for _ in range(2 * n):  # row additions between equal parities keep P invertible
            i, j = rng.sample(range(n), 2)
            if parities[i] == parities[j]:
                c = rng.choice((-2, -1, 1, 2))
                P[i] = [a + c * b for a, b in zip(P[i], P[j])]
        return change_basis(g, P)

    @pytest.mark.parametrize("algebra", sorted(SUPER))
    def test_lie_superalgebras(self, rng, algebra):
        # the Lie-Poisson element of a Lie superalgebra is Poisson and phi is
        # str ad, in the given basis and after a parity-preserving change
        g = LieAlgebraData(*SUPER[algebra])
        for h in (g, self._parity_preserving_change(rng, g)):
            assert super_jacobi_holds(h)
            assert master_check(lie_poisson(h).body).is_zero()
            assert supertrace_extension(h) == supertrace_of_ad(h)
        if algebra.startswith("gl"):  # str ad X = str(X) sdim - sdim str(X) = 0
            assert not any(supertrace_of_ad(g))

    @pytest.mark.parametrize("algebra", sorted(EVEN_ALGEBRAS) + sorted(SUPER))
    def test_bracket_reads_constants_back(self, rng, algebra):
        # r_ary_bracket carries the orientation (-1)^{(f+1)(g+1)}, so the
        # derived bracket of pi on two coordinates reads (-1)^p_i C^{ij}_k x_k,
        # in the given basis and after a parity-preserving change
        g = LieAlgebraData(*{**EVEN_ALGEBRAS, **SUPER}[algebra])
        for h in (g, self._parity_preserving_change(rng, g)):
            C, pi = h.chart, lie_poisson(h).body
            x = [C[name] for name in h.names]
            for i, j in itertools.product(range(h.dimension), repeat=2):
                assert r_ary_bracket(pi, [x[i], x[j]]) == C.sum(
                    (-1) ** h.parities[i] * h.c(i, j, k) * x[k] for k in range(h.dimension))

    @pytest.mark.parametrize("algebra", sorted(EVEN_ALGEBRAS) + sorted(SUPER))
    def test_divergence_is_supertrace(self, algebra):
        # the functional against the conftest oracle: div(pi) = sum_j str(ad e_j) #x_j
        g = LieAlgebraData(*{**EVEN_ALGEBRAS, **SUPER}[algebra])
        C = g.chart
        phi = supertrace_of_ad(g)
        assert divergence(lie_poisson(g).body) == C.sum(
            phi[j] * C["#" + name] for j, name in enumerate(g.names))

    def test_one_chart_per_algebra(self):
        g = LieAlgebraData(3, None, SO3)
        s = lie_poisson(g)
        assert s.chart is g.chart
        assert lift(s).chart is g.chart.hatted_version()

    def test_supertrace_builds_no_lift(self, monkeypatch):
        # phi is read off div(s) directly: the lift's t #t term is div(s) itself
        calls = []

        def counted(s):
            calls.append(s)
            return lift(s)

        monkeypatch.setattr(classify_module, "lift", counted)
        for g in (LieAlgebraData(3, None, SO3), LieAlgebraData(2, None, SOLVABLE),
                  LieAlgebraData(*HQ), LieAlgebraData(3)):
            supertrace_extension(g)
        assert calls == []

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
        # the closed form against the direct route through the lifted structure
        C = Chart([("p", EVEN), ("x", EVEN)])
        from densalg.brackets import restrict_to_base

        for _ in range(200):
            H = restrict_to_base(random_poly(rng, C, parity=EVEN))
            f = restrict_to_base(random_poly(rng, C, parity=EVEN))
            psi = restrict_to_base(random_poly(rng, C, parity=EVEN))
            lam = rng.choice([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)])
            assert density_evolution(H, f, psi, lam) == direct_density_evolution(H, f, psi, lam)

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

    def test_inputs_checked(self):
        C = Chart([("p", EVEN), ("x", EVEN)])
        other = Chart([("p", EVEN), ("y", EVEN)])
        for H, f, psi in ((C["p"], other["y"], C["x"]), (C["p"], C["x"], other["y"])):
            with pytest.raises(DomainError, match="H, f, psi must share a chart") as err:
                density_evolution(H, f, psi, 0)
            assert err.type is ChartMismatchError
        with pytest.raises(DomainError, match="H, f, psi must be base functions"):
            density_evolution(C["p"] * C["#x"], C["x"], C["x"], 0)

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
        # one layout check: n even coordinates, then n odd ones for the de Rham
        # examples and n even ones for a Darboux chart
        plane = Chart([("x", EVEN), ("y", EVEN)])
        for call in (lambda: q_manifold_lifts(plane, 1), lambda: de_rham_element(plane),
                     lambda: exterior_derivative(plane["x"] ** 2)):
            with pytest.raises(DomainError, match="expected n even coordinates, then n odd ones"):
                call()
        for chart in (Chart([("x", EVEN), ("dx", ODD), ("y", EVEN), ("dy", ODD)]),
                      Chart([("x", EVEN), ("y", ODD), ("dx", ODD)])):
            with pytest.raises(DomainError, match="then n odd ones"):
                de_rham_element(chart)
        for chart in (q_manifold_chart(1), Chart([("p", EVEN), ("q", EVEN), ("x", EVEN)])):
            with pytest.raises(DomainError, match="expected n even coordinates, then n even ones"):
                darboux_form(chart)
        with pytest.raises(DomainError, match="a Darboux chart is unhatted"):
            darboux_form(plane.hatted_version())
        with pytest.raises(DomainError, match="a density body must live on an unhatted chart"):
            q_manifold_lifts(q_manifold_chart(1).hatted_version(), 1)
        # the empty chart is both layouts, n = 0
        empty = q_manifold_chart(0)
        assert darboux_form(empty).is_zero() and de_rham_element(empty).is_zero()

    def test_lifts_are_the_de_rham_kernel(self, monkeypatch):
        # q_manifold_lifts is classify_lifts of the de Rham element, bit for bit,
        # and re-derives nothing; every basis element is closed, and besides
        # the constant every one is a form of odd degree
        def unused(*args):
            raise AssertionError("q_manifold_lifts re-checks its basis")

        for n in (1, 2, 3):
            chart = q_manifold_chart(n)
            s = DensityElement(de_rham_element(chart), Fraction(0))
            for bound in range(4):
                with monkeypatch.context() as m:
                    m.setattr(classify_module, "exterior_derivative", unused)
                    m.setattr(KernelBasis, "elements", unused)
                    kb = q_manifold_lifts(chart, bound)
                assert kb == classify_lifts(s, bound)
                for theta in kb.elements():
                    assert exterior_derivative(theta).is_zero()
                    assert theta.parity() == ODD or theta == theta.constant_term()
