"""The canonical lift: defining properties and coordinate naturality."""
import itertools
import math
import random
from fractions import Fraction

import pytest

from densalg import (
    Chart,
    ChartMismatchError,
    CoordinateChange,
    DensityElement,
    DomainError,
    EVEN,
    ODD,
    SubstitutionError,
    UnknownVariableError,
    WeightOneError,
    antibracket,
    base_bracket,
    delta_op,
    divergence,
    lift,
    lift_commutes_check,
    project_to_density,
    transform_density,
    transform_hatted,
)
from densalg.printing import poly_to_text
from densalg.spoly import _Substitution
from conftest import hatted_poly, random_poly, reference_substitute

WEIGHTS = [Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(2)]


class TestLiftProperties:
    def test_projection_inverts_lift(self, rng, small_chart):
        for lam in WEIGHTS:
            for _ in range(50):
                s = DensityElement(random_poly(rng, small_chart), lam)
                if s.body.is_zero():
                    continue
                assert project_to_density(lift(s)) == [s]

    def test_lift_is_delta_closed(self, rng, small_chart):
        for lam in WEIGHTS:
            for _ in range(50):
                s = DensityElement(random_poly(rng, small_chart), lam)
                assert delta_op(lift(s)).is_zero()

    def test_lift_preserves_grading(self, rng, small_chart):
        for lam in WEIGHTS:
            for parity in (EVEN, ODD):
                for _ in range(25):
                    s = DensityElement(random_poly(rng, small_chart, parity), lam)
                    L = lift(s)
                    if L.is_zero():
                        continue
                    assert L.parity() == s.body.parity()
                    assert L.weight() == lam
                    assert L.fiber_degree() == s.body.fiber_degree()

    def test_lift_builds_no_charts(self, rng, small_chart, monkeypatch):
        elements = [DensityElement(random_poly(rng, small_chart), lam) for lam in WEIGHTS]
        hatted = lift(elements[0]).chart  # the hatted chart is built here, once
        built = []
        init = Chart.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Chart, "__init__", counting_init)
        for _ in range(5):
            for s in elements:
                assert lift(s).chart is hatted
        assert built == []

    def test_weight_one_raises(self, small_chart):
        s = DensityElement(small_chart["x"], Fraction(1))
        with pytest.raises(WeightOneError):
            lift(s)

    def test_closed_form(self, small_chart):
        # lift(s) = s t^l + 1/(1-l) t^(l+1) #t div(s), written out by hand
        C = small_chart
        h = C.hatted_version()
        s = C["x"] * C["x"] * C["#x"]
        lam = Fraction(3)
        expected = s.transport(h) * h.t_power(3) + Fraction(1, 1 - 3) * (
            h.t_power(4) * (h["#t"] * divergence(s).transport(h))
        )
        assert lift(DensityElement(s, lam)) == expected


class TestLiftCommutes:
    def test_residual_zero_on_weight_grid(self, rng, small_chart):
        C = small_chart
        for lam, mu in itertools.product(WEIGHTS, WEIGHTS):
            if 1 in (lam, mu, lam + mu):
                continue
            for ps, pu in itertools.product((EVEN, ODD), repeat=2):
                for _ in range(4):
                    s = DensityElement(random_poly(rng, C, ps), lam)
                    u = DensityElement(random_poly(rng, C, pu), mu)
                    assert lift_commutes_check(s, u).is_zero()

    def test_weight_sum_one_raises(self, small_chart):
        C = small_chart
        s = DensityElement(C["x"] * C["#x"], Fraction(1, 2))
        u = DensityElement(C["y"], Fraction(1, 2))
        with pytest.raises(WeightOneError):
            lift_commutes_check(s, u)

    def test_base_bracket_refusals(self, small_chart):
        C = small_chart
        for lam, mu in ((1, 0), (0, 1)):
            with pytest.raises(WeightOneError, match="singular at weight 1"):
                base_bracket(DensityElement(C["x"] * C["#x"], lam), DensityElement(C["y"], mu))
        with pytest.raises(ChartMismatchError, match="density elements live on different charts"):
            base_bracket(DensityElement(C["x"] * C["#x"], 0),
                         DensityElement(Chart([("x", EVEN)])["x"], 0))

    def test_base_bracket_reduces_at_weight_zero(self, rng, small_chart):
        for _ in range(50):
            s = DensityElement(random_poly(rng, small_chart), Fraction(0))
            u = DensityElement(random_poly(rng, small_chart), Fraction(0))
            assert base_bracket(s, u).body == antibracket(s.body, u.body)


class TestWorkedExamples:
    def test_vector_field_lift(self):
        # X = X^a(x) x*_a lifts to X + w div(X) at weight 0
        C = Chart([("x", EVEN)])
        h = C.hatted_version()
        X = C["x"] * C["x"] * C["#x"]
        lifted = lift(DensityElement(X, Fraction(0)))
        assert poly_to_text(lifted) == "x^2*#x + 2*x*w"
        assert lifted == X.transport(h) + h.w_star() * divergence(X).transport(h)

    def test_bivector_lift(self):
        # x x*_x x*_y lifts with correction -x*_y w
        C = Chart([("x", EVEN), ("y", EVEN)])
        P = C["x"] * C["#x"] * C["#y"]
        lifted = lift(DensityElement(P, Fraction(0)))
        assert poly_to_text(lifted) == "x*#x*#y - #y*w"

    def test_darboux_lift_has_zero_correction(self):
        from densalg.classify import darboux_form

        C = Chart([("p", EVEN), ("x", EVEN)])
        omega = darboux_form(C)
        h = C.hatted_version()
        assert lift(DensityElement(omega, Fraction(0))) == omega.transport(h)


def _linear_change(rng, n, names_src, names_tgt):
    """Random invertible integer linear change between two n-dim charts."""
    while True:
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if _leibniz_det(A):
            break
    src = Chart([(nm, EVEN) for nm in names_src], name="src")
    tgt = Chart([(nm, EVEN) for nm in names_tgt], name="tgt")
    Ainv = _inverse(A)
    forward = {}
    inverse = {}
    for i, nm in enumerate(names_src):
        acc = tgt.zero()
        for j, tm in enumerate(names_tgt):
            acc = acc + A[i][j] * tgt[tm]
        forward[nm] = acc
    for i, tm in enumerate(names_tgt):
        acc = src.zero()
        for j, nm in enumerate(names_src):
            acc = acc + Ainv[i][j] * src[nm]
        inverse[tm] = acc
    return CoordinateChange(src, tgt, forward, inverse)


def _leibniz_det(A):
    """The determinant as the signed sum over permutations (1 for n = 0)."""
    n = len(A)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(A[i][j] for i, j in enumerate(perm))
    return total


def _inverse(A):
    n = len(A)
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        pr = next(i for i in range(c, n) if M[i][c])
        M[c], M[pr] = M[pr], M[c]
        pv = M[c][c]
        M[c] = [x / pv for x in M[c]]
        for i in range(n):
            if i != c and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return [row[n:] for row in M]


def _unipotent_change():
    src = Chart([("x", EVEN), ("y", EVEN)], name="old")
    tgt = Chart([("u", EVEN), ("v", EVEN)], name="new")
    forward = {"x": tgt["u"] + tgt["v"] * tgt["v"], "y": tgt["v"]}
    inverse = {"u": src["x"] - src["y"] * src["y"], "v": src["y"]}
    return CoordinateChange(src, tgt, forward, inverse)


_ENTRIES = (-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-1, 3))


def _affine_unipotent_change(rng, n, quadratic):
    """x = A T(u) + b with A a random invertible rational matrix and b a random
    shift; T(u)_i = u_i + a_i u_j u_k with j, k > i when `quadratic`, else u_i."""
    src = Chart([("x%d" % i, EVEN) for i in range(n)], name="old")
    tgt = Chart([("u%d" % i, EVEN) for i in range(n)], name="new")
    while True:
        A = [[rng.choice(_ENTRIES) for _ in range(n)] for _ in range(n)]
        if _leibniz_det(A):
            break
    Ainv = _inverse(A)
    b = [rng.choice(_ENTRIES) for _ in range(n)]
    shears = [(rng.choice((-1, 2, Fraction(1, 3))), rng.randrange(i + 1, n), rng.randrange(i + 1, n))
              if quadratic and i < n - 1 else (0, i, i) for i in range(n)]
    u = [tgt["u%d" % i] for i in range(n)]
    x = [src["x%d" % i] for i in range(n)]
    T = [u[i] + a * u[j] * u[k] for i, (a, j, k) in enumerate(shears)]
    forward = {"x%d" % i: tgt.sum(A[i][j] * T[j] for j in range(n)) + b[i] for i in range(n)}
    v = [src.sum(Ainv[i][j] * (x[j] - b[j]) for j in range(n)) for i in range(n)]
    for i in reversed(range(n)):  # undo T from the last coordinate up
        a, j, k = shears[i]
        v[i] = v[i] - a * v[j] * v[k]
    return CoordinateChange(src, tgt, forward, {"u%d" % i: v[i] for i in range(n)})


class TestCoordinateChanges:
    def test_identity_change(self, rng):
        src = Chart([("x", EVEN), ("y", EVEN)], name="a")
        tgt = Chart([("x", EVEN), ("y", EVEN)], name="b")
        ch = CoordinateChange(
            src,
            tgt,
            {"x": tgt["x"], "y": tgt["y"]},
            {"x": src["x"], "y": src["y"]},
        )
        assert ch.jac_det == 1
        for lam in WEIGHTS:
            for _ in range(20):
                s = DensityElement(random_poly(rng, src), lam)
                assert transform_hatted(lift(s), ch) == lift(transform_density(s, ch))

    def test_linear_changes(self, rng):
        for _ in range(8):
            ch = _linear_change(rng, 2, ["x", "y"], ["u", "v"])
            lams = [Fraction(0), Fraction(-1), Fraction(2)]
            if abs(ch.jac_det) in (1, 4):
                lams.append(Fraction(1, 2))
            for lam in lams:
                for _ in range(6):
                    s = DensityElement(random_poly(rng, ch.source), lam)
                    assert transform_hatted(lift(s), ch) == lift(
                        transform_density(s, ch)
                    )

    def test_unipotent_quadratic_change(self, rng):
        ch = _unipotent_change()
        assert ch.jac_det == 1
        for lam in WEIGHTS:
            for _ in range(20):
                s = DensityElement(random_poly(rng, ch.source), lam)
                assert transform_hatted(lift(s), ch) == lift(transform_density(s, ch))

    @staticmethod
    def _check_fiber_law(ch, rng):
        # transformation law of the hatted momenta, coded independently:
        # #a -> (d new^b / d a) #b + c_a w with c_a = sum_(b,c) (d^2 new^b / da dc)
        # (d c / d new^b) = tr(J^-1 dJ/da) = d/da log|det J|, identically zero
        # on the constant-Jacobian domain this package supports
        src, tgt = ch.source, ch.target
        hsrc, htgt = src.hatted_version(), tgt.hatted_version()
        sb = [w for w, _ in src.base_pairs()]
        tb = [w for w, _ in tgt.base_pairs()]
        for a in sb:
            expected = htgt.zero()
            scalar = tgt.zero()
            for b in tb:
                g = ch.inverse[b]  # new^b as a function of the old coords
                d1 = g.derive_left(a).substitute(
                    {w: ch.forward[w] for w in sb}, target=tgt
                )
                expected = expected + d1.transport(htgt) * htgt["#" + b.name]
                for c in sb:
                    d2 = g.derive_left(a).derive_left(c).substitute(
                        {w: ch.forward[w] for w in sb}, target=tgt
                    )
                    if d2:
                        scalar = scalar + d2 * ch.forward[c].derive_left(b)
            assert scalar.is_zero()
            w_term = scalar.transport(htgt) * htgt.w_star()
            assert transform_hatted(hsrc["#" + a.name], ch) == expected + w_term
        # and naturality holds on the change
        lams = WEIGHTS if abs(ch.jac_det) in (1, 4) else [Fraction(0), Fraction(-1), Fraction(2)]
        for lam in lams:
            s = DensityElement(random_poly(rng, src), lam)
            assert transform_hatted(lift(s), ch) == lift(transform_density(s, ch))

    def test_fiber_transform_second_derivative_term(self):
        src = Chart([("x", EVEN), ("y", EVEN)], name="old")
        tgt = Chart([("u", EVEN), ("v", EVEN)], name="new")
        u, v = tgt["u"], tgt["v"]
        x, y = src["x"], src["y"]
        # composite of two unipotent shears; constant Jacobian 1 but the
        # second derivatives in the w coefficient do not vanish one by one
        forward = {"x": u + v * v, "y": v + (u + v * v) ** 2}
        inverse = {"v": y - x * x, "u": x - (y - x * x) ** 2}
        ch = CoordinateChange(src, tgt, forward, inverse)
        assert ch.jac_det == 1
        self._check_fiber_law(ch, random.Random(7))

    @pytest.mark.parametrize("seed", range(6))
    def test_fiber_transform_random_triangular(self, seed):
        # x_i = c_i u_i + a_i u_(i+1)^2 + b_i u_k with k > i: triangular with
        # constant det prod c_i; the last seed flips one sign for det < 0
        rng = random.Random(seed)
        n = 2 + seed % 3
        src = Chart([("x%d" % i, EVEN) for i in range(n)], name="old")
        tgt = Chart([("u%d" % i, EVEN) for i in range(n)], name="new")
        scales = [rng.choice((1, 1, 2, Fraction(1, 2))) for _ in range(n)]
        if seed == 5:
            scales[rng.randrange(n)] *= -1
        forward, inverse = {}, {}
        for i in reversed(range(n)):
            later = range(i + 1, n)
            a, b = (rng.choice((-2, -1, 1, Fraction(1, 3))) for _ in range(2))
            img, pre = scales[i] * tgt["u%d" % i], src["x%d" % i]
            if later:
                j, k = i + 1, rng.choice(later)
                img = img + a * tgt["u%d" % j] ** 2 + b * tgt["u%d" % k]
                pre = pre - a * inverse["u%d" % j] ** 2 - b * inverse["u%d" % k]
            forward["x%d" % i], inverse["u%d" % i] = img, pre / scales[i]
        ch = CoordinateChange(src, tgt, forward, inverse)
        assert ch.jac_det == math.prod(scales)
        assert (ch.jac_det < 0) == (seed == 5)
        self._check_fiber_law(ch, rng)

    def test_weight_scaling(self, rng):
        # scaling chart by 2 in one coordinate: |J| = 1/2 going forward
        src = Chart([("x", EVEN)], name="s")
        tgt = Chart([("u", EVEN)], name="g")
        ch = CoordinateChange(src, tgt, {"x": 2 * tgt["u"]}, {"u": Fraction(1, 2) * src["x"]})
        assert ch.jac_det == 2
        s = DensityElement(src["x"], Fraction(3))
        out = transform_density(s, ch)
        assert out.body == 8 * (2 * tgt["u"])  # 2^3 * (2u)
        # a tail t^(1/10^9) would pick up 2^(1/10^9), which is not rational
        h = src.hatted_version()
        with pytest.raises(SubstitutionError):
            transform_hatted(h["x"] * h.t_power(Fraction(1, 10**9)), ch)
        # a tail t^(10^9) would pick up 2^(10^9), past the constant power limit
        with pytest.raises(DomainError, match="exceeds"):
            transform_hatted(h["x"] * h.t_power(10**9), ch)

    def test_one_prepared_substitution_per_change(self, rng, monkeypatch):
        # every tail and density of a change goes through the substitution it prepared
        src = Chart([("x", EVEN), ("y", EVEN)], name="old")
        tgt = Chart([("u", EVEN), ("v", EVEN)], name="new")
        ch = CoordinateChange(src, tgt, {"x": tgt["u"] + tgt["v"] ** 2, "y": tgt["v"]},
                              {"u": src["x"] - src["y"] ** 2, "v": src["y"]})
        prepared = []
        init = _Substitution.__init__

        def counting_init(self, *args, **kwargs):
            prepared.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_Substitution, "__init__", counting_init)
        hsrc = src.hatted_version()
        for _ in range(5):
            S = hatted_poly(rng, hsrc, n_terms=6)
            assert len(S.tails()) > 1
            transform_hatted(S, ch)
            transform_density(DensityElement(random_poly(rng, src), Fraction(1, 2)), ch)
        assert prepared == []

    def test_orientation_strict_mode(self):
        src = Chart([("x", EVEN)], name="s")
        tgt = Chart([("u", EVEN)], name="g")
        ch = CoordinateChange(src, tgt, {"x": -tgt["u"]}, {"u": -src["x"]})
        assert ch.jac_det == -1
        s = DensityElement(src["x"], Fraction(2))
        # the API always uses |det J|; refusing the change is the DSL's strict
        # mode, tested through the CLI
        assert transform_density(s, ch).body == -tgt["u"]
        zero = src.hatted_version().zero()
        assert transform_hatted(zero, ch) == tgt.hatted_version().zero()

    def test_transform_hatted_matches_substitution(self, rng):
        # tail by tail equals one substitution of the whole element with
        # t -> |J| t and #t -> #t/|J|, as the substitution oracle computes it
        src = Chart([("x", EVEN), ("y", EVEN)], name="old")
        tgt = Chart([("u", EVEN), ("v", EVEN)], name="new")
        u, v, x, y = tgt["u"], tgt["v"], src["x"], src["y"]
        for sign in (1, -1):  # |J| = 4 keeps t^(1/2) rational
            ch = CoordinateChange(src, tgt, {"x": sign * 2 * u + v * v, "y": 2 * v},
                                  {"u": sign * (x - y * y / 4) / 2, "v": y / 2})
            assert ch.jac_det == 4 * sign
            hsrc, htgt = src.hatted_version(), tgt.hatted_version()
            images = {hsrc.var(w.name): img.transport(htgt) for w, img in ch.images.items()}
            images[hsrc.t_var] = 4 * htgt["t"]
            images[hsrc.var("#t")] = htgt["#t"] / 4
            for _ in range(10):
                S = hatted_poly(rng, hsrc, n_terms=5)
                assert transform_hatted(S, ch) == reference_substitute(S, images, htgt)

    def test_inexact_inverse_rejected(self):
        src = Chart([("x", EVEN)], name="s")
        tgt = Chart([("u", EVEN)], name="g")
        with pytest.raises(Exception):
            CoordinateChange(src, tgt, {"x": 2 * tgt["u"]}, {"u": src["x"]})

    def test_bad_charts_and_maps_rejected(self):
        src = Chart([("x", EVEN), ("y", EVEN)], name="s")
        tgt = Chart([("u", EVEN), ("v", EVEN)], name="g")
        forward, inverse = {"x": tgt["u"], "y": tgt["v"]}, {"u": src["x"], "v": src["y"]}
        for a, b, message in [
            (src.hatted_version(), tgt, "connect unhatted charts"),
            (src, tgt.hatted_version(), "connect unhatted charts"),
            (Chart([("x", EVEN), ("y", ODD)]), tgt, "restricted to even coordinates"),
            (src, Chart([("u", EVEN)]), "different dimension"),
        ]:
            with pytest.raises(DomainError, match=message):
                CoordinateChange(a, b, forward, inverse)
        with pytest.raises(DomainError, match="cover exactly the base coordinates"):
            CoordinateChange(src, tgt, {"x": tgt["u"]}, inverse)
        with pytest.raises(DomainError, match="image of y is not a base function"):
            CoordinateChange(src, tgt, {"x": tgt["u"], "y": tgt["#v"]}, inverse)
        with pytest.raises(DomainError, match="image of v is not a base function"):
            CoordinateChange(src, tgt, forward, {"u": src["x"], "v": tgt["v"]})
        # forward x = u + v^2 against the identity inverse: x + y^2 comes back
        with pytest.raises(DomainError, match="not exact for x"):
            CoordinateChange(src, tgt, {"x": tgt["u"] + tgt["v"] ** 2, "y": tgt["v"]}, inverse)
        # every key is a coordinate name, read through Chart.var
        for key, message in ((src.var("x"), "no variable Variable"), ("z", "no variable 'z'")):
            with pytest.raises(UnknownVariableError, match=message):
                CoordinateChange(src, tgt, {key: tgt["u"], "y": tgt["v"]}, inverse)

    def test_transforms_need_the_source_chart(self):
        src = Chart([("x", EVEN)], name="s")
        tgt = Chart([("u", EVEN)], name="g")
        ch = CoordinateChange(src, tgt, {"x": tgt["u"]}, {"u": src["x"]})
        with pytest.raises(ChartMismatchError, match="density lives on the wrong chart"):
            transform_density(DensityElement(tgt["u"], 0), ch)
        for S in (src["x"], tgt.hatted_version()["u"]):
            with pytest.raises(ChartMismatchError, match="S must live on the hatted source chart"):
                transform_hatted(S, ch)

    def test_nonconstant_jacobian_rejected(self):
        src = Chart([("x", EVEN)], name="s")
        tgt = Chart([("u", EVEN)], name="g")
        with pytest.raises(Exception):
            CoordinateChange(
                src, tgt, {"x": tgt["u"] * tgt["u"]}, {"u": src["x"]}
            )


class TestJacobianDeterminant:
    def test_seven_coordinate_unipotent_change(self):
        n = 7
        src = Chart([("x%d" % i, EVEN) for i in range(n)], name="old")
        tgt = Chart([("u%d" % i, EVEN) for i in range(n)], name="new")
        x = [src["x%d" % i] for i in range(n)]
        u = [tgt["u%d" % i] for i in range(n)]
        # x_i = u_i + u_(i+1), and x_0 also gets u_6^2: a unit upper triangular Jacobian
        forward = [u[i] + u[i + 1] for i in range(n - 1)] + [u[n - 1]]
        forward[0] = forward[0] + u[n - 1] ** 2
        inverse = [x[n - 1]]
        for i in range(n - 2, -1, -1):
            inverse.insert(0, x[i] - inverse[0])
        inverse[0] = inverse[0] - x[n - 1] ** 2
        ch = CoordinateChange(src, tgt, {"x%d" % i: f for i, f in enumerate(forward)},
                              {"u%d" % i: g for i, g in enumerate(inverse)})
        assert ch.jac_det == 1

    def test_scaled_linear_change(self):
        scales = [Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5), Fraction(-1, 7)]
        n = len(scales)
        src = Chart([("x%d" % i, EVEN) for i in range(n)], name="old")
        tgt = Chart([("u%d" % i, EVEN) for i in range(n)], name="new")
        ch = CoordinateChange(
            src, tgt,
            {"x%d" % i: c * tgt["u%d" % i] for i, c in enumerate(scales)},
            {"u%d" % i: src["x%d" % i] / c for i, c in enumerate(scales)},
        )
        assert ch.jac_det == Fraction(15, 7)

    def test_matches_permutation_expansion(self):
        # jac_det, read off the fiber coordinates, against the permutation sum
        # over the forward map's linear part: on seeded affine changes, n = 0..5,
        # and affine after unipotent quadratic ones, n <= 3
        rng = random.Random(20)
        shapes = [(0, False)] + [(n, False) for n in range(1, 6)] * 8 + [(n, True) for n in range(1, 4)] * 8
        dets = []
        for n, quadratic in shapes:
            ch = _affine_unipotent_change(rng, n, quadratic)
            sb = [v for v, _ in ch.source.base_pairs()]
            tb = [w for w, _ in ch.target.base_pairs()]
            linear = [[ch.forward[v].derive_left(w).constant_term() for w in tb] for v in sb]
            assert ch.jac_det == _leibniz_det(linear)
            dets.append(ch.jac_det)
        assert any(d < 0 for d in dets) and any(d.denominator > 1 for d in dets)
