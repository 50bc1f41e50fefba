"""Core supercommutative polynomial algebra."""
import math
import random
from fractions import Fraction

import pytest

from densalg import (
    ANY,
    Chart,
    ChartMismatchError,
    DensityElement,
    DomainError,
    EVEN,
    MIXED,
    ODD,
    SPoly,
    SubstitutionError,
    UnknownVariableError,
    antibracket,
    classify_lifts,
)
from densalg.classify import darboux_form
from densalg.spoly import _exact_root, _partial_rows, _Substitution, rational_power
from conftest import (
    dense, hatted_poly, random_poly, reference_derivative, reference_product,
    reference_substitute, sparse,
)


def stored_fractions(f):
    """Every stored coefficient and exponent that is an integral Fraction; the
    exponents are read from every slot, so a Fraction(0) is one too."""
    values = list(f.terms.values()) + [e for key in f.terms for e in key]
    return [x for x in values if isinstance(x, Fraction) and x.denominator == 1]


def partials(f, left):
    """Every partial derivative of f from one `_partial_rows` pass, as
    {variable index: derivative}."""
    return {i: SPoly(f.chart, {k: c for k, c, _, _ in rows})
            for i, rows in _partial_rows(f.chart, f.terms, left).items()}


class TestBasics:
    def test_odd_square_is_zero(self, chart):
        assert (chart["xi"] * chart["xi"]).is_zero()
        assert (chart["#x"] * chart["#x"]).is_zero()

    def test_odd_anticommute(self, chart):
        xi, eta = chart["xi"], chart["eta"]
        assert xi * eta == -(eta * xi)

    def test_even_commute(self, chart):
        x, y = chart["x"], chart["y"]
        assert x * y == y * x

    def test_fiber_parities(self, chart):
        # fiber partners flip parity
        assert chart.var("#x").parity == ODD
        assert chart.var("#xi").parity == EVEN

    def test_grades(self, chart):
        # parity, weight and fiber degree: ANY on 0, the grade of a homogeneous
        # polynomial, MIXED once two terms differ
        h = chart.hatted_version()
        f = (h["x"] * h["#x"] + 2 * h["y"] * h["#y"]) * h.t_power(2) * h["#t"]
        mixed = f + h["#x"]
        for grade, value in (("parity", EVEN), ("weight", 1), ("fiber_degree", 2)):
            assert getattr(h.zero(), grade)() is ANY
            found = getattr(f, grade)()
            assert found == value and found is not ANY
            assert getattr(mixed, grade)() is MIXED

    def test_hatted_chart_extras(self, chart):
        h = chart.hatted_version()
        assert h.t_var.parity == EVEN and h.t_var.weight == 1
        assert h.var("#t").parity == ODD and h.var("#t").weight == -1
        assert h.w_star() == h["t"] * h["#t"]

    def test_counterparts_are_built_once(self, chart):
        named = Chart(chart.base_coords, name="N")
        h = named.hatted_version()
        assert h is named.hatted_version() and h.hatted and h.name == "N"
        assert h.unhatted_version() is named and named.unhatted_version() is named
        assert h.hatted_version() is h
        other = Chart(chart.base_coords, hatted=True)
        assert other.unhatted_version() is other.unhatted_version()
        assert other.unhatted_version().hatted_version() is other

    def test_scalar_ops(self, chart):
        x = chart["x"]
        assert 2 * x == x + x
        assert x / 2 == Fraction(1, 2) * x
        assert (x - x).is_zero()
        assert x ** 3 == x * x * x

    # past the fourth: a fiber name as a base name, and names that print as no DSL name token
    @pytest.mark.parametrize("coords", [[("x", 2)], [("x", EVEN), ("x", ODD)], [("w", EVEN)],
                                        [(1, EVEN)], [("b", EVEN), ("#b", EVEN)], [("a b", EVEN)],
                                        [("2c", EVEN)], [("", EVEN)], [("x-y", ODD)]])
    def test_bad_chart_is_domain_error(self, coords):
        with pytest.raises(DomainError):
            Chart(coords)

    def test_negative_power_is_domain_error(self, chart):
        with pytest.raises(DomainError):
            chart["x"] ** -1


class TestRandomizedLaws:
    def test_power_within_its_result_bound(self, rng, chart):
        # a power whose bound fits is computed without checking its products, so
        # every power stays within it: at most comb(n + t - 1, n) terms, and for
        # integral exponents at most the product over variables of their numbers
        # of exponent sums, each coefficient D^-n times an integer of at most S^n,
        # S = D * sum |c|
        hchart = chart.hatted_version()
        for _ in range(150):
            f = random_poly(rng, chart, EVEN, rng.randint(1, 4)) if rng.random() < 0.5 \
                else hatted_poly(rng, hchart, rng.randint(1, 3))
            n = rng.randint(1, 5)
            power = f ** n
            product = f
            for _ in range(n - 1):
                product = product * f
            assert power == product
            coeffs = f.terms.values()
            D = math.lcm(*(Fraction(c).denominator for c in coeffs))
            S = sum(abs(c) for c in coeffs) * D
            assert len(power.terms) <= math.comb(n + len(coeffs) - 1, n)
            if all(Fraction(e).denominator == 1 for key in f.terms for e in key):
                # n * (max - min) + 1 exponent sums per variable
                assert len(power.terms) <= math.prod(n * (max(exps) - min(exps)) + 1
                                                     for exps in zip(*f.terms))
            assert all(max(abs(Fraction(c).numerator), Fraction(c).denominator) <= max(S, D) ** n
                       for c in power.terms.values())

    def test_supercommutativity(self, rng, chart):
        for _ in range(200):
            f = random_poly(rng, chart)
            g = random_poly(rng, chart)
            fp, gp = f.parity(), g.parity()
            sign = -1 if (fp is not ANY and gp is not ANY and fp * gp % 2) else 1
            assert f * g == sign * (g * f)

    def test_associativity(self, rng, chart):
        for _ in range(200):
            f = random_poly(rng, chart)
            g = random_poly(rng, chart)
            h = random_poly(rng, chart)
            assert (f * g) * h == f * (g * h)

    def test_distributivity(self, rng, chart):
        for _ in range(200):
            f = random_poly(rng, chart)
            g = random_poly(rng, chart)
            h = random_poly(rng, chart)
            assert f * (g + h) == f * g + f * h

    def test_grading_additivity(self, rng, chart):
        hchart = chart.hatted_version()
        for _ in range(200):
            f = random_poly(rng, hchart)
            g = random_poly(rng, hchart)
            p = f * g
            if p.is_zero():
                continue
            for grade in ("parity", "weight", "fiber_degree"):
                gf = getattr(f, grade)()
                gg = getattr(g, grade)()
                gp = getattr(p, grade)()
                if MIXED in (gf, gg, gp):
                    continue
                expected = gf + gg
                if grade == "parity":
                    expected %= 2
                assert gp == expected

    def test_no_stored_zero(self, rng, chart):
        # cancelling sums and odd squares must drop a term, never store a 0
        hchart = chart.hatted_version()
        x, xi = hchart.var("x"), hchart.var("xi")
        for _ in range(100):
            f = random_poly(rng, hchart)
            g = random_poly(rng, hchart)
            h = random_poly(rng, hchart, parity=ODD)
            v = rng.choice(hchart.variables)
            results = [
                f + g, f + (-f), f - g, f - f, f * g, f * f, h * h,
                f.derive_left(v), f.derive_right(v),
                f.substitute({x: g.parity_components()[0] + 1, xi: h}),
                antibracket(f, g), antibracket(f, f),
            ]
            for r in results:
                assert all(r.terms.values())
        # t^(1/2) keys and fractional coefficients; graded symmetry makes the
        # bracket of an odd h with itself 0, so its terms cancel in one map
        for _ in range(60):
            f = hatted_poly(rng, hchart)
            g = hatted_poly(rng, hchart)
            h = f.parity_components()[1]
            hh = antibracket(h, h)
            assert hh.is_zero()
            results = [
                f + g, f + (-f), f - g, f * g, f * f, h * h,
                antibracket(f, g), antibracket(f, f), antibracket(g, h), hh,
            ]
            for r in results:
                assert all(r.terms.values())

    def test_integral_values_are_ints(self, rng, chart):
        # 1/2 * 2 and t^(1/2) * t^(1/2) must come out as int 1, not Fraction(1)
        hchart = chart.hatted_version()
        x, xi = hchart.var("x"), hchart.var("xi")
        for _ in range(60):
            f = hatted_poly(rng, hchart)
            g = hatted_poly(rng, hchart)
            h = random_poly(rng, hchart, parity=ODD)
            v = rng.choice(hchart.variables)
            results = [
                f + g, f - g, f * g, g * f, f * Fraction(2, 3), f * 2, f / Fraction(1, 2),
                f.derive_left(v), f.derive_right(v),
                f.substitute({x: g.parity_components()[0] + 1, xi: h}),
                f.substitute({hchart.t_var: 4 * hchart["t"]}),
                antibracket(f, g), hchart.t_power(Fraction(2)), hchart.const(Fraction(4, 2)),
            ]
            for left in (True, False):
                results += partials(f, left).values()
            for r in results:
                assert stored_fractions(r) == []
                for key in r.terms:
                    assert len(key) == len(hchart.variables)
                    assert all(e in (0, 1) for e, bit in zip(key, hchart.odd_bits) if bit)

    def test_public_values_are_fractions(self, rng, chart):
        f = random_poly(rng, chart) * chart["x"] + 3
        assert type(f.constant_term()) is Fraction and f.constant_term() == 3
        assert type(f.coefficient(next(iter(f.terms)))) is Fraction
        assert type(f.coefficient(dense(chart, ((0, 7),)))) is Fraction
        s = DensityElement(darboux_form(Chart([("x", EVEN), ("y", EVEN)])), 0)
        kb = classify_lifts(s, 1)
        assert kb.dimension
        assert all(type(c) is Fraction for vec in kb.basis for c in vec)

    def test_parity_twist(self, rng, chart):
        # (-1)^parity per term: even - odd, an involution, multiplicative, and
        # anticommuting with the odd bracket
        hchart = chart.hatted_version()
        for _ in range(100):
            for draw in (random_poly, hatted_poly):
                f, g = draw(rng, hchart), draw(rng, hchart)
                even, odd = f.parity_components()
                assert f.parity_twist() == even - odd
                assert f.parity_twist().parity_twist() == f
                assert (f * g).parity_twist() == f.parity_twist() * g.parity_twist()
                assert (antibracket(f, g).parity_twist()
                        == -antibracket(f.parity_twist(), g.parity_twist()))

    def test_product_against_oracle(self, rng, chart):
        hchart = chart.hatted_version()
        for _ in range(150):
            f = hatted_poly(rng, hchart)
            g = hatted_poly(rng, hchart)
            assert f * g == reference_product(hchart, f, g)


class TestDerivatives:
    def test_against_sign_counting_oracle(self, rng, chart):
        for _ in range(200):
            f = random_poly(rng, chart, n_terms=4)
            v = rng.choice(chart.variables)
            for left in (True, False):
                expected = {}
                for key, coeff in f.terms.items():
                    for k, c in reference_derivative(chart, key, coeff, v, left).items():
                        expected[k] = expected.get(k, Fraction(0)) + c
                expected = {k: c for k, c in expected.items() if c}
                got = f.derive_left(v) if left else f.derive_right(v)
                assert got == SPoly(chart, expected)
                assert partials(f, left).get(v.index, chart.zero()) == SPoly(chart, expected)

    def test_left_product_rule(self, rng, chart):
        for _ in range(200):
            f = random_poly(rng, chart)
            g = random_poly(rng, chart)
            v = rng.choice(chart.variables)
            fp = f.parity()
            if fp is MIXED:
                continue
            sign = -1 if (fp is not ANY and v.parity and fp) else 1
            lhs = (f * g).derive_left(v)
            rhs = f.derive_left(v) * g + sign * (f * g.derive_left(v))
            assert lhs == rhs

    def test_left_right_agree_on_even(self, rng, chart):
        x = chart.var("x")
        for _ in range(50):
            f = random_poly(rng, chart)
            assert f.derive_left(x) == f.derive_right(x)

    def test_unknown_variable(self, chart, small_chart):
        with pytest.raises(UnknownVariableError):
            chart["x"].derive_left(small_chart.hatted_version().t_var)


class TestSubstitution:
    def test_polynomial_substitution(self, chart):
        x, y = chart["x"], chart["y"]
        f = x * x + y
        assert f.substitute({chart.var("x"): y}) == y * y + y

    def test_parity_mismatch_rejected(self, chart):
        with pytest.raises(SubstitutionError):
            chart["x"].substitute({chart.var("x"): chart["xi"]})

    def test_t_image_restricted(self, chart):
        h = chart.hatted_version()
        with pytest.raises(SubstitutionError):
            h["t"].substitute({h.t_var: h["t"] + h.const(1)})
        # positive rational multiples are allowed and act on rational powers
        g = h.t_power(Fraction(1, 2))
        assert g.substitute({h.t_var: 4 * h["t"]}) == 2 * h.t_power(Fraction(1, 2))

    def test_transport_between_equal_charts(self, chart):
        other = Chart(list(chart.base_coords))
        f = chart["x"] * chart["xi"]
        g = f.transport(other)
        assert g.chart is other
        assert g == other["x"] * other["xi"]

    def test_transport_round_trip_keeps_terms(self, rng, chart):
        h = chart.hatted_version()
        for _ in range(50):
            f = random_poly(rng, chart, n_terms=5)
            view = {sparse(k): c for k, c in f.terms.items()}
            up = f.transport(h)
            assert up.chart == h and {sparse(k): c for k, c in up.terms.items()} == view
            down = up.transport(chart)
            assert down.chart == chart and down.terms == f.terms

    @pytest.mark.parametrize("name", ["t", "#t"])
    def test_transport_drops_no_t(self, chart, name):
        h = chart.hatted_version()
        f = h["x"] + h["x"] * h[name]
        with pytest.raises(SubstitutionError):
            f.transport(chart)

    def test_transport_other_base_rejected(self, chart, small_chart):
        for f in (chart["x"], chart.zero()):
            with pytest.raises(ChartMismatchError):
                f.transport(small_chart)
            with pytest.raises(ChartMismatchError):
                f.transport(small_chart.hatted_version())

    def test_transport_tail_is_right_product(self, rng, chart):
        # padding onto the hatted chart multiplies by t^a #t^b on the right
        h = chart.hatted_version()
        ti = h.t_var.index
        for _ in range(30):
            S = hatted_poly(rng, h, n_terms=5)
            tails = S.tails()
            assert h.sum(body.transport(h, a, b) for (a, b), body in tails.items()) == S
            for (a, b), body in tails.items():
                assert body.chart == chart and not body.is_zero()
                tail = SPoly(h, {dense(h, [(i, e) for i, e in ((ti, a), (ti + 1, b)) if e]): 1})
                expected = reference_product(h, body.transport(h), tail)
                assert body.transport(h, a, b) == expected
                assert not stored_fractions(body.transport(h, Fraction(a), b))
            f = random_poly(rng, chart, n_terms=4)
            a, b = rng.choice((0, 2, -1, Fraction(1, 2))), rng.choice((0, 1))
            assert f.transport(h, a, b).tails() == ({(a, b): f} if f else {})

    def test_transport_tail_rejected(self, chart):
        h = chart.hatted_version()
        for args in ((chart, 1, 0), (h, 0, 2)):
            with pytest.raises(DomainError):
                chart["x"].transport(*args)
        with pytest.raises(DomainError):
            h["x"].transport(h, 0, 1)  # a hatted polynomial has its tails already
        with pytest.raises(DomainError):
            chart["x"].tails()

    def test_substitute_needs_every_image_off_chart(self, chart):
        other = Chart([(n + "1", p) for n, p in chart.base_coords])
        h = chart.hatted_version()
        f = chart["x"] * chart["y"]
        # y occurs without an image: kept on the same chart, an error elsewhere,
        # even where a variable of the same name exists
        assert f.substitute({chart.var("x"): chart["y"]}) == chart["y"] ** 2
        with pytest.raises(SubstitutionError):
            f.substitute({chart.var("x"): other["x1"]}, target=other)
        with pytest.raises(SubstitutionError):
            f.substitute({chart.var("x"): h["x"]}, target=h)
        # a variable that does not occur needs no image
        assert chart["x"].substitute({chart.var("x"): other["y1"]}, target=other) == other["y1"]
        # the target is the source chart unless named, whatever chart the images live on
        with pytest.raises(ChartMismatchError):
            chart["x"].substitute({chart.var("x"): other["y1"]})

    def test_odd_substitution_signs(self, chart):
        # swapping xi -> eta must preserve the anticommutation relations
        xi, eta = chart.var("xi"), chart.var("eta")
        f = chart["xi"] * chart["eta"]
        swapped = f.substitute({xi: chart["eta"], eta: chart["xi"]})
        assert swapped == -f

    def test_t_factor_lands_in_target_t_slot(self):
        # the two charts put t in different slots: 2 on the source, 4 on the target
        src = Chart([("x", EVEN)], hatted=True)
        tgt = Chart([("u", EVEN), ("v", EVEN)], hatted=True)
        f = src["x"] * src.t_power(Fraction(1, 2)) + src["t"] ** 2
        images = {src.var("x"): tgt["u"] + tgt["v"], src.t_var: 4 * tgt["t"]}
        g = f.substitute(images, target=tgt)
        assert repr(g) == "16*t^2 + 2*u*t^(1/2) + 2*v*t^(1/2)"
        assert g == 16 * tgt["t"] ** 2 + 2 * (tgt["u"] + tgt["v"]) * tgt.t_power(Fraction(1, 2))

    def test_against_oracle(self, rng, chart):
        """Random substitutions against the term-by-term oracle: odd and even
        images, kept variables, t rescaled under t^(1/2) and t^-1 terms,
        targets of other dimensions and images that make terms vanish."""
        h = chart.hatted_version()
        smaller = Chart([("u", EVEN), ("zeta", ODD)], hatted=True)
        larger = Chart([("u", EVEN), ("v", ODD), ("w1", EVEN), ("zeta", ODD)], hatted=True)
        scales = (1, 4, Fraction(1, 4), Fraction(9, 4))
        for case in range(60):
            target = (h, smaller, larger)[case % 3]
            f = hatted_poly(rng, h, n_terms=5)
            images = {}
            for v in h.variables:
                if v.kind == "t":
                    images[v] = rng.choice(scales) * target["t"]
                elif target is h and rng.random() < 0.3:
                    continue  # kept
                elif rng.random() < 0.15:
                    images[v] = target.zero()  # every term holding v vanishes
                else:
                    images[v] = random_poly(rng, target, v.parity, n_terms=rng.randrange(1, 4))
            if target is h and rng.random() < 0.5:
                # two odd variables onto one odd image: their product vanishes
                images[h.var("xi")] = images[h.var("eta")] = h["#y"]
            assert f.substitute(images, target) == reference_substitute(f, images, target)

    def test_prepared_substitution_matches_per_call(self, rng, chart):
        h = chart.hatted_version()
        target = Chart([("u", EVEN), ("v", EVEN), ("zeta", ODD)], hatted=True)
        images = {v: random_poly(rng, target, v.parity, n_terms=2)
                  for v in h.variables if v.kind != "t"}
        images[h.t_var] = 4 * target["t"]
        prepared = _Substitution(h, images, target)
        polys = [hatted_poly(rng, h, n_terms=6) for _ in range(30)]
        for f in polys:
            expected = f.substitute(images, target)
            assert prepared(f) == expected == reference_substitute(f, images, target)
        assert prepared(h.zero()) == target.zero()
        with pytest.raises(ChartMismatchError):
            prepared(chart["x"])

    def test_prepared_errors_match_substitute(self, chart):
        h = chart.hatted_version()
        for source, images, target, error in (
            (chart, {chart.var("x"): chart["xi"]}, chart, SubstitutionError),
            (h, {h.t_var: h["t"] + h.const(1)}, h, SubstitutionError),
            (h, {h.t_var: -2 * h["t"]}, h, SubstitutionError),
            (h, {h.var("x"): chart["y"]}, h, ChartMismatchError),
            (chart, {h.t_var: chart["x"]}, chart, UnknownVariableError),
        ):
            with pytest.raises(error):
                _Substitution(source, images, target)
            with pytest.raises(error):
                source.zero().substitute(images, target)
        # a missing image or an irrational t power surfaces on the term that needs it
        other = Chart([("u", EVEN)], hatted=True)
        prepared = _Substitution(h, {h.var("x"): other["u"], h.t_var: 2 * other["t"]}, other)
        assert prepared(h["x"] * h["t"]) == 2 * other["u"] * other["t"]
        with pytest.raises(SubstitutionError, match="y has no image"):
            prepared(h["y"])
        with pytest.raises(SubstitutionError, match="leaves the rationals"):
            prepared(h.t_power(Fraction(1, 2)))


class TestChartSum:
    def test_matches_fold(self, rng, chart):
        for _ in range(100):
            polys = [random_poly(rng, chart, n_terms=4) for _ in range(rng.randrange(6))]
            fold = chart.zero()
            for p in polys:
                fold = fold + p
            total = chart.sum(polys)
            assert total.chart == chart and total.terms == fold.terms

    def test_cancelling_sum_is_empty(self, rng, chart):
        f = random_poly(rng, chart, n_terms=4)
        g = random_poly(rng, chart, n_terms=4)
        total = chart.sum([f, g, -f, -g])
        assert total.terms == {}
        assert chart.sum([]).terms == {}

    def test_foreign_chart_rejected(self, chart, small_chart):
        with pytest.raises(ChartMismatchError):
            chart.sum([chart["x"], small_chart["x"]])
        with pytest.raises(ChartMismatchError):
            chart.sum([chart.hatted_version()["x"]])


class TestRationalPower:
    def test_exact_roots(self):
        assert rational_power(Fraction(4), Fraction(1, 2)) == 2
        assert rational_power(Fraction(8, 27), Fraction(2, 3)) == Fraction(4, 9)
        assert rational_power(Fraction(5), Fraction(-1)) == Fraction(1, 5)
        # roots beyond float precision and float range stay exact
        big = 10**30 + 7
        assert rational_power(Fraction(big**2), Fraction(1, 2)) == big
        assert rational_power(Fraction(10**400), Fraction(1, 2)) == 10**200
        assert rational_power(Fraction(1, big**3), Fraction(2, 3)) == Fraction(1, big**2)
        # a root index past the bit length: only 1 has a root, found at once
        tiny = Fraction(1, 10**9)
        assert rational_power(Fraction(1), tiny) == 1
        for base in (Fraction(2), Fraction(1, 4)):
            with pytest.raises(SubstitutionError):
                rational_power(base, tiny)
        assert _exact_root(1024, 10) == 2  # k = bits - 1 still iterates
        assert _exact_root(1024, 11) is None and _exact_root(1023, 10) is None

    def test_every_constant_power(self):
        # any base to an integer exponent, 0 to a positive one; the DSL reads
        # each constant power here
        assert rational_power(Fraction(-2), Fraction(3)) == -8
        assert rational_power(Fraction(-2, 3), Fraction(-2)) == Fraction(9, 4)
        assert rational_power(Fraction(0), Fraction(0)) == 1
        assert rational_power(Fraction(0), Fraction(1, 2)) == 0
        assert rational_power(Fraction(4, 9), Fraction(-1, 2)) == Fraction(3, 2)
        for exponent in (Fraction(-1), Fraction(-1, 2)):
            with pytest.raises(DomainError, match="zero to a negative power"):
                rational_power(Fraction(0), exponent)
        for base in (Fraction(-1), Fraction(-8)):  # no real root is taken
            with pytest.raises(SubstitutionError, match="leaves the rationals"):
                rational_power(base, Fraction(1, 3))

    def test_irrational_rejected(self):
        with pytest.raises(SubstitutionError):
            rational_power(Fraction(2), Fraction(1, 2))
        with pytest.raises(SubstitutionError):
            rational_power(Fraction((10**30 + 7) ** 2 + 1), Fraction(1, 2))
