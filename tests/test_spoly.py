"""Core supercommutative polynomial algebra."""
import json
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
    PINNED,
    SPoly,
    SubstitutionError,
    UnknownVariableError,
    antibracket,
    classify_lifts,
    delta_op,
    divergence,
    divergence_wrt,
)
from densalg import spoly
from densalg.brackets import r_ary_bracket, restrict_to_base
from densalg.classify import darboux_form
from densalg.dsl import Interpreter, parse
from densalg.printing import poly_from_dict, poly_to_dict, poly_to_text
from densalg.spoly import _exact_root, _partial_rows, _rows, _Substitution, _t_scale, rational_power
from conftest import (
    MIXED_T_EXPONENTS, dense, hatted_poly, product_divergence_wrt, random_poly, reference_bracket,
    reference_derivative, reference_divergence, reference_product, reference_substitute,
    sparse, unit,
)


def stored_fractions(f):
    """Every stored coefficient and exponent that is an integral Fraction; the
    exponents are read from every slot, so a Fraction(0) is one too."""
    values = list(f.terms.values()) + [e for key in f.terms for e in key]
    return [x for x in values if isinstance(x, Fraction) and x.denominator == 1]


def combination(*scaled):
    """The term map of sum a * f over (a, f) pairs, term by term in a plain
    dict, with the terms that cancel left out: the oracle of sums and scalar
    products."""
    out = {}
    for a, f in scaled:
        for key, c in f.terms.items():
            out[key] = out.get(key, 0) + a * c
    return {key: c for key, c in out.items() if c}


def unequal_pairs(rng, chart):
    """(one-term, 30-or-more-term) operands with t^(1/2) keys and Fraction
    coefficients: the one term is drawn fresh, or is a term of the big
    operand at twice or minus its coefficient, so that sums add, merge and
    cancel."""
    big = hatted_poly(rng, chart, n_terms=40)
    assert len(big.terms) >= 30
    term = SPoly(chart, dict([rng.choice(list(big.terms.items()))]))
    return [(one, big) for one in (hatted_poly(rng, chart, n_terms=1), 2 * term, -term)]


def partials(f, left):
    """Every partial derivative of f from one `_partial_rows` pass, as
    {variable index: derivative}: the pass reads f's numerators times
    `_t_scale`, so each table is over f's den times that scale."""
    scale = _t_scale(f.chart, f.num)
    den = f.den * scale
    return {i: SPoly(f.chart, {k: Fraction(c, den) for k, c, _, _ in rows})
            for i, rows in _partial_rows(f.chart, _rows(f.chart, f.num, scale), left).items()}


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
        # != is the negation of ANY's __eq__ from either side
        assert not (ANY != EVEN) and not (EVEN != ANY) and not (ANY != ANY)
        assert ANY != MIXED and MIXED != ANY

    def test_hatted_chart_extras(self, chart):
        h = chart.hatted_version()
        assert h.t_var.parity == EVEN and h.t_var.weight == 1
        assert h.var("#t").parity == ODD and h.var("#t").weight == -1
        assert h.w_star() == h["t"] * h["#t"]

    def test_t_power_needs_a_hatted_chart(self, chart):
        with pytest.raises(UnknownVariableError, match="chart is not hatted"):
            chart.t_power(1)

    def test_hash_agrees_with_equality(self, chart):
        # t^(1/2) t^(1/2) stores the integral exponent 1 as an int, and 2x and
        # Fraction(2) x store the same int coefficient
        h = chart.hatted_version()
        half = h.t_power(Fraction(1, 2))
        pairs = [(half * half, h.t_power(1)), (2 * chart["x"], Fraction(2) * chart["x"])]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)

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
            slots = [[Fraction(e, unit(v)) for e in exps]  # exponents, t's too
                     for v, exps in zip(f.chart.variables, zip(*f.terms))]
            if all(e.denominator == 1 for exps in slots for e in exps):
                # n * (max - min) + 1 exponent sums per variable
                assert len(power.terms) <= math.prod(n * (max(exps) - min(exps)) + 1
                                                     for exps in slots)
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
        # bracket of an odd h with itself 0, so its terms cancel in one map.
        # The unequal pairs come from their own generator, so f, g and h are
        # the draws they always were
        sized = random.Random("unequal")
        for _ in range(60):
            f = hatted_poly(rng, hchart)
            g = hatted_poly(rng, hchart)
            h = f.parity_components()[1]
            hh = antibracket(h, h)
            assert hh.is_zero()
            results = [
                f + g, f + (-f), f - g, f * g, f * f, h * h,
                antibracket(f, g), antibracket(f, f), antibracket(g, h), hh,
                f * 1, -1 * f, f * Fraction(-1),
            ]
            for one, big in unequal_pairs(sized, hchart):
                results += [one + big, big + one, one - big, big - one]
            for r in results:
                assert all(r.terms.values())

    def test_integral_values_are_ints(self, rng, chart):
        # 1/2 * 2 and t^(1/2) * t^(1/2) must come out as int 1, not Fraction(1)
        hchart = chart.hatted_version()
        x, xi = hchart.var("x"), hchart.var("xi")
        sized = random.Random("unequal")  # leaves the draws of f, g and h as they were
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
                f * 1, -1 * f, f * Fraction(-1),
            ]
            for one, big in unequal_pairs(sized, hchart):
                results += [one + big, big + one, one - big, big - one]
            for left in (True, False):
                results += partials(f, left).values()
            for r in results:
                assert stored_fractions(r) == []
                for key in r.terms:
                    assert len(key) == len(hchart.variables)
                    assert all(e in (0, 1) for e, bit in zip(key, hchart.odd_bits) if bit)

    def test_sums_and_scalar_products_against_dict_oracle(self, rng, chart):
        # sums copy one operand and add the other into the copy, a difference
        # adds -c per term, and a product by 1 or -1 is the polynomial or its
        # negation: each must equal the term-by-term sum, for very unequal
        # sizes in both orders
        hchart = chart.hatted_version()
        for _ in range(20):
            for f, g in unequal_pairs(rng, hchart):
                for a, b in ((f, g), (g, f)):
                    assert (a + b).terms == combination((1, a), (1, b))
                    assert (a - b).terms == combination((1, a), (-1, b))
                    assert (1 - a).terms == combination((1, hchart.const(1)), (-1, a))
                    for c in (1, -1, Fraction(-1), 2, Fraction(1, 2)):
                        assert (c * a).terms == combination((c, a))
                        assert (a * c).terms == combination((c, a))
        f = hatted_poly(rng, hchart)
        assert f * 1 is f and 1 * f is f  # values are immutable

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
                slots = ((ti, a * unit(h.t_var)), (ti + 1, b))
                tail = SPoly(h, {dense(h, [(i, e) for i, e in slots if e]): 1})
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
        # term images over the coprime denominators 2, 3 and 5 that cancel in
        # part (u) and in whole: the sum is in normal form, and zero is over 1
        u, v = target["u"], target["v"]
        coprime = {h.var("x"): u / 2, h.var("y"): u / 3 + v / 5, h.var("#xi"): v / 5}
        prepared = _Substitution(h, coprime, target)
        x, y, xis = h["x"], h["y"], h["#xi"]
        for f in (2 * x + 3 * y * xis - 3 * y, 2 * x - 3 * y + 3 * xis):
            image = prepared(f)
            assert_normal(image)
            assert image == reference_substitute(f, coprime, target)
        assert image.is_zero() and image.den == 1

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


class TestTSlot:
    """The t slot holds t's exponent times `spoly._T_UNIT` = lcm(1..16): an int
    for every denominator up to 16, else a Fraction.  Exponents 1/17 and -5/34
    take the Fraction path, 10^30/7 a huge int slot; every operation on them is
    checked against the oracles."""

    EXPONENTS = (Fraction(1, 17), Fraction(-5, 34), Fraction(10**30, 7))

    def operands(self, chart):
        h = chart.hatted_version()
        a, b, c = (h.t_power(e) for e in self.EXPONENTS)
        x, y, xi, eta, tstar = (h[n] for n in ("x", "y", "xi", "eta", "#t"))
        f = x * h["#y"] * a + Fraction(3, 2) * xi * b * tstar + 5 * y * h["#xi"] * c * tstar \
            + h["#x"] * eta
        g = y * h["#x"] * h.t_power(Fraction(16, 17)) - xi * eta * b * tstar \
            + Fraction(2, 3) * x * h["#eta"] * c
        return h, f, g

    def test_storage(self, chart):
        h = chart.hatted_version()
        ti = h.t_var.index
        key, = (h.t_power(Fraction(1, 17)) * h.t_power(Fraction(16, 17))).terms
        assert type(key[ti]) is int and h.key_weight(key) == 1
        for e in (Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3), 2):
            key, = h.t_power(e).terms
            assert type(key[ti]) is int
        key, = h.t_power(Fraction(1, 17)).terms
        assert type(key[ti]) is Fraction
        # key_weight is t's exponent less #t's, an int when it is integral
        for f, weight in ((h.t_power(Fraction(1, 2)), Fraction(1, 2)), (h["t"] ** 2, 2),
                          (h.t_power(Fraction(1, 17)) * h["#t"], Fraction(-16, 17)),
                          (h.t_power(Fraction(10**30, 7)), Fraction(10**30, 7)),
                          (h.w_star(), 0), (h["x"], 0), (chart["x"], 0)):
            key, = f.terms
            assert f.chart.key_weight(key) == weight
            assert type(f.chart.key_weight(key)) is type(weight)

    def test_power_key_takes_exponents(self, chart):
        # power_key, _to_key and _exponents speak plain exponents, t's too:
        # only spoly knows how its slot stores them
        h = chart.hatted_version()
        ti = h.t_var.index
        assert h.power_key(ti, 1) == next(iter(h["t"].terms))
        half = h.t_power(Fraction(1, 2))  # read by _frac, where an int exponent is not
        assert h.power_key(ti, 1) == next(iter((half * half).terms))
        assert poly_to_text(SPoly(h, {h.power_key(ti, 1): 1})) == "t"
        for e in (Fraction(1, 17), -2):
            assert h.power_key(ti, e) == next(iter(h.t_power(e).terms))
        for e in (Fraction(1, 2), Fraction(1, 17), Fraction(-3, 2), Fraction(10**30, 7)):
            exps = (2, 0, 1, 0, 0, 1, 0, 0, e, 1)
            assert h._exponents(h._to_key(exps)) == exps
        exps = h._exponents(h._to_key((0,) * 8 + (Fraction(34, 17), 0)))
        assert exps[ti] == 2 and type(exps[ti]) is int
        assert chart._to_key(chart.zero_key) == chart._exponents(chart.zero_key) == chart.zero_key
        for hostile in ("ab", [1], None, math.nan):
            with pytest.raises(DomainError):
                h.power_key(ti, hostile)
            with pytest.raises(DomainError):
                h.t_power(hostile)

    def test_power_key_refuses_an_index_past_the_chart(self):
        # a 2-variable chart has no slot 5, and -2 on a hatted one would reach
        # t's slot without being written by `_t_slot`
        small = Chart([("x", EVEN)])
        h = small.hatted_version()
        assert small.power_key(1, 1) == (0, 1)
        assert h.power_key(2, 1) == next(iter(h["t"].terms))
        for c, index in ((small, 5), (small, 2), (small, -1), (h, -2), (h, 4), (h, 10**700)):
            with pytest.raises(DomainError, match="no variable at index"):
                c.power_key(index, 1)

    def test_product_and_bracket_against_oracles(self, chart):
        h, f, g = self.operands(chart)
        for p, q in ((f, g), (g, f), (f, f)):
            assert p * q == reference_product(h, p, q)
            assert antibracket(p, q) == reference_bracket(h, p, q, PINNED)
        assert antibracket(f, g)

    def test_divergence_and_delta_against_oracles(self, chart):
        h, f, g = self.operands(chart)
        for p in (f, g):
            assert divergence(p) == reference_divergence(h, p, PINNED)
            assert divergence_wrt(p, 1) == reference_divergence(h, p, PINNED, full=True)
            for e in self.EXPONENTS:
                rho = 3 * h.t_power(e)
                assert divergence_wrt(p, rho) == product_divergence_wrt(p, rho)
            assert delta_op(p) == product_divergence_wrt(p, h.t_power(-2))
        assert delta_op(f) and divergence_wrt(g, h.t_power(self.EXPONENTS[0]))

    def test_substitution_scales_t(self, chart):
        h, f, g = self.operands(chart)
        x, t = h.var("x"), h.t_var
        assert h.t_power(Fraction(1, 17)).substitute({t: 2**34 * h["t"]}) \
            == 4 * h.t_power(Fraction(1, 17))
        small = f - SPoly(h, {k: c for k, c in f.terms.items() if h.key_weight(k) > 1})
        for p, scale in ((small, 2**34), (f, 1), (g, 1)):
            images = {x: h["y"] + 2 * h["x"], t: scale * h["t"]}
            assert p.substitute(images) == reference_substitute(p, images, h)

    def test_transport_and_tails(self, chart):
        h, f, g = self.operands(chart)
        ti = h.t_var.index
        tails = f.tails()
        a, b, c = self.EXPONENTS
        assert set(tails) == {(a, 0), (b, 1), (c, 1), (0, 0)}
        assert [type(e) for e, _ in sorted(tails)] == [Fraction, int, Fraction, Fraction]
        assert h.sum(body.transport(h, e, s) for (e, s), body in tails.items()) == f
        for (e, s), body in tails.items():
            slots = ((ti, e * unit(h.t_var)), (ti + 1, s))
            tail = SPoly(h, {dense(h, [(i, v) for i, v in slots if v]): 1})
            assert body.transport(h, e, s) == reference_product(h, body.transport(h), tail)

    def test_text_and_json_round_trip(self, chart):
        h, f, g = self.operands(chart)
        assert poly_to_text(f) == ("5*y*#xi*t^(999999999999999999999999999993/7)*w"
                                   " + x*#y*t^(1/17) - eta*#x + 3/2*xi*t^(-5/34)*#t")
        assert poly_to_text(g) == ("2/3*x*#eta*t^(1000000000000000000000000000000/7)"
                                   " + y*#x*t^(16/17) - xi*eta*t^(-5/34)*#t")
        header = "chart H hatted { even x, y; odd xi, eta }\nlet p = "
        for p in (f, g):
            interp = Interpreter()
            interp.run(parse(header + poly_to_text(p) + "\n"))
            assert interp.bindings["p"] == p
            assert poly_from_dict(json.loads(json.dumps(poly_to_dict(p)))) == p

    def test_power_bound_reads_exponents(self, monkeypatch, chart):
        # t's spread is 5 in exponent units: the bound of 501 terms fits, so
        # no product is checked
        h = chart.hatted_version()
        checked = []
        monkeypatch.setattr(spoly, "_checked_product", lambda a, b: checked.append(1) or a * b)
        power = h.sum(h["t"] ** k for k in range(6)) ** 100
        assert not checked and len(power.terms) == 501


def assert_normal(f):
    """f is integer numerators over one positive denominator in normal form:
    nonzero ints, gcd(den, *num) = 1, and den 1 for zero."""
    assert type(f.den) is int and f.den > 0
    assert all(type(c) is int and c for c in f.num.values())
    assert math.gcd(f.den, *f.num.values()) == 1
    assert f.num or f.den == 1
    # the rational view is the map of num / den, an int where it is integral
    assert f.terms == {k: Fraction(c, f.den) for k, c in f.num.items()}
    assert not [c for c in f.terms.values() if type(c) is Fraction and c.denominator == 1]


class TestNormalForm:
    """Every public operation returns its polynomial in normal form, on hatted
    inputs whose t exponents are 1/2, 1/17 (a Fraction slot), -1 and -3/2 and
    on unhatted ones; equality and hash read only the value."""

    def results(self, rng, chart):
        h = chart.hatted_version()
        x, xi, t = h.var("x"), h.var("xi"), h.t_var
        f = hatted_poly(rng, h, 5, MIXED_T_EXPONENTS)
        g = hatted_poly(rng, h, 5, MIXED_T_EXPONENTS)
        odd = f.parity_components()[1] or h["xi"]
        base = random_poly(rng, chart, EVEN) * Fraction(3, 4) + Fraction(1, 6)
        out = [f, g, f + g, f - g, g - g, -f, f * g, g * f, f * Fraction(2, 3), 2 * f,
               f / Fraction(4, 3), f / 2, 6 * f / 6, f ** 2, h.const(Fraction(6, 4)),
               h.t_power(Fraction(1, 17)), h.sum([f, g, -f]), f + Fraction(1, 2), 1 - f,
               f.parity_twist(), *f.parity_components(), *f.tails().values(),
               f.substitute({x: 2 * h["y"] + Fraction(1, 3), xi: Fraction(1, 2) * h["eta"]}),
               hatted_poly(rng, h).substitute({t: Fraction(9, 4) * h["t"]}),  # halves: 3/2
               antibracket(f, g), antibracket(odd, odd), divergence(f), delta_op(f),
               divergence_wrt(f, Fraction(5, 2) * h.t_power(Fraction(1, 3))),
               restrict_to_base(f), r_ary_bracket(f, [h["x"], Fraction(1, 2) * h["y"]]),
               base, base * base, base.transport(h, Fraction(1, 2), 1),
               base.transport(h).transport(chart), divergence(base), base - base]
        for v in h.variables:
            out += [f.derive_left(v), f.derive_right(v)]
        return out

    def test_every_result_is_normal(self, rng, chart):
        for _ in range(40):
            for r in self.results(rng, chart):
                assert_normal(r)

    def test_equality_and_hash_read_the_value(self, rng, chart):
        h = chart.hatted_version()
        k = h.power_key(h.t_var.index, Fraction(1, 17))
        pairs = [(SPoly(h, {k: Fraction(2, 4)}), SPoly(h, {k: Fraction(1, 2)})),
                 (SPoly(h, {k: Fraction(4, 2)}), SPoly(h, {k: 2})),
                 (h.const(Fraction(1, 2)) + h.const(Fraction(1, 2)), h.const(1))]
        for _ in range(30):
            f = hatted_poly(rng, h, 5, MIXED_T_EXPONENTS)
            g = hatted_poly(rng, h, 3, MIXED_T_EXPONENTS)
            pairs += [(2 * f / 2, f), (f * 3 / 3, f), (f + g - g, f), (f - f, h.zero()),
                      (SPoly(h, f.terms), f), (SPoly(h, dict(f.terms)) * 1, f)]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b) and (a.den, a.num) == (b.den, b.num)

    def test_terms_is_the_rational_map(self, rng, chart):
        # terms equals the term-by-term Fraction map of the old representation:
        # the coefficients a polynomial is built from, and the sums, scalar
        # products and products the dict oracles compute from the inputs' terms
        h = chart.hatted_version()
        for _ in range(30):
            f = hatted_poly(rng, h, 5, MIXED_T_EXPONENTS)
            g = hatted_poly(rng, h, 5, MIXED_T_EXPONENTS)
            rational = dict(f.terms)
            assert SPoly(h, rational).terms == rational
            assert f.terms is not f.terms or f.den == 1  # a fresh view unless den is 1
            assert (f + g).terms == combination((1, f), (1, g))
            assert (f * Fraction(-2, 3)).terms == combination((Fraction(-2, 3), f))
            assert (f * g).terms == reference_product(h, f, g).terms
            for key in f.num:
                assert f.coefficient(key) == rational[key]


class TestTScale:
    """A derivative by t multiplies by t's exponent: every table that may be
    derived by t is scaled by the lcm of the denominators of t's exponents.
    The mixed exponents 1/2, 1/17, -1 and -3/2 against the Fraction oracles."""

    def operands(self, rng, chart):
        h = chart.hatted_version()
        fs = [hatted_poly(rng, h, 6, MIXED_T_EXPONENTS) for _ in range(25)]
        t_only = (3 * h.t_power(Fraction(1, 3)) * h["#t"]
                  + Fraction(1, 2) * h.t_power(Fraction(-3, 2)))
        return h, fs, t_only

    def test_derivative_by_t(self, rng, chart):
        h, fs, _ = self.operands(rng, chart)
        t = h.t_var
        assert any(_t_scale(h, f.num) > 2 for f in fs)  # 1/17 and 1/2 together
        for f in fs:
            for left in (True, False):
                expected = {}
                for key, coeff in f.terms.items():
                    for k, c in reference_derivative(h, key, coeff, t, left).items():
                        expected[k] = expected.get(k, 0) + c
                got = f.derive_left(t) if left else f.derive_right(t)
                assert got == SPoly(h, {k: c for k, c in expected.items() if c})

    def test_bracket_with_a_t_only_partner(self, rng, chart):
        h, fs, t_only = self.operands(rng, chart)
        for f in fs:
            for p, q in ((f, t_only), (t_only, f)):
                assert antibracket(p, q) == reference_bracket(h, p, q, PINNED)

    def test_delta_and_divergence_wrt(self, rng, chart):
        h, fs, _ = self.operands(rng, chart)
        rho = Fraction(2, 5) * h.t_power(Fraction(1, 3))
        for f in fs:
            assert delta_op(f) == product_divergence_wrt(f, h.t_power(-2))
            assert divergence_wrt(f, rho) == product_divergence_wrt(f, rho)
