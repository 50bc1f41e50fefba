"""The odd bracket, divergence operators, delta, and the pinned convention."""
import itertools
import random
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from densalg import (
    ANY,
    Chart,
    ChartMismatchError,
    DomainError,
    EVEN,
    MIXED,
    ODD,
    PINNED,
    SPoly,
    SignConvention,
    antibracket,
    convention_ledger,
    delta_op,
    divergence,
    divergence_full,
    divergence_wrt,
    pin_convention,
    project_to_density,
    r_ary_bracket,
    restrict_to_base,
)
from densalg import brackets
from densalg.brackets import _Suite, _candidate_family, _div_pairs
from conftest import (
    SEED,
    hatted_poly,
    product_divergence_wrt,
    random_poly,
    reference_bracket,
    reference_derivative,
    reference_divergence,
    reference_product,
    sparse,
)


class TestConventionPinning:
    def test_identity_suite_passes_for_pinned(self, rng):
        assert _Suite(rng).first_failure(PINNED) is None

    def test_unique_survivor_is_pinned(self):
        assert pin_convention(seed=2024) == PINNED

    def test_fields_checked_on_construction(self):
        # a field outside its candidate values is named when the convention is
        # built, before a bracket reads it
        C = Chart([("x", EVEN)])
        with pytest.raises(DomainError, match="SignConvention.term_q_qstar is none of its 16 "):
            antibracket(C["x"], C["#x"],
                        SignConvention((0, 0, 1), (1, 0, 1, 0), 1, "left", (0, 0)))
        for name, value in (("div_side", "up"), ("div_parity", None), ("div_parity", 2),
                            ("term_qstar_q", [1, 0, 1, 0]), ("generator_sign", (0, 0, 0))):
            with pytest.raises(DomainError, match="SignConvention.%s is none" % name):
                replace(PINNED, **{name: value})
        assert len(set(_candidate_family())) == 4096  # every candidate passes the check

    def test_first_failure_counts(self):
        # a wrongly declared field tuple in the identity table would move these
        # counts while still pinning PINNED
        suite = _Suite(random.Random(2024))
        counts = Counter(suite.first_failure(conv) for conv in _candidate_family())
        assert {name and name.split(" =")[0]: n for name, n in counts.items()} == {
            "anchor (x, #x)": 2048,
            "anchor (xi, #xi)": 1024,
            "anchor div(xi * #xi)": 512,
            "graded symmetry (f,g)": 504,
            "derivation identity div(f,g)": 4,
            "generator identity delta(fg) - delta(f)g - (-1)^f f delta(g)": 3,
            None: 1,  # PINNED
        }

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_field_search_matches_brute_force(self, seed, monkeypatch):
        # the brute force runs on the pin's own suite: a verdict depends only
        # on the seed's samples and the fields its identity names
        suites = []

        def recorded(rng):
            assert rng.getstate() == random.Random(seed).getstate()
            suites.append(_Suite(rng))
            return suites[-1]

        monkeypatch.setattr(brackets, "_Suite", recorded)
        pinned = pin_convention(seed)
        suite, = suites
        survivors = [conv for conv in _candidate_family() if suite.first_failure(conv) is None]
        assert len(survivors) == 1
        assert pinned == survivors[0]

    def test_anchors(self, chart):
        assert antibracket(chart["x"], chart["#x"]) == chart.const(1)
        assert antibracket(chart["xi"], chart["#xi"]) == chart.const(-1)
        assert divergence(chart["x"] * chart["#x"]) == chart.const(1)
        assert divergence(chart["xi"] * chart["#xi"]) == chart.const(-1)

    def test_ledger_reports_forcing_identities(self):
        text = convention_ledger()
        assert "Pinned sign convention" in text
        assert "no identity rejects" not in text
        # one forcing line per perturbable field
        assert text.count("forced by:") == 12


class TestSignCells:
    def test_negations_are_the_documented_exponents(self):
        # cell 4 parity(q) + 2 parity(f) + term holds whether that term's
        # exponent c0 + c1 a + c2 f + c3 a f is odd, for all 256 field values
        bits = list(itertools.product((0, 1), repeat=4))
        for c, b in itertools.product(bits, bits):
            expected = []
            for cell in range(8):
                a, fp, term = cell >> 2, (cell >> 1) & 1, cell & 1
                e = (c, b)[term]
                expected.append(sum(bit * m for bit, m in zip(e, (1, a, fp, a * fp))) % 2 == 1)
            conv = replace(PINNED, term_q_qstar=c, term_qstar_q=b)
            assert conv.negations == tuple(expected)
        # PINNED negates term 0 of odd f and term 1 of even f
        assert PINNED.negations == (False, True, True, False) * 2

    def test_negations_computed_once_per_convention(self):
        conv = replace(PINNED, term_q_qstar=(1, 1, 0, 1))
        assert conv.negations is conv.negations

    def test_reading_negations_changes_no_dataclass_behaviour(self):
        shown = ("SignConvention(term_q_qstar=(0, 0, 1, 0), term_qstar_q=(1, 0, 1, 0), "
                 "div_parity=1, div_side='left', generator_sign=(0, 0))")
        read = SignConvention((0, 0, 1, 0), (1, 0, 1, 0), 1, "left", (0, 0))
        fresh = SignConvention((0, 0, 1, 0), (1, 0, 1, 0), 1, "left", (0, 0))
        read.negations
        assert repr(read) == repr(fresh) == repr(PINNED) == shown
        assert read == fresh == PINNED and hash(read) == hash(fresh) == hash(PINNED)
        assert read != replace(fresh, div_parity=0)
        assert [f.name for f in fields(read)] == [
            "term_q_qstar", "term_qstar_q", "div_parity", "div_side", "generator_sign"]
        assert replace(read) == fresh
        # a replaced convention computes its own cells
        flipped = replace(read, term_qstar_q=(0, 0, 1, 0))
        assert flipped.negations == (False, False, True, True) * 2
        assert read.negations == PINNED.negations


class TestBracketIdentities:
    def test_graded_symmetry(self, rng, chart):
        for _ in range(200):
            f = random_poly(rng, chart)
            g = random_poly(rng, chart)
            fp = 0 if f.parity() is ANY else f.parity()
            gp = 0 if g.parity() is ANY else g.parity()
            sign = -1 if fp * gp % 2 else 1
            assert antibracket(f, g) == sign * antibracket(g, f)

    def test_leibniz(self, rng, chart):
        for _ in range(200):
            f = random_poly(rng, chart)
            g = random_poly(rng, chart)
            h = random_poly(rng, chart)
            fp = 0 if f.parity() is ANY else f.parity()
            gp = 0 if g.parity() is ANY else g.parity()
            hp = 0 if h.parity() is ANY else h.parity()
            sf = -1 if fp % 2 else 1
            sgh = -1 if gp * hp % 2 else 1
            assert antibracket(f * g, h) == sf * (f * antibracket(g, h)) + sgh * (
                antibracket(f, h) * g
            )

    def test_odd_jacobi(self, rng, chart):
        for _ in range(200):
            f = random_poly(rng, chart)
            g = random_poly(rng, chart)
            h = random_poly(rng, chart)
            fp = 0 if f.parity() is ANY else f.parity()
            gp = 0 if g.parity() is ANY else g.parity()
            s1 = -1 if (fp + 1) % 2 else 1
            s2 = -1 if (fp + 1) * (gp + 1) % 2 else 1
            lhs = antibracket(f, antibracket(g, h))
            rhs = s1 * antibracket(antibracket(f, g), h) + s2 * antibracket(
                g, antibracket(f, h)
            )
            assert lhs == rhs

    def test_bracket_is_odd(self, rng, chart):
        for _ in range(100):
            f = random_poly(rng, chart)
            g = random_poly(rng, chart)
            b = antibracket(f, g)
            if b.is_zero():
                continue
            fp = 0 if f.parity() is ANY else f.parity()
            gp = 0 if g.parity() is ANY else g.parity()
            assert b.parity() == (fp + gp + 1) % 2

    @pytest.mark.parametrize("conv", [
        PINNED,
        replace(PINNED, term_q_qstar=(1, 0, 1, 0), term_qstar_q=(0, 0, 1, 0)),
        replace(PINNED, term_q_qstar=(0, 1, 0, 1), term_qstar_q=(1, 1, 0, 0)),
        replace(PINNED, term_q_qstar=(1, 1, 1, 1), term_qstar_q=(0, 1, 1, 1)),
    ])
    def test_against_reference_bracket(self, rng, chart, conv):
        # t^(1/2) keys, #t and fractional coefficients, f of mixed parity
        hchart = chart.hatted_version()
        t, ts = hchart.t_var.index, hchart.var("#t").index
        mixed = half = tstar = fraction = False
        for _ in range(40):
            f = hatted_poly(rng, hchart)
            g = hatted_poly(rng, hchart)
            assert antibracket(f, g, conv) == reference_bracket(hchart, f, g, conv)
            mixed |= f.parity() is MIXED
            for key, c in f.terms.items():
                half |= Fraction(dict(sparse(key)).get(t, 0)).denominator == 2
                tstar |= any(idx == ts for idx, _ in sparse(key))
                fraction |= Fraction(c).denominator > 1
        assert mixed and half and tstar and fraction

    def test_every_bracket_field_against_reference(self, chart):
        # all 256 values of the two bracket fields on seeded pairs, f of mixed
        # parity on a chart with even and odd pairs, and on a hatted pair with
        # t^(1/2), #t and f of mixed parity.  The same operands are walked
        # ascending, then under PINNED, then descending: the tables they keep
        # from their first bracket serve every later convention
        rng = random.Random(SEED)
        pairs = [
            (random_poly(rng, chart, EVEN, 2) + random_poly(rng, chart, ODD, 2),
             random_poly(rng, chart, n_terms=2))
            for _ in range(2)
        ]
        h = chart.hatted_version()
        half = h.t_power(Fraction(1, 2))
        f = h["x"] * half * h["#t"] + Fraction(3, 2) * h["xi"] * h["#x"] * half + h["#xi"] * h["y"]
        g = h["#x"] * h.t_power(Fraction(3, 2)) + h["eta"] * h["#t"] * h["x"] + h["#y"] * half * h["#t"]
        assert f.parity() is MIXED and antibracket(f, g)
        cases = [(chart, f, g) for f, g in pairs] + [(h, f, g)]
        bits = list(itertools.product((0, 1), repeat=4))
        walk = list(itertools.product(bits, bits))
        expected = {}  # the oracle's bracket per field values and case, computed once
        for c, b in walk + [(PINNED.term_q_qstar, PINNED.term_qstar_q)] + walk[::-1]:
            conv = replace(PINNED, term_q_qstar=c, term_qstar_q=b)
            for i, (on, f, g) in enumerate(cases):
                if (c, b, i) not in expected:
                    expected[c, b, i] = reference_bracket(on, f, g, conv)
                assert antibracket(f, g, conv) == expected[c, b, i]
        # every (field, parity(q), parity(f)) sign cell shows: flipping it
        # alone changes a bracket
        cells = {(0, 0): (1, 1, 1, 1), (1, 0): (0, 1, 0, 1), (0, 1): (0, 0, 1, 1),
                 (1, 1): (0, 0, 0, 1)}  # the bits of e(a, f) = 1 at that cell only
        for field in ("term_q_qstar", "term_qstar_q"):
            for flip in cells.values():
                flipped = tuple(x ^ y for x, y in zip(getattr(PINNED, field), flip))
                conv = replace(PINNED, **{field: flipped})
                assert any(antibracket(f, g, conv) != antibracket(f, g) for f, g in pairs)


class TestDivergenceAndDelta:
    def test_divergence_nilpotent(self, rng, chart):
        for _ in range(200):
            f = random_poly(rng, chart)
            assert divergence(divergence(f)).is_zero()

    def test_delta_nilpotent(self, rng, chart):
        h = chart.hatted_version()
        for _ in range(200):
            f = random_poly(rng, h)
            assert delta_op(delta_op(f)).is_zero()

    def test_derivation_identity(self, rng, chart):
        for _ in range(200):
            f = random_poly(rng, chart)
            g = random_poly(rng, chart)
            fp = 0 if f.parity() is ANY else f.parity()
            sf = -1 if fp % 2 else 1
            lhs = divergence(antibracket(f, g))
            rhs = -antibracket(divergence(f), g) - sf * antibracket(f, divergence(g))
            assert lhs == rhs

    def test_delta_is_divergence_wrt_canonical_density(self, rng, chart):
        h = chart.hatted_version()
        rho = h.t_power(Fraction(-2))
        for _ in range(200):
            f = random_poly(rng, h)
            assert delta_op(f) == divergence_wrt(f, rho)

    def test_generator_identity(self, rng, chart):
        h = chart.hatted_version()
        for _ in range(200):
            f = random_poly(rng, h)
            g = random_poly(rng, h)
            fp = 0 if f.parity() is ANY else f.parity()
            sf = -1 if fp % 2 else 1
            lhs = delta_op(f * g) - delta_op(f) * g - sf * (f * delta_op(g))
            assert lhs == antibracket(f, g)

    def test_divergence_wrt_requires_monomial_density(self, chart):
        h = chart.hatted_version()
        with pytest.raises(DomainError):
            divergence_wrt(h["x"], h.t_power(1) + h.const(1))
        with pytest.raises(DomainError, match="rho must be a rational multiple of a power of t"):
            divergence_wrt(h["x"], h["x"] * h["t"])

    def test_divergence_wrt_matches_product_route(self, rng, chart):
        # one pass with mu t^-1 d_#t f equals rho^-1 divergence_full(f rho), c cancelling;
        # hatted_poly draws t^(1/2), t^-1, #t and fractional coefficients
        h = chart.hatted_version()
        for mu in (-2, -1, 0, 1, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)):
            for c in (1, 2, Fraction(-1, 3)):
                rho = c * h.t_power(mu)
                for _ in range(10):
                    f = hatted_poly(rng, h)
                    assert divergence_wrt(f, rho) == product_divergence_wrt(f, rho)
        # delta is the divergence against t^-2 with any c
        f = hatted_poly(rng, h)
        assert divergence_wrt(f, 5 * h.t_power(-2)) == delta_op(f)

    def test_divergences_need_hatted_chart(self, chart):
        with pytest.raises(DomainError, match="divergence_full needs a hatted chart"):
            divergence_full(chart["x"] * chart["#x"])
        for rho in (1, chart.const(1)):
            with pytest.raises(DomainError, match="divergence_wrt needs a hatted chart"):
                divergence_wrt(chart["x"] * chart["#x"], rho)
        other = Chart([("x", EVEN)], hatted=True)
        with pytest.raises(ChartMismatchError, match="rho lives on the wrong chart"):
            divergence_wrt(chart.hatted_version()["x"], other.t_power(-2))

    def test_delta_needs_hatted_chart(self, chart):
        with pytest.raises(DomainError):
            delta_op(chart["x"])

    @pytest.mark.parametrize("div_parity, div_side", [
        (0, "left"), (0, "right"), (1, "left"), (1, "right"),
    ])
    def test_against_reference_divergence(self, rng, chart, div_parity, div_side):
        # t^(1/2), t^-1 and #t terms, fractional coefficients
        h = chart.hatted_version()
        conv = replace(PINNED, div_parity=div_parity, div_side=div_side)
        t, ts = h.t_var.index, h.var("#t").index
        half = inverse = tstar = False
        for _ in range(40):
            f = hatted_poly(rng, h)
            full = reference_divergence(h, f, conv, full=True)
            assert divergence(f, conv) == reference_divergence(h, f, conv)
            assert _div_pairs(f, h.pair_slots, conv) == full
            if conv == PINNED:
                assert divergence_full(f) == full
            # delta = the full divergence - 2 t^-1 d_#t f
            d_tstar = {}
            for key, coeff in f.terms.items():
                for k, c in reference_derivative(h, key, coeff, h.var("#t"),
                                                 div_side == "left").items():
                    d_tstar[k] = d_tstar.get(k, 0) + c
            shifted = reference_product(h, h.t_power(-1), SPoly(h, d_tstar))
            expected = dict(full.terms)
            for k, c in shifted.terms.items():
                expected[k] = expected.get(k, 0) - 2 * c
            assert delta_op(f, conv) == SPoly(h, {k: c for k, c in expected.items() if c})
            for key in f.terms:
                exps = dict(sparse(key))
                half |= Fraction(exps.get(t, 0)).denominator == 2
                inverse |= exps.get(t, 0) == -1
                tstar |= ts in exps
        assert half and inverse and tstar

    def test_divergence_full_vs_base(self, rng, chart):
        h = chart.hatted_version()
        for _ in range(50):
            f = random_poly(rng, h)
            extra = f.derive_left(h.var("#t")).derive_left(h.t_var)
            assert divergence_full(f) == divergence(f) + extra


class TestProjection:
    def test_projection_splits_weights(self, chart):
        h = chart.hatted_version()
        S = (
            chart["x"].transport(h) * h.t_power(Fraction(1, 2))
            + chart["y"].transport(h) * h.t_power(-2)
            + h["x"] * h["#t"]
        )
        parts = project_to_density(S)
        assert [(e.body, str(e.weight)) for e in parts] == [
            (chart["y"], "-2"),
            (chart["x"], "1/2"),
        ]
        # only a hatted polynomial has (t, #t) tails to split
        with pytest.raises(DomainError, match=r"only a hatted polynomial has \(t, #t\) tails"):
            project_to_density(chart["x"])

    def test_restrict_to_base_kills_fibers(self, chart):
        f = chart["x"] + chart["x"] * chart["#y"] + chart["xi"] * chart["#xi"]
        assert restrict_to_base(f) == chart["x"]


class TestRAry:
    def test_two_ary_antisymmetry(self, rng, small_chart):
        # S even of fiber degree 2: {f,g} = (-1)^((f+1)(g+1)) {g,f}
        C = small_chart
        S = C["x"] * C["#x"] * C["#y"] + C["xi"] * C["#xi"] * C["#y"]
        assert S.parity() == EVEN and S.fiber_degree() == 2
        for _ in range(200):
            f = restrict_to_base(random_poly(rng, C, n_terms=2))
            g = restrict_to_base(random_poly(rng, C, n_terms=2))
            fp = 0 if f.parity() is ANY else f.parity()
            gp = 0 if g.parity() is ANY else g.parity()
            sign = -1 if (fp + 1) * (gp + 1) % 2 else 1
            assert r_ary_bracket(S, [f, g]) == sign * r_ary_bracket(S, [g, f])

    def test_operator_parity(self, rng, small_chart):
        # the r-ary bracket operator has parity S + r
        C = small_chart
        cases = [
            (C["x"] * C["#x"], 1),
            (C["x"] * C["#x"] * C["#y"], 2),
            (C["xi"] * C["#x"], 1),
        ]
        for S, r in cases:
            sp = S.parity()
            for _ in range(60):
                args = []
                total = 0
                for _ in range(r):
                    a = restrict_to_base(random_poly(rng, C, n_terms=2))
                    ap = a.parity()
                    if ap is MIXED:
                        break
                    args.append(a)
                    total += 0 if ap is ANY else ap
                else:
                    out = r_ary_bracket(S, args)
                    if out.is_zero():
                        continue
                    assert out.parity() == (sp + r + total) % 2

    def test_jacobi_bridge(self, rng):
        # (pi, pi) = 0 implies the graded Jacobi identity for the 2-ary bracket
        C = Chart([("x1", EVEN), ("x2", EVEN), ("x3", EVEN)])
        pi = (
            C["x3"] * C["#x2"] * C["#x1"]
            + C["x1"] * C["#x3"] * C["#x2"]
            + C["x2"] * C["#x1"] * C["#x3"]
        )
        assert antibracket(pi, pi).is_zero()

        def pb(a, b):
            return r_ary_bracket(pi, [a, b])

        for _ in range(200):
            f = restrict_to_base(random_poly(rng, C, parity=EVEN, n_terms=2))
            g = restrict_to_base(random_poly(rng, C, parity=EVEN, n_terms=2))
            h = restrict_to_base(random_poly(rng, C, parity=EVEN, n_terms=2))
            jacobiator = pb(f, pb(g, h)) + pb(g, pb(h, f)) + pb(h, pb(f, g))
            assert jacobiator.is_zero()

    def test_negative_control_jacobi_violation(self):
        C = Chart([("x1", EVEN), ("x2", EVEN), ("x3", EVEN)])
        bad = (
            C["x3"] * C["#x2"] * C["#x1"]
            + C["x1"] * C["#x3"] * C["#x2"]
            + C["x1"] * C["#x1"] * C["#x3"]
        )
        assert not antibracket(bad, bad).is_zero()

    def test_rejects_fiber_arguments(self, small_chart):
        C = small_chart
        with pytest.raises(DomainError):
            r_ary_bracket(C["x"] * C["#x"], [C["#y"]])
