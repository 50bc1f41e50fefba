"""Acceptance gate: one test per criterion, each printing a single PASS/FAIL
line.  Every check is exact (Fraction arithmetic, zero tolerance) and every
derived identity is cross-checked against an independent oracle where one
exists.  The verdict lines bypass pytest's output capture, so a plain
`pytest -v` shows one line per criterion.
"""
import random
from fractions import Fraction

import pytest

from densalg import (
    ANY,
    Chart,
    CoordinateChange,
    DensityElement,
    EVEN,
    LieAlgebraData,
    ODD,
    PINNED,
    WeightOneError,
    antibracket,
    classify_lifts,
    convention_ledger,
    delta_op,
    density_evolution,
    divergence,
    divergence_wrt,
    lie_poisson,
    lift,
    lift_commutes_check,
    master_check,
    master_residual_of_lift,
    pin_convention,
    project_to_density,
    q_manifold_lifts,
    r_ary_bracket,
    restrict_to_base,
    supertrace_extension,
    transform_density,
    transform_hatted,
)
from densalg.brackets import _Suite
from densalg.classify import (
    attach_correction,
    change_basis,
    darboux_form,
    de_rham_element,
    monomial_ansatz,
    q_manifold_chart,
)
from densalg.cli import EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main as cli_main
from densalg.dsl import Interpreter, parse
from densalg.printing import poly_from_dict, poly_to_dict, poly_to_text
from conftest import dense_kernel_matrix, dense_nullspace, direct_density_evolution, random_poly

SEED = 909
N = 200
WEIGHTS = [Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(2)]


def _report(number, name, fn, capsys):
    # suspend capture so the verdict lines always reach the terminal
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print("ACCEPTANCE %d (%s): FAIL" % (number, name))
        raise
    with capsys.disabled():
        print("ACCEPTANCE %d (%s): PASS" % (number, name))


def _chart():
    return Chart([("x", EVEN), ("y", EVEN), ("xi", ODD), ("eta", ODD)])


def _parity(f):
    p = f.parity()
    return 0 if p is ANY else p


def _sign(e):
    return -1 if e % 2 else 1


def test_acceptance_1_algebra_laws(capsys):
    def run():
        rng = random.Random(SEED)
        chart = _chart()
        for _ in range(N):
            f = random_poly(rng, chart)
            g = random_poly(rng, chart)
            h = random_poly(rng, chart)
            # supercommutativity on parity-homogeneous samples
            assert f * g == _sign(_parity(f) * _parity(g)) * (g * f)
            # associativity and distributivity
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            # grading additivity
            if not (f * g).is_zero():
                assert (f * g).parity() == (_parity(f) + _parity(g)) % 2

    _report(1, "algebra laws", run, capsys)


def test_acceptance_2_convention_pinned(capsys):
    def run():
        # the identity suite admits exactly one candidate: the pinned one
        assert pin_convention(seed=2024) == PINNED
        rng = random.Random(SEED)
        assert _Suite(rng).first_failure(PINNED) is None
        # bracket symmetry / Leibniz / odd Jacobi at full sample count
        chart = _chart()
        for _ in range(N):
            f = random_poly(rng, chart)
            g = random_poly(rng, chart)
            h = random_poly(rng, chart)
            fp, gp, hp = _parity(f), _parity(g), _parity(h)
            assert antibracket(f, g) == _sign(fp * gp) * antibracket(g, f)
            assert antibracket(f * g, h) == _sign(fp) * (f * antibracket(g, h)) + _sign(
                gp * hp
            ) * (antibracket(f, h) * g)
            assert antibracket(f, antibracket(g, h)) == _sign(fp + 1) * antibracket(
                antibracket(f, g), h
            ) + _sign((fp + 1) * (gp + 1)) * antibracket(g, antibracket(f, h))
            # divergence is a derivation of the bracket
            assert divergence(antibracket(f, g)) == -antibracket(
                divergence(f), g
            ) - _sign(fp) * antibracket(f, divergence(g))
        # delta generates the bracket on the hatted chart
        h_chart = _chart().hatted_version()
        for _ in range(N):
            f = random_poly(rng, h_chart)
            g = random_poly(rng, h_chart)
            lhs = delta_op(f * g) - delta_op(f) * g - _sign(_parity(f)) * (f * delta_op(g))
            assert lhs == antibracket(f, g)
        # the ledger is emitted and justifies every pinned field
        text = convention_ledger()
        assert "Pinned sign convention" in text
        assert text.count("forced by:") == 12

    _report(2, "bracket identities pin the convention; ledger emitted", run, capsys)


def test_acceptance_3_nilpotency(capsys):
    def run():
        rng = random.Random(SEED)
        chart = _chart()
        hatted = chart.hatted_version()
        rho = hatted.t_power(Fraction(-2))
        for _ in range(N):
            f = random_poly(rng, chart)
            F = random_poly(rng, hatted)
            assert divergence(divergence(f)).is_zero()
            assert delta_op(delta_op(F)).is_zero()
            assert delta_op(F) == divergence_wrt(F, rho)

    _report(3, "nilpotency and delta == divergence_wrt(t^-2)", run, capsys)


def test_acceptance_4_lift_properties(capsys):
    def run():
        rng = random.Random(SEED)
        chart = _chart()
        count = 0
        while count < N:
            body = random_poly(rng, chart)
            if body.parity() not in (EVEN, ODD):
                continue
            count += 1
            lam = rng.choice(WEIGHTS)
            s = DensityElement(body, lam)
            S = lift(s)
            assert project_to_density(S) == [s]
            assert delta_op(S).is_zero()
            assert S.parity() == body.parity()
            assert S.fiber_degree() == body.fiber_degree()
        # the corrected weighted bracket commutes with the lift for all
        # admissible weight pairs
        pairs = [
            (a, b)
            for a in WEIGHTS
            for b in WEIGHTS
            if 1 not in (a, b) and a + b != 1
        ]
        for lam, mu in pairs:
            for _ in range(12):
                s = DensityElement(random_poly(rng, chart, n_terms=2), lam)
                u = DensityElement(random_poly(rng, chart, n_terms=2), mu)
                assert lift_commutes_check(s, u).is_zero()
        with pytest.raises(WeightOneError):
            lift(DensityElement(chart["x"] * chart["#x"], Fraction(1)))

    _report(4, "canonical lift: unique delta-closed extension", run, capsys)


def test_acceptance_5_coordinate_invariance(capsys):
    def run():
        rng = random.Random(SEED)
        src = Chart([("x", EVEN), ("y", EVEN)], name="src")
        tgt = Chart([("u", EVEN), ("v", EVEN)], name="tgt")
        changes = [
            CoordinateChange(
                src, tgt, {"x": tgt["u"], "y": tgt["v"]}, {"u": src["x"], "v": src["y"]}
            ),
            CoordinateChange(
                src,
                tgt,
                {"x": tgt["u"] + 2 * tgt["v"], "y": tgt["v"] - tgt["u"]},
                {
                    "u": Fraction(1, 3) * src["x"] - Fraction(2, 3) * src["y"],
                    "v": Fraction(1, 3) * src["x"] + Fraction(1, 3) * src["y"],
                },
            ),
            CoordinateChange(
                src,
                tgt,
                {"x": tgt["u"] + tgt["v"] * tgt["v"], "y": tgt["v"]},
                {"u": src["x"] - src["y"] * src["y"], "v": src["y"]},
            ),
        ]
        for ch in changes:
            lams = WEIGHTS if abs(ch.jac_det) in (1, 4) else [Fraction(0), Fraction(-1), Fraction(2)]
            for lam in lams:
                for _ in range(20):
                    s = DensityElement(random_poly(rng, src), lam)
                    assert transform_hatted(lift(s), ch) == lift(transform_density(s, ch))

    _report(5, "lift commutes with coordinate changes", run, capsys)


def test_acceptance_6_worked_examples(capsys):
    def run():
        # vector-field lift: X + w div X
        C1 = Chart([("x", EVEN)])
        X = C1["x"] * C1["x"] * C1["#x"]
        assert poly_to_text(lift(DensityElement(X, Fraction(0)))) == "x^2*#x + 2*x*w"
        # bivector lift with its divergence correction
        C2 = Chart([("x", EVEN), ("y", EVEN)])
        P = C2["x"] * C2["#x"] * C2["#y"]
        assert poly_to_text(lift(DensityElement(P, Fraction(0)))) == "x*#x*#y - #y*w"
        # constant symplectic structure lifts without correction
        CD = Chart([("p", EVEN), ("x", EVEN)])
        omega = darboux_form(CD)
        assert lift(DensityElement(omega, Fraction(0))) == omega.transport(
            CD.hatted_version()
        )
        # Lie-Poisson lifts: the supertrace functional, read off div(pi)
        so3 = LieAlgebraData(3, None, [
            (0, 1, 2, 1), (1, 0, 2, -1), (1, 2, 0, 1),
            (2, 1, 0, -1), (2, 0, 1, 1), (0, 2, 1, -1),
        ])
        assert master_check(lie_poisson(so3).body).is_zero()
        assert supertrace_extension(so3) == (0, 0, 0)
        solv = LieAlgebraData(2, None, [(0, 1, 1, 1), (1, 0, 1, -1)])
        assert supertrace_extension(solv) == (1, 0)
        # basis-change: the functional transforms as a covector
        rng = random.Random(SEED)
        phi = supertrace_extension(solv)
        for _ in range(10):
            while True:
                Pm = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
                if Pm[0][0] * Pm[1][1] - Pm[0][1] * Pm[1][0]:
                    break
            phi2 = supertrace_extension(change_basis(solv, Pm))
            assert phi2 == tuple(
                sum(Fraction(Pm[a][i]) * phi[a] for a in range(2)) for i in range(2)
            )

    _report(6, "worked examples: lifts and supertrace extension", run, capsys)


def test_acceptance_7_classification(capsys):
    def run():
        # residual formula on a full odd ansatz over a Poisson bivector
        C = Chart([("x1", EVEN), ("x2", EVEN), ("x3", EVEN)])
        pi = (
            C["x3"] * C["#x2"] * C["#x1"]
            + C["x1"] * C["#x3"] * C["#x2"]
            + C["x2"] * C["#x1"] * C["#x3"]
        )
        s0 = DensityElement(pi, Fraction(0))
        # the closed form against the bracket of the hatted lift with itself
        for Q in monomial_ansatz(C, 1, 2, ODD):
            assert master_residual_of_lift(s0, Q) == master_check(attach_correction(s0, Q))

        def check_against_oracle(s, kb):
            rows = dense_kernel_matrix(s, kb.ansatz)
            assert kb.basis == tuple(dense_nullspace(rows, len(kb.ansatz)))

        instances = 0
        # de Rham differential on the line: dimension d + 2 at bound d
        line = q_manifold_chart(1)
        s_line = DensityElement(de_rham_element(line), Fraction(0))
        for d in range(4):
            kb = q_manifold_lifts(line, d)
            assert kb.dimension == d + 2
            check_against_oracle(s_line, kb)
            instances += 1
        # Darboux plane: affine symplectic vector fields (dimension 5)
        CD = Chart([("p", EVEN), ("x", EVEN)])
        sD = DensityElement(darboux_form(CD), Fraction(0))
        kb = classify_lifts(sD, 1)
        assert kb.dimension == 5
        check_against_oracle(sD, kb)
        instances += 1
        for bound in (0, 2):
            check_against_oracle(sD, classify_lifts(sD, bound))
            instances += 1
        # Lie-Poisson structures
        so3 = LieAlgebraData(3, None, [
            (0, 1, 2, 1), (1, 0, 2, -1), (1, 2, 0, 1),
            (2, 1, 0, -1), (2, 0, 1, 1), (0, 2, 1, -1),
        ])
        for bound in (0, 1):
            s = lie_poisson(so3)
            check_against_oracle(s, classify_lifts(s, bound))
            instances += 1
        # de Rham differential on the plane
        plane = q_manifold_chart(2)
        s_plane = DensityElement(de_rham_element(plane), Fraction(0))
        for d in (0, 1):
            check_against_oracle(s_plane, q_manifold_lifts(plane, d))
            instances += 1
        assert instances >= 10

    _report(7, "classification of lifts vs dense oracle", run, capsys)


def test_acceptance_8_r_ary_layer(tmp_path, capsys):
    def run():
        rng = random.Random(SEED)
        C = Chart([("x", EVEN), ("y", EVEN), ("xi", ODD)])
        S = C["x"] * C["#x"] * C["#y"] + C["xi"] * C["#xi"] * C["#y"]
        assert S.parity() == EVEN and S.fiber_degree() == 2
        for _ in range(N):
            f = restrict_to_base(random_poly(rng, C, n_terms=2))
            g = restrict_to_base(random_poly(rng, C, n_terms=2))
            sign = _sign((_parity(f) + 1) * (_parity(g) + 1))
            assert r_ary_bracket(S, [f, g]) == sign * r_ary_bracket(S, [g, f])
        # operator parity: the output carries parity(S) + r + sum of inputs
        for T, r in ((C["x"] * C["#x"], 1), (S, 2), (C["xi"] * C["#x"], 1)):
            for _ in range(60):
                args = [restrict_to_base(random_poly(rng, C, n_terms=2)) for _ in range(r)]
                if any(a.parity() not in (EVEN, ODD, ANY) for a in args):
                    continue
                out = r_ary_bracket(T, args)
                if out.is_zero():
                    continue
                total = sum(_parity(a) for a in args)
                assert out.parity() == (_parity(T) + r + total) % 2
        # (pi, pi) = 0 implies graded Jacobi for the induced Poisson bracket
        B = Chart([("x1", EVEN), ("x2", EVEN), ("x3", EVEN)])
        pi = (
            B["x3"] * B["#x2"] * B["#x1"]
            + B["x1"] * B["#x3"] * B["#x2"]
            + B["x2"] * B["#x1"] * B["#x3"]
        )
        assert antibracket(pi, pi).is_zero()

        def pb(a, b):
            return r_ary_bracket(pi, [a, b])

        for _ in range(N):
            f = restrict_to_base(random_poly(rng, B, parity=EVEN, n_terms=2))
            g = restrict_to_base(random_poly(rng, B, parity=EVEN, n_terms=2))
            h = restrict_to_base(random_poly(rng, B, parity=EVEN, n_terms=2))
            assert (pb(f, pb(g, h)) + pb(g, pb(h, f)) + pb(h, pb(f, g))).is_zero()
        # negative control: Jacobi-violating constants -> residual + exit 4
        bad = tmp_path / "bad.dsl"
        bad.write_text(
            "chart C { even x1, x2, x3 }\n"
            "master(x3*#x2*#x1 + x1*#x3*#x2 + x1*#x1*#x3)\n"
        )
        code = cli_main([str(bad)])
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY
        assert "FAIL" in out and "residual" in out

    _report(8, "r-ary brackets: antisymmetry, parity, Jacobi bridge", run, capsys)


def test_acceptance_9_density_evolution(capsys):
    def run():
        rng = random.Random(SEED)
        C = Chart([("p", EVEN), ("x", EVEN)])
        for _ in range(N):
            H = restrict_to_base(random_poly(rng, C, parity=EVEN))
            f = restrict_to_base(random_poly(rng, C, parity=EVEN))
            psi = restrict_to_base(random_poly(rng, C, parity=EVEN))
            lam = rng.choice(WEIGHTS)
            # the closed form against the direct route and re-derived here
            out = density_evolution(H, f, psi, lam)
            assert out == direct_density_evolution(H, f, psi, lam)
            omega = darboux_form(C)
            h = C.hatted_version()
            closed = (
                r_ary_bracket(omega, [H, psi])
                + lam * r_ary_bracket(omega, [H, f]) * psi
            ).transport(h) * h.t_power(lam)
            assert out == closed

    _report(9, "weighted density evolution", run, capsys)


def test_acceptance_10_cli(tmp_path, capsys):
    def run():
        # print -> parse round trip
        rng = random.Random(SEED)
        chart = Chart([("x", EVEN), ("y", EVEN), ("xi", ODD)], name="C")
        header = "chart C { even x, y; odd xi }\n"
        for _ in range(N):
            f = random_poly(rng, chart, n_terms=4)
            interp = Interpreter()
            interp.run(parse(header + "let g = " + poly_to_text(f) + "\n"))
            assert interp.bindings["g"] == f
        # JSON export -> import round trip
        for _ in range(50):
            f = random_poly(rng, chart, n_terms=4)
            assert poly_from_dict(poly_to_dict(f), chart) == f
        # deterministic byte-identical reruns
        script = tmp_path / "det.dsl"
        script.write_text(
            "chart C { even x, y; odd xi }\n"
            "let f = x^2*#x + y*#y*#x - xi*#xi\n"
            "bracket(f, f)\n"
            "div(f)\n"
            "classify(x*#y + y*#x, 0, 1)\n"
        )
        outs = []
        for _ in range(2):
            assert cli_main([str(script), "--json"]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        # exit-code contract on the three scripted scenarios
        ok = tmp_path / "ok.dsl"
        ok.write_text(
            "chart C { even x1, x2, x3 }\n"
            "master(x3*#x2*#x1 + x1*#x3*#x2 + x2*#x1*#x3)\n"
        )
        dom = tmp_path / "dom.dsl"
        dom.write_text("chart C { even x }\nlift(x^2*#x, 1)\n")
        bad = tmp_path / "bad.dsl"
        bad.write_text(
            "chart C { even x1, x2, x3 }\n"
            "master(x3*#x2*#x1 + x1*#x3*#x2 + x1*#x1*#x3)\n"
        )
        syn = tmp_path / "syn.dsl"
        syn.write_text("chart C { even x\n")
        assert cli_main([str(ok)]) == EXIT_OK
        capsys.readouterr()
        assert cli_main([str(dom)]) == EXIT_DOMAIN
        capsys.readouterr()
        assert cli_main([str(bad)]) == EXIT_VERIFY
        capsys.readouterr()
        assert cli_main([str(syn)]) == EXIT_PARSE
        capsys.readouterr()

    _report(10, "CLI round trips, determinism, exit codes", run, capsys)
