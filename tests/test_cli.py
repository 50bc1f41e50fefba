"""The densalg command line tool and the expression DSL."""
import io
import json
import random
import re
import sys
from pathlib import Path

import pytest

import densalg
from densalg import Chart, DensalgError, DomainError, EVEN, ODD
from densalg.cli import EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main
from densalg.dsl import COMMANDS, Interpreter, ParseError, parse
from densalg.printing import poly_from_dict, poly_to_dict, poly_to_text
from conftest import random_poly


SO3_JSON = {
    "dimension": 3,
    "names": ["x1", "x2", "x3"],
    "constants": [
        [1, 2, 3, "1"], [2, 1, 3, "-1"],
        [2, 3, 1, "1"], [3, 2, 1, "-1"],
        [3, 1, 2, "1"], [1, 3, 2, "-1"],
    ],
}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        script = write(tmp_path, "ok.dsl", """
            chart C { even x1, x2, x3 }
            master(x3*#x2*#x1 + x1*#x3*#x2 + x2*#x1*#x3)
        """)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_OK
        assert "master: PASS" in out

    def test_parse_error(self, tmp_path, capsys):
        script = write(tmp_path, "bad.dsl", "chart C { even x\n")
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_PARSE
        assert "bad.dsl" in err

    def test_domain_error_weight_one_lift(self, tmp_path, capsys):
        script = write(tmp_path, "dom.dsl", """
            chart C { even x }
            lift(x^2*#x, 1)
        """)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_DOMAIN
        assert err.strip()

    @pytest.mark.parametrize("bound", ["1/2", "-1"])
    def test_domain_error_bad_classify_bound(self, tmp_path, capsys, bound):
        script = write(tmp_path, "bound.dsl", """
            chart C { even p, q }
            classify(#p*#q, 0, %s)
        """ % bound)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_DOMAIN
        assert "bound" in err and bound in err
        assert "dimension" not in out

    def test_domain_error_zero_classify(self, tmp_path, capsys):
        script = write(tmp_path, "zero_s.dsl", """
            chart C { even p, q }
            classify(0, 0, 1)
        """)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_DOMAIN
        assert "3:13:" in err and "fiber degree" in err and "homogeneous" not in err
        assert "dimension" not in out

    @pytest.mark.parametrize("expr", ["x/0", "0^(-1)", "(x)^(-1)", "x^(-2)"])
    def test_domain_error_zero_division(self, tmp_path, capsys, expr):
        script = write(tmp_path, "zero.dsl", """
            chart C { even x }
            let f = %s
        """ % expr)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_DOMAIN
        column = 21 + expr.index("/" if "/" in expr else "^")
        assert "3:%d:" % column in err  # the operator's line:col

    @pytest.mark.parametrize("expr, position", [("2^(1/2)", "3:22:"), ("(0-1)^(1/2)", "3:26:")])
    def test_domain_error_irrational_constant_power(self, tmp_path, capsys, expr, position):
        script = write(tmp_path, "root.dsl", """
            chart C { even x }
            let f = %s
        """ % expr)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_DOMAIN
        assert position in err  # the operator's line:col
        assert "not rational" in err and "rescal" not in err

    @pytest.mark.parametrize("expr", ["(" * 3000 + "x" + ")" * 3000, "x" + "^1" * 3000],
                             ids=["parentheses", "power_chain"])
    def test_parse_error_too_deep(self, tmp_path, capsys, expr):
        script = write(tmp_path, "deep.dsl", "chart C { even x }\nlet f = %s\n" % expr)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_PARSE
        assert "2:1: expression nested too deeply" in err  # the statement's line:col

    def test_flat_sum_evaluates(self, tmp_path, capsys):
        script = write(tmp_path, "flat.dsl", "chart C { even x }\nlet f = %s\ndiv(f*#x)\n"
                       % "+".join(["x"] * 5000))
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_OK
        assert out == "div = 5000\n"  # f = 5000*x

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("expr, value", [
        ("2^2^2^2^2", 2 ** 65536),  # 19,729 digits
        ("7" * 5000, (10 ** 5000 - 1) // 9 * 7),
    ], ids=["power_tower", "literal"])
    def test_huge_integers_exact(self, tmp_path, capsys, expr, value, flags):
        # past Python's 4,300-digit int/str conversion limit, in and out
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        script = write(tmp_path, "huge.dsl", "chart C { even x }\nlet f = %s*x\ndiv(f*#x)\n" % expr)
        code, out, err = run_cli(capsys, [script] + flags)
        assert code == EXIT_OK, err
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit  # restored
        digits = ""
        while value:  # 1,000 digits at a time, each conversion within the limit
            value, chunk = divmod(value, 10 ** 1000)
            digits = "%01000d" % chunk + digits
        digits = digits.lstrip("0")
        if flags:
            assert json.loads(out)["poly"]["terms"] == [{"coeff": digits, "exponents": {}}]
        else:
            assert out == "div = %s\n" % digits

    def test_parse_error_keeps_earlier_output(self, tmp_path, capsys):
        script = write(tmp_path, "name.dsl", """
            chart C { even x }
            lift(x*#x, 0)
            let g = zz + 1
        """)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_PARSE
        assert out.startswith("lift = ")
        assert "4:21:" in err and "zz" in err

    @pytest.mark.parametrize("content", [
        None,
        '{"dimension": 3',
        '{"dimension": 3}',
        '{"dimension": 1, "parities": [2], "constants": []}',
        '{"dimension": 1, "names": ["t"], "constants": []}',
        '{"dimension": 2, "names": ["a", "a"], "constants": []}',
        '{"dimension": 2, "names": [1, 2], "constants": [[1, 2, 1, "1"], [2, 1, 1, "-1"]]}',
        '{"dimension": 2, "names": ["b", "#b"], "constants": []}',
        '{"dimension": 2, "names": ["a b", "2c"], "constants": [[1, 2, 1, "1"], [2, 1, 1, "-1"]]}',
        '{"dimension": 3.9, "constants": []}',
        '{"dimension": 3, "parities": [0.5, 0, 0], "constants": []}',
        '{"dimension": 3, "constants": [[1.7, 2, 3, "1"], [2, 1, 3, "-1"]]}',
        '{"dimension": Infinity, "constants": []}',
        '{"dimension": 2, "constants": [[1, 2, 1, Infinity], [2, 1, 1, -Infinity]]}',
        '{"dimension": 2, "parities": [0, 1], "constants": [[1, 2, 1, "1"], [2, 1, 1, "-1"]]}',
    ])
    def test_domain_error_bad_liealg_file(self, tmp_path, capsys, monkeypatch, content):
        monkeypatch.chdir(tmp_path)  # the path resolves against the working directory
        if content is not None:
            write(tmp_path, "g.json", content)
        script = write(tmp_path, "g.dsl", 'liealg("g.json")\n')
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_DOMAIN
        assert "g.json" in err
        if content and '"names": ["' in content:
            assert "bad or duplicate coordinate name" in err
        if content and '"parities": [0, 1]' in content:
            assert "(0,1,0) breaks parity" in err

    def test_unicode_digits(self, tmp_path, capsys):
        # '²' is a digit to str.isdigit but no decimal digit; Arabic-Indic '٣' is 3
        script = write(tmp_path, "sup.dsl", "chart C { even x }\nlet a = ²*x\n")
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_PARSE
        assert "2:9: unexpected character '²'" in err
        script = write(tmp_path, "arabic.dsl", "chart C { even x }\nlet a = ٣*x\ndiv(a*#x)\n")
        code, out, err = run_cli(capsys, [script])
        assert (code, out) == (EXIT_OK, "div = 3\n")

    @pytest.mark.parametrize("command", [
        "bracket()", "div()", "delta()", "project()", "master()", "lift(x)", "classify(x)",
        "evolve(x, x)", "liealg()", "transform(x)", "bracket(x, x, x)",
    ])
    def test_parse_error_arity(self, tmp_path, capsys, command):
        script = write(tmp_path, "arity.dsl", "chart C { even x }\n%s\n" % command)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_PARSE
        assert "2:1:" in err  # the statement's line:col

    @pytest.mark.parametrize("src, flags, position", [
        ("chart C { even x }\nlift(x^2*#x, 1)\n", [], "2:1:"),
        ("chart A { even x }\nlet f = x*#x\nchart B { even y }\nbracket(f, y)\n", [], "4:1:"),
        ("chart A { even x }\nchart B { even u }\n"
         "change R : A -> B { forward { z = u } inverse { u = x } }\n", [], "3:1:"),
        ("chart A { even x }\nlet f = x^2\nchart B { even u }\n"
         "change R : A -> B { forward { x = 0 - u } inverse { u = 0 - x } }\ntransform(f, R)\n",
         ["--strict-orientation"], "5:1:"),
    ], ids=["weight_one", "chart_mismatch", "unknown_variable", "orientation"])
    def test_kernel_error_names_statement(self, tmp_path, capsys, src, flags, position):
        script = write(tmp_path, "kernel.dsl", src)
        code, out, err = run_cli(capsys, [script] + flags)
        assert code == EXIT_DOMAIN
        assert err.startswith("densalg: %s: %s " % (script, position))
        assert '"' not in err  # no KeyError quoting around the message

    def test_verification_failure_jacobi(self, tmp_path, capsys):
        script = write(tmp_path, "fail.dsl", """
            chart C { even x1, x2, x3 }
            master(x3*#x2*#x1 + x1*#x3*#x2 + x1*#x1*#x3)
        """)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_VERIFY
        assert "master: FAIL" in out
        assert "residual" in out

    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, ["/nonexistent/path.dsl"])
        assert code == EXIT_PARSE


class TestPrintParseRoundTrip:
    def test_randomized(self, rng):
        chart = Chart(
            [("x", EVEN), ("y", EVEN), ("xi", ODD)], name="C"
        )
        header = "chart C { even x, y; odd xi }\n"
        for _ in range(100):
            f = random_poly(rng, chart, n_terms=4)
            text = poly_to_text(f)
            interp = Interpreter()
            interp.run(parse(header + "let g = " + text + "\n"))
            assert interp.bindings["g"] == f

    def test_hatted_with_w_sugar(self, rng):
        chart = Chart([("x", EVEN), ("xi", ODD)], name="H", hatted=True)
        header = "chart H hatted { even x; odd xi }\n"
        for _ in range(100):
            f = random_poly(rng, chart, n_terms=4)
            text = poly_to_text(f)
            interp = Interpreter()
            interp.run(parse(header + "let g = " + text + "\n"))
            assert interp.bindings["g"] == f

    def test_zero(self):
        interp = Interpreter()
        interp.run(parse("chart C { even x }\nlet g = x - x\n"))
        assert interp.bindings["g"].is_zero()
        assert poly_to_text(interp.bindings["g"]) == "0"


class TestJsonOutput:
    def test_json_lines_and_poly_roundtrip(self, tmp_path, capsys):
        script = write(tmp_path, "j.dsl", """
            chart C { even x; odd xi }
            bracket(x^2*#x, x*xi)
            div(x^2*#x + xi*#xi)
        """)
        code, out, err = run_cli(capsys, [script, "--json"])
        assert code == EXIT_OK
        chart = Chart([("x", EVEN), ("xi", ODD)], name="C")
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [d["label"] for d in lines] == ["bracket", "div"]
        for d in lines:
            f = poly_from_dict(d["poly"], chart)
            assert poly_to_dict(f) == d["poly"]
        # div(x^2 #x + xi #xi) = 2x - 1
        div = poly_from_dict(lines[1]["poly"], chart)
        assert div == 2 * chart["x"] - chart.const(1)

    @pytest.mark.parametrize("terms", [
        [("1", {"x": "1/2"})],
        [("1", {"xi": 2})],
        [("0", {"x": 1})],
        [("1", {"x": -1})],
        [("1", {"x": 1}), ("2", {"x": 1})],
    ], ids=["fractional_power", "odd_square", "zero_coefficient", "negative_power", "repeated"])
    def test_poly_from_dict_rejects(self, terms):
        chart = Chart([("x", EVEN), ("xi", ODD)], name="C")
        d = {"terms": [{"coeff": c, "exponents": e} for c, e in terms]}
        with pytest.raises(DomainError):
            poly_from_dict(d, chart)

    def test_determinism(self, tmp_path, capsys):
        script = write(tmp_path, "d.dsl", """
            chart C { even x, y; odd xi }
            let f = x^2*#x + y*#y*#x - xi*#xi
            bracket(f, f)
            div(f)
            master(x*#x*#y)
            classify(x*#y + y*#x, 0, 1)
        """)
        outs = []
        for _ in range(2):
            code, out, err = run_cli(capsys, [script, "--json"])
            assert code == EXIT_OK
            outs.append(out)
        assert outs[0] == outs[1]


class TestCommands:
    def test_lift_and_delta(self, tmp_path, capsys):
        script = write(tmp_path, "l.dsl", """
            chart C { even x }
            lift(x^2*#x, 2)
            chart H hatted { even x }
            delta(x^2*#x*w)
        """)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("lift = ")
        assert "t" in lines[0]
        assert lines[1].startswith("delta = ")

    def test_project(self, tmp_path, capsys):
        script = write(tmp_path, "p.dsl", """
            chart H hatted { even x, y }
            project(x*t^(1/2) + y*t^(-2))
        """)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_OK
        assert "project[weight -2] = y" in out
        assert "project[weight 1/2] = x" in out

    def test_rary_and_evolve(self, tmp_path, capsys):
        script = write(tmp_path, "r.dsl", """
            chart P { even p, x }
            rary(#p*#x; p^2, x)
            evolve(p^2, x, x, 1/2)
        """)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("rary = ")
        assert lines[1].startswith("evolve = ")
        assert "t^(1/2)" in lines[1]

    def test_liealg_from_json(self, tmp_path, capsys):
        path = write(tmp_path, "so3.json", json.dumps(SO3_JSON))
        script = write(tmp_path, "g.dsl", 'liealg("%s")\n' % path)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_OK
        assert "jacobi PASS" in out
        assert "supertrace functional (0, 0, 0)" in out

    def test_liealg_json_decimals_exact(self, tmp_path, capsys, monkeypatch):
        # a JSON decimal reads as written, the same as the string "1/10"
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "g.json", '{"dimension": 2, "constants": [[1, 2, 1, 0.1], [2, 1, 1, -0.1]]}')
        script = write(tmp_path, "g.dsl", 'liealg("g.json")\n')
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_OK
        assert "pi = -1/10*x1*#x1*#x2" in out
        assert "supertrace functional (0, -1/10)" in out

    def test_classify_darboux(self, tmp_path, capsys):
        script = write(tmp_path, "c.dsl", """
            chart P { even p, x }
            classify(#p*#x - 0*#x + #x*#p*0, 0, 1)
        """)
        # omega = #p #x (plus vanishing noise terms exercising the parser)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_OK
        assert "classify: dimension 5" in out

    def test_transform(self, tmp_path, capsys):
        script = write(tmp_path, "t.dsl", """
            chart OLD { even x, y }
            let X = x*#x + y*#y*#x
            chart NEW { even u, v }
            change CH : OLD -> NEW { forward { x = u + v^2; y = v } inverse { u = x - y^2; v = y } }
            transform(X, CH)
        """)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_OK
        assert out.startswith("transform = ")

    def test_strict_orientation_rejects_reflection(self, tmp_path, capsys):
        script = write(tmp_path, "o.dsl", """
            chart A { even x }
            let f = x^2
            chart B { even u }
            change R : A -> B { forward { x = 0 - u } inverse { u = 0 - x } }
            transform(f, R)
        """)
        code, out, err = run_cli(capsys, [script, "--strict-orientation"])
        assert code == EXIT_DOMAIN
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_OK


class TestLedger:
    def test_ledger_flag(self, capsys):
        code, out, err = run_cli(capsys, ["--ledger"])
        assert code == EXIT_OK
        assert "Pinned sign convention" in out
        assert out.count("forced by:") == 12

    def test_ledger_seed_stability(self, capsys):
        code1, out1, _ = run_cli(capsys, ["--ledger", "--seed", "2024"])
        code2, out2, _ = run_cli(capsys, ["--ledger", "--seed", "7"])
        assert code1 == code2 == EXIT_OK
        # a different exploration seed pins the same convention
        assert out1.splitlines()[:6] == out2.splitlines()[:6]

    def test_ledger_matches_doc(self, capsys):
        code, out, err = run_cli(capsys, ["--ledger"])
        assert code == EXIT_OK
        doc = Path(__file__).resolve().parent.parent / "docs" / "convention_ledger.txt"
        assert out + "\n(Regenerate with: densalg --ledger)\n" == doc.read_text(encoding="utf-8")


class TestTourGolden:
    """`densalg demos/tour.dsl` and `densalg demos/transport.dsl` print exactly
    the recorded output; regenerate tests/data/ with those commands only for an
    intended change of an answer."""

    def check(self, capsys, script, flags, golden):
        code, out, err = run_cli(capsys, [str(script)] + flags)
        assert code == EXIT_OK and err == ""
        recorded = Path(__file__).resolve().parent / "data" / golden
        assert out.encode("utf-8") == recorded.read_bytes()

    @pytest.mark.parametrize("flags, golden", [([], "tour.txt"), (["--json"], "tour.jsonl")])
    def test_tour_output_is_unchanged(self, capsys, flags, golden):
        self.check(capsys, TOUR, flags, golden)

    @pytest.mark.parametrize("flags, golden",
                             [([], "transport.txt"), (["--json"], "transport.jsonl")])
    def test_transport_output_is_unchanged(self, capsys, flags, golden):
        self.check(capsys, TRANSPORT, flags, golden)


class TestParseErrors:
    @pytest.mark.parametrize("src", [
        "chart C { even x }\nlet f = x +\n",
        "chart C { even x }\nbracket(x)\nextra(\n",
        "let f = x\n",          # no chart in scope
        "chart C { even x }\nlift(x, y)\n",  # polynomial where a rational is due
        "chart C { even x, x }\n",  # repeated coordinate
        "chart C { even t }\n",     # reserved name
    ])
    def test_bad_scripts(self, src):
        with pytest.raises(ParseError):
            interp = Interpreter()
            interp.run(parse(src))

    @pytest.mark.parametrize("maps, position", [
        ("forward { x = u; y = v; x = 2*u }\n  inverse { u = x; v = y }", (4, 27)),
        ("forward { x = u; y = v }\n  inverse { u = x; v = y; v = y }", (5, 27)),
    ])
    def test_change_gives_a_coordinate_twice(self, maps, position):
        src = "chart A { even x, y }\nchart B { even u, v }\nchange R : A -> B {\n  %s\n}\n"
        with pytest.raises(ParseError, match="twice") as exc:
            parse(src % maps)
        assert (exc.value.line, exc.value.column) == position

    def test_dsl_names_print_and_parse_back(self):
        for names in (["x.y", "b"], ["_a", "b1"], ["x²", "b"]):
            chart = Chart([(n, EVEN) for n in names])
            a, b = (chart[n] for n in names)
            f = a * chart["#" + names[1]] - 2 * chart["#" + names[0]] * chart["#" + names[1]] + b
            interp = Interpreter()
            interp.run(parse("chart A { even %s }\nlet f = %s\n"
                             % (", ".join(names), poly_to_text(f))))
            assert interp.bindings["f"] == f

    def test_error_carries_position(self):
        try:
            parse("chart C { even x }\nlet f = x + @\n")
        except ParseError as exc:
            assert exc.line == 2
            assert exc.column > 0
        else:  # pragma: no cover
            pytest.fail("expected a ParseError")


class TestErrorModel:
    def test_one_base_class(self):
        classes = {
            obj
            for name, module in sys.modules.items()
            if name == "densalg" or name.startswith("densalg.")
            for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__.startswith("densalg")
        }
        public = {densalg.DomainError, densalg.ChartMismatchError, densalg.SubstitutionError,
                  densalg.UnknownVariableError, densalg.WeightOneError,
                  densalg.OrientationError, ParseError}
        assert public <= classes
        assert all(issubclass(cls, DensalgError) for cls in classes)
        assert issubclass(densalg.UnknownVariableError, KeyError)
        assert densalg.brackets.DomainError is DomainError
        # outside a script there is no position, and no KeyError quoting
        assert str(densalg.UnknownVariableError("no variable 'z'")) == "no variable 'z'"
        assert str(DomainError("bad", 2, 7)) == "2:7: bad"


TOUR = Path(__file__).resolve().parent.parent / "demos" / "tour.dsl"
TRANSPORT = TOUR.with_name("transport.dsl")
SO3 = Path(__file__).resolve().parent.parent / "demos" / "so3.json"
_TOKEN = re.compile(r'"[^"]*"|->|#?\w+|\S')


def _kind(token):
    if token.isdigit():
        return "int"
    if token[0] == "#" or token[0].isalpha():
        return "name"
    return "operator" if token in "+-*/^" else token


class TestFuzz:
    # chart header -> arguments that live on its chart
    HEADERS = {
        "chart C { even x1, x2, x3 }":
            ["x1^2", "x2", "#x3", "x3*#x2*#x1 + x1*#x3*#x2 + x2*#x1*#x3"],
        "chart P { even p, x }": ["p^2/2", "x", "p^2*#p", "#p*#x"],
        "chart H hatted { even x }": ["x^2*#x*w", "x*t^(1/2)", "w", "#t"],
        "chart B { even u }\nchart A { even x }\n"
        "change R : A -> B { forward { x = 2*u } inverse { u = x/2 } }": ["x^2*#x", "x", "R", "u"],
    }
    CONSTANTS = ["0", "1", "2", "3", "1/2", "-1"]
    PATHS = ['"%s"' % SO3, '"missing.json"']
    EXTRA_TOKENS = ["0", "1", "2", "3", ",", ";", "(", ")", "^", "/", "-", "+", "*",
                    "t", "w", "#t", "y", "{", "}", "let", "chart", "\n"]

    def tour_cases(self):
        """Token lists of each demos/tour.dsl statement under its chart."""
        lines = [line for line in TOUR.read_text().splitlines()
                 if line.strip() and not line.startswith("--")]
        cases, header = [], None
        for line in lines:
            if line.startswith("chart"):
                header = line
            else:
                cases.append(_TOKEN.findall(header) + ["\n"] + _TOKEN.findall(line))
        return cases

    def mutate(self, rng, tokens, pool):
        """Drop, duplicate, swap or replace tokens; a replacement is mostly
        of the same kind (integer, name, operator), so that the script often
        still parses and reaches the kernel."""
        tokens = list(tokens)
        statement = tokens.index("\n") + 1
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            # mostly in the statement, sometimes in its chart header
            i = rng.randrange(0 if rng.random() < 0.2 else statement, len(tokens))
            op = rng.choice(("drop", "duplicate", "swap", "replace", "replace", "replace"))
            if op == "drop" and len(tokens) > 1:
                del tokens[i]
            elif op == "duplicate":
                tokens.insert(i, tokens[i])
            elif op == "swap" and i + 1 < len(tokens):
                tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
            else:
                same = [t for t in pool if _kind(t) == _kind(tokens[i])]
                tokens[i] = rng.choice(same if same and rng.random() < 0.75 else pool)
        return " ".join(tokens)

    def command(self, rng, arguments):
        """A command with, three times in ten, a random argument count."""
        name = rng.choice(list(COMMANDS))
        count = COMMANDS[name] or 3  # rary(S; f1, f2)
        if rng.random() < 0.3:
            count = rng.randint(0, 5)
        if name == "liealg" and rng.random() < 0.75:
            args = [rng.choice(self.PATHS) for _ in range(count)]
        else:
            args = [rng.choice(self.CONSTANTS if rng.random() < 0.4 else arguments)
                    for _ in range(count)]
        text = ", ".join(args)
        if name == "rary" and rng.random() < 0.75:
            text = text.replace(", ", "; ", 1)
        return "%s(%s)" % (name, text)

    def test_grammar_fuzz(self, monkeypatch, capsys):
        """About 200 seeded scripts through the CLI: token mutations (drop,
        duplicate, swap, replace) of the tour's statements under their chart,
        and commands with random argument counts.  Each exits 0, 2, 3 or 4
        with no escaping exception, and exits 2 and 3 name a line:col of the
        script.  Integer literals stay within 0..3; exhausting resources on
        huge exact work, such as (x+1)^(3^3^3), is out of scope."""
        rng = random.Random(5)
        tour = self.tour_cases()
        pool = sorted({tok for case in tour for tok in case}) + self.EXTRA_TOKENS
        scripts = [self.mutate(rng, rng.choice(tour), pool) for _ in range(120)]
        for _ in range(80):
            header, arguments = rng.choice(sorted(self.HEADERS.items()))
            scripts.append("%s\n%s\n%s" % (header, self.command(rng, arguments),
                                             self.command(rng, arguments)))
        for text in scripts:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            try:
                code = main([])
            except Exception as exc:  # pragma: no cover - reported as the failure
                pytest.fail("%r escaped on script %r" % (exc, text))
            err = capsys.readouterr().err
            assert code in (EXIT_OK, EXIT_PARSE, EXIT_DOMAIN, EXIT_VERIFY), (text, err)
            if code in (EXIT_PARSE, EXIT_DOMAIN):
                position = re.match(r"densalg: <stdin>: (\d+):(\d+): ", err)
                assert position, (text, err)
                assert 1 <= int(position.group(1)) <= text.count("\n") + 1, (text, err)
