"""The densalg command line tool and the expression DSL."""
import inspect
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from operator import neg
from pathlib import Path

import pytest

import densalg
from densalg import Chart, DensalgError, DensityElement, DomainError, EVEN, ODD
from densalg import LieAlgebraData, classify_lifts, density_evolution, q_manifold_lifts
from densalg import PINNED, pin_convention
from densalg.classify import change_basis, q_manifold_chart
from densalg.cli import EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, build_parser, main
from densalg.dsl import COMMANDS, Interpreter, ParseError, _tokenize, parse
from densalg.printing import poly_from_dict, poly_to_dict, poly_to_text
from densalg.spoly import SPoly, _is_name
from conftest import hatted_poly, random_poly


SO3_JSON = {
    "dimension": 3,
    "names": ["x1", "x2", "x3"],
    "constants": [
        [1, 2, 3, "1"], [2, 1, 3, "-1"],
        [2, 3, 1, "1"], [3, 2, 1, "-1"],
        [3, 1, 2, "1"], [1, 3, 2, "-1"],
    ],
}


# constants that break the Jacobi identity
BAD_JACOBI_JSON = {"dimension": 3, "constants": [
    [1, 2, 3, 1], [2, 1, 3, -1], [2, 3, 1, 1], [3, 2, 1, -1], [1, 3, 1, 1], [3, 1, 1, -1]]}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def hostile_values(rng):
    """Values no caller should pass where a number, string, sequence, map or
    polynomial belongs: a result or a DensalgError, never a raw Python error."""
    big = rng.randint(10 ** 5000, 10 ** 5001)
    return [None, True, False, float("nan"), float("inf"), 1.5, "a", "1/0", "", object(),
            big, -big, Fraction(1, big), [big], [[big]], (), {},
            [rng.randint(-9, 9) for _ in range(rng.randint(3, 6))]]


def _trinomial_power_text(n):
    """(1 + x + x^2)^n as printed, its coefficients from repeated convolution."""
    c = [1]
    for _ in range(n):
        c = [sum(c[k - j] for j in range(3) if 0 <= k - j < len(c)) for k in range(len(c) + 2)]
    return " + ".join("*".join(f for f in ("%d" % c[k] if c[k] > 1 or not k else "",
                                            "x^%d" % k if k > 1 else "x" if k else "") if f)
                      for k in reversed(range(len(c))))


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

    @pytest.mark.parametrize("args, script, code, message, output", [
        ([], "chart C { even x }\nbracket(x, #x)\n", EXIT_OK, "", "bracket = 1\n"),
        ([], "chart C { even x }\nlift(x*#x, 1)\n", EXIT_DOMAIN, "densalg: <stdin>: 2:1: ", ""),
        ([], "chart C {", EXIT_PARSE, "densalg: <stdin>: 1:10: ", ""),
        (["/nonexistent.dsl"], "", EXIT_PARSE, "densalg: cannot read /nonexistent.dsl: ", ""),
    ], ids=["ok", "domain_error", "parse_error", "unreadable"])
    @pytest.mark.parametrize("how", ["reader_gone", "fd_closed"])
    @pytest.mark.parametrize("stream", ["stdout", "stderr"])
    def test_closed_stdout(self, stream, how, args, script, code, message, output):
        # a stream is gone: its reader went away before the first write, as in
        # `densalg | true`, or its descriptor was closed before the run, as in
        # `densalg >&-`; the run still exits with its own code, and the stream
        # still open holds what the run wrote to it, without a traceback
        argv = [sys.executable, "-m", "densalg.cli", *args]
        pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        read_end, write_end = os.pipe()
        os.close(read_end)
        if how == "reader_gone":
            pipes[stream] = write_end
        else:
            argv = ["sh", "-c", 'exec "$@" %d>&-' % (1 if stream == "stdout" else 2), "sh", *argv]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        try:
            proc = subprocess.run(argv, input=script.encode(), env=env, timeout=60, **pipes)
        finally:
            os.close(write_end)
        still_open = (proc.stderr if stream == "stdout" else proc.stdout).decode()
        assert proc.returncode == code
        assert "Traceback" not in still_open and "Exception ignored" not in still_open
        if stream == "stdout":
            assert still_open.startswith(message) and bool(still_open) == bool(message)
        else:
            assert still_open == output

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

    def test_domain_error_classify_even_s_at_nonzero_weight(self, tmp_path, capsys):
        # (s, Q) = 0 is the master equation only at weight 0: #z solves it for
        # s = #x#y, but lift(s) + #z t^3 #t is not Poisson at weight 2
        script = write(tmp_path, "w.dsl", "chart C { even x, y, z }\nclassify(#x*#y, 2, 0)\n")
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_DOMAIN
        assert "w.dsl: 2:1: (s, Q) = 0 is the master equation of an even s only at weight 0" in err
        assert "dimension" not in out

    def test_domain_error_classify_huge_bound(self, tmp_path, capsys):
        # the ansatz is counted, not enumerated, before it is refused
        script = write(tmp_path, "big.dsl", "chart C { even x, y, z }\nclassify(#x*#y, 0, 100000)\n")
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_DOMAIN
        assert "big.dsl: 2:1: the ansatz may have 666706667400004 columns, over 65536" in err
        assert "dimension" not in out

    def test_domain_error_project_unhatted(self, tmp_path, capsys):
        script = write(tmp_path, "proj.dsl", "chart C { even x }\nproject(x)\n")
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_DOMAIN
        assert "proj.dsl: 2:1: only a hatted polynomial has (t, #t) tails" in err
        assert out == ""

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

    @pytest.mark.parametrize("expr, position", [
        ("2^(1/2)", "3:22:"), ("(0-1)^(1/2)", "3:26:"), ("2^(1/1000000000)", "3:22:"),
    ])
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
        # ';' separates argument groups of rary only
        "bracket(x; #x)", "div(x*#x;)", "delta(x; x)", "lift(x*#x; 0)", "project(x;)",
        "master(x;)", "classify(x*#x; 0, 1)", 'liealg("g.json";)', "evolve(x, x; x, 1)",
        "transform(x; R)", "rary(x*#x)", "rary(x*#x, x)",
    ])
    def test_parse_error_arity(self, tmp_path, capsys, command):
        script = write(tmp_path, "arity.dsl", "chart C { even x }\n%s\n" % command)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_PARSE
        assert "2:1:" in err  # the statement's line:col

    @pytest.mark.parametrize("command", [
        'bracket("a", x)', 'lift(x, "a")', "lift(x, x)", "liealg(x)", "transform(x, 3)",
        "transform(x, Q)", "rary(x, x)", "rary(x; x; x)", 'classify(x*#x, 0, "b")',
        "lift(x*#x, x+1)", "lift(x*#x, (x)+1)", "lift(x*#x, -x)",
    ])
    def test_parse_error_argument_kind(self, tmp_path, capsys, command):
        script = write(tmp_path, "kind.dsl", "chart C { even x }\n%s\n" % command)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_PARSE
        position = re.match(r"densalg: %s: 2:(\d+): " % re.escape(script), err)
        assert position, err
        # a kind error points at the argument's first character, not at an operator
        # inside it; an error in the grouping of the arguments points at the statement
        column = int(position.group(1))
        assert column == 1 if " takes (" in err else command[column - 2] in "(,; ", err

    def test_arguments_read_left_to_right(self, tmp_path, capsys):
        script = write(tmp_path, "order.dsl", "chart C { even x }\ntransform(zz, Q)\n")
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_PARSE
        assert err.startswith("densalg: %s: 2:11: unknown name 'zz'" % script)

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

    @pytest.mark.parametrize("src, position, message", [
        ("chart C { even x }\nlet a =", "2:8:", "end of input"),
        ("chart C { even x }\nlet a = -- no value", "2:20:", "end of input"),
        ('chart C { even x }\nbracket("a\nb", x)\nlet g = )\n', "2:9:", "unterminated string"),
    ], ids=["final_symbol", "trailing_comment", "string_across_lines"])
    def test_scanner_error_position(self, tmp_path, capsys, src, position, message):
        script = write(tmp_path, "scan.dsl", src)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_PARSE
        assert err.startswith("densalg: %s: %s " % (script, position)) and message in err

    @pytest.mark.parametrize("expr, position", [
        ("2^10000000000", "2:10:"), ("8^(30000000001/3)", "2:10:"),
    ])
    def test_domain_error_huge_constant_power(self, tmp_path, capsys, expr, position):
        script = write(tmp_path, "power.dsl", "chart C { even x }\nlet a = %s\n" % expr)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, [script])
        assert time.perf_counter() - start < 1
        assert code == EXIT_DOMAIN
        assert position + " the constant power exceeds" in err  # the operator's line:col

    @pytest.mark.parametrize("expr, position", [
        ("(2*x)^10000000000", "2:14:"), ("(x + y)^100000", "2:16:"),
    ])
    def test_domain_error_huge_polynomial_power(self, tmp_path, capsys, expr, position):
        script = write(tmp_path, "power.dsl", "chart C { even x, y }\nlet a = %s\n" % expr)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, [script])
        assert time.perf_counter() - start < 1
        assert code == EXIT_DOMAIN
        assert err.startswith("densalg: %s: %s " % (script, position))  # the operator's line:col

    @pytest.mark.parametrize("expr, value", [
        ("x^10000000000", "x^10000000000"), ("(#x + 1)^10000000000", "10000000000*#x + 1"),
        ("(x*#y)^10000000000", "0"),
        # a dense power whose result is small: 513 terms of at most 512 bits
        pytest.param("(x + y)^512", " + ".join(
            "*".join(f for f in ("%d" % math.comb(512, k) if 0 < k < 512 else "",
                                 "x^%d" % (512 - k) if k < 511 else "x" if k == 511 else "",
                                 "y^%d" % k if k > 1 else "y" if k == 1 else "") if f)
            for k in range(513)), id="(x + y)^512"),
        ("(x/2 - 2*y/3)^3", "1/8*x^3 - 1/2*x^2*y + 2/3*x*y^2 - 8/27*y^3"),
        # 401 terms of at most about 317 bits: the exponent sums of x bound it
        pytest.param("(1 + x + x^2)^200", _trinomial_power_text(200), id="(1 + x + x^2)^200"),
    ])
    def test_small_polynomial_power_evaluates(self, expr, value):
        interp = Interpreter()
        interp.run(parse("chart C { even x, y }\nlet a = %s\n" % expr))
        assert poly_to_text(interp.bindings["a"]) == value

    @pytest.mark.parametrize("expr", ["(-1)^1000000000000", "1^1000000000000"])
    def test_constant_power_of_unit_evaluates(self, tmp_path, capsys, expr):
        script = write(tmp_path, "unit.dsl", "chart C { even x }\nlet a = %s*x\ndiv(a*#x)\n" % expr)
        code, out, err = run_cli(capsys, [script])
        assert (code, out) == (EXIT_OK, "div = 1\n")

    def test_constant_powers_evaluate(self, tmp_path, capsys):
        # a negative base to an integer power, 0 to a fractional one and a
        # rational root of a negative power
        script = write(tmp_path, "powers.dsl", "chart C { even x }\n"
                       "let c = (-2)^3 * x + 0^(1/2) + (4/9)^(-1/2)\nbracket(c, #x)\n")
        assert run_cli(capsys, [script]) == (EXIT_OK, "bracket = -8\n", "")

    @pytest.mark.parametrize("src, code, message", [
        ("chart C { even x }\nlet f = x^(1/2)\n", EXIT_PARSE,
         "2:10: fractional powers apply to t only"),
        ("chart C { even x }\nlet f = x^x\n", EXIT_PARSE, "2:10: polynomial exponent"),
        ("chart A { even x }\nchart B { even u }\n"
         "change R : A -> Z { forward { x = u } inverse { u = x } }\n", EXIT_PARSE,
         "3:1: unknown chart 'Z'"),
        ("chart C { even x }\nlet f = 0^(-1/2)\n", EXIT_DOMAIN, "2:10: zero to a negative power"),
        ("chart C { even x }\nlet f = x/0\n", EXIT_DOMAIN, "2:10: division by zero"),
        ("let a = 1\n", EXIT_PARSE, "1:9: no chart declared"),
        ("lift(1, 0)\n", EXIT_PARSE, "1:6: no chart declared"),
    ], ids=["fractional_power", "polynomial_exponent", "unknown_chart", "zero_negative_power",
            "division_by_zero", "let_before_chart", "lift_before_chart"])
    def test_refusal_message(self, tmp_path, capsys, src, code, message):
        script = write(tmp_path, "refuse.dsl", src)
        assert run_cli(capsys, [script]) == (code, "", "densalg: %s: %s\n" % (script, message))

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

    def test_script_not_utf8(self, tmp_path, capsys):
        script = tmp_path / "bad.dsl"
        script.write_bytes(b"chart C { even x }\nlet a = x\xff\n")
        code, out, err = run_cli(capsys, [str(script)])
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("densalg: cannot read %s: 'utf-8' codec can't decode" % script)

    def test_stdin_not_utf8(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8"))
        code, out, err = run_cli(capsys, [])
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("densalg: cannot read <stdin>: 'utf-8' codec can't decode")

    def test_closed_stdin(self):
        # `densalg <&-`: no script and no stdin to read it from is an unreadable
        # source, exit 2 with a message and no traceback
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "densalg.cli"], capture_output=True,
                              env=env, timeout=60, preexec_fn=lambda: os.close(0))
        err = proc.stderr.decode()
        assert proc.returncode == EXIT_PARSE and proc.stdout == b""
        assert err.startswith("densalg: cannot read <stdin>: ") and "Traceback" not in err


class TestParserReuse:
    """The argument parser is built once per process; each `main` call parses
    its own arguments, so no flag carries over from one in-process run to the
    next."""

    def test_one_parser(self):
        assert build_parser() is build_parser()

    def test_json_does_not_carry_over(self, tmp_path, capsys):
        script = write(tmp_path, "b.dsl", "chart C { even x }\nbracket(x, #x)\n")
        code, out, _ = run_cli(capsys, ["--json", script])
        assert code == EXIT_OK and json.loads(out)["label"] == "bracket"
        assert run_cli(capsys, [script])[:2] == (EXIT_OK, "bracket = 1\n")

    def test_seed_does_not_carry_over(self, capsys, monkeypatch):
        seeds = []

        def ledger(seed):
            seeds.append(seed)
            return "ledger %s" % seed

        monkeypatch.setattr(densalg.cli, "convention_ledger", ledger)
        assert run_cli(capsys, ["--seed", "7", "--ledger"])[:2] == (EXIT_OK, "ledger 7\n")
        assert run_cli(capsys, ["--ledger"])[:2] == (EXIT_OK, "ledger 2024\n")
        assert seeds == [7, 2024]

    @pytest.mark.parametrize("argv, code", [(["--no-such-flag"], 2), (["--help"], 0)],
                             ids=["bad_flag", "help"])
    def test_exits_repeat(self, capsys, argv, code):
        outputs = []
        for _ in range(3):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] == outputs[2]
        assert ("usage: densalg" in outputs[0].out) if code == 0 else \
            ("unrecognized arguments: --no-such-flag" in outputs[0].err)


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


def _old_term_order(chart, keys):
    """The term order as a negated key: fiber degree, weight and exponents,
    each descending."""
    return sorted(keys, key=lambda k: (-chart.key_fiber_degree(k), -chart.key_weight(k),
                                       tuple(map(neg, k))))


class TestTermOrder:
    """`poly_to_text` and `poly_to_dict` list the terms by fiber degree, weight
    and exponents, each descending, checked against that order spelt as one
    negated key."""

    def check(self, f):
        chart = f.chart
        order = _old_term_order(chart, f.terms)
        listed = [poly_from_dict({"terms": [term]}, chart) for term in poly_to_dict(f)["terms"]]
        assert [next(iter(g.terms)) for g in listed] == order
        pieces = [poly_to_text(SPoly(chart, {k: f.terms[k]})) for k in order]
        text = " ".join([pieces[0]] + [("- " + p[1:]) if p.startswith("-") else "+ " + p
                                       for p in pieces[1:]])
        assert poly_to_text(f) == text

    def test_unhatted(self, rng):
        chart = Chart([("x", EVEN), ("y", EVEN), ("xi", ODD), ("eta", ODD)], name="C")
        for _ in range(60):
            self.check(random_poly(rng, chart, n_terms=rng.randint(1, 12)))

    def test_hatted(self, rng):
        chart = Chart([("x", EVEN), ("y", EVEN), ("xi", ODD)], name="H", hatted=True)
        for _ in range(60):
            self.check(hatted_poly(rng, chart, n_terms=rng.randint(1, 12)))

    def test_t_powers(self, rng):
        # t^(1/17) has a denominator that does not divide the t slot's unit, so
        # its slot is a Fraction, beside int slots for t^(1/2), t^-1 and t^2;
        # each power twice, so that terms of one fiber degree and weight meet
        chart = Chart([("x", EVEN), ("xi", ODD)], name="H", hatted=True)
        t_exps = ("1/2", "1/17", "-1", "1", "2", "-3/2") * 2
        for _ in range(40):
            terms = []
            for e in t_exps:
                exps = {"t": e}
                for name, choices in (("x", (0, 1, 2)), ("#x", (0, 1)), ("xi", (0, 1)),
                                      ("#xi", (0, 1)), ("#t", (0, 1))):
                    if rng.choice(choices):
                        exps[name] = rng.choice(choices[1:])
                terms.append({"coeff": str(rng.choice((1, -1, 2, "1/3", "-5/2"))),
                              "exponents": exps})
            f = chart.sum([poly_from_dict({"terms": [term]}, chart) for term in terms])
            assert any(type(k[-2]) is Fraction for k in f.terms)
            self.check(f)


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

    def test_poly_from_dict_reads_the_chart(self, rng):
        # without a chart argument the chart comes from the dict itself
        chart = Chart([("x", EVEN), ("xi", ODD)], name="C")
        for f in (random_poly(rng, chart), hatted_poly(rng, chart.hatted_version())):
            g = poly_from_dict(poly_to_dict(f))
            assert g == f and g.chart.name == "C"
        d = poly_to_dict(chart["x"])
        d["chart"]["base"][0][1] = 2
        with pytest.raises(DomainError, match="parity must be 0 or 1"):
            poly_from_dict(d)

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

    def test_readme_lists_every_command(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        for name in COMMANDS:
            assert "| `%s(" % name in readme, name

    def test_rary_without_functions(self, tmp_path, capsys):
        script = write(tmp_path, "r.dsl", "chart C { even x }\nrary(x*#x;)\n")
        assert run_cli(capsys, [script]) == (EXIT_OK, "rary = 0\n", "")

    def test_liealg_from_json(self, tmp_path, capsys):
        path = write(tmp_path, "so3.json", json.dumps(SO3_JSON))
        script = write(tmp_path, "g.dsl", 'liealg("%s")\n' % path)
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_OK
        assert "jacobi PASS" in out
        assert "supertrace functional (0, 0, 0)" in out

    def test_liealg_jacobi_failure(self, tmp_path, capsys, monkeypatch):
        # constants that break the Jacobi identity: a verification failure,
        # and no supertrace functional
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "bad.json", json.dumps(BAD_JACOBI_JSON))
        script = write(tmp_path, "g.dsl", 'liealg("bad.json")\n')
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_VERIFY
        assert out.endswith("\nliealg: jacobi FAIL\n") and "supertrace" not in out and not err
        code, out, err = run_cli(capsys, [script, "--json"])
        assert code == EXIT_VERIFY
        assert '"jacobi": "FAIL"' in out and '"supertrace": null' in out

    def test_liealg_json_decimals_exact(self, tmp_path, capsys, monkeypatch):
        # a JSON decimal reads as written, the same as the string "1/10"
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "g.json", '{"dimension": 2, "constants": [[1, 2, 1, 0.1], [2, 1, 1, -0.1]]}')
        script = write(tmp_path, "g.dsl", 'liealg("g.json")\n')
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_OK
        assert "pi = -1/10*x1*#x1*#x2" in out
        assert "supertrace functional (0, -1/10)" in out

    def test_liealg_builds_pi_and_checks_jacobi_once(self, capsys, monkeypatch):
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)

        for module in (densalg.dsl, densalg.classify):
            counted(module, "lie_poisson")
            counted(module, "master_check")
        monkeypatch.chdir(SO3.parent.parent)
        monkeypatch.setattr(sys, "stdin", io.StringIO('liealg("demos/so3.json")\n'))
        code, out, err = run_cli(capsys, [])
        assert code == EXIT_OK and "supertrace functional (0, 0, 0)" in out
        assert calls == {"lie_poisson": 1, "master_check": 1}

    def test_liealg_dimension_limit(self, tmp_path, capsys, monkeypatch):
        # refused before a list of that many parities is built
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "big.json", '{"dimension": 1000000000000, "constants": []}')
        script = write(tmp_path, "g.dsl", 'liealg("big.json")\n')
        code, out, err = run_cli(capsys, [script])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "g.dsl: 1:1: " in err and "big.json" in err
        assert "the dimension must be in 0..4096, got 1000000000000" in err

    def test_liealg_file_nested_too_deeply(self, tmp_path, capsys, monkeypatch):
        # the file is at fault, not the script: a domain error that names it
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "deep.json", "[" * 100000)
        script = write(tmp_path, "g.dsl", 'liealg("deep.json")\n')
        code, out, err = run_cli(capsys, [script])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("densalg: %s: 1:1: bad Lie algebra file deep.json: " % script)

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

    # a hatted element, lift(x^2*#x, 2) as printed, and a zero polynomial
    @pytest.mark.parametrize("value", ["x^2*#x*t^2 - 2*x*t^2*w", "0"], ids=["hatted", "zero"])
    def test_strict_orientation_refuses_at_transform(self, tmp_path, capsys, value):
        script = write(tmp_path, "o.dsl", """
            chart A { even x }
            chart B { even u }
            change R : A -> B { forward { x = 0 - u } inverse { u = 0 - x } }
            chart AH hatted { even x }
            let L = %s
            transform(L, R)
        """ % value)
        code, out, err = run_cli(capsys, [script, "--strict-orientation"])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "densalg: %s: 7:13: orientation-reversing change in strict mode\n" % script
        code, out, err = run_cli(capsys, [script])
        assert code == EXIT_OK and out.startswith("transform = ")  # |det J| = 1

    def test_strict_orientation_keeps_preserving_change(self, tmp_path, capsys):
        script = write(tmp_path, "p.dsl", """
            chart B { even u }
            chart A { even x }
            change P : A -> B { forward { x = 2*u } inverse { u = x/2 } }
            transform(x^2*#x, P)
            chart AH hatted { even x }
            transform(x^2*#x*t^2, P)
        """)
        code, out, err = run_cli(capsys, [script, "--strict-orientation"])
        assert (code, out, err) == (EXIT_OK, "transform = 2*u^2*#u\ntransform = 8*u^2*#u*t^2\n", "")
        assert run_cli(capsys, [script]) == (code, out, err)


def _text_of(record):
    """The text lines of one --json record, each polynomial read back with
    poly_from_dict and printed with poly_to_text."""
    def show(d):
        return poly_to_text(poly_from_dict(d))

    label = record["label"]
    if label == "project":
        return ["project[weight %s] = %s" % (c["weight"], show(c["poly"]))
                for c in record["components"]] or ["project = 0"]
    if label == "master":
        residual = show(record["residual"])
        return ["master: " + record["verdict"]
                + ("" if residual == "0" else " (residual = %s)" % residual)]
    if label == "classify":
        flag = " [odd base: ansatz unconstrained]" if record["flagged_odd_base"] else ""
        return (["classify: dimension %d%s" % (record["dimension"], flag)]
                + ["  " + show(e) for e in record["basis"]])
    if label == "liealg":
        phi = record["supertrace"]
        return (["liealg: pi = " + show(record["poisson"]), "liealg: jacobi " + record["jacobi"]]
                + ([] if phi is None else ["liealg: supertrace functional (%s)" % ", ".join(phi)]))
    return ["%s = %s" % (label, show(record["poly"]))]


class TestBothOutputModes:
    SCRIPT = """
        chart A { even x }
        let X = x^2*#x
        chart B { even u }
        change R : A -> B { forward { x = 2*u } inverse { u = x/2 } }
        transform(X, R)
        chart C { even x, y, z; odd xi }
        bracket(x^2*#x, x*xi)
        div(x^2*#x + xi*#xi)
        lift(x^2*#x, 1/2)
        rary(#x*#y; x, y)
        master(z*#y*#x + x*#z*#y + x*#x*#z)
        classify(x*#y + z*#x, 0, 1)
        chart P { even p, q }
        evolve(p^2, q, q, 1/2)
        chart H hatted { even x }
        delta(x^2*#x*w)
        project(#x*w)
        project(x*t^(1/2) + t^(-2))
        liealg("bad.json")
        liealg("so3.json")
    """

    def test_records_and_text_name_the_same_results(self, tmp_path, capsys, monkeypatch):
        # every command; a failing master, a flagged classify of an odd s, a
        # project with no base part and a liealg that breaks Jacobi among them
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "bad.json", json.dumps(BAD_JACOBI_JSON))
        write(tmp_path, "so3.json", json.dumps(SO3_JSON))
        script = write(tmp_path, "all.dsl", self.SCRIPT)
        code, text, err = run_cli(capsys, [script])
        assert (code, err) == (EXIT_VERIFY, "")
        code, out, err = run_cli(capsys, [script, "--json"])
        assert (code, err) == (EXIT_VERIFY, "")
        records = [json.loads(line) for line in out.splitlines()]
        labels = [r["label"] for r in records]
        assert set(labels) == set(COMMANDS)
        assert labels == ["transform", "bracket", "div", "lift", "rary", "master", "classify",
                          "evolve", "delta", "project", "project", "liealg", "liealg"]
        assert [line for r in records for line in _text_of(r)] == text.splitlines()
        for line in ("master: FAIL (residual = 2*z*#x*#y*#z)",
                     "classify: dimension 4 [odd base: ansatz unconstrained]",
                     "project = 0", "liealg: jacobi FAIL",
                     "liealg: supertrace functional (0, 0, 0)"):
            assert line in text.splitlines()


class TestLedger:
    def test_ledger_flag(self, capsys):
        code, out, err = run_cli(capsys, ["--ledger"])
        assert code == EXIT_OK
        assert "Pinned sign convention" in out
        assert out.count("forced by:") == 12

    def test_ledger_seed_stability(self, capsys):
        # each exploration seed pins the same convention and renders the shipped
        # ledger, forcing lines included, also after a pin on that seed in the
        # same process has left its tables on the anchor polynomials
        doc = Path(__file__).resolve().parent.parent / "docs" / "convention_ledger.txt"
        for seed in (2024, 7, 99):
            assert pin_convention(seed) == PINNED
            code, out, _ = run_cli(capsys, ["--ledger", "--seed", str(seed)])
            assert code == EXIT_OK
            assert out + "\n(Regenerate with: densalg --ledger)\n" == doc.read_text(encoding="utf-8")

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
        "chart C { even x } hatted\n",  # 'hatted' goes before the braces
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

    @pytest.mark.parametrize("src, message", [
        ("chart C { evn x }", "1:11: expected 'even' or 'odd', found 'evn'"),
        ("chart C {", "1:10: expected 'even' or 'odd', found 'end of input'"),
        ("change R : A -> B {\n  forwrd { x = u }\n  inverse { u = x }\n}",
         "2:3: expected 'forward', found 'forwrd'"),
        ("change R : A -> B {\n  forward { x = u }\n  invers { u = x }\n}",
         "3:3: expected 'inverse', found 'invers'"),
        ("chart C { even x,, y }", "1:18: expected coordinate name, found ','"),
        ("chart C hatted x { even y }", "1:16: expected {, found 'x'"),
        ("chart C hatted hatted { even x }", "1:16: expected {, found 'hatted'"),
        ("chart C { even x } }", "1:20: expected a statement, found '}'"),
        ("let a = x^", "1:11: expected an expression, found 'end of input'"),
        ("rary(x;; x)", "1:8: expected an expression, found ';'"),
        ("bracket(x #x)", "1:11: expected ',' or ')', found '#x'"),
        ("lift(x, 1", "1:10: expected ',' or ')', found 'end of input'"),
        ("change R : A -> B {\n  forward { x = u;; }\n  inverse { u = x }\n}",
         "2:19: expected coordinate name, found ';'"),
        ("change R A -> B { }", "1:10: expected :, found 'A'"),
        ("change R : A B { }", "1:14: expected ->, found 'B'"),
        ("let a = (x", "1:11: expected ), found 'end of input'"),
        ("command(x)", "1:1: unknown statement 'command'"),
    ], ids=["misspelt_parity", "parity_at_end", "misspelt_forward", "misspelt_inverse",
            "empty_coordinate", "name_after_hatted", "hatted_twice", "brace_after_chart",
            "power_at_end", "empty_rary_argument", "missing_comma", "arguments_at_end",
            "empty_map_entry", "missing_colon", "missing_arrow", "unclosed_parenthesis",
            "command_is_no_command"])
    def test_keyword_errors(self, src, message):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert str(exc.value) == message

    def test_dsl_names_print_and_parse_back(self):
        for names in (["x.y", "b"], ["_a", "b1"], ["x²", "b"]):
            chart = Chart([(n, EVEN) for n in names])
            a, b = (chart[n] for n in names)
            f = a * chart["#" + names[1]] - 2 * chart["#" + names[0]] * chart["#" + names[1]] + b
            interp = Interpreter()
            interp.run(parse("chart A { even %s }\nlet f = %s\n"
                             % (", ".join(names), poly_to_text(f))))
            assert interp.bindings["f"] == f

    def test_scanner_positions(self):
        """Random texts: the scanner either names the offending '#', '"' or
        character, or gives tokens in source order, each at its text, with
        end of input one column past the last character."""
        rng = random.Random(17)
        parts = ["x", "ab", "x.y", "_a", "#x", "#a.b", "#", "1", "42", "٣", "²", '"ab"', '"',
                 "-- note", "// note", "->", "{", "}", "(", ")", ",", ";", "=", "+", "-", "*",
                 "/", "^", ":", " ", "  ", "\t", "\r", "\n", "\n"]
        for _ in range(3000):
            text = "".join(rng.choice(parts) for _ in range(rng.randint(0, 12)))
            lines = text.split("\n")
            try:
                tokens = _tokenize(text)
            except ParseError as exc:
                char = lines[exc.line - 1][exc.column - 1]
                expected = {"#": "'#' must be followed by a variable name",
                            '"': "unterminated string"}.get(char, "unexpected character %r" % char)
                assert exc.args[0] == expected, text
                continue
            *tokens, eof = tokens
            for tok in tokens:
                shown = '"%s"' % tok.text if tok.kind == "string" else tok.text
                assert lines[tok.line - 1][tok.column - 1:].startswith(shown), (text, tok)
            order = [(tok.line, tok.column) for tok in tokens]
            assert order == sorted(set(order)), text
            assert (eof.kind, eof.line, eof.column) == ("eof", len(lines), len(lines[-1]) + 1), text

    def test_name_tokens_are_names(self):
        """Every name token satisfies the chart's name rule, which the scanner
        checks on the first character only: re's \\w is str.isalnum() or '_'
        on every code point."""
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\w", every) == [c for c in every if c.isalnum() or c == "_"]
        rng = random.Random(23)
        parts = ["x", "ab", "x.y", ".", "_", "_a", "#x", "1", "٣", "²", "Ⅻ", "é", "ǅ", "ª", "中",
                 "x²", " ", "\n", "+", "(", ")"]
        names = 0
        for _ in range(3000):
            text = "".join(rng.choice(parts) for _ in range(rng.randint(0, 8)))
            try:
                tokens = _tokenize(text)
            except ParseError:
                continue
            for tok in tokens:
                if tok.kind == "name":
                    assert _is_name(tok.text), (text, tok)
                    names += 1
        assert names > 1000

    @pytest.mark.parametrize("src, message", [
        ("²x", "1:1: unexpected character '²'"),
        (".x", "1:1: unexpected character '.'"),
        ("Ⅻ", "1:1: unexpected character 'Ⅻ'"),
        ("let a = .x", "1:9: unexpected character '.'"),
        ("chart C { even x }\nlet a = Ⅻ", "2:9: unexpected character 'Ⅻ'"),
        ("x²", "1:1: unknown statement 'x²'"),
        ("chart C { even x }\nlet a = x²", "2:9: unknown name 'x²' on chart C"),
    ], ids=["digit_start", "dot_start", "numeral_start", "dot_in_expression",
            "numeral_in_expression", "digit_inside_statement", "digit_inside_expression"])
    def test_name_start_errors(self, src, message):
        with pytest.raises(ParseError) as exc:
            Interpreter().run(parse(src))
        assert str(exc.value) == message

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
        # the class tree is the exit code: every refusal of a value is a DomainError (3)
        assert {cls for cls in classes if not issubclass(cls, DomainError)} == {DensalgError, ParseError}
        assert issubclass(densalg.UnknownVariableError, KeyError)
        assert densalg.brackets.DomainError is DomainError
        # outside a script there is no position, and no KeyError quoting
        assert str(densalg.UnknownVariableError("no variable 'z'")) == "no variable 'z'"
        assert str(DomainError("bad", 2, 7)) == "2:7: bad"

    def test_hostile_values(self):
        # each number or sequence argument of the public names that take
        # them, fed values no caller should pass: a result or a DensalgError,
        # never a raw Python error
        values = hostile_values(random.Random(27))
        C = Chart([("x", EVEN), ("y", EVEN), ("z", EVEN)])
        D = Chart([("p", EVEN), ("q", EVEN)])
        s = DensityElement(C["#x"] * C["#y"], 0)
        g = LieAlgebraData(2, None, [(0, 1, 1, 1), (1, 0, 1, -1)])

        def poly(coeff=1, exp=1):
            return poly_from_dict({"terms": [{"coeff": coeff, "exponents": {"x": exp}}]}, C)

        calls = {
            "Chart coordinates": Chart,
            "Chart parity": lambda v: Chart([("x", v)]),
            "Chart coordinate": lambda v: Chart([v]),
            "Chart name": lambda v: Chart([(v, EVEN)]),
            "Chart.const": C.const,
            "Chart.t_power": C.hatted_version().t_power,
            "DensityElement": lambda v: DensityElement(C["x"], v),
            "classify_lifts": lambda v: classify_lifts(s, v),
            "q_manifold_lifts": lambda v: q_manifold_lifts(q_manifold_chart(1), v),
            "q_manifold_chart": q_manifold_chart,
            "density_evolution": lambda v: density_evolution(D["p"] ** 2, D["q"], D["q"], v),
            "LieAlgebraData dimension": LieAlgebraData,
            "LieAlgebraData parities": lambda v: LieAlgebraData(2, v),
            "LieAlgebraData parity": lambda v: LieAlgebraData(2, [v, 0]),
            "LieAlgebraData names": lambda v: LieAlgebraData(2, None, (), v),
            "LieAlgebraData constants": lambda v: LieAlgebraData(2, None, v),
            "LieAlgebraData constant": lambda v: LieAlgebraData(2, None, [v]),
            "LieAlgebraData.from_dict constants":
                lambda v: LieAlgebraData.from_dict({"dimension": 2, "constants": v}),
            "LieAlgebraData value": lambda v: LieAlgebraData(2, None, [(0, 1, 1, v)]),
            "change_basis matrix": lambda v: change_basis(g, v),
            "change_basis row": lambda v: change_basis(g, [v, [0, 1]]),
            "change_basis entry": lambda v: change_basis(g, [[1, v], [0, 1]]),
            "poly_from_dict coefficient": poly,
            "poly_from_dict exponent": lambda v: poly(exp=v),
            "poly_from_dict terms": lambda v: poly_from_dict({"terms": v}, C),
            "poly_from_dict term": lambda v: poly_from_dict({"terms": [v]}, C),
            "poly_from_dict exponents":
                lambda v: poly_from_dict({"terms": [{"coeff": 1, "exponents": v}]}, C),
            "SignConvention": lambda v: densalg.SignConvention(v, v, v, v, v),
        }
        for name, call in calls.items():
            for i, v in enumerate(values):
                try:
                    call(v)
                except DensalgError:
                    pass
                except Exception as exc:  # a value past the int/str digit limit has no repr
                    pytest.fail("%s, value %d: %s" % (name, i, type(exc).__name__))
        # values that are no rational number, and sequences of the wrong length
        for call in (lambda: classify_lifts(s, None),
                     lambda: DensityElement(C["x"], float("inf")),
                     lambda: C.const("a"),
                     lambda: LieAlgebraData(2, None, [(0, 1, 1, "x")]),
                     lambda: change_basis(g, [[1, "a"], [0, 1]])):
            with pytest.raises(DomainError, match="expected a rational number, got "):
                call()
        with pytest.raises(DomainError, match="parity must be 0 or 1"):
            Chart([("x", 1.5)])  # not truncated to an odd coordinate
        with pytest.raises(DomainError, match=r"a coordinate is a \(name, parity\) pair"):
            Chart([("x",)])
        with pytest.raises(DomainError, match="a structure constant has 4 entries"):
            LieAlgebraData(2, None, [(0, 1, 1)])
        for P in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1], [0, 1]]):  # each gave an answer
            with pytest.raises(DomainError, match="the basis change matrix must be 2 x 2"):
                change_basis(g, P)
        for key in ("terms", "coeff", "exponents"):
            d = {"terms": [{"coeff": 1, "exponents": {"x": 1}}]}
            (d if key == "terms" else d["terms"][0]).pop(key)
            with pytest.raises(DomainError, match="a serialized polynomial has no key '%s'" % key):
                poly_from_dict(d, C)
        # a value that is no list where a whole list belongs, and no map where a map does
        for call, message in (
                (lambda: poly_from_dict(5, C), "a serialized polynomial is a map"),
                (lambda: poly_from_dict({"chart": 5, "terms": []}), "a serialized chart is a map"),
                (lambda: LieAlgebraData.from_dict(5), "a Lie algebra is a map with the keys"),
                (lambda: LieAlgebraData.from_dict({}), "a Lie algebra is a map with the keys"),
                (lambda: Chart(5), "the base coordinates are a list"),
                (lambda: LieAlgebraData(2, None, 5), "the structure constants are a list"),
                (lambda: LieAlgebraData.from_dict({"dimension": 2, "constants": 5}),
                 "the structure constants are a list"),
                (lambda: LieAlgebraData.from_dict({"dimension": 2, "constants": [5]}),
                 "a structure constant has 4 entries"),
                (lambda: poly_from_dict({"terms": 5}, C),
                 "the terms of a serialized polynomial are a list"),
                (lambda: poly_from_dict({"terms": [5]}, C),
                 "a serialized term and its exponents are maps"),
                (lambda: poly_from_dict({"terms": [{"coeff": 1, "exponents": 5}]}, C),
                 "a serialized term and its exponents are maps")):
            with pytest.raises(DomainError, match=message):
                call()
        for zero in (0, False):
            with pytest.raises(DomainError, match="division by zero"):
                C["x"] / zero
        for n, message in ((None, "an integer, got NoneType"), (1.5, "an integer, got 3/2"),
                           ("a", "an integer, got str"), (-2, "in 0..4096, got -2"),
                           (10 ** 5000, r"in 0..4096, got about 10\^5000")):
            with pytest.raises(DomainError, match="the dimension must be " + message):
                q_manifold_chart(n)

    # a parameter that takes an object densalg builds, or a monomial key or
    # variable index of the chart's own: another Python type there is a
    # TypeError or AttributeError, as in any Python library
    OBJECT_TYPES = (Chart, DensityElement, densalg.CoordinateChange, LieAlgebraData,
                    densalg.SignConvention, densalg.Variable)
    CHART_OWN = {"key", "index"}
    # records that store their fields as given, besides the exception classes
    RECORDS = {"SPoly", "Variable", "KernelBasis"}

    def sweep_calls(self):
        """{name: (callable, {parameter: valid value})} for every public callable
        and every public method of Chart, SPoly, LieAlgebraData, KernelBasis and
        CoordinateChange that takes a parameter."""
        C = Chart([("x", EVEN), ("y", EVEN)], name="C")
        H = C.hatted_version()
        B = Chart([("u", EVEN), ("v", EVEN)], name="B")
        change = densalg.CoordinateChange(C, B, {"x": B["u"] + B["v"], "y": B["v"]},
                                          {"u": C["x"] - C["y"], "v": C["y"]})
        s = DensityElement(C["#x"] * C["#y"], 0)
        g = LieAlgebraData(2, None, [(0, 1, 1, 1), (1, 0, 1, -1)])
        f = C["x"] * C["#y"]
        P = densalg.PINNED
        return {
            "Chart": (Chart, dict(base_coords=[("x", EVEN)], hatted=True, name="D")),
            "CoordinateChange": (densalg.CoordinateChange, dict(
                source=C, target=B, forward={"x": B["u"], "y": B["v"]},
                inverse={"u": C["x"], "v": C["y"]})),
            "DensityElement": (DensityElement, dict(body=f, weight=Fraction(1, 2))),
            "LieAlgebraData": (LieAlgebraData, dict(
                dimension=2, parities=[0, 0], constants=[(0, 1, 1, 1), (1, 0, 1, -1)],
                names=["a", "b"])),
            "SignConvention": (densalg.SignConvention, dict(
                term_q_qstar=P.term_q_qstar, term_qstar_q=P.term_qstar_q,
                div_parity=P.div_parity, div_side=P.div_side, generator_sign=P.generator_sign)),
            "antibracket": (densalg.antibracket, dict(f=f, g=C["y"])),
            "base_bracket": (densalg.base_bracket, dict(s=s, u=s)),
            "classify_lifts": (classify_lifts, dict(s=s, coeff_degree_bound=1)),
            "convention_ledger": (densalg.convention_ledger, dict(seed=2024)),
            "decompose": (densalg.decompose, dict(S=densalg.lift(s), s=s)),
            "delta_op": (densalg.delta_op, dict(f=H["x"] * H["#t"])),
            "density_evolution": (density_evolution, dict(
                H=C["x"] ** 2, f=C["y"], psi=C["y"], lam=Fraction(1, 2))),
            "divergence": (densalg.divergence, dict(f=f)),
            "divergence_wrt": (densalg.divergence_wrt, dict(f=H["#t"], rho_coeff=H.t_power(-2))),
            "lie_poisson": (densalg.lie_poisson, dict(g=g)),
            "lift": (densalg.lift, dict(s=s)),
            "lift_commutes_check": (densalg.lift_commutes_check, dict(s=s, u=s)),
            "master_check": (densalg.master_check, dict(S=f)),
            "master_residual_of_lift": (densalg.master_residual_of_lift, dict(s=s, Q=C["x"])),
            "pin_convention": (densalg.pin_convention, dict(seed=2024)),
            "poly_from_dict": (poly_from_dict, dict(d=poly_to_dict(f), chart=C)),
            "poly_to_dict": (poly_to_dict, dict(f=f)),
            "poly_to_text": (poly_to_text, dict(f=f)),
            "project_to_density": (densalg.project_to_density, dict(S=densalg.lift(s))),
            "q_manifold_lifts": (q_manifold_lifts, dict(chart=q_manifold_chart(1),
                                                        coeff_degree_bound=1)),
            "r_ary_bracket": (densalg.r_ary_bracket, dict(S=s.body, args=[C["x"], C["y"]])),
            "restrict_to_base": (densalg.restrict_to_base, dict(f=f + C["x"])),
            "supertrace_extension": (densalg.supertrace_extension, dict(g=g)),
            "LieAlgebraData.c": (g.c, dict(i=0, j=1, k=1)),
            "LieAlgebraData.from_dict": (LieAlgebraData.from_dict, dict(
                d={"dimension": 2, "constants": [[1, 2, 2, 1], [2, 1, 2, -1]]})),
            "LieAlgebraData.from_json": (LieAlgebraData.from_json, dict(path=str(SO3))),
            "transform_density": (densalg.transform_density, dict(s=s, change=change)),
            "transform_hatted": (densalg.transform_hatted, dict(S=densalg.lift(s), change=change)),
            "Chart.__getitem__": (C.__getitem__, dict(name="x")),
            "Chart.const": (C.const, dict(c=Fraction(-2, 3))),
            "Chart.key_fiber_degree": (C.key_fiber_degree, dict(key=C.zero_key)),
            "Chart.key_parity": (C.key_parity, dict(key=C.zero_key)),
            "Chart.key_weight": (C.key_weight, dict(key=C.zero_key)),
            "Chart.power_key": (C.power_key, dict(index=0, exp=2)),
            "Chart.sum": (C.sum, dict(polys=[C["x"], f])),
            "Chart.t_power": (H.t_power, dict(lam=Fraction(-1, 2))),
            "Chart.var": (C.var, dict(name="#x")),
            "SPoly.coefficient": (f.coefficient, dict(key=C.zero_key)),
            "SPoly.derive_left": (f.derive_left, dict(v=C.var("#y"))),
            "SPoly.derive_right": (f.derive_right, dict(v=C.var("#y"))),
            "SPoly.substitute": (f.substitute, dict(images={C.var("x"): C["y"]}, target=C)),
            "SPoly.transport": (f.transport, dict(target=H, t=Fraction(1, 3), tstar=1)),
        }

    def test_every_public_parameter_sweep(self):
        # each number, string, sequence, map and polynomial parameter of every
        # public callable, and of the public methods of Chart, SPoly,
        # LieAlgebraData, KernelBasis and CoordinateChange, takes each hostile
        # value with valid arguments in every other slot
        calls = self.sweep_calls()
        public = {name for name in densalg.__all__ if callable(getattr(densalg, name))
                  and not inspect.ismodule(getattr(densalg, name))}
        exempt = self.RECORDS | {name for name in public
                                 if issubclass(type(getattr(densalg, name)), type)
                                 and issubclass(getattr(densalg, name), BaseException)}
        classes = (Chart, densalg.SPoly, LieAlgebraData, densalg.KernelBasis,
                   densalg.CoordinateChange)
        methods = {"%s.%s" % (cls.__name__, name) for cls in classes for name in vars(cls)
                   if callable(getattr(cls, name))  # a classmethod too
                   and (not name.startswith("_") or name == "__getitem__")
                   and inspect.signature(getattr(cls, name)).parameters.keys() - {"self"}}
        assert set(calls) == (public - exempt) | methods
        failures = []
        for i, v in enumerate(hostile_values(random.Random(29))):
            for name, (call, valid) in calls.items():
                assert set(valid) == set(inspect.signature(call).parameters), name
                if i == 0:
                    call(**valid)  # the valid arguments are valid
                fed = {param for param, value in valid.items()
                       if not isinstance(value, self.OBJECT_TYPES) and param not in self.CHART_OWN}
                for param in fed:
                    try:
                        call(**{**valid, param: v})
                    except DensalgError:
                        pass
                    except Exception as exc:  # a value past the int/str digit limit has no repr
                        failures.append("%s(%s=value %d): %s" % (name, param, i, type(exc).__name__))
        assert failures == []


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
        signature = COMMANDS[name][0]
        count = 3 if ";" in signature else signature.count(",") + 1  # rary(S; f1, f2)
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
