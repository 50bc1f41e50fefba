"""Expression DSL for the density-algebra kernel.

A script is a sequence of statements: chart declarations, coordinate-change
declarations, ``let`` bindings, and command invocations.  Example::

    chart C { even x, y; odd xi }
    let s = x*#x + xi*#xi
    lift(s, 1/2)
    master(s)

A name is a letter or ``_``, then letters, digits, ``_`` or ``.``; ``#a`` is
the fiber partner of a base coordinate ``a``.  Hatted charts add ``t`` and
``#t``, and ``w`` is accepted (and printed) as sugar for ``t*#t``.  Integers
are runs of Unicode decimal digits, rationals ``p/q``, exponents ``^``.  A
string is one line in double quotes; ``--`` and ``//`` comment to line end.

`parse` turns text into a Script with source positions; `Interpreter.run`
executes one, collecting printable output and a verification verdict.  Each
command's result is one record, written as a JSON line or rendered as text.
The commands, with the kinds of their arguments, are the `COMMANDS` table.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .brackets import (
    DomainError,
    antibracket,
    delta_op,
    divergence,
    r_ary_bracket,
)
from .classify import (
    LieAlgebraData,
    _supertrace,
    classify_lifts,
    density_evolution,
    lie_poisson,
    master_check,
)
from .lift import (
    CoordinateChange,
    DensityElement,
    OrientationError,
    lift,
    project_to_density,
    transform_density,
    transform_hatted,
)
from .printing import poly_to_dict, poly_to_text
from .spoly import Chart, DensalgError, EVEN, ODD, SPoly, SubstitutionError, rational_power
from .spoly import UnknownVariableError, _is_name


class ParseError(DensalgError):
    """Lexical or syntactic problem, or a malformed statement."""


class Token(NamedTuple):
    kind: str  # 'name', 'fiber', 'int', 'string', 'eof', or the symbol itself
    text: str
    line: int
    column: int


# tried in order; blanks and comments capture no group, `bad` what starts no token
_TOKEN = re.compile(r'[ \t\r]+|(?:--|//)[^\n]*|(?P<newline>\n)|(?P<fiber>#[\w.]+)'
                    r'|"(?P<string>[^"\n]*)"|(?P<int>\d+)|(?P<name>[\w.]+)'
                    r'|(?P<symbol>->|[{}(),;=+\-*/^:])|(?P<bad>.)')
_BAD_START = {"#": "'#' must be followed by a variable name", '"': "unterminated string"}


def _tokenize(text):
    tokens, line, line_start = [], 1, 0
    for m in _TOKEN.finditer(text):
        kind, column = m.lastgroup, m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad" or kind == "name" and not _is_name(m[0]):
            ch = m[0][0]  # a name may not start with a digit such as '²', or with '.'
            raise ParseError(_BAD_START.get(ch, "unexpected character %r" % ch), line, column)
        elif kind:
            tokens.append(Token(m[0] if kind == "symbol" else kind, m[kind], line, column))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# --- expression AST ---------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Name:
    ident: str
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Statement:
    kind: str  # 'chart', 'change', 'let', 'command'
    data: dict
    line: int
    column: int


@dataclass
class Script:
    statements: list = field(default_factory=list)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, what):
        """A ParseError at the next token: expected `what`, found that token."""
        tok = self.peek()
        raise ParseError("expected %s, found %r" % (what, tok.text or "end of input"),
                         tok.line, tok.column)

    def expect(self, kind, what=None):
        if self.peek().kind != kind:
            self.fail(what or kind)
        return self.next()

    def keyword(self, *words):
        """The next token, a name that is one of `words`."""
        tok = self.peek()
        if tok.kind != "name" or tok.text not in words:
            self.fail(" or ".join("'%s'" % word for word in words))
        return self.next()

    def at_name(self, text):
        tok = self.peek()
        return tok.kind == "name" and tok.text == text

    # --- statements ---

    def parse_script(self):
        script = Script()
        while self.peek().kind != "eof":
            tok = self.peek()
            try:
                script.statements.append(self.parse_statement())
            except RecursionError:
                raise ParseError("expression nested too deeply", tok.line, tok.column) from None
        return script

    def parse_statement(self):
        tok = self.peek()
        if tok.kind != "name":
            self.fail("a statement")
        if tok.text == "chart":
            return self.parse_chart()
        if tok.text == "change":
            return self.parse_change()
        if tok.text == "let":
            return self.parse_let()
        if tok.text in COMMANDS:
            return self.parse_command()
        raise ParseError("unknown statement %r" % tok.text, tok.line, tok.column)

    def parse_chart(self):
        kw = self.next()
        name = self.expect("name", "chart name").text
        hatted = self.at_name("hatted")
        if hatted:
            self.next()
        self.expect("{")
        coords = []
        while not self.peek().kind == "}":
            parity = EVEN if self.keyword("even", "odd").text == "even" else ODD
            while True:
                tok = self.expect("name", "coordinate name")
                if tok.text in Chart.RESERVED or tok.text in dict(coords):
                    raise ParseError("bad or duplicate coordinate name: %r" % tok.text,
                                     tok.line, tok.column)
                coords.append((tok.text, parity))
                if self.peek().kind == ",":
                    self.next()
                    continue
                break
            if self.peek().kind == ";":
                self.next()
        self.expect("}")
        return Statement(
            "chart", {"name": name, "coords": coords, "hatted": hatted}, kw.line, kw.column
        )

    def parse_change(self):
        kw = self.next()
        name = self.expect("name", "change name").text
        self.expect(":")
        src = self.expect("name", "source chart").text
        self.expect("->")
        tgt = self.expect("name", "target chart").text
        self.expect("{")
        maps = {}
        for which in ("forward", "inverse"):
            self.keyword(which)
            self.expect("{")
            entries = []
            while self.peek().kind != "}":
                var = self.expect("name", "coordinate name")
                if any(var.text == given for given, _ in entries):
                    raise ParseError("%s gives %r twice" % (which, var.text),
                                     var.line, var.column)
                self.expect("=")
                entries.append((var.text, self.parse_expr()))
                if self.peek().kind == ";":
                    self.next()
            self.expect("}")
            maps[which] = entries
        self.expect("}")
        return Statement(
            "change",
            {"name": name, "source": src, "target": tgt, **maps},
            kw.line,
            kw.column,
        )

    def parse_let(self):
        kw = self.next()
        name = self.expect("name", "binding name").text
        self.expect("=")
        expr = self.parse_expr()
        return Statement("let", {"name": name, "expr": expr}, kw.line, kw.column)

    def parse_command(self):
        kw = self.next()
        self.expect("(")
        groups = [[]]
        while self.peek().kind != ")":
            # a string argument stays its Token, anything else is an expression;
            # each goes with its first token, where a kind error points
            start = self.peek()
            groups[-1].append((start, self.next() if start.kind == "string" else self.parse_expr()))
            separator = self.peek().kind
            if separator == ";":
                groups.append([])
            elif separator != ",":
                break
            self.next()
        self.expect(")", "',' or ')'")
        return Statement(
            "command", {"name": kw.text, "groups": groups}, kw.line, kw.column
        )

    # --- expressions: + -  <  * /  <  ^ (right associative) ---

    def parse_expr(self, ops=("+", "-")):
        """A left-associative chain of `ops`: + and - join terms, which are
        chains of * and / joining powers."""
        node, op = None, None
        while True:
            rhs = self.parse_power() if ops[0] == "*" else self.parse_expr(("*", "/"))
            node = rhs if op is None else BinOp(op.kind, node, rhs, op.line, op.column)
            if self.peek().kind not in ops:
                return node
            op = self.next()

    def parse_power(self):
        node = self.parse_atom()
        if self.peek().kind == "^":
            op = self.next()
            rhs = self.parse_power()
            node = BinOp("^", node, rhs, op.line, op.column)
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            inner = self.parse_power()
            return BinOp("*", Num(Fraction(-1), tok.line, tok.column), inner, tok.line, tok.column)
        if tok.kind == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "int":
            self.next()
            return Num(Fraction(int(tok.text)), tok.line, tok.column)
        if tok.kind in ("name", "fiber"):
            self.next()
            return Name(tok.text, tok.line, tok.column)
        self.fail("an expression")


def parse(text: str) -> Script:
    return _Parser(_tokenize(text)).parse_script()


# --- evaluation -------------------------------------------------------------

class Interpreter:
    """Executes a Script statement by statement.

    Output lines accumulate in `self.lines`; `self.failures` counts FAIL
    verdicts from verification commands.  With `strict_orientation` set,
    `transform` refuses an orientation-reversing change (det J < 0) with an
    OrientationError; this is the only place that policy lives.
    """

    def __init__(self, json_output=False, strict_orientation=False):
        self.charts = {}
        self.changes = {}
        self.bindings = {}  # name -> SPoly
        self.active_chart = None
        self.json_output = json_output
        self.strict_orientation = strict_orientation
        self.lines = []
        self.failures = 0

    # --- helpers ---

    def emit(self, record, text):
        """One result: `record`, whose polynomials are SPolys, as a JSON line,
        or the lines `text()` renders."""
        if self.json_output:
            self.lines.append(json.dumps(record, sort_keys=True, default=poly_to_dict))
        else:
            self.lines.extend(text())

    def eval_expr(self, node, chart=None):
        chart = chart or self.active_chart
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Name):
            if node.ident in self.bindings:
                return self.bindings[node.ident]
            if chart is None:
                raise ParseError("no chart declared before %r" % node.ident, node.line, node.column)
            if node.ident == "w" and chart.hatted:
                return chart.w_star()
            try:
                return chart[node.ident]
            except UnknownVariableError:
                raise ParseError(
                    "unknown name %r on chart %s" % (node.ident, chart.name or "<anonymous>"),
                    node.line,
                    node.column,
                )
        if isinstance(node, BinOp):
            # a left-deep chain such as a flat sum runs as a loop, not a recursion
            spine = []
            while isinstance(node, BinOp):
                spine.append(node)
                node = node.left
            value = self.eval_expr(node, chart)
            for op in reversed(spine):
                value = self._apply(op, value, self.eval_expr(op.right, chart))
            return value
        raise ParseError("malformed expression")

    def _apply(self, node, lhs, rhs):
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        if node.op == "/":
            if isinstance(rhs, SPoly):
                raise ParseError("division by a polynomial", node.line, node.column)
            if not rhs:
                raise DomainError("division by zero", node.line, node.column)
            return lhs / rhs
        if isinstance(rhs, SPoly):
            raise ParseError("polynomial exponent", node.line, node.column)
        try:  # every error of a power, its size limit included, is at the operator
            if isinstance(lhs, Fraction):
                return rational_power(lhs, rhs)
            if rhs.denominator != 1 or rhs < 0:
                # fractional/negative powers only exist for the t coordinate
                if lhs.chart.hatted and lhs == lhs.chart["t"]:
                    return lhs.chart.t_power(rhs)
                if rhs.denominator == 1:
                    raise DomainError("negative powers apply to t only")
                raise ParseError("fractional powers apply to t only")
            return lhs ** int(rhs)
        except SubstitutionError:  # from rational_power only
            raise DomainError("the constant power (%s)^(%s) is not rational" % (lhs, rhs),
                              node.line, node.column) from None
        except DensalgError as exc:
            exc.line, exc.column = node.line, node.column
            raise

    def eval_poly(self, node, chart=None):
        value = self.eval_expr(node, chart)
        if isinstance(value, Fraction):
            chart = chart or self.active_chart
            if chart is None:
                raise ParseError("no chart declared", node.line, node.column)
            return chart.const(value)
        return value

    # --- statements ---

    def run(self, script: Script):
        for st in script.statements:
            try:
                getattr(self, "exec_" + st.kind)(st)
            except RecursionError:
                raise ParseError("expression nested too deeply", st.line, st.column) from None
            except DensalgError as exc:
                if exc.line is None:  # the statement is the best position known
                    exc.line, exc.column = st.line, st.column
                raise

    def exec_chart(self, st):
        chart = Chart(st.data["coords"], hatted=st.data["hatted"], name=st.data["name"])
        self.charts[st.data["name"]] = chart
        self.active_chart = chart

    def exec_change(self, st):
        d = st.data
        for which in ("source", "target"):
            if d[which] not in self.charts:
                raise ParseError("unknown chart %r" % d[which])
        src, tgt = self.charts[d["source"]], self.charts[d["target"]]
        forward = {n: self.eval_poly(e, tgt) for n, e in d["forward"]}
        inverse = {n: self.eval_poly(e, src) for n, e in d["inverse"]}
        self.changes[d["name"]] = CoordinateChange(src, tgt, forward, inverse)

    def exec_let(self, st):
        self.bindings[st.data["name"]] = self.eval_poly(st.data["expr"])

    def exec_command(self, st):
        name = st.data["name"]
        signature, run = COMMANDS[name]
        result = run(self, *self.read_arguments(name, signature, st.data["groups"]))
        if result is not None:  # one polynomial, printed under the command's name
            self.emit({"label": name, "poly": result},
                      lambda: ["%s = %s" % (name, poly_to_text(result))])

    def read_arguments(self, name, signature, groups):
        """Check a command's argument count, ';' groups and kinds against its
        signature in COMMANDS, then evaluate the arguments left to right."""
        kinds, fits = [], len(groups) == signature.count(";") + 1
        for group, spec in zip(groups, signature.split("; ")):
            spec = spec.split(", ")
            if spec[-1].endswith("..."):  # the last kind, zero or more times
                spec = spec[:-1] + [spec[-1][:-3]] * (len(group) - len(spec) + 1)
            fits = fits and len(group) == len(spec)
            kinds += spec
        if not fits:
            raise ParseError("%s takes (%s)" % (name, signature))
        args = [arg for group in groups for arg in group]
        return [self.read_argument(kind, *arg) for kind, arg in zip(kinds, args)]

    def read_argument(self, kind, start, arg):
        """One argument of a kind: poly, rational, string or change (a name),
        with `start` its first token."""
        if kind == "string" and isinstance(arg, Token):
            return arg.text
        if kind == "change" and isinstance(arg, Name):
            if arg.ident not in self.changes:
                raise ParseError("unknown change %r" % arg.ident, arg.line, arg.column)
            return self.changes[arg.ident]
        if kind == "poly" and not isinstance(arg, Token):
            return self.eval_poly(arg)
        if kind == "rational" and not isinstance(arg, Token):
            value = self.eval_expr(arg)
            if not isinstance(value, SPoly):
                return value
        raise ParseError("expected a %s argument" % kind, start.line, start.column)

    # --- commands with their own output ---

    def project(self, f):
        pieces = project_to_density(f)
        self.emit({"label": "project",
                   "components": [{"weight": str(e.weight), "poly": e.body} for e in pieces]},
                  lambda: ["project[weight %s] = %s" % (e.weight, poly_to_text(e.body))
                           for e in pieces] or ["project = 0"])

    def master(self, s):
        residual = master_check(s)
        verdict = "FAIL" if residual else "PASS"
        self.emit({"label": "master", "verdict": verdict, "residual": residual},
                  lambda: ["master: " + verdict
                           + (" (residual = %s)" % poly_to_text(residual) if residual else "")])
        self.failures += bool(residual)

    def classify(self, s, weight, bound):
        kb = classify_lifts(DensityElement(s, weight), bound)
        basis = kb.elements()
        flag = " [odd base: ansatz unconstrained]" if kb.flagged_odd_base else ""
        self.emit({"label": "classify", "dimension": kb.dimension,
                   "flagged_odd_base": kb.flagged_odd_base, "basis": basis},
                  lambda: ["classify: dimension %d%s" % (kb.dimension, flag)]
                  + ["  " + poly_to_text(e) for e in basis])

    def liealg(self, path):
        pi = lie_poisson(LieAlgebraData.from_json(path)).body
        phi = _supertrace(pi)  # None when pi breaks the Jacobi identity
        verdict = "FAIL" if phi is None else "PASS"
        shown = None if phi is None else [str(x) for x in phi]
        self.emit({"label": "liealg", "poisson": pi, "jacobi": verdict, "supertrace": shown},
                  lambda: ["liealg: pi = " + poly_to_text(pi), "liealg: jacobi " + verdict]
                  + ([] if phi is None else
                     ["liealg: supertrace functional (%s)" % ", ".join(shown)]))
        self.charts["lie"] = self.active_chart = pi.chart
        self.failures += phi is None

    def transform(self, f, change):
        if self.strict_orientation and change.jac_det < 0:
            raise OrientationError("orientation-reversing change in strict mode")
        if f.chart.hatted:
            return transform_hatted(f, change)
        return transform_density(DensityElement(f, Fraction(0)), change).body


# command -> (signature, run(interpreter, *arguments)); a run that returns a
# polynomial has it printed as `command = ...`.  A signature lists argument
# kinds (poly, rational, string, change) separated by ',', with ';' between
# groups and '...' after a kind that repeats zero or more times.
COMMANDS = {
    "bracket": ("poly, poly", lambda _, f, g: antibracket(f, g)),
    "div": ("poly", lambda _, f: divergence(f)),
    "delta": ("poly", lambda _, f: delta_op(f)),
    "lift": ("poly, rational", lambda _, f, weight: lift(DensityElement(f, weight))),
    "project": ("poly", Interpreter.project),
    "rary": ("poly; poly...", lambda _, s, *fs: r_ary_bracket(s, fs)),
    "master": ("poly", Interpreter.master),
    "classify": ("poly, rational, rational", Interpreter.classify),
    "liealg": ("string", Interpreter.liealg),
    "evolve": ("poly, poly, poly, rational", lambda _, *args: density_evolution(*args)),
    "transform": ("poly, change", Interpreter.transform),
}
