"""Expression DSL for the density-algebra kernel.

A script is a sequence of statements: chart declarations, coordinate-change
declarations, ``let`` bindings, and command invocations.  Example::

    chart C { even x, y; odd xi }
    let s = x*#x + xi*#xi
    lift(s, 1/2)
    master(s)

``#a`` is the fiber partner of a base coordinate ``a``; hatted charts add
``t`` and ``#t``, and ``w`` is accepted (and printed) as sugar for ``t*#t``.
Rational literals are written ``p/q``, exponents with ``^``.

`parse` turns text into a Script with source positions; `Interpreter.run`
executes one, collecting printable output and a verification verdict.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .brackets import (
    DomainError,
    antibracket,
    delta_op,
    divergence,
    project_base,
    r_ary_bracket,
)
from .classify import (
    LieAlgebraData,
    classify_lifts,
    density_evolution,
    lie_poisson,
    master_check,
    supertrace_extension,
)
from .lift import (
    CoordinateChange,
    DensityElement,
    lift,
    transform_density,
    transform_hatted,
)
from .printing import poly_to_dict, poly_to_text
from .spoly import Chart, DensalgError, EVEN, ODD, SPoly, SubstitutionError, rational_power
from .spoly import UnknownVariableError


class ParseError(DensalgError):
    """Lexical or syntactic problem, or a malformed statement."""


# command name -> number of arguments; rary checks its own (S; f1, ..., fr)
COMMANDS = {
    "bracket": 2,
    "div": 1,
    "delta": 1,
    "lift": 2,
    "project": 1,
    "rary": None,
    "master": 1,
    "classify": 3,
    "liealg": 1,
    "evolve": 4,
    "transform": 2,
}

_SYMBOLS = ("->", "{", "}", "(", ")", ",", ";", "=", "+", "-", "*", "/", "^", ":")


@dataclass(frozen=True)
class Token:
    kind: str  # 'name', 'fiber', 'int', 'string', or the symbol itself
    text: str
    line: int
    column: int


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            # '#name' is a fiber variable; '# ' etc. is an error
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            if j == i + 1:
                raise ParseError("'#' must be followed by a variable name", line, col)
            tokens.append(Token("fiber", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated string", line, col)
            tokens.append(Token("string", text[i + 1 : j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdecimal():  # not isdigit: int() rejects '²'
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            tokens.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        two = text[i : i + 2]
        if two == "--" or two == "//":
            # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if two in _SYMBOLS:
            tokens.append(Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(Token("eof", "", line, col))
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

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                "expected %s, found %r" % (what or kind, tok.text or "end of input"),
                tok.line,
                tok.column,
            )
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
            raise ParseError(
                "expected a statement, found %r" % (tok.text or "end of input"),
                tok.line,
                tok.column,
            )
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
        hatted = False
        if self.at_name("hatted"):
            self.next()
            hatted = True
        self.expect("{")
        coords = []
        while not self.peek().kind == "}":
            group = self.expect("name", "'even' or 'odd'")
            if group.text not in ("even", "odd"):
                raise ParseError(
                    "expected 'even' or 'odd', found %r" % group.text,
                    group.line,
                    group.column,
                )
            parity = EVEN if group.text == "even" else ODD
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
        if self.at_name("hatted"):
            self.next()
            hatted = True
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
            label = self.expect("name", "'%s'" % which)
            if label.text != which:
                raise ParseError(
                    "expected %r, found %r" % (which, label.text), label.line, label.column
                )
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
        args = []
        groups = [args]
        while self.peek().kind != ")":
            tok = self.peek()
            if tok.kind == "string":
                self.next()
                groups[-1].append(("string", tok.text))
            else:
                groups[-1].append(("expr", self.parse_expr()))
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

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            rhs = self.parse_term()
            node = BinOp(op.kind, node, rhs, op.line, op.column)
        return node

    def parse_term(self):
        node = self.parse_power()
        while self.peek().kind in ("*", "/"):
            op = self.next()
            rhs = self.parse_power()
            node = BinOp(op.kind, node, rhs, op.line, op.column)
        return node

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
        raise ParseError(
            "expected an expression, found %r" % (tok.text or "end of input"),
            tok.line,
            tok.column,
        )


def parse(text: str) -> Script:
    return _Parser(_tokenize(text)).parse_script()


# --- evaluation -------------------------------------------------------------

class Interpreter:
    """Executes a Script statement by statement.

    Output lines accumulate in `self.lines`; `self.failures` counts FAIL
    verdicts from verification commands.
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

    def emit_poly(self, label, poly):
        if self.json_output:
            self.lines.append(json.dumps({"label": label, "poly": poly_to_dict(poly)},
                                         sort_keys=True))
        else:
            self.lines.append("%s = %s" % (label, poly_to_text(poly)))

    def emit(self, text, payload=None):
        if self.json_output:
            self.lines.append(json.dumps(payload if payload is not None else {"label": text},
                                         sort_keys=True))
        else:
            self.lines.append(text)

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
        if isinstance(lhs, Fraction):
            if not lhs and rhs < 0:
                raise DomainError("zero to a negative power", node.line, node.column)
            if rhs.denominator == 1:
                return lhs ** int(rhs)
            if not lhs:
                return lhs
            try:
                return rational_power(lhs, rhs)
            except SubstitutionError:
                raise DomainError("the constant power (%s)^(%s) is not rational" % (lhs, rhs),
                                  node.line, node.column) from None
        if rhs.denominator != 1 or rhs < 0:
            # fractional/negative powers only exist for the t coordinate
            if lhs.chart.hatted and lhs == lhs.chart["t"]:
                return lhs.chart.t_power(rhs)
            if rhs.denominator == 1:
                raise DomainError("negative powers apply to t only", node.line, node.column)
            raise ParseError("fractional powers apply to t only", node.line, node.column)
        return lhs ** int(rhs)

    def eval_poly(self, node, chart=None):
        value = self.eval_expr(node, chart)
        if isinstance(value, Fraction):
            chart = chart or self.active_chart
            if chart is None:
                raise ParseError("no chart declared", node.line, node.column)
            return chart.const(value)
        return value

    def eval_rational(self, node):
        value = self.eval_expr(node)
        if isinstance(value, SPoly):
            raise ParseError("expected a rational constant", node.line, node.column)
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
        groups = st.data["groups"]
        flat = [a for g in groups for a in g]
        arity = COMMANDS[name]
        if arity is not None and len(flat) != arity:
            raise ParseError("%s takes %d argument%s, got %d"
                             % (name, arity, "" if arity == 1 else "s", len(flat)))

        def poly(i):
            kind, payload = flat[i]
            if kind != "expr":
                raise ParseError("expected an expression argument")
            return self.eval_poly(payload)

        def rat(i):
            kind, payload = flat[i]
            if kind != "expr":
                raise ParseError("expected a rational argument")
            return self.eval_rational(payload)

        if name == "bracket":
            self.emit_poly("bracket", antibracket(poly(0), poly(1)))
        elif name == "div":
            self.emit_poly("div", divergence(poly(0)))
        elif name == "delta":
            self.emit_poly("delta", delta_op(poly(0)))
        elif name == "lift":
            s = DensityElement(poly(0), rat(1))
            self.emit_poly("lift", lift(s))
        elif name == "project":
            pieces = project_base(poly(0))
            if self.json_output:
                self.emit(None, {
                    "label": "project",
                    "components": [
                        {"weight": str(lam), "poly": poly_to_dict(body)}
                        for body, lam in pieces
                    ],
                })
            else:
                if not pieces:
                    self.lines.append("project = 0")
                for body, lam in pieces:
                    self.lines.append("project[weight %s] = %s" % (lam, poly_to_text(body)))
        elif name == "rary":
            if len(groups) != 2 or len(groups[0]) != 1:
                raise ParseError("rary takes (S; f1, ..., fr)")
            S = poly(0)
            args = [poly(i) for i in range(1, len(flat))]
            self.emit_poly("rary", r_ary_bracket(S, args))
        elif name == "master":
            residual = master_check(poly(0))
            ok = residual.is_zero()
            verdict = "PASS" if ok else "FAIL"
            if self.json_output:
                self.emit(None, {"label": "master", "verdict": verdict,
                                 "residual": poly_to_dict(residual)})
            else:
                extra = "" if ok else " (residual = %s)" % poly_to_text(residual)
                self.lines.append("master: %s%s" % (verdict, extra))
            if not ok:
                self.failures += 1
        elif name == "classify":
            kb = classify_lifts(DensityElement(poly(0), rat(1)), rat(2))
            if self.json_output:
                self.emit(None, {
                    "label": "classify",
                    "dimension": kb.dimension,
                    "flagged_odd_base": kb.flagged_odd_base,
                    "basis": [poly_to_dict(e) for e in kb.elements()],
                })
            else:
                flag = " [odd base: ansatz unconstrained]" if kb.flagged_odd_base else ""
                self.lines.append("classify: dimension %d%s" % (kb.dimension, flag))
                for e in kb.elements():
                    self.lines.append("  %s" % poly_to_text(e))
        elif name == "liealg":
            kind, payload = flat[0]
            if kind != "string":
                raise ParseError('liealg takes a "file.json" path')
            g = LieAlgebraData.from_json(payload)
            s = lie_poisson(g)
            residual = master_check(s.body)
            ok = residual.is_zero()
            phi = supertrace_extension(g) if ok else None
            if self.json_output:
                self.emit(None, {
                    "label": "liealg",
                    "poisson": poly_to_dict(s.body),
                    "jacobi": "PASS" if ok else "FAIL",
                    "supertrace": [str(x) for x in phi] if ok else None,
                })
            else:
                self.lines.append("liealg: pi = %s" % poly_to_text(s.body))
                self.lines.append("liealg: jacobi %s" % ("PASS" if ok else "FAIL"))
                if ok:
                    self.lines.append(
                        "liealg: supertrace functional (%s)" % ", ".join(str(x) for x in phi)
                    )
            self.charts[s.chart.name or "lie"] = s.chart
            self.active_chart = s.chart
            if not ok:
                self.failures += 1
        elif name == "evolve":
            result = density_evolution(poly(0), poly(1), poly(2), rat(3))
            self.emit_poly("evolve", result)
        elif name == "transform":
            kind, payload = flat[1]
            if kind != "expr" or not isinstance(payload, Name):
                raise ParseError("transform takes (e, CHANGE)")
            if payload.ident not in self.changes:
                raise ParseError("unknown change %r" % payload.ident, payload.line, payload.column)
            change = self.changes[payload.ident]
            f = poly(0)
            if f.chart.hatted:
                out = transform_hatted(f, change, self.strict_orientation)
            else:
                out = transform_density(
                    DensityElement(f, Fraction(0)), change, self.strict_orientation
                ).body
            self.emit_poly("transform", out)
