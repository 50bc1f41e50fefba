"""The canonical odd bracket, divergence operators, and the delta operator.

Sign conventions are not hard to get wrong when transcribing, so the
coordinate formulas here carry their per-term signs as data (SignConvention)
and the shipped constant PINNED is the unique member of a finite candidate
family that passes the whole identity suite (graded symmetry, Leibniz, odd
Jacobi, the divergence derivation identity, nilpotency, the delta generator
identity) together with two normalization anchors.  `pin_convention` re-runs
that selection and `convention_ledger` renders the result; see
docs/convention_ledger.txt.  Each identity reads only some of the sign
fields, and one call judges it once per distinct value of those fields, on
samples drawn once for all candidates; the pin fixes the fields one at a time
and drops a partial candidate once an identity whose fields are all fixed
rejects it.  A bracket (f, g) runs f's `_plan_core`, each right partial of f
with its partner slot and sign cell, against g's left `_partial_rows` and sums
the products into one term map (`spoly._mul_into`); `classify_lifts` reads
the core of s for every column.  The core is convention-free: a sign cell
records parity(q), the parity of f's part and which of the two bracket terms
the product feeds, and a convention reaches the bracket as its eight
`SignConvention.negations`, one bool per cell, computed once per convention.
f keeps its core and g its left partials (see `spoly`), so the samples of
the pin are derived once for all candidate conventions.  A divergence strips
both variables of each pair from each term in one pass.  Against a density
c t^mu |D(x,t)| it gains mu t^-1 d_#t f in that pass, and delta is the
divergence against t^-2.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from functools import cached_property

from .spoly import ANY, EVEN, ODD, Chart, DomainError, SPoly
from .spoly import _add_into, _entries, _integer, _mul_into, _odd_mask, _on, _partial_rows, _strip


@dataclass(frozen=True)
class SignConvention:
    """Per-term sign exponents of the coordinate formulas.

    The bracket of parity-homogeneous f, g is

        (f, g) = sum over pairs (q, q*) of
            (-1)^e1(a, f) (d_r f / dq)(d_l g / dq*)
          + (-1)^e2(a, f) (d_r f / dq*)(d_l g / dq)

    with a = parity(q), f = parity(f), and e(a, f) = c0 + c1*a + c2*f + c3*a*f
    for the four recorded bits.  `negations[4*a + 2*f + term]`, the sign
    cells in that order, is whether e1 (term 0) or e2 (term 1) is odd at
    (a, f); it is computed once per convention.  The divergence of f is

        div(f) = sum over base pairs of (-1)^(div_parity*a) d d f

    with both derivatives taken from `div_side`.  `generator_sign` records
    (s0, s1) in the identity

        delta(fg) - delta(f) g - (-1)^f f delta(g) = (-1)^(s0 + s1*f) (f, g).
    """

    term_q_qstar: tuple
    term_qstar_q: tuple
    div_parity: int
    div_side: str  # 'left' or 'right'
    generator_sign: tuple

    def __post_init__(self):
        for name, values in _FIELD_VALUES:
            if getattr(self, name) not in values:
                raise DomainError("SignConvention.%s is none of its %d candidate values"
                                  % (name, len(values)))

    @cached_property
    def negations(self):
        return tuple(bool((c[0] + c[1] * a + c[2] * fp + c[3] * a * fp) % 2) for a in _BITS
                     for fp in _BITS for c in (self.term_q_qstar, self.term_qstar_q))


_BITS = (0, 1)
_FIELD_VALUES = (  # each field of SignConvention with its candidate values, in search order
    ("term_q_qstar", tuple(itertools.product(_BITS, repeat=4))),
    ("term_qstar_q", tuple(itertools.product(_BITS, repeat=4))),
    ("div_parity", _BITS),
    ("div_side", ("left", "right")),
    ("generator_sign", tuple(itertools.product(_BITS, repeat=2))),
)


# Selected by pin_convention(); matches the convention in which the bracket
# is (-1)^parity(f) times the Batalin-Vilkovisky bracket built from right
# derivatives on f and left derivatives on g.
PINNED = SignConvention(
    term_q_qstar=(0, 0, 1, 0),
    term_qstar_q=(1, 0, 1, 0),
    div_parity=1,
    div_side="left",
    generator_sign=(0, 0),
)


def _plan_core(f):
    """f's side of every bracket (f, g) under any convention, built on first
    use and kept on f: per nonzero right partial of a parity part of f, its
    `_rows`, the partner slot to derive g by and its sign cell
    4 parity(q) + 2 parity(part) + term, term 0 for (d_r f/dq)(d_l g/dq*) and
    1 for (d_r f/dq*)(d_l g/dq)."""
    if f._plan_core is None:
        core = []
        for part, fp in zip(f.parity_components(), (EVEN, ODD)):
            if not part:
                continue
            df = _partial_rows(f.chart, part.terms, False)
            for q, qs, a in f.chart.pair_slots:
                cell = 4 * a + 2 * fp
                if q in df:
                    core.append((df[q], qs, cell))
                if qs in df:
                    core.append((df[qs], q, cell + 1))
        f._plan_core = core
    return f._plan_core


def _bracket_from(f, g, negate):
    """The bracket (f, g) from f's `_plan_core`, each sign cell negated where
    `negate` says, accumulated in one term map; a product one of whose
    derivatives is zero is skipped.  g's left `_partial_rows` are built on
    first use and kept on g."""
    if g._left_rows is None:
        g._left_rows = _partial_rows(g.chart, g.terms, True)
    dg = g._left_rows
    terms = {}
    for df, slot, cell in _plan_core(f):
        if slot in dg:
            _mul_into(terms, df, dg[slot], negate[cell])
    return SPoly(g.chart, terms)


def antibracket(f: SPoly, g: SPoly, conv: SignConvention = PINNED) -> SPoly:
    """The canonical odd bracket on the chart, (t, #t) pair included."""
    _on(g, _on(f).chart, "bracket operands live on different charts")
    return _bracket_from(f, g, conv.negations)


def _div_pairs(f, pairs, conv, mu=0):
    """sum over `pairs` (`Chart.pair_slots`) of (-1)^(div_parity*a) d_q d_q* f,
    both derivatives from conv.div_side, plus mu t^-1 d_#t f, in one pass:
    each term is stripped of q* and then of q for each pair it holds, and of
    #t, its t slot decremented, for a nonzero mu."""
    left = conv.div_side == "left"
    terms = {}
    for key, coeff in f.terms.items():
        mask = _odd_mask(f.chart.odd_bits, key)
        for q, qs, a in pairs:
            if key[q] and key[qs]:
                k, c = _strip(key, qs, coeff, mask, left)
                k, c = _strip(k, q, c, mask, left)  # q* was even if q reads the mask
                _add_into(terms, k, -c if conv.div_parity and a else c)
        if mu and key[-1]:  # #t holds the last slot and t the one before
            k, c = _strip(key, len(key) - 1, coeff, mask, left)
            _add_into(terms, k[:-2] + (k[-2] - 1, 0), mu * c)
    return SPoly(f.chart, terms)


def _hatted_chart(f, name):
    """The chart of the polynomial f, which must be hatted for the operation `name`."""
    chart = _on(f).chart
    if not chart.hatted:
        raise DomainError("%s needs a hatted chart" % name)
    return chart


def divergence(f: SPoly, conv: SignConvention = PINNED) -> SPoly:
    """Divergence with respect to |Dx|: base coordinate pairs only."""
    chart = _on(f).chart
    return _div_pairs(f, chart.pair_slots[:chart.n_base], conv)


def divergence_full(f: SPoly) -> SPoly:
    """Divergence with respect to |D(x,t)| on a hatted chart."""
    return _div_pairs(f, _hatted_chart(f, "divergence_full").pair_slots, PINNED)


def divergence_wrt(f: SPoly, rho_coeff: SPoly) -> SPoly:
    """The divergence of f against the density rho |D(x,t)|, rho = c t^mu:
    rho^-1 divergence_full(f rho), which is divergence_full(f) + mu t^-1 d_#t f
    as rho depends on t alone; c cancels.

    rho_coeff must be a single invertible term c * t^mu on a hatted chart.
    """
    chart = _hatted_chart(f, "divergence_wrt")
    if not isinstance(rho_coeff, SPoly):
        rho_coeff = chart.const(rho_coeff)
    _on(rho_coeff, chart, "rho lives on the wrong chart")
    if len(rho_coeff.terms) != 1:
        raise DomainError("rho must be a single invertible term")
    (key, _), = rho_coeff.terms.items()
    ti = chart.t_var.index
    mu = key[ti]
    if key != chart.power_key(ti, mu):
        raise DomainError("rho must be a rational multiple of a power of t")
    return _div_pairs(f, chart.pair_slots, PINNED, mu)


def delta_op(f: SPoly, conv: SignConvention = PINNED) -> SPoly:
    """The canonical odd operator: the divergence against t^-2 |D(x,t)|, every
    pair, (t, #t) included, minus 2/t d_#t."""
    return _div_pairs(f, _hatted_chart(f, "delta_op").pair_slots, conv, -2)


def restrict_to_base(f: SPoly) -> SPoly:
    """Pullback along the zero section: all fiber variables (and #t) to 0."""
    chart = _on(f).chart
    return SPoly(chart, {
        key: c for key, c in f.terms.items() if not chart.key_fiber_degree(key)
    })


def r_ary_bracket(S: SPoly, args) -> SPoly:
    """{f_1 ... f_r} = restrict_to_base(((S, f_1), f_2), ..., f_r).

    Arguments must be functions on the base (fiber degree 0); brackets are
    applied left to right.  Each step carries the sign (-1)^{parity of the
    accumulated bracket}, which orients the induced brackets so that an even
    fiber-degree-2 S satisfies {f,g} = (-1)^((f+1)(g+1)) {g,f}.
    """
    args = _entries(args, None, "the r-ary bracket arguments are a list")
    for f in args:
        if _on(f).fiber_degree() != 0:
            raise DomainError("r-ary bracket arguments must have fiber degree 0")
    acc = _on(S)
    for f in args:
        acc = antibracket(acc.parity_twist(), f)
    return restrict_to_base(acc)


# ---------------------------------------------------------------------------
# Convention pinning
# ---------------------------------------------------------------------------

def _random_homogeneous(rng, chart, parity, n_terms=3):
    """Random parity-homogeneous polynomial with small integer coefficients."""
    odd = [v.parity == ODD for v in chart.variables]
    terms = {}
    attempts = 0
    while len(terms) < n_terms and attempts < 50 * n_terms:
        attempts += 1
        key = tuple([int(rng.random() < 0.4) if o else rng.choice((0, 0, 1, 2)) for o in odd])
        if chart.key_parity(key) != parity:
            continue
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        terms[key] = c
    return SPoly(chart, terms)


def _sign(e):
    return -1 if e % 2 else 1


def _grade(f):
    """Parity of a homogeneous sample; the zero polynomial counts as even."""
    p = f.parity()
    return 0 if p is ANY else p


_CHART = Chart([("x", EVEN), ("y", EVEN), ("xi", ODD), ("eta", ODD)])
_HCHART = _CHART.hatted_version()
_SAMPLES = 24  # random triples per check
_X, _XS, _XI, _XIS = (_CHART[n] for n in ("x", "#x", "xi", "#xi"))
_BRACKET = ("term_q_qstar", "term_qstar_q")
_DIV = ("div_parity", "div_side")

# (name, fields, [(sample, holds(f, g, h, conv)), ...]): an identity holds when
# each of its checks holds on every triple of its sample: fixed triples for the
# anchors, which fix the global signs the identities cannot see, else a chart
# to draw _SAMPLES random homogeneous triples on.  Its verdict depends on conv
# only through the named fields.
_IDENTITIES = (
    ("anchor (x, #x) = +1", _BRACKET,
     [([(_X, _XS, _CHART.const(1))], lambda f, g, h, c: antibracket(f, g, c) == h)]),
    ("anchor div(x * #x) = +1", _DIV,
     [([(_X * _XS, None, _CHART.const(1))], lambda f, g, h, c: divergence(f, c) == h)]),
    ("anchor (xi, #xi) = -1 (odd base)", _BRACKET,
     [([(_XI, _XIS, _CHART.const(-1))], lambda f, g, h, c: antibracket(f, g, c) == h)]),
    ("anchor div(xi * #xi) = -1 (odd base)", _DIV,
     [([(_XI * _XIS, None, _CHART.const(-1))], lambda f, g, h, c: divergence(f, c) == h)]),
    ("graded symmetry (f,g) = (-1)^(fg) (g,f)", _BRACKET, [
        (_CHART, lambda f, g, h, c:
            antibracket(f, g, c) == _sign(_grade(f) * _grade(g)) * antibracket(g, f, c)),
    ]),
    ("Leibniz (fg,h) = (-1)^f f(g,h) + (-1)^(gh) (f,h)g", _BRACKET, [
        (_CHART, lambda f, g, h, c:
            antibracket(f * g, h, c)
            == _sign(_grade(f)) * (f * antibracket(g, h, c))
            + _sign(_grade(g) * _grade(h)) * (antibracket(f, h, c) * g)),
    ]),
    ("odd Jacobi (f,(g,h)) = (-1)^(f+1) ((f,g),h) + (-1)^((f+1)(g+1)) (g,(f,h))", _BRACKET, [
        (_CHART, lambda f, g, h, c:
            antibracket(f, antibracket(g, h, c), c)
            == _sign(_grade(f) + 1) * antibracket(antibracket(f, g, c), h, c)
            + _sign((_grade(f) + 1) * (_grade(g) + 1)) * antibracket(g, antibracket(f, h, c), c)),
    ]),
    ("derivation identity div(f,g) = -(div f, g) - (-1)^f (f, div g)", _BRACKET + _DIV, [
        (_CHART, lambda f, g, h, c:
            divergence(antibracket(f, g, c), c)
            == -antibracket(divergence(f, c), g, c)
            - _sign(_grade(f)) * antibracket(f, divergence(g, c), c)),
    ]),
    ("nilpotency div^2 = 0 and delta^2 = 0", _DIV, [
        (_CHART, lambda f, g, h, c: not divergence(divergence(f, c), c)),
        (_HCHART, lambda f, g, h, c: not delta_op(delta_op(f, c), c)),
    ]),
    ("generator identity delta(fg) - delta(f)g - (-1)^f f delta(g) = sigma(f)(f,g)",
     _BRACKET + _DIV + ("generator_sign",), [
        (_HCHART, lambda f, g, h, c:
            delta_op(f * g, c) - delta_op(f, c) * g - _sign(_grade(f)) * (f * delta_op(g, c))
            == _sign(c.generator_sign[0] + c.generator_sign[1] * _grade(f)) * antibracket(f, g, c)),
    ]),
)


def _draw(rng, sample):
    if not isinstance(sample, Chart):
        return sample
    return [[_random_homogeneous(rng, sample, rng.choice([EVEN, ODD])) for _ in range(3)]
            for _ in range(_SAMPLES)]


class _Suite:
    """The identity suite on one random stream, shared by the candidates of one call.

    Every identity's triples are drawn up front, in table order, so they are
    the same whichever identity or candidate asks first.  Verdicts are
    memoised on the identity and conv's values of its fields.
    """

    def __init__(self, rng):
        self.samples = [[_draw(rng, s) for s, _ in checks] for _, _, checks in _IDENTITIES]
        self.verdicts = {}

    def holds(self, k, conv):
        _, names, checks = _IDENTITIES[k]
        key = (k,) + tuple(getattr(conv, n) for n in names)
        if key not in self.verdicts:
            self.verdicts[key] = all(
                all(holds(f, g, h, conv) for f, g, h in triples)
                for (_, holds), triples in zip(checks, self.samples[k])
            )
        return self.verdicts[key]

    def first_failure(self, conv):
        """Name of the first identity in the table that conv fails, or None."""
        return next((name for k, (name, _, _) in enumerate(_IDENTITIES)
                     if not self.holds(k, conv)), None)


def _candidate_family():
    """All 4,096 conventions, the last field of `_FIELD_VALUES` varying fastest."""
    names = [name for name, _ in _FIELD_VALUES]
    for values in itertools.product(*(values for _, values in _FIELD_VALUES)):
        yield SignConvention(**dict(zip(names, values)))


def pin_convention(seed=2024):
    """Search the candidate family; return the unique surviving convention.

    Fields are fixed one at a time in `_FIELD_VALUES` order; each identity
    judges a partial candidate once all its fields are fixed, the others
    holding their first value, which it does not read."""
    suite = _Suite(random.Random(_integer(seed, "the seed")))
    candidates = [SignConvention(**{name: values[0] for name, values in _FIELD_VALUES})]
    fixed = set()
    for name, values in _FIELD_VALUES:
        fixed.add(name)
        ready = [k for k, (_, names, _) in enumerate(_IDENTITIES)
                 if name in names and fixed.issuperset(names)]
        candidates = [
            conv for partial in candidates for conv in
            (replace(partial, **{name: value}) for value in values)
            if all(suite.holds(k, conv) for k in ready)
        ]
    if len(candidates) != 1:
        raise RuntimeError(
            "expected exactly one surviving sign convention, got %d" % len(candidates)
        )
    return candidates[0]


def _perturbations(conv):
    """Yield (label, convention) for each single-field change of conv.

    A tuple field changes one bit at a time (c0..c3 for the bracket terms,
    s0 and s1 for the generator sign); a two-valued field, div_parity or
    div_side, takes its other candidate value from `_FIELD_VALUES`.
    """
    for name, values in _FIELD_VALUES:
        value = getattr(conv, name)
        if isinstance(value, tuple):
            letter = "s" if name == "generator_sign" else "c"
            for i in range(len(value)):
                bits = value[:i] + (value[i] ^ 1,) + value[i + 1:]
                yield "%s bit %s%d" % (name, letter, i), replace(conv, **{name: bits})
        else:
            other, = (v for v in values if v != value)
            yield name, replace(conv, **{name: other})


def convention_ledger(seed=2024) -> str:
    """Render the pinned convention: each sign bit with an identity forcing it.

    For every single-field perturbation of the pinned convention, report the
    first identity in the suite that rejects it.
    """
    suite = _Suite(random.Random(_integer(seed, "the seed")))
    lines = [
        "Pinned sign convention",
        "======================",
        "",
        "bracket term (d_r f/dq)(d_l g/dq*): sign exponent bits %s" % (PINNED.term_q_qstar,),
        "bracket term (d_r f/dq*)(d_l g/dq): sign exponent bits %s" % (PINNED.term_qstar_q,),
        "  exponent = c0 + c1*parity(q) + c2*parity(f) + c3*parity(q)*parity(f)",
        "divergence: sign exponent %d * parity(q), %s derivatives"
        % (PINNED.div_parity, PINNED.div_side),
        "generator identity sign sigma(f) = (-1)^(%d + %d*parity(f))" % PINNED.generator_sign,
        "",
        "Consequences:",
        "  (x, #x) = (#x, x) = +1 for an even base coordinate x",
        "  (xi, #xi) = -1 for an odd base coordinate xi",
        "  div(x * #x) = +1,  div(xi * #xi) = -1",
        "  Jacobi holds as (f,(g,h)) = (-1)^(f+1) ((f,g),h)"
        " + (-1)^((f+1)(g+1)) (g,(f,h))",
        "",
        "Forcing identities (first failure when one field is perturbed):",
    ]
    for label, perturbed in _perturbations(PINNED):
        forced_by = suite.first_failure(perturbed) or "no identity rejects this perturbation"
        lines.append("  %-24s forced by: %s" % (label + ":", forced_by))
    lines.append("")
    return "\n".join(lines)
