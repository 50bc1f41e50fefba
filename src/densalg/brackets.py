"""The canonical odd bracket, divergence operators, and the delta operator.

Sign conventions are not hard to get wrong when transcribing, so the
coordinate formulas here carry their per-term signs as data (SignConvention)
and the shipped constant PINNED is the unique member of a finite candidate
family that passes the whole identity suite (graded symmetry, Leibniz, odd
Jacobi, the divergence derivation identity, the delta generator identity)
together with three normalization anchors, (x, #x) = +1, (xi, #xi) = -1 and
div(xi * #xi) = -1.  div(x * #x) = +1 and the nilpotency of div and delta
hold under every candidate, so the suite does not judge them; a test checks
that they do.  The public operators,
`antibracket`, `divergence`, `divergence_wrt` and `delta_op`, run under PINNED
only.  `pin_convention` re-runs the selection of PINNED, reaching each candidate
through the private kernels `_bracket_from` and `_div_pairs`, which take the
convention, and `convention_ledger` renders the result; see
docs/convention_ledger.txt.  Each identity reads only some of the sign
fields, and one call judges it once per distinct value of those fields, on
24 random triples per chart drawn once for all candidates and shared by
every identity on that chart; the pin fixes the fields one at a time
and drops a partial candidate once an identity whose fields are all fixed
rejects it.  This module owns every bracket loop: `_bracket_from`,
`_image_rows` and `_div_pairs`.  A bracket (f, g) runs f's `_plan_core`, each
right partial of f with its partner slot and sign cell, against g's left
`_partial_rows` and sums the products into one term map (`spoly._mul_into`);
`_image_rows` runs the core of s against each one-term column of
`classify_lifts`, whose derivatives it reads off the column's key.  The core
is convention-free: a sign cell records parity(q), the parity of f's part and
which of the two bracket terms the product feeds, and a convention reaches
the bracket as its eight `SignConvention.negations`, one bool per cell,
computed once per convention.
f keeps its core and g its left partials (see `spoly`), so the samples of
the pin are derived once for all candidate conventions.  A divergence strips
both variables of each pair from each term in one pass.  Against a density
c t^mu |D(x,t)| it gains mu t^-1 d_#t f in that pass, so divergence_wrt(f, 1)
is the divergence against |D(x,t)| and delta the divergence against t^-2.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from functools import cached_property

from .spoly import ANY, EVEN, ODD, Chart, DomainError, SPoly
from .spoly import _add_into, _entries, _integer, _mul_into, _odd_mask, _on, _partial_rows, _poly
from .spoly import _scaled_rows, _strip, _strip_t


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
    1 for (d_r f/dq*)(d_l g/dq).  It is kept as (core, den), read off f's
    `_scaled_rows`, so its rows are ints over den, derivatives by t included."""
    if f._plan_core is None:
        rows, den = _scaled_rows(f)
        parts = ([], [])  # f's rows split by parity, read off each mask
        for row in rows:
            parts[row[2].bit_count() & 1].append(row)
        core = []
        for rows, fp in zip(parts, (EVEN, ODD)):
            if not rows:
                continue
            df = _partial_rows(f.chart, rows, False)
            for q, qs, a in f.chart.pair_slots:
                cell = 4 * a + 2 * fp
                if q in df:
                    core.append((df[q], qs, cell))
                if qs in df:
                    core.append((df[qs], q, cell + 1))
        f._plan_core = core, den
    return f._plan_core


def _bracket_from(f, g, conv):
    """The bracket (f, g) under `conv` from f's `_plan_core`, each sign cell
    negated where `conv.negations` says, accumulated in one term map; a
    product one of whose derivatives is zero is skipped.  g's left
    `_partial_rows` are built on first use from its `_scaled_rows` and kept
    on g as (tables, den), and the bracket's denominator is the product of
    the two."""
    if g._left_rows is None:
        rows, den = _scaled_rows(g)
        g._left_rows = _partial_rows(g.chart, rows, True), den
    (dg, g_den), (core, f_den), negate = g._left_rows, _plan_core(f), conv.negations
    terms = {}
    for df, slot, cell in core:
        if slot in dg:
            _mul_into(terms, df, dg[slot], negate[cell])
    return _poly(g.chart, terms, f_den * g_den)


def _image_rows(f, columns):
    """The images (f, q) under PINNED of one-term `columns` of coefficient 1,
    transposed into one sparse int row {column: coefficient} per monomial of
    the images: the linear system of `classify_lifts`.  The rows read f's
    core, int numerators over one denominator, and leave that out: a common
    factor changes no kernel.  Each column's derivatives are read off its
    key, so no table is built or kept for a column."""
    (core, _), negate, odd = _plan_core(f), PINNED.negations, f.chart.odd_bits
    rows = {}
    for col, q in enumerate(columns):
        key, = q.num
        mask = _odd_mask(odd, key)
        image = {}
        for df, slot, cell in core:
            if key[slot]:
                k, c = _strip(key, slot, 1, mask, True)
                _mul_into(image, df, [(k, c, mask & ~(1 << slot), False)], negate[cell])
        for mono, c in image.items():
            rows.setdefault(mono, {})[col] = c
    return rows.values()


def antibracket(f: SPoly, g: SPoly) -> SPoly:
    """The canonical odd bracket on the chart, (t, #t) pair included."""
    _on(g, _on(f).chart, "bracket operands live on different charts")
    return _bracket_from(f, g, PINNED)


def _div_pairs(f, pairs, conv, mu=0):
    """sum over `pairs` (`Chart.pair_slots`) of (-1)^(div_parity*a) d_q d_q* f,
    both derivatives from conv.div_side, plus mu t^-1 d_#t f, in one pass:
    each term is stripped of q* and then of q for each pair it holds and,
    for a nonzero mu, stripped of #t and divided by t: the t slot of the key
    of t^-1, built once per call, is added to its t slot.  It reads f's
    `_scaled_rows`, ints over den, and folds mu in as numerator over
    denominator: each pair term is multiplied by mu's denominator and each
    #t term by its numerator, so the sum is ints over den times mu's
    denominator."""
    left = conv.div_side == "left"
    t = 2 * f.chart.n_base if f.chart.hatted else -1
    t_inverse_slot = f.chart.power_key(t, -1)[t] if mu else None
    rows, den = _scaled_rows(f)
    mu, mu_den = mu.numerator, mu.denominator
    terms = {}
    for key, coeff, mask, _ in rows:
        for q, qs, a in pairs:
            if key[q] and key[qs]:
                k, c = _strip(key, qs, coeff * mu_den, mask, left)
                # q* was even if q reads the mask
                k, c = _strip_t(k, q, c) if q == t else _strip(k, q, c, mask, left)
                _add_into(terms, k, -c if conv.div_parity and a else c)
        if mu and key[-1]:  # #t holds the last slot and t the one before
            k, c = _strip(key, len(key) - 1, coeff, mask, left)
            _add_into(terms, k[:-2] + (k[-2] + t_inverse_slot, 0), mu * c)
    return _poly(f.chart, terms, den * mu_den)


def _hatted_chart(f, name):
    """The chart of the polynomial f, which must be hatted for the operation `name`."""
    chart = _on(f).chart
    if not chart.hatted:
        raise DomainError("%s needs a hatted chart" % name)
    return chart


def divergence(f: SPoly) -> SPoly:
    """Divergence with respect to |Dx|: base coordinate pairs only."""
    chart = _on(f).chart
    return _div_pairs(f, chart.pair_slots[:chart.n_base], PINNED)


def divergence_wrt(f: SPoly, rho_coeff: SPoly) -> SPoly:
    """The divergence of f against the density rho |D(x,t)|, rho = c t^mu:
    rho^-1 times the divergence of f rho over every pair, (t, #t) included,
    which is that divergence of f plus mu t^-1 d_#t f as rho depends on t
    alone; c cancels.  divergence_wrt(f, 1) is the divergence against |D(x,t)|.

    rho_coeff must be a single invertible term c * t^mu on a hatted chart:
    its key holds no variable but t.
    """
    chart = _hatted_chart(f, "divergence_wrt")
    if not isinstance(rho_coeff, SPoly):
        rho_coeff = chart.const(rho_coeff)
    _on(rho_coeff, chart, "rho lives on the wrong chart")
    if len(rho_coeff.num) != 1:
        raise DomainError("rho must be a single invertible term")
    key, = rho_coeff.num
    ti = chart.t_var.index
    if any(key[:ti]) or key[ti + 1]:
        raise DomainError("rho must be a rational multiple of a power of t")
    return _div_pairs(f, chart.pair_slots, PINNED, rho_coeff.weight())


def delta_op(f: SPoly) -> SPoly:
    """The canonical odd operator: the divergence against t^-2 |D(x,t)|, every
    pair, (t, #t) included, minus 2/t d_#t."""
    return _div_pairs(f, _hatted_chart(f, "delta_op").pair_slots, PINNED, -2)


def restrict_to_base(f: SPoly) -> SPoly:
    """Pullback along the zero section: all fiber variables (and #t) to 0."""
    chart = _on(f).chart
    kept = {key: c for key, c in f.num.items() if not chart.key_fiber_degree(key)}
    return _poly(chart, kept, f.den)


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
        terms[chart._to_key(key)] = rng.choice((-3, -2, -1, 1, 2, 3))  # t's exponent to its slot
    return SPoly(chart, terms)


def _sign(e):
    return -1 if e % 2 else 1


def _grade(f):
    """Parity of a homogeneous sample; the zero polynomial counts as even."""
    p = f.parity()
    return 0 if p is ANY else p


_CHART = Chart([("x", EVEN), ("y", EVEN), ("xi", ODD), ("eta", ODD)])
_HCHART = _CHART.hatted_version()
_SAMPLES = 24  # random triples per chart, shared by every check on it
_X, _XS, _XI, _XIS = (_CHART[n] for n in ("x", "#x", "xi", "#xi"))
_BRACKET = ("term_q_qstar", "term_qstar_q")
_DIV = ("div_parity", "div_side")


def _div(f, conv, mu=0):
    """The divergence of f under `conv` over every pair of its chart, plus
    mu t^-1 d_#t f: the divergence on _CHART at mu = 0, delta on _HCHART at
    mu = -2."""
    return _div_pairs(f, f.chart.pair_slots, conv, mu)


# (name, fields, sample, holds(f, g, h, conv)): an identity holds when its one
# check holds on every triple of its sample: fixed triples for the anchors,
# which fix the global signs the identities cannot see, else a chart, whose
# _SAMPLES random homogeneous triples every check on it reads.  An
# identity names exactly the fields its verdict reads: the anchor (x, #x) reads
# only sign cell 0, e1(0, 0), and (xi, #xi) only cell 6, e1(1, 1), both of
# term_q_qstar, and div(xi * #xi) strips an even #xi and a lone xi, so no side
# enters.  Naming a field it does not read only delays its verdict in the pin
# and splits its memo; naming too few would share a verdict between candidates
# it tells apart (test_named_fields_suffice checks this).  The checks run the
# kernels of the public operators, `_bracket_from` and `_div`, under conv.
_IDENTITIES = (
    ("anchor (x, #x) = +1", ("term_q_qstar",),
     [(_X, _XS, _CHART.const(1))], lambda f, g, h, c: _bracket_from(f, g, c) == h),
    ("anchor (xi, #xi) = -1 (odd base)", ("term_q_qstar",),
     [(_XI, _XIS, _CHART.const(-1))], lambda f, g, h, c: _bracket_from(f, g, c) == h),
    ("anchor div(xi * #xi) = -1 (odd base)", ("div_parity",),
     [(_XI * _XIS, None, _CHART.const(-1))], lambda f, g, h, c: _div(f, c) == h),
    ("graded symmetry (f,g) = (-1)^(fg) (g,f)", _BRACKET, _CHART, lambda f, g, h, c:
        _bracket_from(f, g, c) == _sign(_grade(f) * _grade(g)) * _bracket_from(g, f, c)),
    ("Leibniz (fg,h) = (-1)^f f(g,h) + (-1)^(gh) (f,h)g", _BRACKET, _CHART, lambda f, g, h, c:
        _bracket_from(f * g, h, c)
        == _sign(_grade(f)) * (f * _bracket_from(g, h, c))
        + _sign(_grade(g) * _grade(h)) * (_bracket_from(f, h, c) * g)),
    ("odd Jacobi (f,(g,h)) = (-1)^(f+1) ((f,g),h) + (-1)^((f+1)(g+1)) (g,(f,h))", _BRACKET,
     _CHART, lambda f, g, h, c:
        _bracket_from(f, _bracket_from(g, h, c), c)
        == _sign(_grade(f) + 1) * _bracket_from(_bracket_from(f, g, c), h, c)
        + _sign((_grade(f) + 1) * (_grade(g) + 1)) * _bracket_from(g, _bracket_from(f, h, c), c)),
    ("derivation identity div(f,g) = -(div f, g) - (-1)^f (f, div g)", _BRACKET + _DIV,
     _CHART, lambda f, g, h, c:
        _div(_bracket_from(f, g, c), c)
        == -_bracket_from(_div(f, c), g, c)
        - _sign(_grade(f)) * _bracket_from(f, _div(g, c), c)),
    ("generator identity delta(fg) - delta(f)g - (-1)^f f delta(g) = sigma(f)(f,g)",
     _BRACKET + _DIV + ("generator_sign",), _HCHART, lambda f, g, h, c:
        _div(f * g, c, -2) - _div(f, c, -2) * g - _sign(_grade(f)) * (f * _div(g, c, -2))
        == _sign(c.generator_sign[0] + c.generator_sign[1] * _grade(f)) * _bracket_from(f, g, c)),
)


class _Suite:
    """The identity suite on one random stream, shared by the candidates of one call.

    _SAMPLES random triples are drawn up front for _CHART, then for _HCHART,
    and every check on a chart reads that chart's triples, so they are the
    same whichever identity or candidate asks first.  Verdicts are memoised
    on the identity and conv's values of its fields.
    """

    def __init__(self, rng):
        self.samples = {c: [[_random_homogeneous(rng, c, rng.choice([EVEN, ODD])) for _ in range(3)]
                            for _ in range(_SAMPLES)] for c in (_CHART, _HCHART)}
        self.verdicts = {}

    def holds(self, k, conv):
        _, names, sample, holds = _IDENTITIES[k]
        key = (k,) + tuple(getattr(conv, n) for n in names)
        if key not in self.verdicts:
            self.verdicts[key] = all(
                holds(f, g, h, conv)
                for f, g, h in (self.samples[sample] if isinstance(sample, Chart) else sample))
        return self.verdicts[key]

    def first_failure(self, conv):
        """Name of the first identity in the table that conv fails, or None."""
        return next((name for k, (name, *_) in enumerate(_IDENTITIES)
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
    holding their first value, which it does not read.  An identity names
    exactly the fields its verdict reads, so it judges as early as it can:
    the two bracket anchors once term_q_qstar is fixed, on 16 and 8
    candidates, where naming both bracket fields would judge them on 256
    and 128 for the same answer (a test checks that no identity reads a
    field it omits)."""
    suite = _Suite(random.Random(_integer(seed, "the seed")))
    candidates = [SignConvention(**{name: values[0] for name, values in _FIELD_VALUES})]
    fixed = set()
    for name, values in _FIELD_VALUES:
        fixed.add(name)
        ready = [k for k, (_, names, *_) in enumerate(_IDENTITIES)
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
