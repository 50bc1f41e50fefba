"""Exact supercommutative polynomial arithmetic on odd cotangent charts.

Values are sparse polynomials with exact rational coefficients over the
variables of a chart: base coordinates (even or odd), their parity-flipped
fiber partners (written ``#x``), and, on "hatted" charts, the weight variable
``t`` (even, weight 1, Laurent powers with rational exponents allowed) and its
odd partner ``#t`` (weight -1).

A monomial key is a tuple with one exponent slot per chart variable, indexed
by `Variable.index`, with 0 for an absent variable: a product adds the keys
slot by slot and a derivative updates one slot.  Odd variables are
implicitly kept in chart declaration order and every reordering sign is
absorbed into the coefficient at construction time.
Coefficients are integer numerators over one denominator: `num` maps each key
to a nonzero int and `den` is a positive int, in normal form,
gcd(den, *num.values()) = 1 and den = 1 for zero, so equal polynomials have
equal (den, num) and no kernel loop touches a Fraction.  A product
multiplies the denominators and every sum is `_sum`, which rescales each part
to their lcm; every result is built by `_poly`, which normalises it by one
gcd when its den is not 1.  `terms` is the rational view, {key: int or
Fraction}: `num` itself when den is 1, and else a fresh map on every read.
A derivative by t multiplies by t's exponent, which may be 1/2, so rows that
may be derived by t, the tables of partials by every variable alike, are
`_scaled_rows`: the numerators times `_t_scale`, the lcm of the denominators
of t's exponents in the polynomial (1 for integral powers), ints over den
times that scale.
The t slot holds t's exponent times `_T_UNIT` = lcm(1..16) (`_t_slot`, read
back by `_t_exp`): an int when the exponent's denominator divides it, as every
denominator up to 16 does (1/2, -3/2, 5/3), so those keys hash, compare and
add as ints, and else a Fraction.  Every other slot holds an int, 0 or 1 for
an odd variable.  Outside the kernel loops (`_mul_into`, `_rows`, `_strip_t`,
`_t_scale`) this codec is reached only through three `Chart` methods, which
speak plain exponents: `power_key` for one variable's power, `_to_key` for a
tuple of exponents, one per variable, and its inverse `_exponents`.  No other
module reads or writes a t slot.
All values are immutable and all operations are pure.  Products and brackets
accumulate in place into one term map through `_mul_into`, which repeats the
rule of `_add_into` inline.  `_sum` takes (num, den) parts, copies the first
and adds the others into the copy through `_add_into`, a part over a negative
den subtracted: `+` passes its operand with more terms first, `-` the right
operand over its negated den, and `Chart.sum` and a `_Substitution` every
summand.  A product by the scalar 1 returns the polynomial itself, and by -1
its negation.
`_mul_into` takes `_rows` (key, int coefficient, odd-variable bitmask,
fractional-t flag), and `_partial_rows` gives every partial of those rows in
one pass.
A `_Substitution` checks its images once and keeps the rows of their powers
for many polynomials; `SPoly.substitute` prepares one and applies it once,
its target the source chart unless another is named, and each coordinate
change keeps one, target named, for every density and tail it transforms.
An SPoly keeps two convention-free bracket tables, None until `brackets`
builds them on first use: its `_plan_core`, its side of every bracket with
a sign cell in place of each sign, and the left `_partial_rows` that
`_bracket_from` reads, each with the denominator its int rows are over.
One build serves every later bracket, under any convention, that has the
polynomial as an operand.  They cost memory, about
one row per term and variable it holds, for as long as the polynomial lives,
and stay valid as no code writes to the `num` of a built SPoly.
A hatted polynomial is a sum of unhatted bodies times (t, #t) tails t^a #t^b,
of weight a - b, on their right: `SPoly.transport` attaches a tail to a body
and `SPoly.tails` splits a polynomial into its tails.

This module also owns how every public name reads a value it did not build:
`_frac` a rational number, `_integer` an integer (in 0..top when bounded),
`_entries` a sequence, `_map` a map and `_on` a polynomial (on a given chart).
Each refuses what it cannot read with a `DomainError`, so every refusal of a
value is one, and `ParseError` is the only other `DensalgError`.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import comb, gcd, lcm, log10, prod
from operator import add, mul

EVEN = 0
ODD = 1


class DensalgError(ValueError):
    """Base of every error densalg raises for bad input.

    `line` and `column` (1-based) locate the DSL statement or operator at
    fault; they stay None until known, e.g. for a direct kernel call.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self):
        message = BaseException.__str__(self)  # not KeyError's quoted repr
        if self.line is None:
            return message
        return "%d:%d: %s" % (self.line, self.column, message)


class DomainError(DensalgError):
    """Input outside an operation's mathematical domain."""


class ChartMismatchError(DomainError):
    pass


class UnknownVariableError(DomainError, KeyError):
    pass


class SubstitutionError(DomainError):
    pass


class _Sentinel:
    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return self.label


class _AnyGrade(_Sentinel):
    """Grade of the zero polynomial: compares equal to every definite grade."""

    def __eq__(self, other):
        return other is not MIXED

    def __hash__(self):
        return hash(self.label)


MIXED = _Sentinel("Mixed")
ANY = _AnyGrade("Any")


def _frac(c):
    """c as a Fraction; a value Fraction() refuses is a DomainError."""
    if isinstance(c, Fraction):
        return c
    try:
        return Fraction(c)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise DomainError("expected a rational number, got %s" % type(c).__name__) from None


def _integer(x, what, top=None):
    """x as an int when it is exactly integral (3, 3.0, "3") and, with `top`
    given, in 0..top; else a DomainError that names a value which is no number
    by its type and a huge one by its size."""
    try:
        q = x if type(x) is int else _frac(x)  # a bool takes the Fraction path
    except DomainError:
        q = None
    if q is None or q.denominator != 1:
        shown = type(x).__name__ if q is None else _shown(q)
        raise DomainError("%s must be an integer, got %s" % (what, shown))
    if top is not None and not 0 <= q <= top:
        raise DomainError("%s must be in 0..%d, got %s" % (what, top, _shown(q)))
    return int(q)


def _entries(item, n, message):
    """The entries of a sequence as a tuple, n of them unless n is None;
    anything else is a DomainError.  An error raised while the entries are
    read, as by a generator, is not this one."""
    try:
        entries = iter(item)
    except TypeError:
        raise DomainError(message) from None
    item = tuple(entries)
    if n is not None and len(item) != n:
        raise DomainError(message)
    return item


def _map(item, message):
    """item when it is a map; anything else is a DomainError."""
    if not isinstance(item, Mapping):
        raise DomainError(message)
    return item


def _on(f, chart=None, message="operands live on different charts"):
    """f when it is an SPoly, on `chart` when one is given.  A value that is no
    SPoly is a DomainError that names its type; an SPoly on another chart is a
    ChartMismatchError(message)."""
    if not isinstance(f, SPoly):
        raise DomainError("expected a polynomial, got %s" % type(f).__name__)
    if chart is not None and f.chart != chart:
        raise ChartMismatchError(message)
    return f


def _shown(q):
    """q as text, or as about +-10^k past 2,048 bits: 617 digits, under any int/str limit."""
    q = _frac(q)
    if max(abs(q.numerator), q.denominator).bit_length() <= 2048:
        return str(q)
    return "about %s10^%d" % ("-" * (q < 0), round(log10(abs(q.numerator)) - log10(q.denominator)))


def _num(c):
    """An integral Fraction as its int numerator; any other value unchanged."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


_T_UNIT = 720720  # lcm(1..16): a key's t slot holds t's exponent times this


def _t_slot(e):
    """The t slot value that holds the exponent e (an int or Fraction) of t."""
    return _num(e * _T_UNIT)


def _t_exp(s):
    """The exponent of t that the t slot value s holds, an int when integral."""
    return s // _T_UNIT if type(s) is int and not s % _T_UNIT else Fraction(s, _T_UNIT)


# the most bits a constant power may take; 3^(2^22) is computed in about a second
MAX_POWER_BITS = 1 << 22


def _checked_product(a, b):
    """a*b for a power not known to fit, or DomainError when the product may
    take more than MAX_POWER_BITS bits, estimated as its term pairs times the
    sum of the factors' largest numerator or denominator bits (at least 1)."""
    bits = sum(max([p.den, *map(abs, p.num.values())]).bit_length() - 1 for p in (a, b))
    if len(a.num) * len(b.num) * max(bits, 1) > MAX_POWER_BITS:
        raise DomainError("the polynomial power exceeds %d bits" % MAX_POWER_BITS)
    return a * b


def rational_power(base, exponent):
    """base**exponent for Fractions, exact or raise: a constant power of the
    DSL, a density's factor |det J|^weight, or c^e for t^e under t -> c*t.

    Any base takes an integer exponent and 0 a positive one; 0 to a negative
    exponent is a DomainError.  A fractional exponent needs a positive base
    whose numerator and denominator are perfect powers, else the result
    leaves the rationals: a SubstitutionError.  A power that would take more
    than MAX_POWER_BITS bits, estimated as |exponent| times one less than the
    bit length of the base's larger part (0 for bases 0, -1 and 1), is a
    DomainError.
    """
    base = _frac(base)
    exponent = _frac(exponent)
    if not base and exponent < 0:
        raise DomainError("zero to a negative power")
    bits = max(abs(base.numerator), base.denominator).bit_length() - 1
    if abs(exponent) * bits > MAX_POWER_BITS:
        raise DomainError("the constant power exceeds %d bits" % MAX_POWER_BITS)
    if exponent.denominator == 1:
        return base ** int(exponent)
    if not base:
        return base
    p = _exact_root(base.numerator, exponent.denominator) if base > 0 else None
    q = _exact_root(base.denominator, exponent.denominator)
    if p is None or q is None:
        raise SubstitutionError("(%s)^(%s) leaves the rationals" % (base, exponent))
    return Fraction(p, q) ** exponent.numerator


def _exact_root(n, k):
    """The integer k-th root of a positive integer n, or None if n is no k-th
    power.  Integer Newton iteration from 2^ceil(bits/k), which is at least
    the root, so sizes beyond float range stay exact; if k >= bits, only n = 1 has one."""
    if k >= n.bit_length():
        return 1 if n == 1 else None
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r if r ** k == n else None
        r = s


def _is_name(text):
    """Whether text is one name token of the DSL: a letter or '_', then
    letters, digits, '_' or '.', so that printed polynomials parse back."""
    return (isinstance(text, str) and (text[:1].isalpha() or text[:1] == "_")
            and all(c.isalnum() or c in "_." for c in text))


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str  # 'base' | 'fiber' | 't' | 'tstar'
    parity: int
    weight: Fraction
    index: int

    def __repr__(self):
        return "Variable(%s)" % self.name


class Chart:
    """A coordinate chart: base coordinates, fiber partners, optional (t, #t).

    The variable order is: base coordinates in declaration order, then their
    fiber partners, then t and #t on hatted charts.  This order is the
    canonical order of odd factors inside a monomial and the slot order of a
    monomial key, so the hatted and unhatted versions of a chart share the
    slots of every variable but t and #t.
    """

    RESERVED = ("t", "#t", "w")  # names no base coordinate may take

    def __init__(self, base_coords, hatted=False, name=""):
        base_coords = [_entries(c, 2, "a coordinate is a (name, parity) pair")
                       for c in _entries(base_coords, None, "the base coordinates are a list")]
        seen = set()
        for n, p in base_coords:
            if p not in (EVEN, ODD):  # checked before int(), which truncates 1.5 to 1
                raise DomainError("parity must be 0 or 1")
            if not _is_name(n) or n in seen or n in self.RESERVED:
                shown = repr(n) if isinstance(n, str) else type(n).__name__  # an int may be too long
                raise DomainError("bad or duplicate coordinate name: %s" % shown)
            seen.add(n)
        base_coords = [(n, int(p)) for n, p in base_coords]
        self.name = name
        self.hatted = bool(hatted)
        self.base_coords = tuple(base_coords)
        n = len(base_coords)
        variables = []
        for i, (nm, p) in enumerate(base_coords):
            variables.append(Variable(nm, "base", p, Fraction(0), i))
        for i, (nm, p) in enumerate(base_coords):
            variables.append(Variable("#" + nm, "fiber", (p + 1) % 2, Fraction(0), n + i))
        if self.hatted:
            variables.append(Variable("t", "t", EVEN, Fraction(1), 2 * n))
            variables.append(Variable("#t", "tstar", ODD, Fraction(-1), 2 * n + 1))
        self.variables = tuple(variables)
        self.odd_bits = tuple(v.parity << v.index for v in variables)  # see `_odd_mask`
        self.zero_key = (0,) * len(variables)  # the key of the monomial 1
        self.by_name = {v.name: v for v in variables}
        # (q slot, q* slot, parity of q) for each pair, (t, #t) last
        self.pair_slots = tuple((i, n + i, p) for i, (_, p) in enumerate(base_coords)) + (
            ((2 * n, 2 * n + 1, EVEN),) if self.hatted else ())
        self.n_base = n
        self._key = (self.base_coords, self.hatted)
        self._other = None  # see `_counterpart`

    # -- identity is structural; the name is display only --
    def __eq__(self, other):
        return isinstance(other, Chart) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "Chart(%s%s)" % (
            ", ".join(n for n, _ in self.base_coords),
            "; hatted" if self.hatted else "",
        )

    def var(self, name):
        v = self.by_name.get(name) if isinstance(name, str) else None
        if v is None:
            shown = repr(name) if isinstance(name, str) else type(name).__name__
            raise UnknownVariableError("no variable %s on %r" % (shown, self))
        return v

    @property
    def t_var(self):
        if not self.hatted:
            raise UnknownVariableError("chart is not hatted")
        return self.variables[2 * self.n_base]

    def base_pairs(self):
        """(x^a, x*_a) pairs, base coordinates only."""
        v = self.variables
        return [(v[q], v[qs]) for q, qs, _ in self.pair_slots[:self.n_base]]

    def hatted_version(self):
        return self if self.hatted else self._counterpart()

    def unhatted_version(self):
        return self._counterpart() if self.hatted else self

    def _counterpart(self):
        """The chart with this one's base coordinates and name and the other
        hattedness, built on first use; the two keep each other."""
        if self._other is None:
            self._other = Chart(self.base_coords, hatted=not self.hatted, name=self.name)
            self._other._other = self
        return self._other

    # -- polynomial constructors --
    def zero(self):
        return _poly(self, {})

    def sum(self, polys):
        """The sum of SPolys over this chart, accumulated by `_sum` in one
        term map over the lcm of their denominators."""
        polys = [_on(p, self, "a summand lives on a different chart")
                 for p in _entries(polys, None, "the summands are a list")]
        return _sum(self, [(p.num, p.den) for p in polys])

    def const(self, c):
        c = _frac(c)
        return _poly(self, {self.zero_key: c.numerator} if c else {}, c.denominator)

    def __getitem__(self, name):
        return _poly(self, {self.power_key(self.var(name).index, 1): 1})

    def t_power(self, lam):
        # t_var refuses an unhatted chart, and power_key a lam that is no rational
        return _poly(self, {self.power_key(self.t_var.index, lam): 1})

    def w_star(self):
        """The weight-0 odd coordinate w = t * #t."""
        return self["t"] * self["#t"]

    # -- monomial-key helpers --
    def power_key(self, index, exp):
        """The key of the monomial (variable `index`)^exp.  t's exponent is any
        rational, read by `_frac` unless it is an int, and written to its slot
        by `_t_slot`.  An index that names no variable is a DomainError."""
        if not 0 <= index < len(self.zero_key):
            raise DomainError("the chart has no variable at index %s" % _shown(index))
        if self.hatted and index == 2 * self.n_base:
            exp = _t_slot(exp if type(exp) is int else _frac(exp))
        return self.zero_key[:index] + (exp,) + self.zero_key[index + 1:]

    def _to_key(self, exps):
        """The key of the monomial with the exponents `exps`, a tuple with one
        per variable: t's written to its slot, the last but one."""
        return exps[:-2] + (_t_slot(exps[-2]), exps[-1]) if self.hatted else exps

    def _exponents(self, key):
        """The exponents of a key's variables, one per variable, t's an int
        when integral: the inverse of `_to_key`."""
        return key[:-2] + (_t_exp(key[-2]), key[-1]) if self.hatted else key

    def key_parity(self, key):
        return _odd_mask(self.odd_bits, key).bit_count() & 1

    def key_weight(self, key):
        t = 2 * self.n_base
        return _t_exp(key[t]) - key[t + 1] if self.hatted else 0

    def key_fiber_degree(self, key):
        n = self.n_base
        return sum(key[n:2 * n]) + sum(key[2 * n + 1:])


def _add_into(terms, key, c):
    """terms[key] += c in place for a nonzero int c; a coefficient that cancels
    leaves the map.  An absent key is stored as it comes, hashed once."""
    size = len(terms)
    old = terms.setdefault(key, c)
    if len(terms) == size:
        new = old + c
        if new:
            terms[key] = new
        else:
            del terms[key]


def _sum(chart, parts):
    """The sum on chart of (num, den) parts, a part over a negative den
    subtracted: each rescaled to the lcm of the denominators, the first
    copied (never aliased, as a built polynomial keeps bracket tables) and
    the others added into the copy through `_add_into`."""
    den = lcm(*[d for _, d in parts])
    terms = None
    for num, d in parts:
        scale = den // d
        if terms is None:
            terms = dict(num) if scale == 1 else {k: c * scale for k, c in num.items()}
        else:
            for k, c in num.items():
                _add_into(terms, k, c * scale)
    return _poly(chart, terms or {}, den)


def _mul_into(result, left, right, negate):
    """result += (-1 if negate else 1) * left * right in place, for `_rows`
    of two term maps over one chart.  Each product is accumulated by
    `_add_into`'s rule, repeated inline so that a pair costs no call."""
    stored = result.setdefault
    for k1, c1, m1, f1 in left:
        for k2, c2, m2, f2 in right:
            if m1 & m2:
                continue  # an odd variable squared
            flip = m1 and m2 and _reorder_is_odd(m1, m2)
            key = tuple(map(add, k1, k2))
            if f1 and f2:  # two Fraction t slots may sum to an integer
                key = key[:-2] + (_num(key[-2]), key[-1])
            c = -c1 * c2 if flip != negate else c1 * c2
            size = len(result)
            old = stored(key, c)
            if len(result) == size:
                new = old + c
                if new:
                    result[key] = new
                else:
                    del result[key]


def _rows(chart, num, scale=1):
    """The operands of `_mul_into`: (key, numerator times `scale`, `_odd_mask`
    of the key, whether its t slot, the last but one, is a Fraction: a power
    of t whose denominator does not divide `_T_UNIT`) for every term of num."""
    odd, hatted = chart.odd_bits, chart.hatted
    return [
        (key, c * scale, _odd_mask(odd, key), hatted and type(key[-2]) is Fraction)
        for key, c in num.items()
    ]


def _t_scale(chart, num):
    """The lcm of the denominators of t's exponents in the keys of num, 1 on
    an unhatted chart: numerators scaled by it have int derivatives by t."""
    if not chart.hatted:
        return 1
    return lcm(*{_T_UNIT // gcd(s, _T_UNIT) if type(s) is int else (s / _T_UNIT).denominator
                 for s in {key[-2] for key in num}})


def _scaled_rows(f):
    """(`_rows` of f's numerators times its `_t_scale` T, f's den times T):
    the rows of f that may be derived by t, ints over that denominator."""
    scale = _t_scale(f.chart, f.num)
    return _rows(f.chart, f.num, scale), f.den * scale


def _partial_rows(chart, rows, left):
    """Every partial derivative of the `_rows` of a term map from one pass, as
    {variable index: `_rows` of the derivative}; a variable no term holds has
    no entry.  A derivative's mask is its term's with the variable's bit
    cleared, and its t slot stays a Fraction or an int.  Rows that hold t
    must be scaled by their `_t_scale`, so that every derivative is an int."""
    slots = range(len(chart.zero_key))
    t = 2 * chart.n_base if chart.hatted else -1
    tables = {}
    for key, coeff, mask, frac in rows:
        for i in compress(slots, key):  # the slots of the variables key holds
            k, c = _strip_t(key, i, coeff) if i == t else _strip(key, i, coeff, mask, left)
            tables.setdefault(i, []).append((k, c, mask & ~(1 << i), frac))
    return tables


def _odd_mask(bits, key):
    """The bitmask of the odd variables of a key: the sum of the chart's
    `odd_bits` over the slots the key holds."""
    return sum(compress(bits, key))


def _reorder_is_odd(m1, m2):
    """Whether sorting the odd factors m1 followed by m2 (disjoint bitmasks)
    takes an odd number of swaps: one per factor of m1 above one of m2."""
    swaps = 0
    while m2:
        low = m2 & -m2
        swaps += (m1 & -low).bit_count()
        m2 ^= low
    return swaps & 1


def _strip(key, i, coeff, mask, left):
    """The derivative of coeff * key by its variable i, which it holds, as
    (key, coeff), for the key's `_odd_mask`.

    An odd factor is first moved to the left or right end, one sign per odd
    factor it crosses, the parity of the mask on that side of slot i.
    """
    exp = key[i]
    if mask >> i & 1:
        crossed = mask & ((1 << i) - 1) if left else mask >> (i + 1)
        return key[:i] + (0,) + key[i + 1:], -coeff if crossed.bit_count() & 1 else coeff
    return key[:i] + (exp - 1,) + key[i + 1:], coeff if exp == 1 else coeff * exp


def _strip_t(key, i, coeff):
    """The derivative of coeff * key by t, at slot i, which it holds, as (key,
    coeff): one `_T_UNIT` off the slot and the coefficient times t's exponent,
    an int for a coeff scaled by `_t_scale`."""
    s = key[i]
    c = coeff if s == _T_UNIT else coeff * s // _T_UNIT
    return key[:i] + (s - _T_UNIT,) + key[i + 1:], c


def _poly(chart, num, den=1):
    """The SPoly num / den on chart, for a map of nonzero int numerators and a
    positive int den, brought to normal form by one gcd: den shares no factor
    with every numerator, and zero has den 1.  Every kernel result is built
    here; `SPoly(chart, terms)` reads rational coefficients."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num, den = {k: c // g for k, c in num.items()}, den // g
    f = object.__new__(SPoly)
    f.chart, f.num, f.den = chart, num, den
    f._plan_core = f._left_rows = None
    return f


class SPoly:
    """Sparse supercommutative polynomial over a chart: int numerators `num`
    over one positive denominator `den`, in normal form (see the module)."""

    __slots__ = ("chart", "num", "den", "_plan_core", "_left_rows")  # the last two: bracket tables

    def __init__(self, chart, terms):
        """The polynomial with the int or Fraction coefficients of the map
        `terms`, a zero coefficient left out."""
        coeffs = {k: c if type(c) is int else _frac(c) for k, c in terms.items() if c}
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.chart, self.den = chart, den
        # the lcm of reduced denominators shares no factor with every numerator
        self.num = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}
        self._plan_core = self._left_rows = None

    @property
    def terms(self):
        """The rational view {key: coefficient}, an int where it is integral and
        else a Fraction: `num` itself when den is 1, else a map built anew on
        every read and not kept, so read it once per use."""
        den = self.den
        if den == 1:
            return self.num
        return {k: Fraction(c, den) if c % den else c // den for k, c in self.num.items()}

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, SPoly):
            return self.chart == other.chart and self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return self == self.chart.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.chart, self.den, frozenset(self.num.items())))

    def _coerce(self, other):
        if isinstance(other, SPoly):
            return _on(other, self.chart)
        if isinstance(other, (int, Fraction)):
            return self.chart.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        big, small = (self, other) if len(self.num) >= len(other.num) else (other, self)
        return _sum(self.chart, ((big.num, big.den), (small.num, small.den)))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.chart, {k: -c for k, c in self.num.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self.chart, ((self.num, self.den), (other.num, -other.den)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.chart.zero()
            if other == 1:
                return self  # values are immutable
            if other == -1:
                return -self
            p = other.numerator
            return _poly(self.chart, {k: c * p for k, c in self.num.items()},
                         self.den * other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        result = {}
        _mul_into(result, _rows(self.chart, self.num), _rows(self.chart, other.num), False)
        return _poly(self.chart, result, self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise DomainError("division by zero")
            return self * (Fraction(1) / _frac(other))
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise DomainError("only nonnegative integer powers")
        if not n:
            return self.chart.const(1)
        # self^n has at most comb(n + t - 1, n) terms, the multisets of n of its t
        # terms, and for integral exponents at most the product over variables of
        # n * (max - min) + 1, the exponent sums; each term is den^-n times an
        # integer of at most S^n, with S the sum of |num|: when that fits, no
        # product is checked
        coeffs = self.num.values()
        bits = (max(sum(map(abs, coeffs)), self.den) - 1).bit_length()
        count = comb(n + len(coeffs) - 1, n)
        slots = list(zip(*map(self.chart._exponents, self.num)))
        if all(e.denominator == 1 for exps in slots for e in exps):
            count = min(count, prod(n * (max(exps) - min(exps)) + 1 for exps in slots))
        fits = count * n * bits <= MAX_POWER_BITS
        times = mul if fits else _checked_product
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else times(result, base)
            base = times(base, base) if n > 1 else base
            n >>= 1
        return result

    def __repr__(self):
        from .printing import poly_to_text

        return poly_to_text(self)

    # -- calculus --
    def derive_left(self, v):
        return self._derive(v, left=True)

    def derive_right(self, v):
        return self._derive(v, left=False)

    # distinct monomials have distinct derivatives by one variable, so each
    # derivative term is stored as it comes; by t, over den times `_t_scale`
    def _derive(self, v, left):
        chart = self.chart
        if chart.by_name.get(v.name) != v:
            raise UnknownVariableError("%r is not a variable of %r" % (v, chart))
        i, by_t = v.index, v.kind == "t"
        odd = chart.odd_bits if v.parity else ()  # an even variable takes no sign
        scale = _t_scale(chart, self.num) if by_t else 1
        result = {}
        for key, coeff in self.num.items():
            if key[i]:
                k, c = (_strip_t(key, i, coeff * scale) if by_t
                        else _strip(key, i, coeff, _odd_mask(odd, key), left))
                result[k] = c
        return _poly(chart, result, self.den * scale)

    # -- grading --
    def _grade(self, key_grade):
        if not self.num:
            return ANY
        grades = {key_grade(k) for k in self.num}
        return grades.pop() if len(grades) == 1 else MIXED

    def parity(self):
        return self._grade(self.chart.key_parity)

    def weight(self):
        return self._grade(self.chart.key_weight)

    def fiber_degree(self):
        return self._grade(self.chart.key_fiber_degree)

    def parity_components(self):
        """Split into (even part, odd part), each in its own normal form."""
        even = {}
        odd = {}
        for k, c in self.num.items():
            (odd if self.chart.key_parity(k) else even)[k] = c
        return _poly(self.chart, even, self.den), _poly(self.chart, odd, self.den)

    def parity_twist(self):
        """Each term times (-1)^parity, in one pass: the even part minus the odd."""
        parity = self.chart.key_parity
        return _poly(self.chart, {k: -c if parity(k) else c for k, c in self.num.items()}, self.den)

    def substitute(self, images, target=None):
        """Simultaneous substitution.

        `images` maps Variables of this chart to SPoly values over `target`
        (default: this chart, whichever chart the images live on).  Odd
        variables must get odd images, even variables even images; `t` may
        only be rescaled by a positive rational.
        A variable without an image keeps its factor on this chart and is a
        SubstitutionError on any other.  This prepares a `_Substitution` and
        applies it once; to substitute the same images into many polynomials,
        prepare one and call it on each.
        """
        return _Substitution(self.chart, images, target)(self)

    def transport(self, target, t=0, tstar=0):
        """The same terms on `target`, the hatted or unhatted version of this chart.

        Both versions give their shared variables the same slots, and the t
        and #t slots come last.  Onto an unhatted target keys are cut short by
        two, and a term with t or #t has no place there.  Onto a hatted one
        they are padded with `t` and `tstar` (0 or 1), the exponents of t and
        #t: the right product by t^t #t^tstar, with no sign as #t is the last
        odd variable.  `tails` inverts it.
        """
        chart = self.chart
        t, tstar = _frac(t), _integer(tstar, "the #t exponent", 1)
        if target.base_coords != chart.base_coords:
            raise ChartMismatchError("transport needs a chart with the same base coordinates")
        width = len(target.zero_key)
        if any(any(key[width:]) for key in self.num):
            raise SubstitutionError("a term with t or #t has no image on an unhatted chart")
        pad = target.zero_key[len(chart.zero_key):]
        if (t or tstar) and not pad:
            raise DomainError("a tail t^%s #t^%s does not pad onto %r" % (_shown(t), tstar, target))
        pad = (_t_slot(t), tstar) if pad else ()
        return _poly(target, {key[:width] + pad: c for key, c in self.num.items()}, self.den)

    def tails(self):
        """This hatted polynomial as {(t exponent, #t exponent): body on the
        unhatted chart}: the sum of body.transport(chart, t, tstar)."""
        if not self.chart.hatted:
            raise DomainError("only a hatted polynomial has (t, #t) tails")
        parts = {}
        for key, c in self.num.items():
            parts.setdefault(key[-2:], {})[key[:-2]] = c
        base = self.chart.unhatted_version()
        return {(_t_exp(t), tstar): _poly(base, num, self.den) for (t, tstar), num in parts.items()}

    def coefficient(self, key):
        return Fraction(self.num.get(key, 0), self.den)

    def constant_term(self):
        return self.coefficient(self.chart.zero_key)


class _Substitution:
    """A simultaneous substitution into polynomials on `chart`: the images are
    checked once, and the `_rows` of each (slot, exponent) factor, a power of
    an image, c^e t^e for t -> c*t or a kept variable, are built on first use
    and kept with their denominator.  Calling it multiplies each term's
    factors onto its numerator in slot order, so the odd factors meet in chart
    order, and stops at a zero; the terms' images, each over the product of
    its factors' denominators, are summed by `_sum`.
    The target chart defaults to the source chart: an image on any other chart
    needs the target named.
    """

    def __init__(self, chart, images, target=None):
        images = _map(images, "the images are a map from variables to polynomials")
        target = chart if target is None else target
        self.chart, self.target, self._keep = chart, target, target == chart
        self._images, self._powers, self._t_index, self._t_factor = {}, {}, None, None
        for v, img in images.items():
            if chart.by_name.get(v.name) != v:
                raise UnknownVariableError("%r is not a variable of the chart" % (v,))
            if not isinstance(img, SPoly):
                img = target.const(img)
            _on(img, target, "image of %s lives on the wrong chart" % v.name)
            if v.kind == "t":
                # only c*t with c > 0 keeps rational Laurent powers exact
                if len(img.num) != 1:
                    raise SubstitutionError("t image must be a positive multiple of t")
                (key, c), = img.num.items()
                if key != target.power_key(target.t_var.index, 1) or c <= 0:
                    raise SubstitutionError("t image must be a positive multiple of t")
                self._t_index, self._t_factor = v.index, Fraction(c, img.den)
                continue
            if img.parity() != v.parity:
                raise SubstitutionError(
                    "image of %s has parity %r, expected %d" % (v.name, img.parity(), v.parity)
                )
            self._images[v.index] = img

    def _power(self, idx, key):
        """(`_rows`, denominator) of variable idx to its power in `key`, built
        on first use from the exponent `Chart._exponents` reads and kept
        under the key's slot value."""
        entry = self._powers.get((idx, key[idx]))
        if entry is not None:
            return entry
        exp = self.chart._exponents(key)[idx]
        target, img = self.target, self._images.get(idx)
        if img is not None:
            power = img if exp == 1 else img ** exp
            num, den = power.num, power.den
        elif idx == self._t_index:
            c = rational_power(self._t_factor, exp)
            num, den = {target.power_key(target.t_var.index, exp): c.numerator}, c.denominator
        elif self._keep:
            num, den = {target.power_key(idx, exp): 1}, 1
        else:
            raise SubstitutionError(
                "%s has no image on the target chart" % self.chart.variables[idx].name
            )
        entry = self._powers[idx, key[idx]] = _rows(target, num), den
        return entry

    def __call__(self, poly):
        _on(poly, self.chart, "the polynomial lives on another chart than the substitution")
        target, power, images = self.target, self._power, self._images
        slots = range(len(self.chart.zero_key))
        done = []  # (a term's image, its denominator)
        for key, coeff in poly.num.items():
            part, den = {target.zero_key: coeff}, poly.den
            for idx in compress(slots, key):
                rows, d = power(idx, key)
                acc, part = _rows(target, part), {}
                _mul_into(part, acc, rows, False)
                if not part and idx in images:  # a zero from a kept factor goes on to check t
                    break
                den *= d
            else:
                done.append((part, den))
        return _sum(target, done)
