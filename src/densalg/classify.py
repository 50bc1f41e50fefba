"""Decomposition of lifts, master-equation checks, and exact classification.

Every element above a weighted multivector s differs from the canonical lift
by Q * w with Q a multivector of one lower fiber degree; the master equation
for the sum reduces to (s, Q) = 0.  `classify_lifts` slices that kernel at a
finite coefficient-degree bound and solves the resulting homogeneous linear
system exactly.  The system is sparse end to end: each column's image runs
the `_plan_core` of s against derivatives read off the column's key, the
images are transposed into one {ansatz column: coefficient} row per monomial,
and one sparse Gauss-Jordan elimination (`_rref`) reduces them, the rows
that start leftmost last, as primitive integer rows: denominators are
cleared once on entry, every elimination step is integer-preserving and each
row's content is divided out.  Only at the edge, in the kernel basis and the
inverse, is each row divided by its pivot entry, which gives the unique
reduced row echelon form, so bases are reproducible bit for bit; kernel
vectors stay sparse, and `KernelBasis.basis` is only a dense view of them.
The same routine inverts the basis-change matrices of `change_basis`.

`supertrace_extension` reads the supertrace functional of a Lie (super)algebra
once, off the modular vector field div(pi) of its Lie-Poisson element pi.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, inf, lcm

from .brackets import PINNED, DomainError, _bracket_from, _plan_core
from .brackets import antibracket, divergence, r_ary_bracket
from .lift import DensityElement, WeightOneError, lift, project_to_density
from .spoly import EVEN, MIXED, ODD, Chart, SPoly, _entries, _frac, _integer, _mul_into, _num
from .spoly import _map, _odd_mask, _on, _shown, _strip

# the most columns an ansatz may have; Darboux n = 8 at bound 4 has 3,960
MAX_ANSATZ_COLUMNS = 1 << 16
# the largest Lie (super)algebra dimension; the shipped algebras have at most 9
MAX_LIE_DIMENSION = 4096


def attach_correction(s: DensityElement, Q: SPoly) -> SPoly:
    """lift(s) + Q * t^(weight+1) * #t; at weight 0 this is lift(s) + Q*w."""
    _on(Q, s.chart, "Q must live on the unhatted chart of s")
    return lift(s) + Q.transport(s.chart.hatted_version(), s.weight + 1, 1)


def decompose(S: SPoly, s: DensityElement) -> SPoly:
    """Recover Q from S = lift(s) + Q * w, the inverse of `attach_correction`.

    S must project to exactly s; anything in the difference that is not a
    w-multiple of the right weight is rejected.
    """
    if project_to_density(S) != [s]:
        raise DomainError("S does not project to the given density element")
    tails = (S - lift(s)).tails()
    Q = tails.pop((s.weight + 1, 1), s.chart.zero())
    if tails:
        raise DomainError("S - lift(s) is not of the form Q * w")
    return Q


def master_check(S: SPoly) -> SPoly:
    """(S, S); zero exactly when the master equation holds."""
    return antibracket(S, S)


def master_residual_of_lift(s: DensityElement, Q: SPoly) -> SPoly:
    """(S, S) for S = lift(s) + Q*w, in closed form; no S is built.

    For Q of parity 1 + |s|, as `classify_lifts` enumerates them, this is
    (1+(-1)^s)(s, Q) w: 2 (s, Q) w for even s and 0 for odd s.  Off that
    parity every part of Q counts for even s, and only the odd part, twice,
    for odd s.  The closed form is a weight-zero statement: only at weight
    zero is lift(s) + Q*w weight homogeneous, and at other weights the
    t-derivative pairings contribute extra terms proportional to the weight.
    """
    if master_check(s.body):
        raise DomainError("s does not satisfy the master equation")
    if s.weight:
        raise DomainError(
            "the master residual identity applies to weight-zero elements only"
        )
    sp = s.body.parity()
    if sp is MIXED:
        raise DomainError("s must be parity homogeneous")
    _on(Q, s.chart, "Q must live on the unhatted chart of s")
    if sp == ODD:  # 1 + (-1)^s = 0 on the even part of Q
        Q = Q.parity_components()[1]
    return (2 * antibracket(s.body, Q)).transport(s.chart.hatted_version(), 1, 1)


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------

def _rref(rows):
    """Sparse Gauss-Jordan elimination on primitive integer rows.

    Takes {column: int or Fraction} maps and returns {pivot column: row}:
    every row holds only ints with content (gcd of the entries) 1, a positive
    entry in its pivot column, which is its first nonzero column, and a 0 in
    every other pivot column.  Dividing each row by its pivot entry gives the
    unique reduced row echelon form, so the result does not depend on the
    order of the rows; callers make that division once, at the edge.
    Arithmetic touches only rows that share a column with the pivot row,
    which keeps block-structured systems cheap.  Rows come in stable descending
    order of first column; as a reduced row holds nothing left of its pivot,
    only a pivot right of the leftmost so far is back-substituted.
    """
    rows = [{c: x for c, x in row.items() if x} for row in rows]
    rows.sort(key=lambda row: min(row, default=-1), reverse=True)
    reduced, leftmost = {}, inf
    for row in rows:
        scale = lcm(*(x.denominator for x in row.values()))
        row = _primitive({c: x.numerator * (scale // x.denominator) for c, x in row.items()})
        for p in [c for c in row if c in reduced]:
            row = _eliminate(row, p, reduced[p])
        if not row:
            continue
        pivot = min(row)
        if row[pivot] < 0:
            row = {c: -x for c, x in row.items()}
        if pivot > leftmost:
            for p, other in reduced.items():
                if pivot in other:
                    reduced[p] = _eliminate(other, pivot, row)
        leftmost = min(leftmost, pivot)
        reduced[pivot] = row
    return reduced


def _eliminate(row, col, pivot_row):
    """The primitive part of (d/g)*row - (b/g)*pivot_row, which is 0 in `col`;
    d is pivot_row[col] > 0, b is row[col] and g = gcd(d, b)."""
    d, b = pivot_row[col], row[col]
    g = gcd(d, b)
    d, b = d // g, b // g
    out = {c: d * x for c, x in row.items()} if d != 1 else dict(row)
    for c, x in pivot_row.items():
        v = out.get(c, 0) - b * x
        if v:
            out[c] = v
        else:
            del out[c]
    return _primitive(out)


def _primitive(row):
    """An integer row divided by its content; the empty row as it is."""
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def nullspace(rows, n_cols):
    """Kernel basis of a rational matrix given as sparse {column: value} rows.

    One sparse {column: Fraction} vector per free column, in free-column
    order: a 1 in its free column and -x/d in each pivot column whose reduced
    row holds x there and d at its pivot, so the basis is the unique reduced
    one, bit for bit.  No rows give the identity basis, no columns an empty one.
    """
    reduced = _rref(rows)
    basis = {fc: {fc: Fraction(1)} for fc in range(n_cols) if fc not in reduced}
    # a reduced row's non-pivot columns are all free: one walk fills the basis
    for p, row in reduced.items():
        d = row[p]
        for c, x in row.items():
            if c != p:
                basis[c][p] = Fraction(-x, d)
    return list(basis.values())


@dataclass(frozen=True)
class KernelBasis:
    """Solutions Q of (s, Q) = 0 inside a finite monomial ansatz."""

    chart: Chart
    ansatz: tuple  # SPoly monomial generators, fixed order
    vectors: tuple  # sparse {ansatz column: Fraction} vectors, reduced over the ansatz order
    flagged_odd_base: bool = False

    @property
    def dimension(self):
        return len(self.vectors)

    @property
    def basis(self):
        """The vectors as dense tuples of Fractions over the ansatz order."""
        n = len(self.ansatz)
        return tuple(tuple(vec.get(c, Fraction(0)) for c in range(n)) for vec in self.vectors)

    def elements(self):
        keys = [key for mono in self.ansatz for key in mono.terms]  # one monomial, coefficient 1
        return [SPoly(self.chart, {keys[c]: _num(x) for c, x in vec.items()}) for vec in self.vectors]


def _exponent_vectors(variables, budget, exact):
    """Exponent vectors over `variables`, in ascending lexicographic order.

    An odd variable takes 0 or 1, an even one any power.  With `exact` every
    exponent counts and they sum to exactly `budget` (a fiber degree); without
    it only the even ones count and they sum to at most `budget` (a
    coefficient degree).
    """
    if budget < 0:  # an odd variable offers exponent 1 past the budget
        return
    if not variables:
        if not exact or budget == 0:
            yield ()
        return
    v, rest = variables[0], variables[1:]
    counted = exact or v.parity == EVEN
    top = budget if v.parity == EVEN else 1
    for e in range(top + 1):
        for tail in _exponent_vectors(rest, budget - e if counted else budget, exact):
            yield (e,) + tail


def monomial_ansatz(chart: Chart, fiber_degree: int, coeff_degree_bound: int, parity):
    """All chart monomials of the given fiber degree and parity whose
    coefficient degree (total degree in the even base coordinates) is <= bound,
    ordered by base exponents, then fiber exponents, ascending.

    Odd base coordinates act as form generators, not coefficients: they do not
    count toward the bound (each appears at most once, so the ansatz stays
    finite).  At fiber degree zero the constant monomial is always admitted,
    whatever its parity: adding a constant multiple of the odd weight-zero
    fiber coordinate never disturbs the master equation.  An ansatz that may
    have more than MAX_ANSATZ_COLUMNS columns is a DomainError.
    """
    if chart.hatted:
        raise DomainError("the ansatz lives on an unhatted chart")
    base_vars = [v for v, _ in chart.base_pairs()]
    fiber_vars = [f for _, f in chart.base_pairs()]
    # an upper bound, counted before enumerating: fiber exponents uncapped, summing to <= degree
    k_odd = sum(v.parity for v in base_vars)
    columns = comb(max(fiber_degree, 0) + len(fiber_vars), len(fiber_vars)) * comb(
        max(coeff_degree_bound, 0) + len(base_vars) - k_odd, len(base_vars) - k_odd) << k_odd
    if columns > MAX_ANSATZ_COLUMNS:
        raise DomainError("the ansatz may have %s columns, over %d"
                          % (_shown(columns), MAX_ANSATZ_COLUMNS))
    fiber_exps = list(_exponent_vectors(fiber_vars, fiber_degree, exact=True))
    out = []
    for bexps in _exponent_vectors(base_vars, coeff_degree_bound, exact=False):
        for fexps in fiber_exps:
            key = bexps + fexps  # base then fiber slots: every slot of the chart
            if any(key) and chart.key_parity(key) != parity:
                continue
            out.append(SPoly(chart, {key: 1}))
    return out


def classify_lifts(s: DensityElement, coeff_degree_bound: int) -> KernelBasis:
    """Exact basis of {Q in the ansatz : (s, Q) = 0}.

    By the affine structure of the space of lifts, these Q enumerate all
    Poisson elements lift(s) + Q w above s of matching degree and parity
    within the coefficient-degree slice.  For even s that needs weight 0, where
    the master residual is 2 (s, Q) w; another weight is a DomainError.  Odd s
    has residual 0: the whole ansatz, flagged, at every weight but 1.
    """
    bound = _frac(coeff_degree_bound)
    if bound.denominator != 1 or bound < 0:
        raise DomainError(
            "the coefficient degree bound must be a nonnegative integer, got %s" % _shown(bound)
        )
    core, negate = _plan_core(s.body), PINNED.negations  # for every column
    if _bracket_from(s.body, s.body, negate):
        raise DomainError("s does not satisfy the master equation")
    if s.weight == 1:
        raise WeightOneError()
    if s.body.is_zero():
        raise DomainError("s = 0 has no fiber degree to fix the ansatz of Q")
    r = s.body.fiber_degree()
    if r is MIXED:
        raise DomainError("s must be fiber-degree homogeneous")
    sp = s.body.parity()
    if sp is MIXED:
        raise DomainError("s must be parity homogeneous")
    flagged = sp == ODD
    if s.weight and not flagged:
        raise DomainError("(s, Q) = 0 is the master equation of an even s only at "
                          "weight 0, got weight %s" % _shown(s.weight))
    ansatz = monomial_ansatz(s.chart, r - 1, int(bound), (sp + 1) % 2)
    # the system as sparse rows {ansatz column: coefficient}, one per monomial
    # of the images (s, Q)
    rows = {}
    if not flagged:
        # odd s: the residual (1 + (-1)^s)(s, Q) w* vanishes identically, so
        # every ansatz element already solves the master equation: no rows.
        for col, q in enumerate(ansatz):
            key, = q.terms  # one monomial, coefficient 1: its derivatives are read off the key
            mask = _odd_mask(s.chart.odd_bits, key)
            image = {}
            for df, slot, cell in core:
                if key[slot]:
                    k, c = _strip(key, slot, 1, mask, True)
                    _mul_into(image, df, [(k, c, mask & ~(1 << slot), False)], negate[cell])
            for mono, c in image.items():
                rows.setdefault(mono, {})[col] = c
    vectors = nullspace(rows.values(), len(ansatz))
    return KernelBasis(s.chart, tuple(ansatz), tuple(vectors), flagged)


# ---------------------------------------------------------------------------
# Lie algebra examples
# ---------------------------------------------------------------------------

class LieAlgebraData:
    """Structure constants C^{ij}_k of a (super) Lie algebra basis {e_i}.

    Constants are stored 0-based as a dense map; parity (p_k = p_i + p_j) and
    graded antisymmetry are enforced on construction, the Jacobi identity is
    checked downstream through the master equation of the induced quadratic
    Poisson element.
    """

    def __init__(self, dimension, parities=None, constants=(), names=None):
        self.dimension = _integer(dimension, "the dimension", MAX_LIE_DIMENSION)
        self.parities = tuple(_integer(p, "parity") for p in _entries(
            parities or [EVEN] * self.dimension, self.dimension,
            "parity list does not match the dimension"))
        self.names = _entries(names or ["x%d" % (i + 1) for i in range(self.dimension)],
                              self.dimension, "name list does not match the dimension")
        # rejects a parity other than 0 or 1 and a bad or repeated name
        self.chart = Chart(list(zip(self.names, self.parities)), name="lie")
        table = {}
        constants = _entries(constants, None, "the structure constants are a list")
        for i, j, k, val in (_entries(c, 4, "a structure constant has 4 entries") for c in constants):
            i, j, k = (_integer(a, "structure constant index") for a in (i, j, k))
            if not all(0 <= a < self.dimension for a in (i, j, k)):
                raise DomainError("structure constant index out of range")
            table[(i, j, k)] = table.get((i, j, k), Fraction(0)) + _frac(val)
        self.constants = {k: v for k, v in table.items() if v}
        p = self.parities
        for (i, j, k), v in self.constants.items():
            if p[k] != (p[i] + p[j]) % 2:
                raise DomainError("structure constant at (%d,%d,%d) breaks parity: "
                                  "p_k = %d, p_i + p_j = %d" % (i, j, k, p[k], p[i] + p[j]))
            sign = -1 if (p[i] * p[j]) % 2 == 0 else 1
            mirrored = self.constants.get((j, i, k), Fraction(0))
            if mirrored != sign * v:
                raise DomainError(
                    "structure constants are not graded antisymmetric at (%d,%d,%d)" % (i, j, k)
                )

    def c(self, i, j, k):
        """C^{ij}_k, with 0-based indices."""
        top = self.dimension - 1
        return self.constants.get(
            tuple(_integer(a, "structure constant index", top) for a in (i, j, k)), Fraction(0))

    @classmethod
    def from_dict(cls, d):
        keys = "a Lie algebra is a map with the keys 'dimension' and 'constants'"
        if not {"dimension", "constants"} <= _map(d, keys).keys():
            raise DomainError(keys)
        constants = _entries(d["constants"], None, "the structure constants are a list")
        constants = [
            (*(_integer(a, "structure constant index") - 1 for a in (i, j, k)), v)
            for i, j, k, v in (_entries(c, 4, "a structure constant has 4 entries") for c in constants)
        ]
        return cls(
            d["dimension"],
            d.get("parities"),
            constants,
            d.get("names"),
        )

    @classmethod
    def from_json(cls, path):
        """Read a JSON file at `path`, a str, bytes or os.PathLike (a number
        would name an open file descriptor); a missing, unreadable or malformed
        file is a DomainError.  A decode error is a ValueError, as is every
        DensalgError of `from_dict`, and nesting past the recursion limit is a
        RecursionError."""
        if not isinstance(path, (str, bytes, os.PathLike)):
            raise DomainError("a Lie algebra file path is a string or path object, got %s"
                              % type(path).__name__)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh, parse_float=Fraction))
        except (OSError, ValueError, RecursionError) as exc:
            raise DomainError("bad Lie algebra file %s: %s" % (path, exc)) from None


def lie_poisson(g: LieAlgebraData) -> DensityElement:
    """pi = 1/2 (-1)^p_i C^{ij}_k x^k x*_j x*_i at weight 0; the sign, +1 on an
    even algebra, makes (pi, pi) = 0 the super Jacobi identity of the constants.
    The derived bracket r_ary_bracket(pi, [x^i, x^j]) carries the orientation
    (-1)^{(f+1)(g+1)} of `r_ary_bracket`, so it reads (-1)^p_i C^{ij}_k x^k."""
    chart = g.chart
    pi = chart.sum(
        Fraction((-1) ** g.parities[i], 2) * v
        * (chart[g.names[k]] * chart["#" + g.names[j]] * chart["#" + g.names[i]])
        for (i, j, k), v in g.constants.items()
    )
    return DensityElement(pi, Fraction(0))


def supertrace_extension(g: LieAlgebraData):
    """The extension functional phi_j = str(ad e_j) = sum_i (-1)^p_i C^{ji}_i,
    read off the modular vector field div(pi) = sum_j phi_j #x_j of the
    Lie-Poisson element pi, which is the t #t term of lift(pi)."""
    phi = _supertrace(lie_poisson(g).body)
    if phi is None:
        raise DomainError("structure constants violate the Jacobi identity")
    return phi


def _supertrace(pi: SPoly):
    """phi_j, the coefficient of #x_j in div(pi), for a Lie-Poisson pi on
    base coordinates x_1..x_n; None when (pi, pi) != 0 (Jacobi fails)."""
    if master_check(pi):
        return None
    div, n = divergence(pi), len(pi.chart.base_coords)
    return tuple(_frac(div.terms.get(pi.chart.power_key(n + j, 1), 0)) for j in range(n))


def change_basis(g: LieAlgebraData, P):
    """Structure constants in the basis e'_i = sum_a P[a][i] e_a (P rational,
    invertible, n x n)."""
    n = g.dimension
    shape = "the basis change matrix must be %d x %d" % (n, n)
    P = [[_frac(x) for x in _entries(row, n, shape)] for row in _entries(P, n, shape)]
    Pinv = _invert_matrix(P)
    # LieAlgebraData sums the contributions to each (i, j, k) and drops zeros
    constants = [
        (i, j, k, pa * pb * cab * Pinv[k][c])
        for (a, b, c), cab in g.constants.items()
        for i, pa in enumerate(P[a]) if pa
        for j, pb in enumerate(P[b]) if pb
        for k in range(n) if Pinv[k][c]
    ]
    return LieAlgebraData(n, g.parities, constants, None)


def _invert_matrix(P):
    """P^-1 as the right half of the reduced [P | I]; raise if P is singular."""
    n = len(P)
    reduced = _rref({**dict(enumerate(row)), n + i: 1} for i, row in enumerate(P))
    if sorted(reduced) != list(range(n)):
        raise DomainError("basis change matrix is singular")
    return [[Fraction(reduced[k].get(n + j, 0), reduced[k][k]) for j in range(n)] for k in range(n)]


# ---------------------------------------------------------------------------
# Worked examples: density evolution and Q-manifolds
# ---------------------------------------------------------------------------

def _layout(chart, parity):
    """The name pairs (x_a, y_a) of a chart x_1..x_n, y_1..y_n with every x even
    and every y of `parity`: a Darboux chart for EVEN, a parity reversed
    tangent chart for ODD.  Any other base layout is a DomainError."""
    coords = chart.base_coords
    n = len(coords) // 2
    if [p for _, p in coords] != [EVEN] * n + [parity] * n:
        raise DomainError("expected n even coordinates, then n %s ones"
                          % ("odd" if parity else "even"))
    return [(x, y) for (x, _), (y, _) in zip(coords[:n], coords[n:])]


def darboux_form(chart: Chart) -> SPoly:
    """omega = sum_i #p_i #x_i on an unhatted chart [p_1..p_n, x_1..x_n], all even."""
    if chart.hatted:
        raise DomainError("a Darboux chart is unhatted")
    return chart.sum(chart["#" + p] * chart["#" + x] for p, x in _layout(chart, EVEN))


def density_evolution(H: SPoly, f: SPoly, psi: SPoly, lam) -> SPoly:
    """Evolution of the density psi t^lam under H with lift twist f, in closed
    form: ({H, psi} + lam {H, f} psi) t^lam.  This is ((Omega, H), Psi) with
    Omega = lift(omega) + X_f w, the lift twisted by the Hamiltonian field of f.
    """
    chart = _on(H).chart
    for p in (H, f, psi):
        if _on(p, chart, "H, f, psi must share a chart").fiber_degree() != 0:
            raise DomainError("H, f, psi must be base functions")
    lam = _frac(lam)
    omega = darboux_form(chart)

    def pb(a, b):
        return r_ary_bracket(omega, [a, b])

    return (pb(H, psi) + lam * (pb(H, f) * psi)).transport(chart.hatted_version(), lam)


def q_manifold_chart(n: int) -> Chart:
    """The chart of the parity reversed tangent bundle of R^n: x_a even,
    dx_a odd, for n in 0..MAX_LIE_DIMENSION."""
    n = _integer(n, "the dimension", MAX_LIE_DIMENSION)
    base = [("x%d" % (a + 1), EVEN) for a in range(n)]
    base += [("dx%d" % (a + 1), ODD) for a in range(n)]
    return Chart(base, name="PiTR%d" % n)


def de_rham_element(chart: Chart) -> SPoly:
    """The vector field d = dx^a d/dx^a as a fiber-degree-1 element."""
    return chart.sum(chart[dx] * chart["#" + x] for x, dx in _layout(chart, ODD))


def exterior_derivative(theta: SPoly) -> SPoly:
    """d theta = sum_a dx^a d_l theta / dx^a on a parity reversed tangent chart."""
    chart = theta.chart
    return chart.sum(chart[dx] * theta.derive_left(chart.var(x)) for x, dx in _layout(chart, ODD))


def q_manifold_lifts(chart: Chart, coeff_degree_bound: int) -> KernelBasis:
    """Classify lifts of the de Rham vector field on a parity reversed tangent
    chart: (d, theta) = +-d theta, so the basis spans the closed forms in the
    ansatz."""
    return classify_lifts(DensityElement(de_rham_element(chart), Fraction(0)), coeff_degree_bound)
