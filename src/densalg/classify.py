"""Decomposition of lifts, master-equation checks, and exact classification.

Every element above a weighted multivector s differs from the canonical lift
by Q * w with Q a multivector of one lower fiber degree; the master equation
for the sum reduces to (s, Q) = 0.  `classify_lifts` slices that kernel at a
finite coefficient-degree bound and solves the resulting homogeneous linear
system exactly.  The system is sparse end to end: the bracket images are
transposed into one {ansatz column: coefficient} row per monomial, and one
sparse Gauss-Jordan elimination (`_rref`) reduces them as primitive integer
rows: denominators are cleared once on entry, every elimination step is
integer-preserving and each row's content is divided out.  Only at the edge,
in the kernel basis and the inverse, is each row divided by its pivot entry,
which gives the unique reduced row echelon form, so bases are reproducible
bit for bit.  The same routine inverts the basis-change matrices of
`change_basis`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .brackets import PINNED, DomainError, _bracket_from, _right_tables, antibracket, r_ary_bracket
from .lift import DensityElement, WeightOneError, lift, project_to_density
from .spoly import EVEN, MIXED, ODD, Chart, SPoly, _frac, _num


@dataclass(frozen=True)
class LiftDecomposition:
    base: DensityElement
    q_part: SPoly  # the Q of S = lift(base) + Q * w


def attach_correction(s: DensityElement, Q: SPoly) -> SPoly:
    """lift(s) + Q * t^(weight+1) * #t; at weight 0 this is lift(s) + Q*w."""
    if Q.chart != s.chart:
        raise DomainError("Q must live on the unhatted chart of s")
    return lift(s) + Q.transport(s.chart.hatted_version(), s.weight + 1, 1)


def decompose(S: SPoly, s: DensityElement) -> LiftDecomposition:
    """Recover Q from S = lift(s) + Q * w.

    S must project to exactly s; anything in the difference that is not a
    w-multiple of the right weight is rejected.
    """
    if project_to_density(S) != [s]:
        raise DomainError("S does not project to the given density element")
    tails = (S - lift(s)).tails()
    Q = tails.pop((s.weight + 1, 1), s.chart.zero())
    if tails:
        raise DomainError("S - lift(s) is not of the form Q * w")
    if attach_correction(s, Q) != S:
        raise DomainError("decomposition does not round-trip")
    return LiftDecomposition(base=s, q_part=Q)


def master_check(S: SPoly) -> SPoly:
    """(S, S); zero exactly when the master equation holds."""
    return antibracket(S, S)


def master_residual_of_lift(s: DensityElement, Q: SPoly) -> SPoly:
    """(S, S) for S = lift(s) + Q*w, asserted equal to (1+(-1)^s)(s,Q)w.

    The residual identity is a weight-zero statement: only at weight zero is
    lift(s) + Q*w weight homogeneous, and at other weights the t-derivative
    pairings contribute extra terms proportional to the weight.
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
    S = attach_correction(s, Q)
    residual = master_check(S)
    expected = S.chart.zero()
    if sp != ODD:  # 1 + (-1)^s = 2
        expected = (2 * antibracket(s.body, Q)).transport(S.chart, 1, 1)
    if residual != expected:
        raise DomainError(
            "master residual does not match (1 + (-1)^s)(s, Q) w; got %r" % residual
        )
    return residual


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
    which keeps block-structured systems cheap.
    """
    reduced = {}
    for row in rows:
        row = {c: x for c, x in row.items() if x}
        scale = lcm(*(x.denominator for x in row.values()))
        row = _primitive({c: x.numerator * (scale // x.denominator) for c, x in row.items()})
        for p in [c for c in row if c in reduced]:
            row = _eliminate(row, p, reduced[p])
        if not row:
            continue
        pivot = min(row)
        if row[pivot] < 0:
            row = {c: -x for c, x in row.items()}
        for p, other in reduced.items():
            if pivot in other:
                reduced[p] = _eliminate(other, pivot, row)
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

    Each basis vector carries a 1 in its free column and minus the reduced
    rows' entries in the pivot columns; vectors come in free-column order, so
    the basis is the unique reduced one, bit for bit.  No rows give the
    identity basis, no columns an empty one.
    """
    reduced = _rref(rows)
    basis = {}
    for fc in range(n_cols):
        if fc not in reduced:
            basis[fc] = vec = [Fraction(0)] * n_cols
            vec[fc] = Fraction(1)
    # a reduced row's non-pivot columns are all free: one walk fills the basis
    for p, row in reduced.items():
        d = row[p]
        for c, x in row.items():
            if c != p:
                basis[c][p] = Fraction(-x, d)
    return [tuple(vec) for vec in basis.values()]


@dataclass(frozen=True)
class KernelBasis:
    """Solutions Q of (s, Q) = 0 inside a finite monomial ansatz."""

    chart: Chart
    ansatz: tuple  # SPoly monomial generators, fixed order
    basis: tuple  # tuples of Fractions, reduced over the ansatz order
    flagged_odd_base: bool = False

    @property
    def dimension(self):
        return len(self.basis)

    def element(self, vec) -> SPoly:
        # every ansatz entry is one monomial with coefficient 1
        return SPoly(self.chart, {
            key: _num(c) for c, mono in zip(vec, self.ansatz) if c for key in mono.terms
        })

    def elements(self):
        return [self.element(v) for v in self.basis]


def _exponent_vectors(variables, budget, exact):
    """Exponent vectors over `variables`, in ascending lexicographic order.

    An odd variable takes 0 or 1, an even one any power.  With `exact` every
    exponent counts and they sum to exactly `budget` (a fiber degree); without
    it only the even ones count and they sum to at most `budget` (a
    coefficient degree).
    """
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
    fiber coordinate never disturbs the master equation.
    """
    if chart.hatted:
        raise DomainError("the ansatz lives on an unhatted chart")
    base_vars = [v for v, _ in chart.base_pairs()]
    fiber_vars = [f for _, f in chart.base_pairs()]
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
    Poisson elements above s (of matching degree, weight, and parity) within
    the coefficient-degree slice.
    """
    bound = _frac(coeff_degree_bound)
    if bound.denominator != 1 or bound < 0:
        raise DomainError(
            "the coefficient degree bound must be a nonnegative integer, got %s" % bound
        )
    tables = _right_tables(s.body)  # one table of s serves every column
    if _bracket_from(tables, s.body, PINNED):
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
    ansatz = monomial_ansatz(s.chart, r - 1, int(bound), (sp + 1) % 2)
    # the system as sparse rows {ansatz column: coefficient}, one per monomial
    # of the images (s, Q)
    rows = {}
    if not flagged:
        # odd s: the residual (1 + (-1)^s)(s, Q) w* vanishes identically, so
        # every ansatz element already solves the master equation: no rows.
        for col, q in enumerate(ansatz):
            for mono, c in _bracket_from(tables, q, PINNED).terms.items():
                rows.setdefault(mono, {})[col] = c
    basis = nullspace(rows.values(), len(ansatz))
    return KernelBasis(s.chart, tuple(ansatz), tuple(basis), flagged)


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
        self.dimension = _integer(dimension, "dimension")
        self.parities = tuple(
            _integer(p, "parity") for p in (parities or [EVEN] * self.dimension)
        )
        if len(self.parities) != self.dimension:
            raise DomainError("parity list does not match the dimension")
        self.names = tuple(names) if names else tuple(
            "x%d" % (i + 1) for i in range(self.dimension)
        )
        if len(self.names) != self.dimension:
            raise DomainError("name list does not match the dimension")
        self.chart()  # rejects a parity other than 0 or 1 and a bad or repeated name
        table = {}
        for i, j, k, val in constants:
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
        return self.constants.get((i, j, k), Fraction(0))

    @classmethod
    def from_dict(cls, d):
        constants = [
            (*(_integer(a, "structure constant index") - 1 for a in (i, j, k)), Fraction(v))
            for i, j, k, v in d["constants"]
        ]
        return cls(
            d["dimension"],
            d.get("parities"),
            constants,
            d.get("names"),
        )

    @classmethod
    def from_json(cls, path):
        """Read a JSON file; a missing, unreadable or malformed one is a DomainError."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh, parse_float=Fraction))
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError,
                OverflowError) as exc:
            raise DomainError("bad Lie algebra file %s: %s" % (path, exc)) from None

    def chart(self):
        return Chart(list(zip(self.names, self.parities)), name="lie")


def _integer(x, what):
    """x as an int when it is exactly integral (3, 3.0, "3"), else a DomainError."""
    try:
        q = Fraction(x)
    except (TypeError, ValueError, OverflowError):
        q = None
    if q is None or q.denominator != 1:
        raise DomainError("%s must be an integer, got %r" % (what, x))
    return int(q)


def lie_poisson(g: LieAlgebraData) -> DensityElement:
    """The quadratic element pi = 1/2 C^{ij}_k x^k x*_j x*_i, weight 0."""
    chart = g.chart()
    half = Fraction(1, 2)
    pi = chart.sum(
        half * v * (chart[g.names[k]] * chart["#" + g.names[j]] * chart["#" + g.names[i]])
        for (i, j, k), v in g.constants.items()
    )
    return DensityElement(pi, Fraction(0))


def induced_structure_constants(g: LieAlgebraData):
    """Read {x^i, x^j} back off the polynomial bracket of lie_poisson(g).

    Returns the table {(i, j, k): coefficient of x^k in {x^i, x^j}}, the raw
    bracket coefficients; they are eps * C^{ij}_k with eps the convention's
    overall sign.
    """
    s = lie_poisson(g)
    chart = s.chart
    table = {}
    for i in range(g.dimension):
        for j in range(g.dimension):
            br = r_ary_bracket(s.body, [chart[g.names[i]], chart[g.names[j]]])
            for key, coeff in br.terms.items():
                if sum(key) != 1:
                    raise DomainError("induced bracket is not linear")
                table[(i, j, key.index(1))] = coeff
    return table


def supertrace_extension(g: LieAlgebraData):
    """The extension functional j -> sum_i (-1)^p_i C^{ji}_i.

    Cross-checked against the supertrace of the adjoint action read back
    through the polynomial bracket machinery, and against the correction term
    of the canonical lift of the Lie-Poisson element.
    """
    s = lie_poisson(g)
    if master_check(s.body):
        raise DomainError("structure constants violate the Jacobi identity")
    phi = tuple(
        sum(
            ((-1) ** g.parities[i]) * g.c(j, i, i)
            for i in range(g.dimension)
        )
        for j in range(g.dimension)
    )
    # independent route 1: supertrace of ad(e_j) through the induced bracket
    table = induced_structure_constants(g)
    eps = None
    for (i, j, k), v in g.constants.items():
        got = table.get((i, j, k), Fraction(0))
        if v:
            cand = got / v
            if eps is None:
                eps = cand
            elif eps != cand:
                raise DomainError("induced bracket is not proportional to the constants")
    if eps is None:
        eps = Fraction(1)
    str_ad = tuple(
        sum(
            ((-1) ** g.parities[i]) * table.get((j, i, i), Fraction(0)) / eps
            for i in range(g.dimension)
        )
        for j in range(g.dimension)
    )
    if str_ad != phi:
        raise DomainError("supertrace of the adjoint action disagrees with the formula")
    # independent route 2: the lift correction term
    chart = s.chart
    expected_q = chart.sum(
        phi[j] * chart["#" + g.names[j]] for j in range(g.dimension) if phi[j]
    )
    if not s.body.is_zero():
        S = lift(s)
        assert decompose(S, s).q_part.is_zero()  # Q = 0 for the bare lift
        # the lift stores the correction as t #t Delta(s): a sign per odd term
        even, odd = expected_q.parity_components()
        if S - s.body.transport(S.chart) != (even - odd).transport(S.chart, 1, 1):
            raise DomainError("lift correction disagrees with the supertrace functional")
    elif any(phi):
        raise DomainError("supertrace functional must vanish for an abelian algebra")
    return phi


def change_basis(g: LieAlgebraData, P):
    """Structure constants in the basis e'_i = sum_a P[a][i] e_a (P rational,
    invertible)."""
    n = g.dimension
    P = [[_frac(x) for x in row] for row in P]
    Pinv = _invert_matrix(P)
    constants = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = Fraction(0)
                for a in range(n):
                    for b in range(n):
                        for c in range(n):
                            cab = g.c(a, b, c)
                            if cab:
                                v += P[a][i] * P[b][j] * cab * Pinv[k][c]
                if v:
                    constants.append((i, j, k, v))
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

def darboux_form(chart: Chart) -> SPoly:
    """omega = sum_i #p_i #x_i on a chart [p_1..p_n, x_1..x_n], all even."""
    n = chart.n_base
    if chart.hatted or n % 2 or any(p for _, p in chart.base_coords):
        raise DomainError("a Darboux chart has an even number of even coordinates")
    half = n // 2
    names = [name for name, _ in chart.base_coords]
    return chart.sum(chart["#" + p] * chart["#" + x] for p, x in zip(names[:half], names[half:]))


def density_evolution(H: SPoly, f: SPoly, psi: SPoly, lam) -> SPoly:
    """Evolution of the density psi t^lam under H with lift twist f.

    Returns ({H, psi} + lam {H, f} psi) t^lam, and asserts it equals the
    direct route ((Omega, H), Psi) with Omega = lift(omega) + X_f w built from
    the Hamiltonian field of f.
    """
    chart = H.chart
    if f.chart != chart or psi.chart != chart:
        raise DomainError("H, f, psi must share a chart")
    for p in (H, f, psi):
        if p.fiber_degree() != 0:
            raise DomainError("H, f, psi must be base functions")
    lam = _frac(lam)
    omega = darboux_form(chart)

    def pb(a, b):
        return r_ary_bracket(omega, [a, b])

    hchart = chart.hatted_version()
    closed = (pb(H, psi) + lam * (pb(H, f) * psi)).transport(hchart, lam)
    # direct route through the lifted structure; the iterated bracket carries
    # the same accumulator-parity signs as r_ary_bracket, and the Hamiltonian
    # field is oriented to match under the pinned sign convention
    x_f = -antibracket(omega, f)
    omega_x = attach_correction(DensityElement(omega, Fraction(0)), x_f)
    Psi = psi.transport(hchart, lam)
    step = antibracket(omega_x, H.transport(hchart))
    step_even, step_odd = step.parity_components()
    direct = antibracket(step_even - step_odd, Psi)
    if direct != closed:
        raise DomainError("direct and closed-form evolutions disagree")
    return closed


def q_manifold_chart(n: int) -> Chart:
    """The chart of the parity reversed tangent bundle of R^n: x_a even,
    dx_a odd."""
    base = [("x%d" % (a + 1), EVEN) for a in range(n)]
    base += [("dx%d" % (a + 1), ODD) for a in range(n)]
    return Chart(base, name="PiTR%d" % n)


def de_rham_element(chart: Chart) -> SPoly:
    """The vector field d = dx^a d/dx^a as a fiber-degree-1 element."""
    n = chart.n_base // 2
    names = [name for name, _ in chart.base_coords]
    return chart.sum(chart[dx] * chart["#" + x] for x, dx in zip(names[:n], names[n:]))


def exterior_derivative(theta: SPoly) -> SPoly:
    """d theta = sum_a dx^a d_l theta / dx^a on a parity reversed tangent chart."""
    chart = theta.chart
    n = chart.n_base // 2
    names = [name for name, _ in chart.base_coords]
    return chart.sum(
        chart[dx] * theta.derive_left(chart.var(x)) for x, dx in zip(names[:n], names[n:])
    )


def q_manifold_lifts(chart: Chart, coeff_degree_bound: int) -> KernelBasis:
    """Classify lifts of the de Rham vector field on a parity reversed tangent
    chart; every basis element is checked to be a closed form of odd degree."""
    n = chart.n_base
    if chart.hatted or n % 2:
        raise DomainError("expected a parity reversed tangent chart")
    half = n // 2
    for a in range(half):
        if chart.base_coords[a][1] != EVEN or chart.base_coords[half + a][1] != ODD:
            raise DomainError("expected x coordinates then dx coordinates")
    s = DensityElement(de_rham_element(chart), Fraction(0))
    kb = classify_lifts(s, coeff_degree_bound)
    for theta in kb.elements():
        if theta.parity() != ODD and theta != theta.constant_term():
            # even-degree forms are parity-filtered out of the ansatz; the
            # only even survivors are the constants
            raise DomainError("non-constant kernel element of even form degree")
        if exterior_derivative(theta):
            raise DomainError("kernel element is not a closed form")
    return kb
