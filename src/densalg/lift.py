"""The canonical lift of weighted multivector densities and its naturality.

A DensityElement is a polynomial multivector s on an unhatted chart together
with a weight lambda, standing for s * |Dx|^lambda.  For lambda != 1 there is
a unique extension to the hatted chart that projects back to s and is killed
by the canonical delta operator; `lift` builds it in closed form.  The lift
commutes with the odd bracket and with (constant-Jacobian) coordinate
changes, which `lift_commutes_check` and `transform_hatted` make checkable.
A change has one law, `transform_density`: each (t, #t) tail t^a #t^b of a
hatted element has weight a - b, and its body transforms at that weight.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .brackets import DomainError, antibracket, divergence, project_base
from .spoly import Chart, ChartMismatchError, SPoly, _frac, _Substitution, rational_power


class WeightOneError(DomainError):
    """The lift is singular at weight 1.

    Weight-1 objects are half-densities on the odd cotangent bundle; no
    canonical delta-closed extension exists there.
    """

    def __init__(self):
        super().__init__(
            "the canonical lift is singular at weight 1 "
            "(weight-1 elements are half densities on the odd cotangent bundle)"
        )


@dataclass(frozen=True)
class DensityElement:
    """s * |Dx|^weight with s a polynomial on an unhatted chart."""

    body: SPoly
    weight: Fraction

    def __post_init__(self):
        if self.body.chart.hatted:
            raise DomainError("a density body must live on an unhatted chart")
        object.__setattr__(self, "weight", _frac(self.weight))

    @property
    def chart(self):
        return self.body.chart

    def __repr__(self):
        return "DensityElement(%r, weight=%s)" % (self.body, self.weight)


def lift(s: DensityElement) -> SPoly:
    """The unique delta-closed element above s, for weight != 1.

    Closed form: s(x, #x) t^lambda + 1/(1-lambda) t^(lambda+1) #t div(s).
    """
    lam = s.weight
    if lam == 1:
        raise WeightOneError()
    hchart = s.chart.hatted_version()
    # #t div(s) = (div(s)_even - div(s)_odd) #t: a sign per term, (-1)^parity
    even, odd = divergence(s.body).parity_components()
    return s.body.transport(hchart, lam) + (even - odd).transport(hchart, lam + 1, 1) / (1 - lam)


def project_to_density(S: SPoly):
    """project_base with DensityElement packaging."""
    return [DensityElement(body, lam) for body, lam in project_base(S)]


def base_bracket(s: DensityElement, u: DensityElement) -> DensityElement:
    """The odd bracket on weighted multivectors, weights added.

    For nonzero weights the bracket the canonical lift intertwines is not the
    bare x/x* bracket of the bodies: pairing the divergence correction of one
    lift against the t-dependence of the other contributes the upper
    connection terms

        mu/(1-lam) div(s) u  +  (-1)^|s| lam/(1-mu) s div(u),

    where |s| is the parity of s (the second term is applied separately to
    the even and odd parts of s).  Both corrections vanish at weight 0 (and
    whenever the divergences do), where this reduces to the bare bracket of
    the bodies.
    """
    if s.chart != u.chart:
        raise ChartMismatchError("density elements live on different charts")
    lam, mu = s.weight, u.weight
    if lam == 1 or mu == 1:
        raise WeightOneError()
    body = antibracket(s.body, u.body)
    if mu:
        body = body + (mu / (1 - lam)) * (divergence(s.body) * u.body)
    if lam:
        s_even, s_odd = s.body.parity_components()
        du = divergence(u.body)
        pref = lam / (1 - mu)
        body = body + pref * ((s_even - s_odd) * du)
    return DensityElement(body, lam + mu)


def lift_commutes_check(s: DensityElement, u: DensityElement) -> SPoly:
    """(lift s, lift u) - lift (s, u); zero on the whole domain."""
    for w in (s.weight, u.weight, s.weight + u.weight):
        if w == 1:
            raise WeightOneError()
    return antibracket(lift(s), lift(u)) - lift(base_bracket(s, u))


class OrientationError(DomainError):
    pass


class CoordinateChange:
    """Invertible polynomial map between two all-even unhatted charts.

    `forward` expresses each old base coordinate as a polynomial in the new
    chart's base coordinates; `inverse` is the exact inverse map.  The
    Jacobian determinant of `forward` must be a nonzero rational constant
    (affine and unipotent-triangular maps qualify); it is computed and
    validated on construction.  `images` maps every old unhatted variable
    to the new chart: base coordinates through `forward`, fiber coordinates
    as parity reversed momenta, #x_old^a -> sum_b (d x_new^b/d x_old^a) #x_new^b
    with the derivative expressed in the new coordinates.
    """

    def __init__(self, source: Chart, target: Chart, forward: dict, inverse: dict):
        if source.hatted or target.hatted:
            raise DomainError("coordinate changes connect unhatted charts")
        for ch in (source, target):
            if any(p for _, p in ch.base_coords):
                raise DomainError("coordinate changes are restricted to even coordinates")
        if source.n_base != target.n_base:
            raise DomainError("charts have different dimension")
        self.source = source
        self.target = target
        self.forward = {source.var(k) if isinstance(k, str) else k: v for k, v in forward.items()}
        self.inverse = {target.var(k) if isinstance(k, str) else k: v for k, v in inverse.items()}
        sb = [v for v, _ in source.base_pairs()]
        tb = [v for v, _ in target.base_pairs()]
        if set(self.forward) != set(sb) or set(self.inverse) != set(tb):
            raise DomainError("forward/inverse must cover exactly the base coordinates")
        for mapping, chart in ((self.forward, target), (self.inverse, source)):
            for v, img in mapping.items():
                if img.chart != chart or img.fiber_degree() != 0:
                    raise DomainError("image of %s is not a base function" % v.name)
        # round-trip identity, exactly
        back = _Substitution(target, self.inverse, source)
        for v in sb:
            if back(self.forward[v]) != source[v.name]:
                raise DomainError("inverse is not exact for %s" % v.name)
        forth = _Substitution(source, self.forward, target)
        for v in tb:
            if forth(self.inverse[v]) != target[v.name]:
                raise DomainError("forward is not exact for %s" % v.name)
        det = self._poly_det([[self.forward[v].derive_left(w) for w in tb] for v in sb], target)
        self.jac_det = det.constant_term()
        if det != self.jac_det:
            raise DomainError("Jacobian determinant is not constant")
        if self.jac_det == 0:
            raise DomainError("Jacobian determinant vanishes")
        self.images = dict(self.forward)
        for a in sb:
            self.images[source.var("#" + a.name)] = target.sum(
                forth(self.inverse[b].derive_left(a)) * target["#" + b.name] for b in tb)

    def abs_det(self, strict_orientation=False):
        """|det J|; an orientation-reversing change raises in strict mode."""
        if self.jac_det < 0 and strict_orientation:
            raise OrientationError("orientation-reversing change in strict mode")
        return abs(self.jac_det)

    @staticmethod
    def _poly_det(rows, chart):
        """The determinant by cofactor expansion down the rows, each minor (the
        last rows over a set of columns) computed once: 2^n minors, not e*n!."""
        n = len(rows)
        minors = {(): chart.const(1)}

        def det(cols):
            if cols not in minors:
                row = rows[n - len(cols)]
                minors[cols] = chart.sum((-1) ** k * row[j] * det(cols[:k] + cols[k + 1:])
                                         for k, j in enumerate(cols))
            return minors[cols]

        return det(tuple(range(n)))


def transform_hatted(S: SPoly, change: CoordinateChange, strict_orientation=False) -> SPoly:
    """Express S, living on the source hatted chart, in the target hatted chart.

    Each body of S.tails() transforms by `transform_density` at its tail's
    weight a - b and keeps its tail t^a #t^b: t -> |det J| t, #t -> #t/|det J|.
    There is no w-term: its coefficient on #x_old^a is d/dx_old^a log|det J|,
    zero for the constant det J a change has.
    """
    if S.chart != change.source.hatted_version():
        raise ChartMismatchError("S must live on the hatted source chart")
    change.abs_det(strict_orientation)  # a zero S is judged too
    htgt = change.target.hatted_version()
    return htgt.sum(
        transform_density(DensityElement(body, a - b), change).body.transport(htgt, a, b)
        for (a, b), body in S.tails().items()
    )


def transform_density(s: DensityElement, change: CoordinateChange, strict_orientation=False) -> DensityElement:
    """Pull a weighted multivector through a coordinate change.

    The body picks up |det J|^weight and its variables map by `change.images`
    (no w-term on the unhatted bundle).
    """
    if s.chart != change.source:
        raise ChartMismatchError("density lives on the wrong chart")
    absJ = change.abs_det(strict_orientation)
    body = s.body.substitute(change.images, target=change.target)
    return DensityElement(rational_power(absJ, s.weight) * body, s.weight)
