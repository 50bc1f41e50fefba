"""The canonical lift of weighted multivector densities and its naturality.

A DensityElement is a polynomial multivector s on an unhatted chart together
with a weight lambda, standing for s * |Dx|^lambda.  For lambda != 1 there is
a unique extension to the hatted chart that projects back to s and is killed
by the canonical delta operator; `lift` builds it in closed form.  The lift
commutes with the odd bracket and with coordinate changes, which
`lift_commutes_check` and `transform_hatted` make checkable.  A change
prepares one substitution, which also yields det J as the image of the odd
fiber coordinates' product, and has one law, `transform_density`, for every
density and tail: a tail t^a #t^b of a hatted element has weight a - b, and
its body transforms at that weight.  Densities transform by |det J|^weight,
so orientation never enters the calculus: refusing an orientation-reversing
change is a policy of the caller, who compares `jac_det` with 0, as the DSL's
strict mode does.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .brackets import DomainError, antibracket, divergence
from .spoly import Chart, SPoly, _frac, _map, _on, _Substitution, rational_power


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
        if _on(self.body).chart.hatted:
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
    `project_to_density` takes it back to [s]: it keeps the tails without #t.
    """
    lam = s.weight
    if lam == 1:
        raise WeightOneError()
    hchart = s.chart.hatted_version()
    # #t div(s) = div(s).parity_twist() #t: a sign per term, (-1)^parity
    twisted = divergence(s.body).parity_twist()
    return s.body.transport(hchart, lam) + twisted.transport(hchart, lam + 1, 1) / (1 - lam)


def project_to_density(S: SPoly):
    """Set #t to 0 and split the hatted S by t-power: one DensityElement per
    tail t^lambda, its body at weight lambda, sorted by weight."""
    return [DensityElement(body, t) for (t, tstar), body in sorted(_on(S).tails().items())
            if not tstar]


def base_bracket(s: DensityElement, u: DensityElement) -> DensityElement:
    """The odd bracket on weighted multivectors, weights added.

    For nonzero weights the bracket the canonical lift intertwines is not the
    bare x/x* bracket of the bodies: pairing the divergence correction of one
    lift against the t-dependence of the other contributes the upper
    connection terms

        mu/(1-lam) div(s) u  +  (-1)^|s| lam/(1-mu) s div(u),

    where |s| is the parity of s (the second term takes s.parity_twist(), a
    sign per term of s).  Both corrections vanish at weight 0 (and
    whenever the divergences do), where this reduces to the bare bracket of
    the bodies.
    """
    _on(u.body, s.chart, "density elements live on different charts")
    lam, mu = s.weight, u.weight
    if lam == 1 or mu == 1:
        raise WeightOneError()
    body = antibracket(s.body, u.body)
    if mu:
        body = body + (mu / (1 - lam)) * (divergence(s.body) * u.body)
    if lam:
        body = body + (lam / (1 - mu)) * (s.body.parity_twist() * divergence(u.body))
    return DensityElement(body, lam + mu)


def lift_commutes_check(s: DensityElement, u: DensityElement) -> SPoly:
    """(lift s, lift u) - lift (s, u); zero on the whole domain.  A weight of
    s, u or s + u equal to 1 is a WeightOneError, from `lift` or `base_bracket`."""
    return antibracket(lift(s), lift(u)) - lift(base_bracket(s, u))


class OrientationError(DomainError):
    """An orientation-reversing change refused by the DSL's strict mode."""


class CoordinateChange:
    """Invertible polynomial map between two all-even unhatted charts.

    `forward` maps each old base coordinate's name to a polynomial in the new
    chart's base coordinates; `inverse` is the exact inverse map, keyed by the
    new names.  Each key is read through `Chart.var`.  Such a map has a
    nonzero rational constant Jacobian determinant `jac_det`, read off the
    fiber images: #x_old^1...#x_old^n maps to (1/det J) #x_new^1...#x_new^n.
    `images` maps every old unhatted variable to the new chart: base
    coordinates through `forward`, fiber coordinates as parity reversed
    momenta, #x_old^a -> sum_b (d x_new^b/d x_old^a) #x_new^b with the
    derivative expressed in the new coordinates.  `substitution` is `images`
    prepared once, for every density and tail the change transforms.
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
        maps = "forward and inverse are maps from coordinates to polynomials"
        self.forward = {source.var(k): v for k, v in _map(forward, maps).items()}
        self.inverse = {target.var(k): v for k, v in _map(inverse, maps).items()}
        sb = [v for v, _ in source.base_pairs()]
        tb = [v for v, _ in target.base_pairs()]
        if set(self.forward) != set(sb) or set(self.inverse) != set(tb):
            raise DomainError("forward/inverse must cover exactly the base coordinates")
        for mapping, chart in ((self.forward, target), (self.inverse, source)):
            for v, img in mapping.items():
                if _on(img).chart != chart or img.fiber_degree() != 0:
                    raise DomainError("image of %s is not a base function" % v.name)
        # F(G(x)) = x exactly, F = forward and G = inverse: G is then injective,
        # so bijective (Ax-Grothendieck), and G(F(u)) = u follows
        back = _Substitution(target, self.inverse, source)
        for v in sb:
            if back(self.forward[v]) != source[v.name]:
                raise DomainError("inverse is not exact for %s" % v.name)
        forth = _Substitution(source, self.forward, target)
        self.images = dict(self.forward)
        for a in sb:
            self.images[source.var("#" + a.name)] = target.sum(
                forth(self.inverse[b].derive_left(a)) * target["#" + b.name] for b in tb)
        self.substitution = _Substitution(source, self.images, target)
        # the round trips give J_F(G(x)) J_G(x) = I, so det J_F(G(x)) and det J_G are
        # units of Q[x], nonzero constants: the image of #x^1...#x^n has one term
        top = self.substitution(prod((source["#" + a.name] for a in sb), start=source.const(1)))
        c, = top.terms.values()
        self.jac_det = 1 / _frac(c)


def transform_hatted(S: SPoly, change: CoordinateChange) -> SPoly:
    """Express S, living on the source hatted chart, in the target hatted chart.

    Each body of S.tails() transforms by `transform_density` at its tail's
    weight a - b and keeps its tail t^a #t^b: t -> |det J| t, #t -> #t/|det J|.
    There is no w-term: its coefficient on #x_old^a is d/dx_old^a log|det J|,
    zero for the constant det J a change has.
    """
    _on(S, change.source.hatted_version(), "S must live on the hatted source chart")
    htgt = change.target.hatted_version()
    return htgt.sum(
        transform_density(DensityElement(body, a - b), change).body.transport(htgt, a, b)
        for (a, b), body in S.tails().items()
    )


def transform_density(s: DensityElement, change: CoordinateChange) -> DensityElement:
    """Pull a weighted multivector through a coordinate change.

    The body picks up |det J|^weight and its variables map by the change's
    prepared `substitution` of `images` (no w-term on the unhatted bundle).
    """
    _on(s.body, change.source, "density lives on the wrong chart")
    absJ = abs(change.jac_det)
    return DensityElement(rational_power(absJ, s.weight) * change.substitution(s.body), s.weight)
