"""The canonical lift of weighted multivector densities and its naturality.

A DensityElement is a polynomial multivector s on an unhatted chart together
with a weight lambda, standing for s * |Dx|^lambda.  For lambda != 1 there is
a unique extension to the hatted chart that projects back to s and is killed
by the canonical delta operator; `lift` builds it in closed form.  The lift
commutes with the odd bracket and with (constant-Jacobian) coordinate
changes, which `lift_commutes_check` and `transform_hatted` make checkable.
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
    s0 = s.body.transport(hchart)
    head = s0 * hchart.t_power(lam)
    corr = divergence(s.body).transport(hchart)
    if corr:
        pref = Fraction(1) / (1 - lam)
        head = head + pref * (hchart.t_power(lam + 1) * (hchart["#t"] * corr))
    return head


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
    validated on construction.
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
        back = _Substitution(target, {w: self.inverse[w] for w in tb}, source)
        for v in sb:
            if back(self.forward[v]) != source[v.name]:
                raise DomainError("inverse is not exact for %s" % v.name)
        forth = _Substitution(source, {w: self.forward[w] for w in sb}, target)
        for v in tb:
            if forth(self.inverse[v]) != target[v.name]:
                raise DomainError("forward is not exact for %s" % v.name)
        self.jac_det = self._constant_jacobian()
        if self.jac_det == 0:
            raise DomainError("Jacobian determinant vanishes")

    def _constant_jacobian(self):
        sb = [v for v, _ in self.source.base_pairs()]
        tb = [v for v, _ in self.target.base_pairs()]
        n = len(sb)
        rows = [
            [self.forward[sb[i]].derive_left(tb[j]) for j in range(n)] for i in range(n)
        ]
        det = self._poly_det(rows, self.target)
        constant = det.constant_term()
        if det != constant:
            raise DomainError("Jacobian determinant is not constant")
        return constant

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


def _hatted_fiber_images(change: CoordinateChange, strict_orientation=False):
    """Images of the old hatted variables on the new hatted chart.

    Old base coordinates map through `forward`; t picks up |det J|, #t its
    inverse; old fiber coordinates transform as parity reversed momenta with
    the second-derivative w-term.  Returns (images dict keyed by old hatted
    variables, target hatted chart, orientation_flipped flag).
    """
    src, tgt = change.source, change.target
    hsrc, htgt = src.hatted_version(), tgt.hatted_version()
    J = change.jac_det
    flipped = J < 0
    if flipped and strict_orientation:
        raise OrientationError("orientation-reversing change in strict mode")
    absJ = abs(J)

    sb = [v for v, _ in src.base_pairs()]
    tb = [v for v, _ in tgt.base_pairs()]
    in_new = _Substitution(src, {v: change.forward[v] for v in sb}, tgt)
    dfwd = [[change.forward[c].derive_left(b) for b in tb] for c in sb]  # d old^c / d new^b

    images = {hsrc.var(v.name): change.forward[v].transport(htgt) for v in sb}
    images[hsrc.t_var] = absJ * htgt["t"]
    images[hsrc.tstar_var] = (Fraction(1) / absJ) * htgt["#t"]
    w_new = htgt.w_star()
    for a in sb:
        terms, w_parts = [], []
        for b, vb in enumerate(tb):
            d = change.inverse[vb].derive_left(a)  # d x_new^b / d x_old^a
            if not d:
                continue
            terms.append(in_new(d).transport(htgt) * htgt["#" + vb.name])
            for c, vc in enumerate(sb):
                d2c = in_new(d.derive_left(vc))  # second partial, in new coords
                if d2c:
                    w_parts.append(d2c * dfwd[c][b])
        scalar = tgt.sum(w_parts)
        if scalar:
            terms.append(scalar.transport(htgt) * w_new)
        images[hsrc.var("#" + a.name)] = htgt.sum(terms)
    return images, htgt, flipped


def transform_hatted(S: SPoly, change: CoordinateChange, strict_orientation=False) -> SPoly:
    """Express S, living on the source hatted chart, in the target hatted chart."""
    hsrc = change.source.hatted_version()
    if S.chart != hsrc:
        raise ChartMismatchError("S must live on the hatted source chart")
    images, htgt, _ = _hatted_fiber_images(change, strict_orientation)
    return S.substitute(images, target=htgt)


def transform_density(s: DensityElement, change: CoordinateChange, strict_orientation=False) -> DensityElement:
    """Pull a weighted multivector through a coordinate change.

    The body picks up |det J|^weight and the fiber coordinates transform
    linearly (no w-term on the unhatted bundle).
    """
    src, tgt = change.source, change.target
    if s.chart != src:
        raise ChartMismatchError("density lives on the wrong chart")
    J = change.jac_det
    if J < 0 and strict_orientation:
        raise OrientationError("orientation-reversing change in strict mode")
    absJ = abs(J)
    sb = [v for v, _ in src.base_pairs()]
    tb = [v for v, _ in tgt.base_pairs()]
    fwd = {v: change.forward[v] for v in sb}
    in_new = _Substitution(src, fwd, tgt)
    images = dict(fwd)
    for va in sb:
        images[src.var("#" + va.name)] = tgt.sum(
            in_new(change.inverse[vb].derive_left(va)) * tgt["#" + vb.name] for vb in tb
        )
    body = rational_power(absJ, s.weight) * s.body.substitute(images, target=tgt)
    return DensityElement(body, s.weight)
