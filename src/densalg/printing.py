"""Canonical text and JSON forms for charts and polynomials.

The text form is what the expression DSL accepts back: ``#x`` is the fiber
partner of ``x``, ``#t`` the odd partner of ``t``, and a term containing
``t^(m+1) * #t`` is displayed with the weight-0 sugar ``w`` instead.
Terms are ordered by (fiber degree desc, weight desc, lexicographic
exponents desc), so printing is deterministic and parse(print(f)) == f.
"""
from __future__ import annotations

from fractions import Fraction

from .spoly import ODD, Chart, DomainError, SPoly, _entries, _frac, _map, _num, _on, _shown


def _term_sort_key(chart, key):
    # sorted descending (reverse=True); a term map's keys are distinct, so no terms tie
    return (chart.key_fiber_degree(key), chart.key_weight(key), key)


def _exp_text(exp):
    # Chart._exponents gives an int for every integral power of t, so a Fraction
    # here is never integral
    return "(%s)" % exp if exp < 0 or type(exp) is Fraction else str(exp)


def _monomial_factors(chart, key):
    exps = list(chart._exponents(key))
    use_w = False
    if chart.hatted:
        ti = chart.t_var.index  # the t and #t slots come last
        if exps[ti + 1] == 1 and exps[ti] >= 1:
            use_w = True
            exps[ti] -= 1
            exps[ti + 1] = 0
    factors = [
        v.name if exp == 1 else "%s^%s" % (v.name, _exp_text(exp))
        for v, exp in zip(chart.variables, exps) if exp
    ]
    if use_w:
        factors.append("w")
    return factors


def poly_to_text(f: SPoly) -> str:
    terms = _on(f).terms  # the rational view, built once
    if not terms:
        return "0"
    chart = f.chart
    keys = sorted(terms, key=lambda k: _term_sort_key(chart, k), reverse=True)
    pieces = []
    for key in keys:
        coeff = terms[key]
        factors = _monomial_factors(chart, key)
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


def chart_to_dict(chart: Chart) -> dict:
    return {
        "name": chart.name,
        "base": [[n, p] for n, p in chart.base_coords],
        "hatted": chart.hatted,
    }


def chart_from_dict(d: dict) -> Chart:
    d = _map(d, "a serialized chart is a map")
    return Chart(d["base"], hatted=d["hatted"], name=d.get("name", ""))


def poly_to_dict(f: SPoly) -> dict:
    """SerializedPoly: rationals as strings so consumers lose nothing."""
    chart, coeffs = _on(f).chart, f.terms  # the rational view, built once
    keys = sorted(coeffs, key=lambda k: _term_sort_key(chart, k), reverse=True)
    terms = []
    for key in keys:
        exps = {
            v.name: str(exp) if v.kind == "t" else exp
            for v, exp in zip(chart.variables, chart._exponents(key)) if exp
        }
        terms.append({"coeff": str(coeffs[key]), "exponents": exps})
    return {"chart": chart_to_dict(chart), "terms": terms}


def poly_from_dict(d: dict, chart: Chart | None = None) -> SPoly:
    """Read what poly_to_dict writes; raise DomainError for anything else."""
    maps = "a serialized term and its exponents are maps"
    try:
        d = _map(d, "a serialized polynomial is a map")
        if chart is None:
            chart = chart_from_dict(d["chart"])
        listed = _entries(d["terms"], None, "the terms of a serialized polynomial are a list")
        entries = [(t["coeff"], _map(t["exponents"], maps)) for t in (_map(t, maps) for t in listed)]
    except KeyError as exc:
        raise DomainError("a serialized polynomial has no key %s" % exc) from None
    terms = {}
    for coeff, exponents in entries:
        key = list(chart.zero_key)
        for name, exp in exponents.items():
            v = chart.var(name)
            exp = _frac(exp)
            if v.kind == "t":
                valid = exp != 0
            elif v.parity == ODD:
                valid = exp == 1
            else:
                valid = exp.denominator == 1 and exp > 0
            if not valid:
                raise DomainError("%s cannot have exponent %s" % (name, _shown(exp)))
            key[v.index] = _num(exp)
        key = chart._to_key(tuple(key))
        coeff = _frac(coeff)
        if not coeff:
            raise DomainError("a term has coefficient 0")
        if key in terms:
            raise DomainError("a monomial appears twice")
        terms[key] = coeff
    return SPoly(chart, terms)
