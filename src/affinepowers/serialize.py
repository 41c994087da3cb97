"""Text and JSON round-trips for the library's value types.

Polynomial text form: comma-separated coefficients from the constant term
up, each a Fraction literal, e.g. "1,0,-3/2,1" for 1 - 3/2 x^2 + x^3.  JSON
forms keep every rational as a string so nothing is ever routed through
floats.  For each type, from_json(to_json(x)) == x.
"""

from __future__ import annotations

from fractions import Fraction

from .decompose import Decomposition
from .multipoly import LinearForm, MultiPoly
from .multivariate import MultiDecomposition
from .sde import SDE
from .unipoly import UniPoly, _parse_int


def _parse_frac(v) -> Fraction:
    if isinstance(v, (bool, float)):
        raise ValueError(f"refusing {type(v).__name__} {v!r}; use a rational string")
    return Fraction(v)


def format_unipoly(f: UniPoly) -> str:
    return str(f)


def parse_unipoly(text: str) -> UniPoly:
    parts = [p.strip() for p in text.strip().split(",")]
    if not parts or any(not p for p in parts):
        raise ValueError("malformed polynomial text")
    return UniPoly([Fraction(p) for p in parts])


def unipoly_to_json(f: UniPoly) -> dict:
    return {"coeffs": [str(c) for c in f.coeffs] or ["0"]}


def unipoly_from_json(data: dict) -> UniPoly:
    return UniPoly([_parse_frac(c) for c in data["coeffs"]])


def decomposition_to_json(d: Decomposition) -> dict:
    return {
        "terms": [
            {
                "coeff": str(t.coeff),
                "node": str(t.node),
                "exponent": t.exponent,
            }
            for t in d.terms
        ]
    }


def decomposition_from_json(data: dict) -> Decomposition:
    return Decomposition.of(
        (_parse_frac(t["coeff"]), _parse_frac(t["node"]), _parse_int(t["exponent"]))
        for t in data["terms"]
    )


def sde_to_json(s: SDE) -> dict:
    return {
        "order": s.order,
        "shift": s.shift,
        "polys": [[str(c) for c in p.coeffs] for p in s.polys],
    }


def sde_from_json(data: dict) -> SDE:
    return SDE(
        _parse_int(data["order"]),
        _parse_int(data["shift"]),
        tuple(UniPoly([_parse_frac(c) for c in p]) for p in data["polys"]),
    )


def multipoly_to_json(p: MultiPoly) -> dict:
    terms = sorted(p.terms.items())
    return {
        "n": p.n,
        "terms": [
            {"exps": list(exps), "coeff": str(c)} for exps, c in terms
        ],
    }


def multipoly_from_json(data: dict) -> MultiPoly:
    n = _parse_int(data["n"])
    terms: dict[tuple[int, ...], Fraction] = {}
    for t in data["terms"]:
        exps = tuple(_parse_int(e) for e in t["exps"])
        if len(exps) != n:
            raise ValueError("term arity does not match n")
        terms[exps] = terms.get(exps, 0) + _parse_frac(t["coeff"])
    return MultiPoly(n, terms)


def multidec_to_json(md: MultiDecomposition) -> dict:
    return {
        "n": md.n,
        "terms": [
            {
                "coeff": str(t.coeff),
                "constant": str(t.form.constant),
                "coefficients": [str(c) for c in t.form.coefficients],
                "exponent": t.exponent,
            }
            for t in md.terms
        ],
    }


def multidec_from_json(data: dict) -> MultiDecomposition:
    n = _parse_int(data["n"])
    return MultiDecomposition.of(
        n,
        (
            (
                _parse_frac(t["coeff"]),
                LinearForm(
                    _parse_frac(t["constant"]),
                    tuple(_parse_frac(c) for c in t["coefficients"]),
                ),
                _parse_int(t["exponent"]),
            )
            for t in data["terms"]
        ),
    )
