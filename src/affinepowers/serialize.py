"""Text and JSON round-trips for the library's value types.

Polynomial text form: comma-separated coefficients from the constant term
up, each a Fraction literal, e.g. "1,0,-3/2,1" for 1 - 3/2 x^2 + x^3.  JSON
forms keep every rational as a string so nothing is ever routed through
floats.  For each type, from_json(to_json(x)) == x; a missing or ill-typed
field raises ValueError naming it.
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
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {v!r}") from None


def _field(data, key: str, parse):
    """parse(data[key]), with a missing or ill-typed field reported as a
    ValueError that names it."""
    if not isinstance(data, dict):
        raise ValueError(f"expected an object with field {key!r}, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    try:
        return parse(data[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {key!r}: {exc}") from None


def _list_of(parse):
    """A parser for a JSON list whose items parse reads."""

    def read(items) -> list:
        if not isinstance(items, list):
            raise ValueError(f"expected a list, got {type(items).__name__}")
        return [parse(v) for v in items]

    return read


_fracs = _list_of(_parse_frac)


def format_unipoly(f: UniPoly) -> str:
    return str(f)


def parse_unipoly(text: str) -> UniPoly:
    parts = [p.strip() for p in text.strip().split(",")]
    if not parts or any(not p for p in parts):
        raise ValueError("malformed polynomial text")
    return UniPoly([_parse_frac(p) for p in parts])


def unipoly_to_json(f: UniPoly) -> dict:
    return {"coeffs": [str(c) for c in f.coeffs] or ["0"]}


def unipoly_from_json(data: dict) -> UniPoly:
    return UniPoly(_field(data, "coeffs", _fracs))


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


def _term(t: dict) -> tuple:
    return (
        _field(t, "coeff", _parse_frac),
        _field(t, "node", _parse_frac),
        _field(t, "exponent", _parse_int),
    )


def decomposition_from_json(data: dict) -> Decomposition:
    return Decomposition.of(_field(data, "terms", _list_of(_term)))


def sde_to_json(s: SDE) -> dict:
    return {
        "order": s.order,
        "shift": s.shift,
        "polys": [[str(c) for c in p.coeffs] for p in s.polys],
    }


def sde_from_json(data: dict) -> SDE:
    return SDE(
        _field(data, "order", _parse_int),
        _field(data, "shift", _parse_int),
        tuple(map(UniPoly, _field(data, "polys", _list_of(_fracs)))),
    )


def multipoly_to_json(p: MultiPoly) -> dict:
    terms = sorted(p.terms.items())
    return {
        "n": p.n,
        "terms": [
            {"exps": list(exps), "coeff": str(c)} for exps, c in terms
        ],
    }


def _monomial(t: dict) -> tuple:
    return tuple(_field(t, "exps", _list_of(_parse_int))), _field(t, "coeff", _parse_frac)


def multipoly_from_json(data: dict) -> MultiPoly:
    n = _field(data, "n", _parse_int)
    terms: dict[tuple[int, ...], Fraction] = {}
    for exps, c in _field(data, "terms", _list_of(_monomial)):
        if len(exps) != n:
            raise ValueError("term arity does not match n")
        terms[exps] = terms.get(exps, 0) + c
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


def _form_term(t: dict) -> tuple:
    return (
        _field(t, "coeff", _parse_frac),
        LinearForm(_field(t, "constant", _parse_frac), _field(t, "coefficients", _fracs)),
        _field(t, "exponent", _parse_int),
    )


def multidec_from_json(data: dict) -> MultiDecomposition:
    n = _field(data, "n", _parse_int)
    return MultiDecomposition.of(n, _field(data, "terms", _list_of(_form_term)))
