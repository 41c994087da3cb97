"""Sparse multivariate polynomials and affine linear forms.

Terms are kept in a dict mapping exponent tuples (one entry per variable) to
nonzero Fraction coefficients.  Instances are treated as immutable once
constructed; operations always build new objects.  The rule carries weight:
the first evaluate() caches an integer form of the terms (coefficients over
their common denominator, the total degree, each variable's largest
exponent), and a later change to `terms` would not reach it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch
from .unipoly import _frac, _parse_int, _powers


class MultiPoly:
    __slots__ = ("n", "terms", "_int_form")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], object] | None = None):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(_parse_int(e) for e in exps)
            if len(exps) != n or any(e < 0 for e in exps):
                raise DimensionMismatch(f"bad exponent tuple {exps!r} for {n} variables")
            c = _frac(c)
            if c:
                clean[exps] = clean.get(exps, Fraction(0)) + c
                if not clean[exps]:
                    del clean[exps]
        self.terms = clean
        self._int_form = None  # built by the first evaluate()

    @classmethod
    def constant(cls, n: int, c) -> "MultiPoly":
        return cls(n, {tuple([0] * n): c})

    @classmethod
    def variable(cls, n: int, index: int) -> "MultiPoly":
        exps = [0] * n
        exps[index] = 1
        return cls(n, {tuple(exps): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree, -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.n != other.n:
            raise DimensionMismatch("variable counts differ")
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        return MultiPoly(self.n, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        if self.n != other.n:
            raise DimensionMismatch("variable counts differ")
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return MultiPoly(self.n, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "MultiPoly":
        s = _frac(scalar)
        if not s:
            return MultiPoly(self.n)
        return MultiPoly(self.n, {e: s * c for e, c in self.terms.items()})

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point, computed in integers.

        With den the lcm of the coefficient denominators, deg the total
        degree and the point written as N_j / D over its common denominator,
        f(point) = sum (c*den) * prod N_j^e_j * D^(deg-|e|) / (den * D^deg).
        The integer numerators c*den, den, deg and each variable's largest
        exponent are built on the first call and kept on the instance.
        """
        if len(point) != self.n:
            raise DimensionMismatch("point length != variable count")
        if self._int_form is None:
            self._int_form = self._integer_form()
        den, deg, tops, monomials = self._int_form
        pt = [_frac(v) for v in point]
        if not monomials:
            return Fraction(0)
        d = math.lcm(*(x.denominator for x in pt))
        tables = [
            _powers(x.numerator * (d // x.denominator), top)
            for x, top in zip(pt, tops)
        ]
        d_pow = _powers(d, deg)
        total = 0
        for c, exps, rest in monomials:
            v = c * d_pow[rest]
            for table, e in zip(tables, exps):
                if e:
                    v *= table[e]
            total += v
        return Fraction(total, den * d_pow[deg])

    def _integer_form(self):
        """(den, deg, largest exponent per variable, [(c*den, exps,
        deg - |exps|)]) with den the lcm of the coefficient denominators."""
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        deg = self.total_degree()
        tops = [max((e[j] for e in self.terms), default=0) for j in range(self.n)]
        monomials = [
            (c.numerator * (den // c.denominator), exps, deg - sum(exps))
            for exps, c in self.terms.items()
        ]
        return den, deg, tops, monomials

    def __repr__(self) -> str:
        items = sorted(self.terms.items())
        return f"MultiPoly(n={self.n}, terms={dict(items)!r})"


@dataclass(frozen=True)
class LinearForm:
    """constant + sum(coefficients[j] * x_j)."""

    constant: Fraction
    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "constant", _frac(self.constant))
        object.__setattr__(self, "coefficients", tuple(_frac(c) for c in self.coefficients))

    @classmethod
    def of(cls, constant, coefficients: Iterable) -> "LinearForm":
        return cls(constant, coefficients)

    @property
    def n(self) -> int:
        return len(self.coefficients)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.n:
            raise DimensionMismatch("point length != variable count")
        total = self.constant
        for c, x in zip(self.coefficients, point):
            if c:
                total += c * _frac(x)
        return total

    def is_constant(self) -> bool:
        return not any(self.coefficients)

    def to_multipoly(self) -> MultiPoly:
        terms: dict[tuple[int, ...], Fraction] = {}
        if self.constant:
            terms[tuple([0] * self.n)] = self.constant
        for j, c in enumerate(self.coefficients):
            if c:
                exps = [0] * self.n
                exps[j] = 1
                terms[tuple(exps)] = c
        return MultiPoly(self.n, terms)
