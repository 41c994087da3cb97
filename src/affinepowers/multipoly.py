"""Sparse multivariate polynomials and affine linear forms.

Terms are kept in a dict mapping exponent tuples (one entry per variable) to
nonzero Fraction coefficients.  Instances are treated as immutable once
constructed; operations always build new objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch
from .unipoly import _frac


class MultiPoly:
    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], object] | None = None):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != n or any(e < 0 for e in exps):
                raise DimensionMismatch(f"bad exponent tuple {exps!r} for {n} variables")
            c = _frac(c)
            if c:
                clean[exps] = clean.get(exps, Fraction(0)) + c
                if not clean[exps]:
                    del clean[exps]
        self.terms = clean

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
        """Exact value at a rational point."""
        if len(point) != self.n:
            raise DimensionMismatch("point length != variable count")
        pt = [_frac(v) for v in point]
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(pt, exps):
                if e:
                    v *= x**e
            total += v
        return total

    def __repr__(self) -> str:
        items = sorted(self.terms.items())
        return f"MultiPoly(n={self.n}, terms={dict(items)!r})"


@dataclass(frozen=True)
class LinearForm:
    """constant + sum(coefficients[j] * x_j)."""

    constant: Fraction
    coefficients: tuple[Fraction, ...]

    @classmethod
    def of(cls, constant, coefficients: Iterable) -> "LinearForm":
        return cls(_frac(constant), tuple(_frac(c) for c in coefficients))

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
