"""Sparse multivariate polynomials and affine linear forms.

Terms are kept in a dict mapping exponent tuples (one entry per variable) to
nonzero Fraction coefficients.  Instances are treated as immutable once
constructed; operations always build new objects.  The rule carries weight:
the first evaluate() caches an integer form of the terms, and a later change
to `terms` would not reach it.

The form is a Horner scheme nested by the exponent of x_1, then x_2, and so
on: each outer level lists (gap to the next lower exponent, inner table), and
the innermost is one dense row of integer numerators c*den in x_n (den the
lcm of the coefficient denominators).  The powers of N_j are built only as
far as the scheme reads them, the largest gap at level j or the largest row
low for x_n: [1, N_j] for a dense box.  At an integer point (D = 1) a row
entry costs one multiply and one add, and the level above the rows runs
each row's loop inline, so calls recurse only above that level (n >= 3).
Other points N_1/D, ..., N_n/D take the D path: one call per row and two
multiplies per row entry, with the powers of D that homogenise the sum
entering only at the row entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch
from .unipoly import _clear_denominators, _frac, _parse_int, _powers


def _nest(items, rest: int, reads: list[int]):
    """Horner table of (exponent tuple, integer) pairs that share their
    leading exponents, sorted by decreasing exponents; rest is the total
    degree less the shared exponents.  reads[j] is raised to the largest
    power of x_j that the table reads: a gap, or for x_n a row low.

    With one variable left the table is a dense row (numerators from the top
    exponent down to the lowest, 0 in the gaps, the D exponent rest - top of
    the top entry, the lowest exponent).  Otherwise it is a tuple of
    (gap to the next lower leading exponent, or to 0 for the last, table of
    the terms with that leading exponent), highest leading exponent first.
    """
    if len(items[0][0]) == 1:
        top, low = items[0][0][0], items[-1][0][0]
        row = [0] * (top - low + 1)
        for (e,), c in items:
            row[top - e] = c
        reads[-1] = max(reads[-1], low)
        return tuple(row), rest - top, low
    groups = [
        (e, [(exps[1:], c) for exps, c in run])
        for e, run in itertools.groupby(items, key=lambda item: item[0][0])
    ]
    gaps = [e - below for (e, _), below in zip(groups, [below for below, _ in groups[1:]] + [0])]
    j = len(reads) - len(items[0][0])
    reads[j] = max(reads[j], *gaps)
    return tuple((gap, _nest(sub, rest - e, reads)) for gap, (e, sub) in zip(gaps, groups))


def _horner(table, tables: list[list[int]], x: int, d_pow: list[int] | None) -> int:
    """Value of a _nest table: tables[j] the powers of the j-th remaining
    variable's numerator, x the last one, d_pow the powers of D, or None
    for an integer point (D = 1), where the level above the rows runs them
    inline."""
    pw = tables[0]
    acc = 0
    if len(tables) == 1:
        row, r, low = table
        if d_pow is None:
            for c in row:
                acc = acc * x + c
        else:
            for c, dk in zip(row, d_pow[r:]):
                acc = acc * x + c * dk
        return acc * pw[low]
    if len(tables) == 2 and d_pow is None:
        lows = tables[1]
        for gap, (row, _, low) in table:
            v = 0
            for c in row:
                v = v * x + c
            acc = (acc + v * lows[low]) * pw[gap]
        return acc
    inner = tables[1:]
    for gap, sub in table:
        acc = (acc + _horner(sub, inner, x, d_pow)) * pw[gap]
    return acc


class MultiPoly:
    __slots__ = ("n", "terms", "_int_form")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], object] | None = None):
        n = _parse_int(n)
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
        k = _parse_int(k)
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
        f(point) = sum (c*den) * prod N_j^e_j * D^(deg-|e|) / (den * D^deg),
        by the Horner scheme of the module docstring over the table that
        _integer_form builds on the first call and keeps on the instance.
        At an integer point each row runs acc*N_n + c, inline in the level
        above it when n >= 2; otherwise the D path runs
        acc*N_n + (c*den)*D^(deg-|e|), one call per row.
        """
        if len(point) != self.n:
            raise DimensionMismatch("point length != variable count")
        if self._int_form is None:
            self._int_form = self._integer_form()
        den, deg, reads, table = self._int_form
        nums, d = _clear_denominators(list(map(_frac, point)))
        if table is None:
            return Fraction(0)
        tables = [_powers(x, top) for x, top in zip(nums, reads)]
        d_pow = None if d == 1 else _powers(d, deg)
        return Fraction(_horner(table, tables, nums[-1], d_pow), den * d**deg)

    def _integer_form(self):
        """(den, deg, largest power read per variable, nested table), with
        den the lcm of the coefficient denominators and the table None for
        the zero polynomial.  See _nest for the table."""
        nums, den = _clear_denominators(list(self.terms.values()))
        scaled = sorted(zip(self.terms, nums), reverse=True)
        reads = [0] * self.n
        deg = self.total_degree()
        return den, deg, reads, _nest(scaled, deg, reads) if scaled else None

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
