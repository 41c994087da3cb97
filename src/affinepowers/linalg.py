"""Exact linear algebra on integer matrices.

kernel and solve take an IntMatrix; callers holding rationals clear each
row's denominators together with its right-hand-side entry
(unipoly._clear_denominators), which keeps null spaces and solution sets.
Both run one fraction-free (Bareiss) elimination, so intermediate entries
stay at determinant size, and divide only in the final substitution.
Pivoting is deterministic (first nonzero entry in column order).  Results
are checked in integers: A v = 0 for a kernel vector, A (D x) = D b for a
solution x with common denominator D.  The minimal-equation search in sde
works modulo a prime and calls kernel only as its fallback.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, Inconsistent
from .unipoly import _clear_denominators


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        data = tuple(map(tuple, rows))
        width = len(data[0]) if data else 0
        if any(len(r) != width for r in data):
            raise DimensionMismatch("ragged rows")
        if not all(type(v) is int for r in data for v in r):
            raise TypeError("IntMatrix entries must be int")
        return cls(len(data), width, data)


@dataclass(frozen=True)
class SolveResult:
    vector: tuple[Fraction, ...]
    unique: bool


def _bareiss(mat: list[list[int]], pivot_width: int) -> list[int]:
    """In-place fraction-free elimination; pivots only in the first
    pivot_width columns.  Returns the pivot column indices."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(pivot_width):
        pr = next((i for i in range(r, rows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r][c]
        for i in range(r + 1, rows):
            fi = mat[i][c]
            row_i, row_r = mat[i], mat[r]
            for j in range(c + 1, cols):
                row_i[j] = (piv * row_i[j] - fi * row_r[j]) // prev
            row_i[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def _canonical_int_vector(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale to primitive integers with positive first nonzero entry."""
    ints = _clear_denominators(vec)
    g = math.gcd(*ints)
    if g == 0:
        return tuple(Fraction(0) for _ in ints)
    first = next(v for v in ints if v)
    if first < 0:
        g = -g
    return tuple(Fraction(v // g) for v in ints)


def kernel(m: IntMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space, one vector per free column.

    Each vector is in primitive integer form with positive first nonzero
    entry; the basis order follows the free columns left to right.
    """
    mat = [list(r) for r in m.entries]
    pivots = _bareiss(mat, m.cols)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        x = [Fraction(0)] * m.cols
        x[fc] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            s = Fraction(0)
            for j in range(pc + 1, m.cols):
                if mat[i][j] and x[j]:
                    s += mat[i][j] * x[j]
            x[pc] = -s / mat[i][pc]
        basis.append(_canonical_int_vector(x))
    for vec in basis:
        ints = [v.numerator for v in vec]
        if any(sum(map(operator.mul, row, ints)) for row in m.entries):
            raise RuntimeError("kernel verification failed")
    return basis


def solve(m: IntMatrix, rhs: Sequence[int]) -> SolveResult:
    """Solve m @ x = rhs exactly for an integer rhs.

    Underdetermined systems get free variables set to zero and are flagged
    non-unique; inconsistent systems raise Inconsistent.  The result is
    verified by multiplication before being returned.
    """
    b = list(rhs)
    if len(b) != m.rows:
        raise DimensionMismatch("rhs length != row count")
    if not all(type(v) is int for v in b):
        raise TypeError("rhs entries must be int")
    if m.cols == 0:
        if any(b):
            raise Inconsistent("nonzero rhs with no unknowns")
        return SolveResult((), True)
    mat = [[*r, v] for r, v in zip(m.entries, b)]
    pivots = _bareiss(mat, m.cols)
    for i in range(len(pivots), m.rows):
        if mat[i][m.cols]:
            raise Inconsistent("no solution exists")
    x = [Fraction(0)] * m.cols
    for i in range(len(pivots) - 1, -1, -1):
        pc = pivots[i]
        s = Fraction(mat[i][m.cols])
        for j in range(pc + 1, m.cols):
            if mat[i][j] and x[j]:
                s -= mat[i][j] * x[j]
        x[pc] = s / mat[i][pc]
    # clearing x together with 1 gives D x and the common denominator D
    *dx, d = _clear_denominators([*x, 1])
    if any(sum(map(operator.mul, row, dx)) != d * v for row, v in zip(m.entries, b)):
        raise RuntimeError("solve verification failed")
    return SolveResult(tuple(x), unique=len(pivots) == m.cols)
