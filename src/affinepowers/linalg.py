"""Exact linear algebra on integer matrices.

_bareiss is the one elimination: fraction-free, so intermediate entries stay
at determinant size, with deterministic pivoting (first nonzero entry in
column order), so a column is a pivot exactly when it is independent of the
columns before it.  kernel reads the free columns, dividing only in the
final substitution, and checks every basis vector A v = 0 in integers;
solve reads the kernel of [m | -rhs]; sde.shifted_poly_solutions keeps the
pivot columns of its candidate solutions.  The minimal-equation search in
sde works modulo a prime, retrying an unlucky one with the next prime, and
does not call kernel.
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


def _bareiss(mat: list[list[int]]) -> list[int]:
    """In-place fraction-free elimination; returns the pivot columns."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(cols):
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
    pivots = _bareiss(mat)
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

    The system is consistent exactly when the last column of [m | -rhs] is
    free; its kernel vector, divided by its last entry, is the solution
    with the other free variables set to zero, flagged non-unique when
    there are any.  Inconsistent systems raise Inconsistent.
    """
    b = list(rhs)
    if len(b) != m.rows:
        raise DimensionMismatch("rhs length != row count")
    if not all(type(v) is int for v in b):
        raise TypeError("rhs entries must be int")
    aug = tuple((*r, -v) for r, v in zip(m.entries, b))
    basis = kernel(IntMatrix(m.rows, m.cols + 1, aug))
    if not basis or not basis[-1][-1]:
        raise Inconsistent("nonzero rhs with no unknowns" if m.cols == 0 else "no solution exists")
    *x, d = basis[-1]
    return SolveResult(tuple(v / d for v in x), unique=len(basis) == 1)
