"""Exact linear algebra over the rationals.

Solving, kernels and ranks here all run through one fraction-free (Bareiss)
elimination on an integer matrix obtained by clearing denominators row by
row, which keeps intermediate entries to determinant size instead of letting
naive rational elimination blow up.  Division back to rationals happens only
in the final substitution step.  Pivoting is deterministic (first nonzero
entry in column order), so kernels and solutions are reproducible.  The
minimal-equation search in sde works modulo a prime instead and calls
kernel only as its fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, Inconsistent


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class QMatrix:
    """Immutable rational matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "QMatrix":
        data = tuple(tuple(_frac(v) for v in row) for row in rows)
        if not data:
            return cls(0, 0, ())
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise DimensionMismatch("ragged rows")
        return cls(len(data), width, data)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def mul_vec(self, vec: Sequence[Fraction]) -> list[Fraction]:
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length != column count")
        return [sum((r[j] * vec[j] for j in range(self.cols)), Fraction(0)) for r in self.entries]

    def transpose(self) -> "QMatrix":
        return QMatrix.from_rows(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )


@dataclass(frozen=True)
class SolveResult:
    vector: tuple[Fraction, ...]
    unique: bool


def _int_rows(m: QMatrix, extra: Sequence[Fraction] | None = None) -> list[list[int]]:
    """Clear denominators per row; appends the extra column when given.

    Row scaling preserves both the null space and solution sets.
    """
    out = []
    for i in range(m.rows):
        row = list(m.entries[i]) + ([extra[i]] if extra is not None else [])
        lcm = 1
        for v in row:
            lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
        out.append([int(v * lcm) for v in row])
    return out


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
    lcm = 1
    for v in vec:
        lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    ints = [int(v * lcm) for v in vec]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if g == 0:
        return tuple(Fraction(0) for _ in ints)
    first = next(v for v in ints if v)
    if first < 0:
        g = -g
    return tuple(Fraction(v // g) for v in ints)


def rank(m: QMatrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    mat = _int_rows(m)
    return len(_bareiss(mat, m.cols))


def kernel(m: QMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space, one vector per free column.

    Each vector is in primitive integer form with positive first nonzero
    entry; the basis order follows the free columns left to right.
    """
    if m.cols == 0:
        return []
    if m.rows == 0:
        basis = []
        for j in range(m.cols):
            v = [Fraction(0)] * m.cols
            v[j] = Fraction(1)
            basis.append(tuple(v))
        return basis
    mat = _int_rows(m)
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
        if any(m.mul_vec(list(vec))):
            raise RuntimeError("kernel verification failed")
    return basis


def solve(m: QMatrix, rhs: Sequence) -> SolveResult:
    """Solve m @ x = rhs exactly.

    Underdetermined systems get free variables set to zero and are flagged
    non-unique; inconsistent systems raise Inconsistent.  The result is
    verified by multiplication before being returned.
    """
    b = [_frac(v) for v in rhs]
    if len(b) != m.rows:
        raise DimensionMismatch("rhs length != row count")
    if m.cols == 0:
        if any(b):
            raise Inconsistent("nonzero rhs with no unknowns")
        return SolveResult((), True)
    mat = _int_rows(m, extra=b)
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
    if m.mul_vec(x) != b:
        raise RuntimeError("solve verification failed")
    return SolveResult(tuple(x), unique=len(pivots) == m.cols)
