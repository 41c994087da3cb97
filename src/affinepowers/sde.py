"""Shifted differential equations for exact polynomials.

An equation of order k and shift l is sum_{i=0..k} P_i(x) * g^(i)(x) = 0
with deg(P_i) <= i + l and not every P_i zero.  A polynomial f satisfies such
an equation exactly when the polynomials x^j * f^(i) (0 <= i <= k,
0 <= j <= i + l) are linearly dependent, so existence reduces to a kernel
computation on an integer matrix.  The solution space of a fixed equation
restricted to polynomials has dimension at most k.

The minimal-order search makes one modular pass.  The order-k matrix is the
order-(k-1) matrix with columns appended, so its columns are eliminated one
at a time modulo a prime until the first one, fc, that depends on those
before it.  The earlier columns are then independent over Q as well; the
dependency ending at fc is lifted p-adically (Dixon), rationally
reconstructed and checked exactly against the integer matrix, which proves
fc is the first free column and the vector is the one a Bareiss kernel
returns there.  An unlucky prime (fc independent over Q) falls back to the
per-order Bareiss kernels, which remain the reference path.

Solutions at a node c are found, and returned, in the node's basis
y = x - c.  There the equation maps y^m to sum_i m!/(m-i)! * y^(m-i) *
P_i(y + c), whose y^(m-order+j) entry is sum_i m!/(m-i)! * w_j[i] for the
rows w_j (j = 0..order+shift) of one node table per equation: w_j[i] is the
y^(i-order+j) part of P_i(y + c), a polynomial in c.  At a node the table
gives windows of order+shift+1 coefficients, so a solution R(x) * (x - c)^e
costs a kernel of order+shift+deg(R)+1 rows instead of one row per degree
of x.  With c symbolic, the entries at one exponent are the conditions whose
common roots are the nodes of the pure-power solutions (x - c)^e.  For
e >= order the lowest is e!/(e-order)! * P_order(c), so every such node is a
root of P_order: when those roots are all rational, the table is evaluated
at each and tested once per exponent instead.  Every pair found either way
is checked once more with apply_sde.

All searches are deterministic and the returned equation is scaled to
primitive integer coefficients with positive first nonzero coefficient.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import linalg, ratroots
from .errors import IrrationalNodeDetected, ZeroPolynomial
from .unipoly import ONE, ZERO, UniPoly, _clear_denominators

@dataclass(frozen=True)
class SDE:
    """A shifted differential equation in canonical form."""

    order: int
    shift: int
    polys: tuple[UniPoly, ...]

    def __post_init__(self):
        if self.order < 0 or self.shift < 0:
            raise ValueError("order and shift must be nonnegative")
        if len(self.polys) != self.order + 1:
            raise ValueError("need order + 1 coefficient polynomials")
        if all(p.is_zero() for p in self.polys):
            raise ValueError("all coefficient polynomials are zero")
        for i, p in enumerate(self.polys):
            if p.degree > i + self.shift:
                raise ValueError(f"deg(P_{i}) exceeds {i} + shift")

    def int_polys(self) -> list[list[int]]:
        """Coefficient polynomials as integer lists, all scaled by the
        least common denominator of their coefficients (1 for a canonical
        equation)."""
        scaled = iter(_clear_denominators([c for p in self.polys for c in p.coeffs]))
        return [[next(scaled) for _ in p.coeffs] for p in self.polys]


def canonical_sde(order: int, shift: int, polys: Sequence[UniPoly]) -> SDE:
    """Build an SDE from arbitrary rational coefficient polynomials by
    applying the global canonical scaling."""
    scaled = iter(linalg._canonical_int_vector([c for p in polys for c in p.coeffs]))
    return SDE(order, shift, tuple(UniPoly([next(scaled) for _ in p.coeffs]) for p in polys))


def apply_sde(s: SDE, f: UniPoly) -> UniPoly:
    """sum P_i * f^(i); the zero polynomial iff f satisfies the equation.

    Summed in integers: with f = F/d and P_i = p_i/l over common
    denominators (p_i from int_polys), the image is sum_i p_i * F^(i) / (l*d)."""
    d = math.lcm(*(c.denominator for c in f.coeffs))
    l = math.lcm(*(c.denominator for p in s.polys for c in p.coeffs))
    df = _clear_denominators(f.coeffs)
    total = [0] * (len(df) + s.shift)
    for i, p in enumerate(s.int_polys()):
        if i:
            df = [k * df[k] for k in range(1, len(df))]
        for j, c in enumerate(p):
            if c:
                for k, v in enumerate(df, j):
                    total[k] += c * v
    if not any(total):
        return ZERO
    return UniPoly([Fraction(t, l * d) for t in total])


def wronskian(fs: Sequence[UniPoly]) -> UniPoly:
    """Determinant of the matrix whose (i, j) entry is fs[j]^(i)."""
    n = len(fs)
    if n == 0:
        raise ValueError("need at least one polynomial")
    rows = []
    current = list(fs)
    for i in range(n):
        if i:
            current = [f.derivative() for f in current]
        rows.append(tuple(current))

    @lru_cache(maxsize=None)
    def minor(r: int, cols: tuple[int, ...]) -> UniPoly:
        if not cols:
            return ONE
        total = ZERO
        for idx, c in enumerate(cols):
            entry = rows[r][c]
            if entry.is_zero():
                continue
            term = entry * minor(r + 1, cols[:idx] + cols[idx + 1 :])
            total = total + term if idx % 2 == 0 else total - term
        return total

    return minor(0, tuple(range(n)))


# -- minimal-order search -------------------------------------------------


def _column(d: list[int], j: int, n_rows: int) -> list[int]:
    """Coefficients of x^j * d, padded to n_rows."""
    col = [0] * n_rows
    col[j : j + len(d)] = d
    return col


def _dependency_matrix(derivs: list[list[int]], k: int, shift: int, n_rows: int) -> list[list[int]]:
    """Rows indexed by x-degree, columns by (i, j) with j <= i + shift,
    holding the coefficients of x^j * f^(i)."""
    cols = [_column(derivs[i], j, n_rows) for i in range(k + 1) for j in range(i + shift + 1)]
    return [[col[r] for col in cols] for r in range(n_rows)]


class _ModularProfile:
    """Column-by-column elimination modulo p.

    Column c is written as sum_{t<=c} upper[c][t] * reduced[t], where
    reduced[t] is 1 at its pivot row, 0 at the pivot rows chosen before it
    and upper[c][c] is nonzero (its inverse, which normalized reduced[c],
    is kept in inverses[c]).  On the pivot rows this is an LU factorization
    of the columns added so far, which solver() reuses.  The reduced
    columns are stored by row: by_row[r][t] = reduced[t][r].
    """

    def __init__(self, p: int, n_rows: int):
        self.p = p
        self.pivot_rows: list[int] = []
        self.lower: list[list[int]] = []  # lower[t][s] = reduced[s][pivot_rows[t]], s < t
        self.upper: list[list[int]] = []
        self.inverses: list[int] = []
        self.by_row: list[list[int]] = [[] for _ in range(n_rows)]

    def _coords(self, y: Sequence[int]) -> list[int]:
        """Forward substitution: coordinates on the reduced columns of a
        vector whose entries on the pivot rows are y, in pivot order."""
        p = self.p
        z: list[int] = []
        for yt, low in zip(y, self.lower):
            z.append((yt - sum(map(operator.mul, low, z))) % p)
        return z

    def add(self, col: Sequence[int]) -> bool:
        """Append a column; False (and nothing stored) when it is dependent
        on the columns before it modulo p."""
        p = self.p
        coords = self._coords([col[r] for r in self.pivot_rows])
        res = [(x - sum(map(operator.mul, row, coords))) % p for x, row in zip(col, self.by_row)]
        piv = next((r for r, x in enumerate(res) if x), None)
        if piv is None:
            return False
        inv = pow(res[piv], -1, p)
        coords.append(res[piv])
        self.upper.append(coords)
        self.inverses.append(inv)
        self.lower.append(list(self.by_row[piv]))
        self.pivot_rows.append(piv)
        for row, x in zip(self.by_row, res):
            row.append(x * inv % p)
        return True

    def solver(self):
        """y -> B^-1 y mod p, for B the added columns restricted to the
        pivot rows (rows and y in pivot order)."""
        p = self.p
        m = len(self.pivot_rows)
        upper = [[self.upper[c2][c] for c2 in range(c + 1, m)] for c in range(m)]
        inv = self.inverses

        def solve(y: Sequence[int]) -> list[int]:
            z = self._coords(y)
            x = [0] * m
            for c in range(m - 1, -1, -1):
                x[c] = (z[c] - sum(map(operator.mul, upper[c], x[c + 1 :]))) * inv[c] % p
            return x

        return solve


def _reconstruct_vector(xs: Sequence[int], modulus: int) -> list[int] | None:
    """Integers proportional to the rationals congruent to xs, one common
    denominator carried along so later entries reconstruct cheaply."""
    bound = math.isqrt(modulus // 2)
    den = 1
    parts: list[tuple[int, int]] = []
    for x in xs:
        q = ratroots._rational_reconstruct(x * den % modulus, modulus, bound, bound // den)
        if q is None:
            return None
        den *= q.denominator
        parts.append((q.numerator, den))
    return [n * (den // d) for n, d in parts] + [den]


def _lift_dependency(profile: _ModularProfile, cols: list[list[int]]) -> list[int] | None:
    """Integer v with sum_c v[c] * cols[c] = 0 and v[-1] > 0, found by
    Dixon's p-adic lifting of the square system on the pivot rows of
    profile (whose columns are cols[:-1]) and checked exactly on all rows.

    Candidates are reconstructed at doubling step counts.  Once the modulus
    exceeds 2 H^2, H the Hadamard bound of the system, reconstruction has
    found its unique solution; if that fails the check, no such v exists
    and the result is None.
    """
    p = profile.p
    rows = profile.pivot_rows
    m = len(rows)
    bmat = [[cols[c][r] for c in range(m)] for r in rows]
    res = [-cols[m][r] for r in rows]
    h2 = 1
    for c in range(m + 1):
        h2 *= max(1, sum(cols[c][r] ** 2 for r in rows))
    solve = profile.solver()
    acc = [0] * m
    modulus, steps, attempt = 1, 0, 1
    while True:
        x = solve(res)
        acc = [a + modulus * xi for a, xi in zip(acc, x)]
        res = [(r - sum(map(operator.mul, row, x))) // p for r, row in zip(res, bmat)]
        modulus *= p
        steps += 1
        if steps < attempt:
            continue
        attempt *= 2
        vec = _reconstruct_vector(acc, modulus)
        if vec is not None and _annihilates(vec, cols):
            return vec
        if modulus > 2 * h2:
            return None


def _annihilates(vec: Sequence[int], cols: list[list[int]]) -> bool:
    return not any(
        sum(v * col[r] for v, col in zip(vec, cols) if v) for r in range(len(cols[0]))
    )


def _bareiss_search(derivs: list[list[int]], shift: int, n_rows: int, k_start: int, max_order: int) -> SDE | None:
    """Reference search: the canonical first kernel vector of the
    dependency matrix at the first order from k_start that has one."""
    for k in range(k_start, max_order + 1):
        basis = linalg.kernel(linalg.IntMatrix.from_rows(_dependency_matrix(derivs, k, shift, n_rows)))
        if basis:
            return _split_sde(basis[0], k, shift)
    return None


def _split_sde(vec: Sequence, order: int, shift: int) -> SDE:
    """SDE from its coefficients in (i, j) column order; entries missing
    at the end are zeros."""
    polys = []
    pos = 0
    for i in range(order + 1):
        width = i + shift + 1
        polys.append(UniPoly(vec[pos : pos + width]))
        pos += width
    return SDE(order=order, shift=shift, polys=tuple(polys))


def find_min_sde(f: UniPoly, shift: int, max_order: int | None = None) -> SDE | None:
    """Smallest-order equation of the given shift satisfied by f, or None
    when no order up to max_order works (default max_order: deg(f) + 1,
    which always succeeds).

    The returned equation is the canonical kernel vector of the dependency
    matrix at the minimal order: the one supported on the columns up to
    its first dependent column, scaled to primitive integers with positive
    first nonzero coefficient.
    """
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial satisfies every equation")
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    if max_order is None:
        max_order = f.degree + 1
    if max_order < 1:
        return None

    derivs = [ratroots.to_primitive_int(f)]
    for _ in range(max_order):
        derivs.append(ratroots._deriv(derivs[-1]))
    n_rows = f.degree + shift + 1

    # The order-k matrix is the order-(k-1) one with columns appended, so
    # one pass over the columns finds the first dependent one, fc.
    profile = _ModularProfile(ratroots._PRIME, n_rows)
    cols: list[list[int]] = []
    for k, j in ((k, j) for k in range(max_order + 1) for j in range(k + shift + 1)):
        cols.append(_column(derivs[k], j, n_rows))
        if not profile.add(cols[-1]):
            break
    else:
        return None  # independent mod p up to max_order, hence over Q

    # The columns before fc are independent over Q; an exact dependency
    # ending at fc proves fc is the first free column of the order-k matrix.
    vec = _lift_dependency(profile, cols)
    if vec is None:  # fc is independent over Q: p was unlucky
        return _bareiss_search(derivs, shift, n_rows, k, max_order)
    # columns past fc carry zeros, which _split_sde leaves implicit
    return _split_sde(linalg._canonical_int_vector(vec), k, shift)


# -- power solutions ------------------------------------------------------


def _node_table(s: SDE) -> list[list[list[int]]]:
    """L((x - b)^m) in the basis y = x - b, for every m: rows w_j
    (j = 0..order+shift) with w_j[i] the coefficients in b of the
    y^(i-order+j) part of P_i(y + b), [] where there is none.  The
    y^(m-order+j) entry of the image is sum_i perm(m, i) * w_j[i], below the
    order too (perm(m, i) = 0 for i > m)."""
    table = [[[] for _ in range(s.order + 1)] for _ in range(s.order + s.shift + 1)]
    for i, cs in enumerate(s.int_polys()):
        for t in range(len(cs)):
            table[s.order - i + t][i] = [cs[u] * math.comb(u, t) for u in range(t, len(cs))]
    return table


def _at_node(table: list[list[list[int]]], node: Fraction) -> list[list[int]]:
    """The table evaluated at b = node = a/d, all entries scaled by the same
    factor d^D (D the largest degree of a P_i) so they are integers."""
    a, d = node.numerator, node.denominator
    top = max(len(w) for row in table for w in row) - 1
    weights = [a**j * d ** (top - j) for j in range(top + 1)]
    return [[sum(map(operator.mul, w, weights)) for w in row] for row in table]


def _power_solutions_at(table: list[list[list[int]]], e: int) -> list[tuple[Fraction, int]]:
    # the nodes b of solutions (x - b)^e: common roots of the image's entries
    falls = [math.perm(e, i) for i in range(min(len(table[0]) - 1, e) + 1)]
    conditions = []
    for row in table:
        cs = [0] * max(map(len, row))
        for fall, w in zip(falls, row):
            for k, c in enumerate(w):
                cs[k] += fall * c
        if ratroots._strip(cs):
            conditions.append(cs)
    if not conditions:
        raise ValueError(
            f"every node solves the equation at exponent {e}; "
            "the requested range is below the meaningful threshold"
        )
    g = conditions[0]
    for nxt in conditions[1:]:
        if len(g) == 1:
            break
        g = ratroots.poly_gcd_int(g, nxt)
    if len(g) == 1:
        return []
    roots, cofactor_deg = ratroots.rational_roots_with_cofactor(UniPoly(g))
    if cofactor_deg > 0:
        raise IrrationalNodeDetected(
            f"nodes at exponent {e} satisfy an irreducible condition of "
            f"degree {cofactor_deg} with no rational root"
        )
    return [(b, e) for b in sorted(roots)]


def power_solutions(s: SDE, e_min: int, e_max: int) -> list[tuple[Fraction, int]]:
    """All pairs (b, e) with e_min <= e <= e_max such that (x - b)^e with
    rational b satisfies the equation, sorted by (e, b).

    Raises IrrationalNodeDetected when some admissible node is provably
    irrational, i.e. the node condition has a nonconstant factor without
    rational roots.

    Both paths read the node table.  For e >= order every node is a root
    of P_order.  When P_order is nonzero and all its roots are rational,
    the table is evaluated once at each root, which is kept at the
    exponents where every row's sum_i perm(e, i) * w_j[i] is zero.
    Exponents below the order, and every exponent when P_order is zero or
    has a factor without rational roots, take the per-exponent gcd of
    those sums with b left symbolic.  Either way each returned pair is
    certified once with apply_sde.
    """
    if e_min < 1:
        raise ValueError("e_min must be at least 1")
    if e_min > e_max:
        return []
    table = _node_table(s)
    fast_from, candidates = e_max + 1, []
    if e_max >= max(e_min, s.order) and not s.polys[-1].is_zero():
        roots, cofactor_deg = ratroots.rational_roots_with_cofactor(s.polys[-1])
        if not cofactor_deg:
            fast_from = max(e_min, s.order)
            candidates = [(b, [w for w in _at_node(table, b) if any(w)]) for b in sorted(roots)]
    out: list[tuple[Fraction, int]] = []
    for e in range(e_min, fast_from):
        out.extend(_power_solutions_at(table, e))
    for e in range(fast_from, e_max + 1):
        falls = [math.perm(e, i) for i in range(s.order + 1)]
        for b, rows in candidates:
            if not any(sum(map(operator.mul, falls, row)) for row in rows):
                out.append((b, e))
    for b, e in out:
        if not apply_sde(s, UniPoly.affine_power(1, b, e)).is_zero():
            raise RuntimeError("power solution failed verification")
    out.sort(key=lambda be: (be[1], be[0]))
    return out


# -- solutions of the form R(x) * (x - c)^e -------------------------------


def _keep_if_independent(
    vec: dict[int, Fraction], registry: dict[int, dict[int, Fraction]]
) -> bool:
    """Reduce the sparse vector vec against registry (rows keyed by their
    lowest index, normalized to 1 there); store it and return True when it
    is not in their span."""
    while vec:
        m = min(vec)
        row = registry.get(m)
        if row is None:
            inv = 1 / vec[m]
            registry[m] = {k: v * inv for k, v in vec.items()}
            return True
        factor = vec[m]
        for k, v in row.items():
            rest = vec.get(k, 0) - factor * v
            if rest:
                vec[k] = rest
            else:
                vec.pop(k, None)
    return False


def shifted_poly_solutions(
    s: SDE, node, delta: int, e_min: int, e_max: int
) -> list[dict[int, Fraction]]:
    """Basis of the solutions R(x) * (x - node)^e with deg(R) <= delta and
    e_min <= e <= e_max, each given in the node's basis as
    {k: coefficient of (x - node)^k}, zeros left out.

    The search runs in the basis y = x - node, where the node table gives
    the image of y^m, a window on the exponents m-order..m+shift.  The
    candidates at exponent e are the kernel of the window matrix with one
    column per y^(e+t), t <= delta, and order+shift+delta+1 rows; each
    solution is such a kernel vector, in primitive integer form with
    positive first nonzero entry.  The change of basis is invertible, so
    kernels and independence, hence which candidates are kept, are those of
    the same computation on dense expansions in x.

    The basis order is deterministic: candidates are scanned by increasing
    exponent and kept when independent of everything kept so far.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if e_min < 1:
        raise ValueError("e_min must be at least 1")
    if e_min > e_max:
        return []
    rows = _at_node(_node_table(s), Fraction(node))
    # windows[m - e_min][j]: the y^(m-order+j) entry of L((x - node)^m)
    windows = []
    for m in range(e_min, e_max + delta + 1):
        falls = [math.perm(m, i) for i in range(s.order + 1)]
        windows.append([sum(map(operator.mul, falls, row)) for row in rows])
    kept: list[dict[int, Fraction]] = []
    registry: dict[int, dict[int, Fraction]] = {}
    for e in range(e_min, e_max + 1):
        # column t on y^(e-order)..y^(e+delta+shift), negative powers dropped
        cols = [[0] * t + windows[e - e_min + t] + [0] * (delta - t) for t in range(delta + 1)]
        mat = list(zip(*cols))[max(s.order - e, 0) :]
        for vec in linalg.kernel(linalg.IntMatrix.from_rows(mat)):
            sol = {e + t: v for t, v in enumerate(vec) if v}
            if _keep_if_independent(dict(sol), registry):
                kept.append(sol)
    return kept
