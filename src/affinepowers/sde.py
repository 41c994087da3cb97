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
before it.  The elimination keeps reduced entries only on its pivot rows and
on one witness row, the lowest row that is not a pivot: a column costs a
forward substitution on the pivot rows and one residual entry, and a witness
that becomes a pivot the entries of the next one, however many rows of
x-degree there are.  A nonzero witness entry proves the column independent;
where it is zero, the residual is formed on every row (the all-row check),
and only a residual zero on every row makes the column dependent.  So fc is
the first dependent column of the full matrix, and the dependency ending at
fc, unique mod p up to a unit, does not depend on which rows are pivots.
The earlier columns are then independent over Q as well; the dependency is
lifted p-adically (Dixon) on the pivot rows, where the square system has
that one solution, rationally reconstructed and checked exactly against the
integer matrix, which proves fc is the first free column and the vector is
the one a Bareiss kernel returns there.  An unlucky prime (fc independent
over Q, so the lift fails) is followed by a new pass with the next prime,
reusing the integer columns already built.  A dependency over Q reduces to
one mod p, so no pass stops past the true first dependent column; one stops
before it only at a prime dividing every maximal minor of columns that are
independent over Q, and there are finitely many such primes.

The dispatcher holds the equation unlifted (PendingSDE) and refuses modulo
p where it can, with the prime of the modular pass that found it:
  (a) forced: the first n_rows columns are independent mod p, so fc =
      n_rows + 1.  They are then independent over Q and fc depends on them
      by counting, so the kernel mod p is the lifted vector reduced, up to
      a unit; its entry at fc, a divisor of the unit det B, is a unit.  So
      P_order has the same degree mod p as over Q and every rational root
      of P_order reduces to a root mod p.
  (b), (c) nodes: N(t), the norm below built from P_order mod p and its
      neighbour P_(order-1), is nonzero mod p at every t = e-order+1 of a
      run, so no node of the run is irrational.
  (d) roots: P_order of degree 0 has no root; one of degree >= 2 has no
      rational root if it has none mod p (Euler's criterion on the
      discriminant at degree 2, gcd(P_order, x^p - x) above).
A forced equation whose lead passes (d) has no power solution in a run that
passes (c), and its width search finds no node, all without a lift.  Every
other equation, and every run where N vanishes or is not built (deg P_order
>= p), takes the exact path: it is lifted and searched as below.

Solutions at a node c are found, and returned, in the node's basis
y = x - c.  There the equation maps y^m to sum_i m!/(m-i)! * y^(m-i) *
P_i(y + c), whose y^(m-order+j) entry is sum_i m!/(m-i)! * w_j[i] for the
rows w_j (j = 0..order+shift) of one node table per equation: w_j[i] is the
y^(i-order+j) part of P_i(y + c), a polynomial in c.  At a node the table
gives windows of order+shift+1 coefficients, so a solution R(x) * (x - c)^e
costs a kernel of order+shift+deg(R)+1 rows instead of one row per degree
of x.  The lowest nonzero row at c, combined with the falling factorials,
is c's indicial polynomial I(m): a solution at c has an exponent within
deg(R) below an integer root of I, and both shifted_poly_solutions and
power_solutions read those roots off I by one sweep (_integer_roots)
instead of testing each exponent.  The nodes of pure powers (x - c)^e are
the rational roots of the lead P_k, k the largest i <= min(e, order) with
P_i nonzero; the part h of P_k without rational roots is reduced by gcd
against the rows with c symbolic, behind a screen modulo a prime: the next
row is coprime to h wherever the norm N(t) = det(multiplication by
t * P_k' + P_{k-1} modulo h) is nonzero at t = e-k+1.  A nonconstant gcd
proves an irrational node.  Every pair found is checked once more with
apply_sde.

All searches are deterministic and the returned equation is scaled to
primitive integer coefficients with positive first nonzero coefficient.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from . import linalg, ratroots
from .errors import IrrationalNodeDetected, ZeroPolynomial
from .unipoly import ONE, ZERO, UniPoly, _clear_denominators, _parse_int, _powers

@dataclass(frozen=True)
class SDE:
    """A shifted differential equation in canonical form."""

    order: int
    shift: int
    polys: tuple[UniPoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", _parse_int(self.order))
        object.__setattr__(self, "shift", _parse_int(self.shift))
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

    def _lead_roots(self, k: int) -> tuple[dict[Fraction, int], int]:
        """ratroots.rational_roots_with_cofactor(P_k), computed once per
        equation and k: power_solutions and the width-0 search of
        decompose_small_intervals share it."""
        splits = self.__dict__.setdefault("_lead_roots_memo", {})
        if k not in splits:
            splits[k] = ratroots.rational_roots_with_cofactor(self.polys[k])
        return splits[k]


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
    """Column-by-column elimination modulo p, on the pivot rows and one
    witness row.

    Column c is written as sum_{t<=c} upper[c][t] * reduced[t], where
    reduced[t] is 1 at its pivot row, 0 at the pivot rows chosen before it
    and upper[c][c] is nonzero (its inverse, which normalized reduced[c],
    is kept in inverses[c]).  On the pivot rows this is an LU factorization
    of the columns added so far, which solver() reuses.

    Reduced entries are kept only on the pivot rows (lower) and on the
    witness, the lowest row that is not a pivot (at_witness).  A new
    column's coordinates come from the pivot rows and its residual is
    formed on the witness alone: nonzero there, the column is independent
    and the witness becomes its pivot.  Zero there, the all-row check takes
    the column's coordinates w on the added columns (cols) and forms
    col - sum_s w[s] * cols[s] on every row: zero everywhere, the column is
    dependent; otherwise its first nonzero row becomes the pivot.  A column
    is called dependent only on every row, so the first dependent column is
    that of the full matrix, and its dependency mod p, unique up to a unit,
    is the same whichever rows are pivots.  A row's reduced entries, for a
    new pivot or witness, come from the columns by _reduced_at; rows that
    are never reached cost nothing.
    """

    def __init__(self, p: int, n_rows: int):
        self.p = p
        self.n_rows = n_rows
        self.cols: list[Sequence[int]] = []
        self.pivot_rows: list[int] = []
        self.lower: list[list[int]] = []  # lower[t][s] = reduced[s][pivot_rows[t]], s < t
        self.upper: list[list[int]] = []
        self.inverses: list[int] = []
        self.witness = 0
        self.at_witness: list[int] = []  # at_witness[t] = reduced[t][witness]

    def _coords(self, y: Sequence[int]) -> list[int]:
        """Forward substitution: coordinates on the reduced columns of a
        vector whose entries on the pivot rows are y, in pivot order."""
        p = self.p
        z: list[int] = []
        for yt, low in zip(y, self.lower):
            z.append((yt - sum(map(operator.mul, low, z))) % p)
        return z

    def _reduced_at(self, r: int) -> list[int]:
        """reduced[t][r] for every added column t, from reduced[t] =
        (cols[t] - sum_{s<t} upper[t][s] * reduced[s]) * inverses[t]."""
        p = self.p
        z: list[int] = []
        for col, up, inv in zip(self.cols, self.upper, self.inverses):
            z.append((col[r] - sum(map(operator.mul, up, z))) * inv % p)
        return z

    def add(self, col: Sequence[int]) -> bool:
        """Append a column; False (and nothing stored) when it is dependent
        on the columns before it modulo p."""
        p, w = self.p, self.witness
        if w == self.n_rows:  # every row is a pivot
            return False
        y = [col[r] for r in self.pivot_rows]
        coords = self._coords(y)
        x = (col[w] - sum(map(operator.mul, self.at_witness, coords))) % p
        if x:
            piv, low = w, self.at_witness
        else:  # the all-row check, on the columns themselves
            res = list(col)
            for c, v in zip(self.cols, self.solver()(y)):
                if v:
                    res = [a - v * b for a, b in zip(res, c)]
            piv = next((r for r, a in enumerate(res) if a % p), None)
            if piv is None:
                return False
            x, low = res[piv] % p, self._reduced_at(piv)
        coords.append(x)
        self.upper.append(coords)
        self.inverses.append(pow(x, -1, p))
        self.cols.append(col)
        self.lower.append(low)
        self.pivot_rows.append(piv)
        if piv != w:
            self.at_witness.append(0)
            return True
        while w in self.pivot_rows:
            w += 1
        self.witness = w
        self.at_witness = self._reduced_at(w) if w < self.n_rows else []
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
    and the result is None.  Before that, an attempt that fails tests the
    p-adic solution on the column sums (the columns at x = 1): a dependency
    over Q vanishes there, so a sum nonzero mod the modulus proves there is
    none, and an unlucky prime is usually told within a few steps.
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
    sums = None
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
        sums = sums or [sum(col) for col in cols]
        if (sum(map(operator.mul, acc, sums)) + sums[m]) % modulus:
            return None


def _annihilates(vec: Sequence[int], cols: list[list[int]]) -> bool:
    return not any(
        sum(v * col[r] for v, col in zip(vec, cols) if v) for r in range(len(cols[0]))
    )


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


def find_min_sde(f: UniPoly, shift: int, max_order: int | None = None, *, lazy: bool = False):
    """Smallest-order equation of the given shift satisfied by f, or None
    when no order up to max_order works (default max_order: deg(f) + 1,
    which always succeeds).

    The returned equation is the canonical kernel vector of the dependency
    matrix at the minimal order: the one supported on the columns up to
    its first dependent column, scaled to primitive integers with positive
    first nonzero coefficient.

    With lazy=True the result is a PendingSDE whose exact() is that
    equation.  A forced equation ((a) in the module docstring) is then
    lifted only on its first exact use; any other is lifted here, since
    only the lift tells whether the prime was unlucky.  An unlucky prime is
    followed by a pass with the next prime, which may end in a forced
    equation held with that prime.
    """
    shift = _parse_int(shift)
    max_order = f.degree + 1 if max_order is None else _parse_int(max_order)
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial satisfies every equation")
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    if max_order < 1:
        return None

    derivs = [ratroots.to_primitive_int(f)]  # f^(k), derived when order k is reached
    n_rows = f.degree + shift + 1
    built: list[list[int]] = []  # the columns in (k, j) order, shared by the passes
    p = ratroots._PRIME
    while True:
        # The order-k matrix is the order-(k-1) one with columns appended, so
        # one pass over the columns finds the first dependent one, fc.
        profile = _ModularProfile(p, n_rows)
        order_cols = ((k, j) for k in range(max_order + 1) for j in range(k + shift + 1))
        for fc, (k, j) in enumerate(order_cols):
            if fc == len(built):
                if len(derivs) == k:
                    derivs.append(ratroots._deriv(derivs[-1]))
                built.append(_column(derivs[k], j, n_rows))
            if not profile.add(built[fc]):
                break
        else:
            return None  # independent mod p up to max_order, hence over Q
        cols = built[: fc + 1]
        if fc == n_rows:
            eq = PendingSDE(k, shift, profile, cols)
            return eq if lazy else eq.exact()
        # The columns before fc are independent over Q; an exact dependency
        # ending at fc proves fc is the first free column of the order-k matrix.
        vec = _lift_dependency(profile, cols)
        if vec is not None:
            break
        # fc is independent over Q: p was unlucky, as only finitely many are
        p = next(q for q in itertools.count(p + 1) if ratroots._is_prime(q))
    # columns past fc carry zeros, which _split_sde leaves implicit
    s = _split_sde(linalg._canonical_int_vector(vec), k, shift)
    return PendingSDE(k, shift, lifted=s) if lazy else s


class PendingSDE:
    """An equation of find_min_sde(..., lazy=True), held as its modular
    pass left it and lifted once, on the first call of exact().

    forced is condition (a) of the module docstring; only a forced equation
    is held unlifted, and only it answers rootless and refuses from its
    vector mod p.
    """

    def __init__(self, order: int, shift: int, profile=None, cols=None, lifted: SDE | None = None):
        self.order, self.shift = order, shift
        self.forced = lifted is None
        self._pass = profile, cols
        self._sde = lifted

    def exact(self) -> SDE:
        if self._sde is None:
            vec = _lift_dependency(*self._pass)  # a forced dependency always lifts
            self._sde = _split_sde(linalg._canonical_int_vector(vec), self.order, self.shift)
        return self._sde

    @cached_property
    def _leads(self) -> tuple[list[int], list[int]]:
        """P_order and P_(order-1) modulo p, up to one unit, from the kernel
        vector mod p; P_order ends in its coefficient at fc, 1."""
        profile, cols = self._pass
        vec = profile.solver()([-cols[-1][r] for r in profile.pivot_rows]) + [1]
        start = [i * self.shift + i * (i + 1) // 2 for i in (self.order - 1, self.order)]
        return vec[start[1] :], vec[start[0] : start[1]]

    @cached_property
    def lead_degree(self) -> int:
        """deg P_order, exact mod p by (a)."""
        return len(self._leads[0]) - 1 if self.forced else self.exact().polys[self.order].degree

    @cached_property
    def rootless(self) -> bool:
        """True when (a) and (d) prove P_order has no rational root; False
        when they do not decide it."""
        if not self.forced or self.lead_degree == 1:
            return False
        lead, p = self._leads[0], self._pass[0].p
        if len(lead) == 3:
            return not ratroots._quadratic_roots_mod(lead, p)
        return len(lead) == 1 or len(ratroots._linear_part_mod(lead, p)) == 1

    def refuses(self, e_min: int, e_max: int) -> bool:
        """True when power_solutions over e_min..e_max is proved empty, and
        free of irrational nodes, without the lift: e_min >= order (one run,
        led by P_order), (a) and (d), and above degree 0 (c) at every t =
        e-order+1 of the range."""
        if not self.rootless or e_min < self.order:
            return False
        if self.lead_degree == 0:
            return True
        (lead, below), p = self._leads, self._pass[0].p
        norm = _norm_mod(lead, ratroots._deriv(lead), below, p)
        return norm is not None and all(
            _falling_eval_mod(norm, e - self.order + 1, p) for e in range(e_min, e_max + 1)
        )


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


def _rows_at_node(table: list[list[list[int]]], node: Fraction):
    """The rows of the table evaluated at b = node = a/d, each when it is
    read, all entries scaled by d^D, D their largest degree in b, so they
    are integers."""
    a, d = node.numerator, node.denominator
    top = max(len(w) for row in table for w in row) - 1
    weights = [a**j * d ** (top - j) for j in range(top + 1)]
    return ([sum(map(operator.mul, w, weights)) for w in row] for row in table)


def _norm_mod(h: list[int], a: list[int], b: list[int], p: int) -> list[int] | None:
    """N(t) = det of multiplication by t*a + b in Q[x]/(h), modulo the prime
    p, in the falling-factorial basis: N(t) = sum_j c[j] * t!/(t-j)!.  N(t)
    is nonzero, so t*a + b is coprime to h, wherever N(t) mod p is.  None
    when p divides lc(h) (h mod p has lower degree) or deg h >= p (too few
    points to interpolate)."""
    d = len(h) - 1
    if h[-1] % p == 0 or d >= p:
        return None
    inv = pow(h[-1], -1, p)
    low = [c * inv % p for c in h[:-1]]  # h made monic mod p

    def columns(q: list[int]) -> list[list[int]]:
        """q * x^i mod h for i < d, padded to d entries."""
        col = ratroots._reduce_mod(list(q), low, p)
        cols = []
        for _ in range(d):
            col += [0] * (d - len(col))
            cols.append(col)
            col = ratroots._reduce_mod([0] + col, low, p)
        return cols

    ma, mb = columns(a), columns(b)
    values = [
        _det_mod([[(t * x + y) % p for x, y in zip(ca, cb)] for ca, cb in zip(ma, mb)], p)
        for t in range(d + 1)
    ]
    # forward differences at t = 0..d give the falling-factorial coefficients
    coeffs, fact = [], 1
    for j in range(d + 1):
        coeffs.append(values[0] * pow(fact, -1, p) % p)
        values = [(v - u) % p for u, v in zip(values, values[1:])]
        fact = fact * (j + 1) % p
    return coeffs


def _det_mod(m: list[list[int]], p: int) -> int:
    """Determinant modulo the prime p by Gaussian elimination, which
    overwrites m."""
    det = 1
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, len(m)):
            f = m[r][c] * inv % p
            if f:
                m[r][c:] = [(x - f * y) % p for x, y in zip(m[r][c:], m[c][c:])]
    return det % p


def _integer_roots(row: list[int], lo: int, hi: int) -> list[int]:
    """The m in lo..hi (lo >= 0) with I(m) = sum_i perm(m, i) * row[i] = 0,
    row nonzero: a forward-difference sweep of I in powers of m, up to
    Fujiwara's root bound 2 max_i |c_(D-i) / c_D|^(1/i) (the last term
    halved) with each term rounded up to a power of two, in integers."""
    cs, fall = [0] * len(row), [1]  # fall: perm(m, i) in powers of m
    for i, c in enumerate(row):
        cs[: i + 1] = [x + c * f for x, f in zip(cs, fall)]
        fall = [u - i * v for u, v in zip([0] + fall, fall + [0])]
    deg = len(ratroots._strip(cs)) - 1
    top, exp = abs(cs[-1]), 0
    for i in range(1, deg + 1):
        c = abs(cs[deg - i]) if i < deg else (abs(cs[0]) + 1) // 2
        t = max(c.bit_length() - top.bit_length(), 0)
        exp = max(exp, -(-(t + (top << t < c)) // i))
    hi = min(hi, 2 << exp) if deg > 0 else lo - 1
    diffs = [sum(c * m**j for j, c in enumerate(cs)) for m in range(lo, lo + deg + 1)]
    for j in range(1, deg + 1):
        diffs[j:] = [v - u for u, v in zip(diffs[j - 1 :], diffs[j:])]
    out = []
    for m in range(lo, hi + 1):
        if not diffs[0]:
            out.append(m)
        diffs = [u + v for u, v in zip(diffs, diffs[1:])] + diffs[-1:]
    return out


def _falling_eval_mod(cs: list[int], t: int, p: int) -> int:
    """sum_j cs[j] * t!/(t-j)! modulo p, by Horner."""
    acc = 0
    for j in range(len(cs) - 1, -1, -1):
        acc = (acc * (t - j) + cs[j]) % p
    return acc


def _irrational_part(h: list[int], rows: list[list[list[int]]], falls: list[int]) -> list[int]:
    """h reduced by gcd against the nonzero sums sum_i falls[i] * w[i] of
    the rows, stopping once it is constant."""
    g = h
    for row in rows:
        if len(g) == 1:
            break
        cs = [0] * max(map(len, row))
        for fall, w in zip(falls, row):
            for t, c in enumerate(w):
                cs[t] += fall * c
        if ratroots._strip(cs):
            g = ratroots.poly_gcd_int(g, cs)
    return g


def power_solutions(s: SDE | PendingSDE, e_min: int, e_max: int) -> list[tuple[Fraction, int]]:
    """All pairs (b, e) with e_min <= e <= e_max such that (x - b)^e with
    rational b satisfies the equation, sorted by (e, b).  A PendingSDE is
    lifted unless it refuses the range (PendingSDE.refuses).

    Raises IrrationalNodeDetected, with the exponent as its exponent
    attribute, when some admissible node is provably irrational, i.e. the
    node condition has a nonconstant factor without rational roots, and
    ValueError at an exponent every node solves.

    The lead P_k (see the module docstring) is shared by the run of
    exponents from the order on; each exponent below it is a run of its
    own.  Per run P_k is split once (SDE._lead_roots).  A rational root b
    is kept at the roots in the run of its indicial polynomial where every
    other row of the table at b vanishes too, the rows evaluated one at a
    time.  The part h without rational roots gets the exact gcds only at
    the exponents the norm screen flags.  Each pair is certified with
    apply_sde.
    """
    e_min, e_max = _parse_int(e_min), _parse_int(e_max)
    if e_min < 1:
        raise ValueError("e_min must be at least 1")
    if e_min > e_max:
        return []
    if isinstance(s, PendingSDE):
        if s.refuses(e_min, e_max):
            return []
        s = s.exact()
    table = _node_table(s)
    runs = [(e, e) for e in range(e_min, min(s.order, e_max + 1))]
    if e_max >= s.order:
        runs.append((max(e_min, s.order), e_max))
    p = ratroots._PRIME
    out: list[tuple[Fraction, int]] = []
    for lo, hi in runs:
        k = next((i for i in range(min(lo, s.order), -1, -1) if not s.polys[i].is_zero()), None)
        if k is None:
            raise ValueError(
                f"every node solves the equation at exponent {lo}; "
                "the requested range is below the meaningful threshold"
            )
        roots, cofactor_deg = s._lead_roots(k)
        h = [1]
        if cofactor_deg:
            linear = math.prod((UniPoly((-b, 1)) ** m for b, m in roots.items()), start=ONE)
            h = ratroots.to_primitive_int(s.polys[k].quo_rem(linear)[0])
        above = table[s.order - k + 1 :]
        if len(h) > 1:
            norm = _norm_mod(h, above[0][k], above[0][k - 1], p) if k and hi > lo else None
            for e in range(lo, hi + 1):
                if norm is None or not _falling_eval_mod(norm, e - k + 1, p):
                    g = _irrational_part(h, above, [math.perm(e, i) for i in range(s.order + 1)])
                    if len(g) > 1:
                        raise IrrationalNodeDetected(
                            f"nodes at exponent {e} satisfy an irreducible condition of "
                            f"degree {len(g) - 1} with no rational root",
                            exponent=e,
                        )
        for b in roots:
            # the other rows can vanish only at the lowest one's zeros
            rows = (r for r in _rows_at_node(table, b) if any(r))
            lowest = next(rows)
            zeros = _integer_roots(lowest, lo, hi)
            if zeros:
                rows = [lowest, *rows]
                out += [(b, e) for e in zeros if not any(_image(rows, e))]
    for b, e in out:
        # (d x - a)^e, a multiple of (x - b)^e, in integers
        ds, nums = _powers(b.denominator, e), _powers(-b.numerator, e)
        power = UniPoly([math.comb(e, j) * ds[j] * nums[e - j] for j in range(e + 1)])
        if not apply_sde(s, power).is_zero():
            raise RuntimeError("power solution failed verification")
    out.sort(key=lambda be: (be[1], be[0]))
    return out


# -- solutions of the form R(x) * (x - c)^e -------------------------------


def _image(rows: list[list[int]], m: int) -> list[int]:
    """The y^(m-order+j) entries of L((x - node)^m) for the rows w_j of the
    table at the node: sum_i perm(m, i) * w_j[i]."""
    falls = [math.perm(m, i) for i in range(len(rows[0]))]
    return [sum(map(operator.mul, falls, row)) for row in rows]


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

    Only exponents within delta below an integer root of the indicial
    polynomial are solved.  With w the lowest nonzero row of the table at
    the node, I(m) = sum_i perm(m, i) * w[i] is the entry of every window on
    that row, the entries below it being 0; it is a nonzero polynomial in m
    (the perm(m, i) are independent) of degree at most the order.  If a
    kernel vector at e has its first nonzero entry at t, the lowest entry of
    the image of its combination is that entry times I(e+t), to which no
    other column contributes, so I(e+t) = 0: where its row is kept the
    kernel forces it, and where the row is dropped for a negative power of y
    the entry is 0 already, because perm(m, i) = 0 for i > m.  Every other
    exponent has an empty kernel.  The roots come from _integer_roots, and
    the rows other than w are evaluated at the node only when there are any.

    The basis is deterministic: the candidates, by increasing exponent, are
    the columns of one integer matrix, and the pivot columns of its Bareiss
    elimination, each independent of the columns before it, are kept.
    """
    delta, e_min, e_max = _parse_int(delta), _parse_int(e_min), _parse_int(e_max)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if e_min < 1:
        raise ValueError("e_min must be at least 1")
    if e_min > e_max:
        return []
    rows, at_node = [], _rows_at_node(_node_table(s), Fraction(node))
    for row in at_node:  # up to the lowest row nonzero at the node
        rows.append(row)
        if any(row):
            break
    # the indicial filter: solve only at e with I(e + t) = 0 for some t <= delta
    roots = _integer_roots(rows[-1], e_min, e_max + delta)
    if not roots:
        return []
    rows += at_node
    live = sorted({e for r in roots for e in range(max(r - delta, e_min), min(r, e_max) + 1)})
    windows = {m: _image(rows, m) for m in {e + t for e in live for t in range(delta + 1)}}
    candidates: list[dict[int, Fraction]] = []
    for e in live:
        # column t on y^(e-order)..y^(e+delta+shift), negative powers dropped
        cols = [[0] * t + windows[e + t] + [0] * (delta - t) for t in range(delta + 1)]
        mat = list(zip(*cols))[max(s.order - e, 0) :]
        for vec in linalg.kernel(linalg.IntMatrix.from_rows(mat)):
            candidates.append({e + t: v for t, v in enumerate(vec) if v})
    # a row per power of y, a column per candidate
    powers = sorted({k for sol in candidates for k in sol})
    mat = [[int(sol.get(k, 0)) for sol in candidates] for k in powers]
    return [candidates[c] for c in linalg._bareiss(mat)]
