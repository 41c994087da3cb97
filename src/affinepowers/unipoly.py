"""Dense univariate polynomials over exact rationals.

A polynomial is stored as a tuple of Fraction coefficients indexed by degree,
lowest degree first, with trailing zeros stripped; the zero polynomial is the
empty tuple and has degree -1.  All operations are pure and exact, so values
can be shared freely.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DuplicateAbscissa, ZeroPolynomial


# -- the rational-to-integer layer: the one implementation of each step --
# (integer parsing, power tables, common denominators, (d x - a)^e, sums of
# affine powers, root multiplicity) that every other module calls


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _parse_int(value) -> int:
    """An integer, or a string spelling one.  int() alone would take 3.5,
    True or Fraction(7, 2)."""
    if type(value) is int:
        return value
    if isinstance(value, (bool, float)):
        raise ValueError(f"refusing {type(value).__name__} {value!r}; expected an integer")
    out = int(value)
    if not isinstance(value, str) and out != value:
        raise ValueError(f"refusing {value!r}; expected an integer")
    return out


def _powers(base: int, top: int) -> list[int]:
    """[base^0, base^1, ..., base^top]."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def _clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(values times lcm, lcm), lcm the lcm of their denominators: the
    least positive integer that makes every entry integral."""
    lcm = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (lcm // v.denominator) for v in values], lcm


def _differences(values: Sequence[int]) -> list[int]:
    """The leading forward differences [v_0, Delta v_0, ..., Delta^n v_0]
    of n + 1 values, by one in-place pass per level."""
    diffs = list(values)
    n = len(diffs) - 1
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            diffs[i] -= diffs[i - 1]
    return diffs


def _affine_power_ints(a: int, d: int, e: int) -> list[int]:
    """Coefficients of (d x - a)^e, lowest degree first:
    C(e, k) d^k (-a)^(e-k) at x^k."""
    ds, nums = _powers(d, e), _powers(-a, e)
    return [math.comb(e, k) * ds[k] * nums[e - k] for k in range(e + 1)]


def _affine_sum(terms: Iterable[tuple]) -> tuple[list[int], int]:
    """sum c (x - a)^e over the rational (c, a, e) as (numerators, den),
    lowest degree first.  With c = n/m and a = p/q a term is
    n (q x - p)^e / (m q^e), and the terms are summed over the lcm of those
    denominators; the empty sum is ([], 1)."""
    parts = [
        (c.numerator, c.denominator * a.denominator**e, _affine_power_ints(a.numerator, a.denominator, e))
        for c, a, e in terms
    ]
    den = math.lcm(*(m for _, m, _ in parts))
    out = [0] * max((len(ints) for *_, ints in parts), default=0)
    for n, m, ints in parts:
        scale = n * (den // m)
        out[: len(ints)] = [o + scale * v for o, v in zip(out, ints)]
    return out, den


def _multiplicity(cs: list[int], a: int, d: int) -> tuple[int, list[int]]:
    """(m, cs / (d x - a)^m), m the multiplicity of the root a/d (d > 0) in
    the nonzero integer polynomial cs: exact synthetic divisions by d x - a."""
    m = 0
    while len(cs) > 1:
        q = [0]  # from the top, q[j-1] = (cs[j] + a q[j]) / d; cs[0] + a q[0] remains
        for c in reversed(cs[1:]):
            top, rem = divmod(c + a * q[-1], d)
            if rem:
                return m, cs
            q.append(top)
        if cs[0] + a * q[-1]:
            return m, cs
        cs, m = q[:0:-1], m + 1
    return m, cs


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, coeff, exponent: int) -> "UniPoly":
        exponent = _parse_int(exponent)
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls([0] * exponent + [coeff])

    @classmethod
    def affine_power(cls, coeff, node, exponent: int) -> "UniPoly":
        """coeff * (x - node)^exponent, expanded."""
        exponent = _parse_int(exponent)
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        nums, den = _affine_sum([(_frac(coeff), _frac(node), exponent)])
        return cls(Fraction(v, den) for v in nums)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x^k (zero beyond the degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def max_coeff_bits(self) -> int:
        """Largest bit length among numerators and denominators."""
        bits = 0
        for c in self.coeffs:
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        return bits

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if not self.coeffs or not other.coeffs:
                return UniPoly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            out[i + j] += a * b
            return UniPoly(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "UniPoly":
        s = _frac(scalar)
        if s == 0:
            return UniPoly()
        return UniPoly([s * c for c in self.coeffs])

    def __pow__(self, n: int) -> "UniPoly":
        n = _parse_int(n)
        if n < 0:
            raise ValueError("negative power")
        result = UniPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def quo_rem(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Polynomial division with remainder."""
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        rem = list(self.coeffs)
        dv = other.coeffs
        dq = len(rem) - len(dv)
        if dq < 0:
            return UniPoly(), self
        quo = [Fraction(0)] * (dq + 1)
        inv_lead = 1 / dv[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(dv) - 1] * inv_lead
            quo[k] = c
            if c:
                for j, d in enumerate(dv):
                    rem[k + j] -= c * d
        return UniPoly(quo), UniPoly(rem)

    # -- comparisons --------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- calculus and evaluation --------------------------------------

    def __call__(self, point) -> Fraction:
        return self.evaluate(point)

    def evaluate(self, point) -> Fraction:
        """Value at a rational point (Horner scheme)."""
        x = _frac(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self, order: int = 1) -> "UniPoly":
        """order-th derivative: x^k goes to k!/(k-order)! * x^(k-order)."""
        order = _parse_int(order)
        if order < 0:
            raise ValueError("negative derivative order")
        cs = self.coeffs
        return UniPoly([math.perm(k, order) * cs[k] for k in range(order, len(cs))])

    def taylor_shift(self, a) -> "UniPoly":
        """Coefficients of f(x + a); equally the coordinates of f in the
        basis (x - a)^k.  Computed by repeated synthetic division."""
        a = _frac(a)
        work = list(self.coeffs)
        out = []
        for _ in range(len(work)):
            # divide by (x - a): remainder is the next shifted coefficient
            carry = Fraction(0)
            for k in range(len(work) - 1, -1, -1):
                carry = work[k] + carry * a
                work[k] = carry
            out.append(work[0])
            work = work[1:]
        return UniPoly(out)

    def mult_at(self, a) -> int:
        """Multiplicity of a as a root (0 when f(a) != 0).

        The zero polynomial is rejected: every point is a root of it.
        """
        if self.is_zero():
            raise ZeroPolynomial("multiplicity undefined for the zero polynomial")
        return _multiplicity(_clear_denominators(self.coeffs)[0], *_frac(a).as_integer_ratio())[0]

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs) if self.coeffs else "0"


ZERO = UniPoly()
ONE = UniPoly((1,))


def interpolate(points: Sequence[tuple]) -> UniPoly:
    """Unique polynomial of degree < len(points) through the given
    (x, y) pairs, as a Newton form assembled in integers.

    With the abscissas written as X_j / L over their common denominator,
    each Newton factor x - x_j is (L x - X_j) / w.  For equally spaced
    abscissas, w = X_1 - X_0 is the step and the k-th divided difference
    is Delta^k y_0 / (k! h^k): the forward differences of the ordinates
    over their common denominator D are integers, and the form is
    sum_k Delta^k Y_0 (m!/k!) prod_{j<k} (L x - X_j) / (D m! w^m) for m + 1
    points.  For unequal steps the divided differences come from the
    Fraction table and w = L.  Either way the numerator is one integer
    Horner pass over the factors, and each coefficient is one Fraction.
    """
    xs = [_frac(p[0]) for p in points]
    ys = [_frac(p[1]) for p in points]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa("interpolation abscissas must be distinct")
    m = len(xs) - 1
    if m < 1:
        return UniPoly(ys)
    big_x, big_l = _clear_denominators(xs)
    w = big_x[1] - big_x[0]
    if all(b - a == w for a, b in zip(big_x[1:], big_x[2:])):
        nums, den = _clear_denominators(ys)
        diffs = _differences(nums)
        scale = 1  # m!/k!, from k = m down to k = 0
        for k in range(m - 1, -1, -1):
            scale *= k + 1
            diffs[k] *= scale
        den *= scale
    else:
        # divided-difference table, in place
        dd = list(ys)
        for level in range(1, m + 1):
            for i in range(m, level - 1, -1):
                dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
        diffs, den = _clear_denominators(dd)
        w = big_l
    # Horner: acc <- acc * (L x - X_k) + a_k w^(m-k), lowest degree first
    acc = [diffs[m]]
    w_k = 1
    for k in range(m - 1, -1, -1):
        w_k *= w
        acc = [big_l * a - big_x[k] * b for a, b in zip([0, *acc], [*acc, 0])]
        acc[0] += diffs[k] * w_k
    den *= w_k
    return UniPoly(Fraction(a, den) for a in acc)


def rational_roots(f: UniPoly) -> dict[Fraction, int]:
    """All rational roots of f with multiplicities."""
    from . import ratroots

    if f.is_zero():
        raise ZeroPolynomial("rational_roots requires a nonzero polynomial")
    roots, _ = ratroots.rational_roots_with_cofactor(f)
    return roots
