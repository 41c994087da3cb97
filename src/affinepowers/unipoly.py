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


# -- rational-to-integer layer, shared with the other modules -----------


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _clear_denominators(values: Sequence[Fraction]) -> list[int]:
    """values times the lcm of their denominators, the least positive
    integer that makes every entry integral."""
    lcm = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (lcm // v.denominator) for v in values]


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
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls([0] * exponent + [coeff])

    @classmethod
    def affine_power(cls, coeff, node, exponent: int) -> "UniPoly":
        """coeff * (x - node)^exponent, expanded."""
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        a = _frac(node)
        c = _frac(coeff)
        # coefficient of x^k is C(e, k) * (-a)^(e-k)
        out = [Fraction(0)] * (exponent + 1)
        power = Fraction(1)
        for k in range(exponent, -1, -1):
            out[k] = c * math.comb(exponent, k) * power
            power *= -a
        return cls(out)

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
        """order-th derivative; order 0 returns self."""
        if order < 0:
            raise ValueError("negative derivative order")
        cs = self.coeffs
        for _ in range(order):
            if len(cs) <= 1:
                return UniPoly()
            cs = tuple(k * cs[k] for k in range(1, len(cs)))
        return UniPoly(cs)

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
        a = _frac(a)
        m = 0
        current = self
        while current.evaluate(a) == 0:
            current, _ = current.quo_rem(UniPoly((-a, 1)))
            m += 1
        return m

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs) if self.coeffs else "0"


ZERO = UniPoly()
ONE = UniPoly((1,))


def interpolate(points: Sequence[tuple]) -> UniPoly:
    """Unique polynomial of degree < len(points) through the given
    (x, y) pairs, by Newton divided differences."""
    xs = [_frac(p[0]) for p in points]
    ys = [_frac(p[1]) for p in points]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa("interpolation abscissas must be distinct")
    n = len(xs)
    # divided-difference table, in place
    dd = list(ys)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    # Horner-style assembly of the Newton form
    result = UniPoly()
    for i in range(n - 1, -1, -1):
        result = result * UniPoly((-xs[i], 1)) + UniPoly((dd[i],))
    return result


def rational_roots(f: UniPoly) -> dict[Fraction, int]:
    """All rational roots of f with multiplicities."""
    from . import ratroots

    if f.is_zero():
        raise ZeroPolynomial("rational_roots requires a nonzero polynomial")
    roots, _ = ratroots.rational_roots_with_cofactor(f)
    return roots
