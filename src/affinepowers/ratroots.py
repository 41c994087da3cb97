"""Rational root extraction for integer polynomials.

The classical divisor-enumeration method needs the factorizations of the
leading and trailing coefficients, which is hopeless for the coefficient
sizes produced by exact elimination.  This module instead finds roots of the
squarefree part modulo a small prime, Hensel-lifts them until the modulus
dominates the root-size bounds, and recovers numerator/denominator by
rational reconstruction.  The prime is chosen so the reduction stays
squarefree, which makes the search provably complete, and every candidate is
verified exactly before being reported.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import ZeroPolynomial
from .unipoly import UniPoly, _clear_denominators

# Prime for modular screens and elimination (sde.find_min_sde, poly_gcd_int).
_PRIME = (1 << 61) - 1

# -- integer polynomial helpers (dense int lists, lowest degree first) --


def _strip(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _primitive(cs: Sequence[int]) -> list[int]:
    out = _strip(list(cs))
    if not out:
        return []
    g = math.gcd(*out)
    if out[-1] < 0:
        g = -g
    return [c // g for c in out]


def _deriv(cs: Sequence[int]) -> list[int]:
    return _strip([k * cs[k] for k in range(1, len(cs))])


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """A multiple of (a mod b) computed entirely over the integers."""
    r = list(a)
    lb = b[-1]
    while True:
        r = _strip(r)
        if len(r) < len(b):
            return r
        shift = len(r) - len(b)
        top = r.pop()
        r = [lb * c for c in r]
        for j in range(len(b) - 1):
            r[shift + j] -= top * b[j]


def _exact_div(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Quotient a/b for integer polynomials with b | a; primitive output."""
    quo, rem = UniPoly(a).quo_rem(UniPoly(b))
    if not rem.is_zero():
        raise ValueError("division was not exact")
    return to_primitive_int(quo)


def poly_gcd_int(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd of two integer polynomials (primitive remainder chain).

    A constant gcd modulo a prime not dividing one leading coefficient
    proves the inputs coprime (reduction cannot lower the degree of their
    gcd), which skips the chain for the common coprime case.  The screen
    runs only on coefficients wider than p^2: on narrower ones the chain's
    arithmetic is no wider than the screen's and costs about the same.
    """
    a = _primitive(a)
    b = _primitive(b)
    if (
        a and b
        and max(map(abs, a + b)) > _PRIME * _PRIME
        and (a[-1] % _PRIME or b[-1] % _PRIME)
        and len(_poly_gcd_mod(a, b, _PRIME)) == 1
    ):
        return [1]
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _primitive(_pseudo_rem(a, b))
        a, b = b, r
    return a


def to_primitive_int(f: UniPoly) -> list[int]:
    """Primitive integer coefficient list proportional to f (positive lead)."""
    return _primitive(_clear_denominators(f.coeffs))


# -- modular machinery ---------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _poly_gcd_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """A gcd of a and b modulo the prime p, up to a unit factor.  The
    remainders are scaled by the divisor's leading coefficient instead of
    dividing by it, which saves a modular inverse per step."""
    a = _strip([c % p for c in a])
    b = _strip([c % p for c in b])
    while b:
        lb = b[-1]
        r = a
        while len(r) >= len(b):
            top = r[-1]
            shift = len(r) - len(b)
            # lb * r - top * x^shift * b, whose leading term cancels
            r = _strip(
                [lb * c % p for c in r[:shift]]
                + [(lb * c - top * d) % p for c, d in zip(r[shift:-1], b)]
            )
        a, b = b, r
    return a


def _eval_mod(cs: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


def _hensel_lift(cs: Sequence[int], dcs: Sequence[int], root: int, p: int, target: int) -> tuple[int, int]:
    """Quadratically lift a simple root of cs mod p until modulus >= target."""
    modulus, r = p, root
    while modulus < target:
        modulus = modulus * modulus
        g = _eval_mod(cs, r, modulus)
        # g'(r) is a unit mod p, hence a unit mod every power of p
        inv = pow(_eval_mod(dcs, r, modulus), -1, modulus)
        r = (r - g * inv) % modulus
    return r, modulus


def _rational_reconstruct(u: int, m: int, num_bound: int, den_bound: int) -> Fraction | None:
    r0, s0 = m, 0
    r1, s1 = u % m, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0:
        return None
    num, den = (r1, s1) if s1 > 0 else (-r1, -s1)
    if den > den_bound or math.gcd(num, den) != 1:
        return None
    return Fraction(num, den)


def _is_root(cs: Sequence[int], cand: Fraction) -> bool:
    """Exact test cs(cand) == 0 via the homogenized integer form."""
    p, q = cand.numerator, cand.denominator
    n = len(cs) - 1
    qpow = 1
    # evaluate sum c_i p^i q^(n-i) from the top down
    acc = cs[n]
    for i in range(n - 1, -1, -1):
        qpow *= q
        acc = acc * p + cs[i] * qpow
    return acc == 0


def _roots_of_squarefree(sf: Sequence[int]) -> list[Fraction]:
    """All rational roots of a primitive squarefree integer polynomial."""
    deg = len(sf) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [Fraction(-sf[0], sf[1])]
    if deg == 2:
        c, b, a = sf
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        s = math.isqrt(disc)
        if s * s != disc:
            return []
        return sorted({Fraction(-b + s, 2 * a), Fraction(-b - s, 2 * a)})

    num_bound = abs(sf[0])
    den_bound = abs(sf[-1])
    dsf = _deriv(sf)
    p = 1009
    while True:
        while not _is_prime(p):
            p += 2
        if sf[-1] % p != 0 and len(_poly_gcd_mod(sf, dsf, p)) == 1:
            break
        p += 2

    residues = [x for x in range(p) if _eval_mod(sf, x, p) == 0]
    target = 2 * num_bound * den_bound + 1
    found = []
    for r0 in residues:
        lifted, modulus = _hensel_lift(sf, dsf, r0, p, target)
        cand = _rational_reconstruct(lifted, modulus, num_bound, den_bound)
        if cand is not None and _is_root(sf, cand):
            found.append(cand)
    return sorted(set(found))


def rational_roots_with_cofactor(f: UniPoly) -> tuple[dict[Fraction, int], int]:
    """Rational roots of f with multiplicities, plus the degree of the
    remaining factor of f that has no rational root."""
    cs = to_primitive_int(f)
    if not cs:
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")
    roots: dict[Fraction, int] = {}
    total_deg = len(cs) - 1
    zero_mult = 0
    while cs and cs[0] == 0:
        cs = cs[1:]
        zero_mult += 1
    if zero_mult:
        roots[Fraction(0)] = zero_mult
    if len(cs) > 1:
        gcd_sf = poly_gcd_int(cs, _deriv(cs))
        sf = _exact_div(cs, gcd_sf) if len(gcd_sf) > 1 else _primitive(cs)
        base = UniPoly(cs)
        for root in _roots_of_squarefree(sf):
            roots[root] = base.mult_at(root)
    cofactor_degree = total_deg - sum(roots.values())
    return roots, cofactor_degree
