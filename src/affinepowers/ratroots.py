"""Rational root extraction for integer polynomials.

The classical divisor-enumeration method needs the factorizations of the
leading and trailing coefficients, which is hopeless for the coefficient
sizes produced by exact elimination.  This module instead finds roots of the
squarefree part modulo a small prime, Hensel-lifts them until the modulus
dominates the root-size bounds, and recovers numerator/denominator by
rational reconstruction.  The prime is chosen so the reduction stays
squarefree, which makes the search provably complete, and every candidate is
verified exactly before being reported.  The roots modulo p are those of
g = gcd(sf, x^p - x) mod p, one per degree of g: a constant g proves there is
no rational root, and otherwise g is split by gcds with (x + a)^((p-1)/2) - 1
for a = 1, 2, ..., which separate the roots r by the quadratic character of
r + a, until every factor has degree at most 2; a quadratic factor is solved
by one square root mod p.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .errors import ZeroPolynomial
from .unipoly import UniPoly, _clear_denominators, _multiplicity

# Word-size primes, just below 2^30 and = 3 mod 4 (so _sqrt_mod is one
# power).  A residue below 2^30 is one 30-bit CPython digit and a product of
# two at most two digits, where below 2^61 they take three and five: a
# modular dot product of length 25 takes about half the time.  The first prime serves the modular pass of
# sde.find_min_sde, the checks (a), (c) and (d) of sde.PendingSDE, the norm
# screen of sde.power_solutions and the screen of poly_gcd_int.  The next ones
# are the retries after an unlucky prime (_next_prime) and the further primes
# on which a forced equation's lead is tested before it is lifted.
_PRIMES = (
    1073741783, 1073741723, 1073741719, 1073741671,
    1073741663, 1073741651, 1073741567, 1073741527,
)

# Prime of a forced equation's lift (sde.PendingSDE.exact): that lift runs
# over every row, and a prime twice as wide halves its steps.
_LIFT_PRIME = (1 << 61) - 1

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
    """Quotient a/b for primitive integer polynomials with b | a, by long
    division in integers (by Gauss's lemma every step divides exactly)."""
    r, quo = list(a), []
    for shift in range(len(a) - len(b), -1, -1):
        top = r[shift + len(b) - 1] // b[-1]
        quo.append(top)
        for j, c in enumerate(b, shift):
            r[j] -= top * c
    if any(r):
        raise ValueError("division was not exact")
    return quo[::-1]


def poly_gcd_int(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd of two integer polynomials (primitive remainder chain).

    A constant gcd modulo a prime not dividing one leading coefficient
    proves the inputs coprime (reduction cannot lower the degree of their
    gcd), which skips the chain for the common coprime case.  The screen
    runs where the chain's arithmetic outgrows its own: the remainders'
    coefficients reach about (deg a + deg b) times the input width in bits,
    from small coefficients too at high degree.  Below the width of p^2 the
    chain costs about the same as the screen.
    """
    a = _primitive(a)
    b = _primitive(b)
    p = _PRIMES[0]
    if (
        a and b
        and max(map(abs, a + b)).bit_length() * (len(a) + len(b) - 2) > 2 * p.bit_length()
        and (a[-1] % p or b[-1] % p)
        and len(_poly_gcd_mod(a, b, p)) == 1
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
    return _primitive(_clear_denominators(f.coeffs)[0])


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


def _primes_after(p: int) -> tuple[int, ...]:
    """The primes of _PRIMES after p, none when p is not in it."""
    return _PRIMES[_PRIMES.index(p) + 1 :] if p in _PRIMES else ()


def _next_prime(p: int) -> int:
    """The prime after p in _PRIMES; past its end, or for a p not in it,
    the least prime above p and every prime of the list."""
    return next(iter(_primes_after(p)), None) or next(
        q for q in itertools.count(max(p, *_PRIMES) + 1) if _is_prime(q)
    )


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


def _reduce_mod(r: list[int], low: Sequence[int], p: int) -> list[int]:
    """r modulo the monic x^n + sum_k low[k] x^k (n = len(low)) and the
    prime p, entries in 0..p-1.  One slice update per eliminated degree,
    reduced modulo p only at the end."""
    n = len(low)
    for k in range(len(r) - 1, n - 1, -1):
        top = r[k] % p
        if top:
            r[k - n : k] = [x - top * c for x, c in zip(r[k - n : k], low)]
    return [x % p for x in r[:n]]


def _resultant_mod(a: Sequence[int], b: Sequence[int], p: int) -> int:
    """Res(a, b) modulo the prime p for a monic a: the product of b over
    the roots of a, i.e. the determinant of multiplication by b modulo a.
    By the Euclidean remainder sequence: Res(a, b) = Res(a, b mod a), and
    for r = b mod a of degree m with leading coefficient c, Res(a, r) =
    (-1)^(m deg a) c^(deg a) Res(r / c, a)."""
    low, res = [c % p for c in a[:-1]], 1  # a = x^n + sum low[k] x^k
    while low:
        r = _strip(_reduce_mod(list(b), low, p))
        if not r:
            return 0
        n, m, c = len(low), len(r) - 1, r[-1]
        res = res * pow(c, n, p) * (-1) ** (n * m) % p
        inv = pow(c, -1, p)
        low, b = [x * inv % p for x in r[:-1]], low + [1]
    return res


def _square_mod(cs: Sequence[int], p: int) -> list[int]:
    """The square of a polynomial with entries in 0..p-1, modulo p, by one
    integer product (Kronecker substitution): each entry gets a slot of
    whole bytes wide enough that the product's coefficients do not carry."""
    width = (2 * p.bit_length() + len(cs).bit_length() + 7) // 8
    packed = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in cs), "little")
    raw = (packed * packed).to_bytes(width * (2 * len(cs) - 1), "little")
    return [int.from_bytes(raw[i : i + width], "little") % p for i in range(0, len(raw), width)]


def _power_mod(a: int, n: int, g: Sequence[int], p: int) -> list[int]:
    """(x + a)^n modulo g and the prime p, padded to deg g entries."""
    inv = pow(g[-1], -1, p)
    low = [c * inv % p for c in g[:-1]]  # g made monic: x^d = -sum low[k] x^k
    acc = [1]
    for bit in bin(n)[2:]:
        acc = _reduce_mod(_square_mod(acc, p), low, p)
        if bit == "1":
            acc = _reduce_mod([x + a * y for x, y in zip([0] + acc, acc + [0])], low, p)
    return acc + [0] * (len(low) - len(acc))


def _linear_part_mod(sf: Sequence[int], p: int) -> list[int]:
    """gcd(sf, x^p - x) modulo p, up to a unit: the product of the distinct
    linear factors of sf mod p (deg sf >= 2)."""
    acc = _power_mod(0, p, sf, p)
    acc[1] -= 1
    return _poly_gcd_mod(sf, acc, p)


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo the odd prime p
    (Tonelli-Shanks; one power when p = 3 mod 4)."""
    q, s = p - 1, 0
    while not q & 1:
        q, s = q >> 1, s + 1
    if s == 1 or not a % p:
        return pow(a, (q + 1) // 2, p)
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _quadratic_roots_mod(g: Sequence[int], p: int) -> list[int]:
    """The roots modulo the odd prime p of g = c + b x + a x^2, p not
    dividing a: none when the discriminant is a non-residue (Euler's
    criterion), else (-b +- sqrt(disc)) / 2a."""
    c, b, a = g
    disc = (b * b - 4 * a * c) % p
    if disc and pow(disc, (p - 1) // 2, p) != 1:
        return []
    s, inv = _sqrt_mod(disc, p), pow(2 * a, -1, p)
    return sorted({(s - b) * inv % p, (-s - b) * inv % p})


def _split_mod(g: list[int], p: int, a: int = 1) -> list[int]:
    """The roots modulo the odd prime p of g, a product of distinct linear
    factors mod p: directly at degree <= 2, else split by r = -a and the
    quadratic character of r + a, (x + a)^((p-1)/2) = +-1; some a < p
    separates any two roots."""
    if len(g) == 3:
        return _quadratic_roots_mod(g, p)
    if len(g) <= 2:
        return [-g[0] * pow(g[1], -1, p) % p] if len(g) == 2 else []
    w = _power_mod(a, (p - 1) // 2, g, p)
    out = [] if _eval_mod(g, -a, p) else [-a % p]
    halves = (_poly_gcd_mod(g, [w[0] + s] + w[1:], p) for s in (-1, 1))
    return out + [r for h in halves for r in _split_mod(h, p, a + 1)]


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


def _rational_reconstruct(u: int, m: int, num_bound: int, den_bound: int) -> tuple[int, int] | None:
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
    return num, den


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
    while not (_is_prime(p) and sf[-1] % p and len(_poly_gcd_mod(sf, dsf, p)) == 1):
        p += 2

    # the roots mod p are the deg(g) distinct roots of g
    target = 2 * num_bound * den_bound + 1
    found = []
    for r0 in _split_mod(_linear_part_mod(sf, p), p):
        lifted, modulus = _hensel_lift(sf, dsf, r0, p, target)
        cand = _rational_reconstruct(lifted, modulus, num_bound, den_bound)
        if cand is not None and _multiplicity(sf, *cand)[0]:
            found.append(Fraction(*cand))
    return sorted(set(found))


def rational_roots_with_cofactor(f: UniPoly) -> tuple[dict[Fraction, int], list[int]]:
    """Rational roots of f with multiplicities, plus the cofactor without
    rational roots ([1] if none): the primitive quotient, positive lead,
    left by the exact divisions that count the multiplicities."""
    cs = to_primitive_int(f)
    if not cs:
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")
    roots: dict[Fraction, int] = {}
    zeros, cs = _multiplicity(cs, 0, 1)
    if zeros:
        roots[Fraction(0)] = zeros
    if len(cs) > 1:
        gcd_sf = poly_gcd_int(cs, _deriv(cs))
        sf = _exact_div(cs, gcd_sf) if len(gcd_sf) > 1 else cs
        for root in _roots_of_squarefree(sf):
            roots[root], cs = _multiplicity(cs, *root.as_integer_ratio())
    return roots, cs
