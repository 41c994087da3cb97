"""The norm screen's steps against outside oracles and the elimination it
replaced.

ratroots._resultant_mod runs the Euclidean remainder sequence modulo p; it
is compared with sympy.resultant over the integers, reduced modulo p, and
with the determinant of sympy's Sylvester matrix where sympy.resultant gets
the sign wrong.
sde._norm_mod takes N(t) = Res(h / lc(h), t*a + b) at t = 0..deg h from it;
det_norm_mod below is the version it replaced, which built the matrices of
multiplication by a and b modulo h and took each N(t) as a determinant by
Gaussian elimination modulo p.  Both must give the same falling-factorial
coefficients, or both None.  unipoly._differences is compared with the
closed form Delta^k v_0 = sum_i (-1)^(k-i) C(k, i) v_i.
"""

import math
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

sympy = pytest.importorskip("sympy")
from sympy.polys import subresultants_qq_zz  # noqa: E402

from affinepowers import ratroots, sde  # noqa: E402
from affinepowers.unipoly import _differences  # noqa: E402

DIFFERENTIAL = settings(derandomize=True, max_examples=150, deadline=None, database=None)
PRIMES = [2, 3, 5, 7, (1 << 61) - 1]
X = sympy.symbols("x")


def det_mod(m: list[list[int]], p: int) -> int:
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


def det_norm_mod(h: list[int], a: list[int], b: list[int], p: int) -> list[int] | None:
    """N(t) = det of multiplication by t*a + b in Q[x]/(h) modulo p, in the
    falling-factorial basis, from determinants at t = 0..deg h."""
    d = len(h) - 1
    if h[-1] % p == 0 or d >= p:
        return None
    inv = pow(h[-1], -1, p)
    low = [c * inv % p for c in h[:-1]]

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
        det_mod([[(t * x + y) % p for x, y in zip(ca, cb)] for ca, cb in zip(ma, mb)], p)
        for t in range(d + 1)
    ]
    coeffs, fact = [], 1
    for j in range(d + 1):
        coeffs.append(values[0] * pow(fact, -1, p) % p)
        values = [(v - u) % p for u, v in zip(values, values[1:])]
        fact = fact * (j + 1) % p
    return coeffs


def sympy_poly(cs: list[int]):
    return sympy.Poly(list(reversed(cs)) or [0], X)


def sympy_resultant(a: list[int], b: list[int]) -> int:
    """Res(a, b) by sympy.resultant, with the argument of larger degree
    first and the sign (-1)^(deg a deg b) of the swap: sympy 1.14 loses that
    sign when the first argument has the lower degree and both degrees are
    odd (test_sympy_sign_when_swapped)."""
    pa, pb = sympy_poly(a), sympy_poly(b)
    if pb.is_zero or pa.degree() >= pb.degree():
        return int(sympy.resultant(pa, pb))
    return (-1) ** (pa.degree() * pb.degree()) * int(sympy.resultant(pb, pa))


small = st.integers(-40, 40)


@st.composite
def resultant_cases(draw):
    """(a, b, p): a monic of degree 1..6; b zero modulo p, constant, of
    degree above deg a, or anything up to degree 8."""
    p = draw(st.sampled_from(PRIMES))
    a = draw(st.lists(small, min_size=1, max_size=6)) + [1]
    kind = draw(st.sampled_from(["zero", "constant", "above", "any"]))
    if kind == "zero":
        b = [p * c for c in draw(st.lists(small, max_size=5))]
    elif kind == "constant":
        b = [draw(small)]
    elif kind == "above":
        b = draw(st.lists(small, min_size=len(a), max_size=len(a) + 3)) + [draw(small.filter(bool))]
    else:
        b = draw(st.lists(small, max_size=9))
    return a, b, p


@DIFFERENTIAL
@given(resultant_cases())
def test_resultant_matches_sympy(case):
    a, b, p = case
    assert ratroots._resultant_mod(a, b, p) == sympy_resultant(a, b) % p


def test_sympy_sign_when_swapped():
    # Res(x + 1, x^3 + x + 5) = b(-1) = 3 is the Sylvester determinant; the
    # unswapped sympy.resultant gives -3
    a, b = [1, 1], [5, 1, 0, 1]
    sylvester = subresultants_qq_zz.sylvester(sympy_poly(a).as_expr(), sympy_poly(b).as_expr(), X)
    assert sylvester.det() == sympy_resultant(a, b) == 3
    assert ratroots._resultant_mod(a, b, 7) == 3


@pytest.mark.parametrize("p", PRIMES)
def test_resultant_edge_cases(p):
    a = [2, -3, 0, 1]  # x^3 - 3x + 2 = (x - 1)^2 (x + 2)
    assert ratroots._resultant_mod(a, [], p) == 0
    assert ratroots._resultant_mod(a, [p, 2 * p], p) == 0
    assert ratroots._resultant_mod(a, [5], p) == 125 % p
    # b = x - 1 shares a root with a; b = x has the product of a's roots
    assert ratroots._resultant_mod(a, [-1, 1], p) == 0
    assert ratroots._resultant_mod(a, [0, 1], p) == -2 % p
    # deg b > deg a: Res(a, x^5) = Res(a, x)^5
    assert ratroots._resultant_mod(a, [0, 0, 0, 0, 0, 1], p) == (-2) ** 5 % p


@st.composite
def norm_cases(draw):
    """(h, a, b, p) with deg h 1..7, its lead sometimes a multiple of p, and
    a and b of any degree up to deg h + 2, b sometimes zero modulo p."""
    p = draw(st.sampled_from(PRIMES + [11, 1009]))
    lead = draw(st.sampled_from([1, 5, -3, p, 2 * p]))
    h = draw(st.lists(small, min_size=1, max_size=7)) + [lead]
    a = draw(st.lists(small, max_size=len(h) + 2))
    b = draw(st.lists(small, max_size=len(h) + 2))
    if draw(st.booleans()):
        b = [p * c for c in b]
    return h, a, b, p


@DIFFERENTIAL
@given(norm_cases())
def test_norm_matches_determinants(case):
    assert sde._norm_mod(*case) == det_norm_mod(*case)


def test_norm_differential_covers_both_branches():
    # a fixed sweep next to the hypothesis draw: many values, both None cases
    rng, counts = random.Random(25), {"value": 0, "lead": 0, "degree": 0}
    for p in PRIMES + [11, 1009]:
        for _ in range(60):
            d = rng.randint(1, 7)
            h = [rng.randint(-20, 20) for _ in range(d)] + [rng.choice([1, 7, p])]
            a = [rng.randint(-50, 50) for _ in range(rng.randint(0, d + 2))]
            b = [rng.randint(-50, 50) for _ in range(rng.randint(0, d + 2))]
            got = sde._norm_mod(h, a, b, p)
            assert got == det_norm_mod(h, a, b, p)
            if got is not None:
                counts["value"] += 1
            else:
                counts["lead" if h[-1] % p == 0 else "degree"] += 1
    assert min(counts.values()) >= 20, counts


def test_norm_none_cases():
    p = 7
    assert sde._norm_mod([1, 2, 14], [1, 1], [3], p) is None  # p | lc(h)
    assert sde._norm_mod([1] * 8, [1, 1], [3], p) is None  # deg h >= p
    assert sde._norm_mod([1] * 7, [1, 1], [3], p) == det_norm_mod([1] * 7, [1, 1], [3], p)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.lists(st.integers(-(10**20), 10**20), max_size=12))
def test_differences_closed_form(values):
    got = _differences(values)
    assert got == [
        sum((-1) ** (k - i) * math.comb(k, i) * values[i] for i in range(k + 1)) for k in range(len(values))
    ]


def test_differences_leaves_its_input():
    values = [1, 4, 9, 16]
    assert _differences(values) == [1, 3, 2, 0]
    assert values == [1, 4, 9, 16]
