"""The roots modulo p of ratroots._roots_of_squarefree against the full scan.

_roots_of_squarefree takes its roots modulo p from g = gcd(sf, x^p - x): a
constant g returns no root without any work on residues, and otherwise g is
split into its linear factors by gcds with (x + a)^((p-1)/2) - 1.  full_scan
finds the residues by evaluating sf at every residue instead; both must
return the same roots, g must have exactly as many roots modulo p as sf,
and the split must return exactly the residues the scan finds.
_linear_part_mod itself is checked against the per-coefficient loops its
squaring and reduction replaced.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from affinepowers import UniPoly, ratroots  # noqa: E402
from affinepowers.unipoly import _multiplicity  # noqa: E402

F = Fraction

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)


def full_scan(sf):
    """_roots_of_squarefree for degree >= 3 with every residue mod p tested."""
    num_bound, den_bound = abs(sf[0]), abs(sf[-1])
    dsf = ratroots._deriv(sf)
    p = 1009
    while True:
        while not ratroots._is_prime(p):
            p += 2
        if sf[-1] % p != 0 and len(ratroots._poly_gcd_mod(sf, dsf, p)) == 1:
            break
        p += 2
    residues = [x for x in range(p) if ratroots._eval_mod(sf, x, p) == 0]
    target = 2 * num_bound * den_bound + 1
    found = []
    for r0 in residues:
        lifted, modulus = ratroots._hensel_lift(sf, dsf, r0, p, target)
        cand = ratroots._rational_reconstruct(lifted, modulus, num_bound, den_bound)
        if cand is not None and _multiplicity(sf, *cand)[0]:
            found.append(F(*cand))
    return sorted(set(found))


def squarefree_part(cs):
    """The polynomial rational_roots_with_cofactor hands to the scan: x^k
    factors removed, then the squarefree part, primitive."""
    cs = ratroots._primitive(cs)
    while cs and cs[0] == 0:
        cs = cs[1:]
    g = ratroots.poly_gcd_int(cs, ratroots._deriv(cs))
    return ratroots._exact_div(cs, g) if len(g) > 1 else ratroots._primitive(cs)


def scan_with_gcd(sf):
    """_roots_of_squarefree(sf), and the (p, g) its gcd step used."""
    calls = []
    real = ratroots._linear_part_mod

    def spy(poly, p):
        g = real(poly, p)
        calls.append((p, g))
        return g

    with mock.patch.object(ratroots, "_linear_part_mod", spy):
        roots = ratroots._roots_of_squarefree(sf)
    (step,) = calls
    return roots, step


def product(factors):
    out = UniPoly([1])
    for a, b in factors:
        out = out * UniPoly([-b, a])
    return out


# a random polynomial times up to four rational linear factors b/a
polys = st.builds(
    lambda factors, rest, lead: UniPoly(rest + [lead]) * product(factors),
    st.lists(st.tuples(st.integers(1, 30), st.integers(-40, 40)), max_size=4),
    st.lists(st.integers(-60, 60), max_size=6),
    st.integers(1, 12),
)


# no root modulo 1009, the prime the scan picks for them
NO_ROOTS_MOD_P = ([-2, 0, 0, 1], [3, 0, 1, 0, 1], [2, 0, 0, 1])


@PROPERTY
@given(polys)
@example(UniPoly(NO_ROOTS_MOD_P[0]))
@example(UniPoly(NO_ROOTS_MOD_P[1]) * UniPoly([-3, 2]))
@example(UniPoly([6, 0, 5, 0, 1]))  # x^4 + 5x^2 + 6 splits mod 1009 with no rational root
def test_matches_full_scan(f):
    sf = squarefree_part(ratroots.to_primitive_int(f))
    hypothesis.assume(len(sf) >= 4)
    roots, (p, g) = scan_with_gcd(sf)
    assert roots == full_scan(sf)
    assert len(g) - 1 == sum(1 for x in range(p) if ratroots._eval_mod(sf, x, p) == 0)
    assert all(_multiplicity(sf, *r.as_integer_ratio())[0] for r in roots)


@pytest.mark.parametrize("sf", NO_ROOTS_MOD_P)
def test_no_root_mod_p_returns_before_the_scan(sf):
    roots, (p, g) = scan_with_gcd(sf)
    assert p == 1009 and len(g) == 1
    # one power, x^p mod sf, and nothing on residues: no splitting power
    # (x + a)^((p-1)/2) and no evaluation
    powers = []
    real = ratroots._power_mod

    def spy(a, n, poly, m):
        powers.append(n)
        return real(a, n, poly, m)

    with mock.patch.object(ratroots, "_eval_mod", side_effect=AssertionError("scanned")), \
            mock.patch.object(ratroots, "_power_mod", spy):
        assert ratroots._roots_of_squarefree(sf) == []
    assert powers == [p]
    assert full_scan(sf) == []


def scanned_residues(sf, p):
    return [x for x in range(p) if ratroots._eval_mod(sf, x, p) == 0]


def test_split_finds_the_residues_of_the_scan():
    # (x - 2)(x - 3)(x^2 + 1) has 4 roots mod 1009 (i is one there); 2 and 3
    # share their quadratic character under the first shifts a
    sf = ratroots.to_primitive_int(product([(1, 2), (1, 3)]) * UniPoly([1, 0, 1]))
    roots, (p, g) = scan_with_gcd(sf)
    assert roots == [F(2), F(3)]
    residues = scanned_residues(sf, p)
    assert len(residues) == len(g) - 1 == 4
    assert sorted(ratroots._split_mod(g, p)) == residues


@PROPERTY
@given(polys)
@example(UniPoly([-2, 0, 0, 1]))  # no root mod 1009
@example(product([(1, b) for b in range(-3, 4)]))  # seven consecutive roots
def test_split_matches_the_scan_mod_p(f):
    sf = squarefree_part(ratroots.to_primitive_int(f))
    hypothesis.assume(len(sf) >= 4)
    _, (p, g) = scan_with_gcd(sf)
    split = ratroots._split_mod(g, p)
    assert len(split) == len(set(split))
    assert sorted(split) == scanned_residues(sf, p)


def schoolbook_linear_part_mod(sf, p):
    """_linear_part_mod with the per-coefficient loops it replaced: the
    square by a double loop and each reduction one entry at a time."""
    n = len(sf) - 1
    inv = pow(sf[-1], -1, p)
    low = [c * inv % p for c in sf[:-1]]

    def reduce(r):
        for k in range(len(r) - 1, n - 1, -1):
            top = r[k]
            if top:
                for j, c in enumerate(low, k - n):
                    r[j] = (r[j] - top * c) % p
        return r[:n]

    acc = [1]
    for bit in bin(p)[2:]:
        sq = [0] * (2 * len(acc) - 1)
        for i, a in enumerate(acc):
            if a:
                for j, b in enumerate(acc, i):
                    sq[j] += a * b
        acc = reduce([c % p for c in sq])
        if bit == "1":
            acc = reduce([0] + acc)
    acc += [0] * (2 - len(acc))
    acc[1] -= 1
    return ratroots._poly_gcd_mod(sf, acc, p)


@pytest.mark.parametrize("degree", [3, 4, 7, 30, 60, 120])
def test_linear_part_matches_the_schoolbook_loops(degree):
    rng = random.Random(degree)
    tried = 0
    # 2^61 - 1 takes 61 squarings: only at the lower degrees
    primes = (1009, 1013, 7919) + ((ratroots._PRIMES[0],) if degree <= 30 else ())
    while tried < 4:
        cs = [rng.randint(-50, 50) for _ in range(degree)] + [rng.randint(1, 50)]
        if len(ratroots.poly_gcd_int(cs, ratroots._deriv(cs))) > 1:
            continue
        tried += 1
        for p in primes:
            if cs[-1] % p:
                assert ratroots._linear_part_mod(cs, p) == schoolbook_linear_part_mod(cs, p)


@PROPERTY
@given(st.lists(st.integers(0, 1008), min_size=1, max_size=40))
def test_square_mod_is_the_schoolbook_square(cs):
    want = [0] * (2 * len(cs) - 1)
    for i, a in enumerate(cs):
        for j, b in enumerate(cs):
            want[i + j] += a * b
    assert ratroots._square_mod(cs, 1009) == [c % 1009 for c in want]
