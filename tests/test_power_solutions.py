"""power_solutions against the per-exponent reference path.

For e >= order every node of a power solution (x - b)^e is a root of
P_order, so when P_order is nonzero and all its roots are rational,
power_solutions tests those roots once per exponent.  The reference below
is the per-exponent path it replaces there, kept here apart from the node
table power_solutions reads: the gcd of the symbolic window's conditions,
its rational roots, and a check of every root with apply_sde on the dense
expansion.  Both must give the same pairs, or the
same error type and message.
"""

import math
from fractions import Fraction

import pytest

from affinepowers import (
    SDE,
    IrrationalNodeDetected,
    UniPoly,
    apply_sde,
    find_min_sde,
    power_solutions,
    ratroots,
    sde,
    shifted_poly_solutions,
)
from affinepowers.generate import InstanceSpec, generate_instance

F = Fraction


def P(*coeffs) -> UniPoly:
    return UniPoly(coeffs)


def shifted_coeff_polys(p_int: list[list[int]]) -> list[list[list[int]]]:
    """q[i][t] = coefficients (in the node variable b) of the y^t part of
    P_i(y + b)."""
    out = []
    for cs in p_int:
        deg = len(cs) - 1
        out.append([[cs[u] * math.comb(u, t) for u in range(t, deg + 1)] for t in range(deg + 1)])
    return out


def window(q: list[list[list[int]]], e: int) -> dict[int, list[int]]:
    """L((x - b)^e) in the basis y = x - b, as {m: coefficients in b of the
    y^m part}: sum_i e!/(e-i)! * y^(e-i) * P_i(y + b)."""
    acc: dict[int, list[int]] = {}
    for i in range(min(len(q) - 1, e) + 1):
        fall = math.perm(e, i)
        for t, qit in enumerate(q[i]):
            slot = acc.setdefault(e - i + t, [])
            if len(slot) < len(qit):
                slot.extend([0] * (len(qit) - len(slot)))
            for idx, c in enumerate(qit):
                slot[idx] += fall * c
    return acc


def reference_at(s: SDE, q, e: int) -> list[tuple[Fraction, int]]:
    conditions = [cs for _, cs in sorted(window(q, e).items()) if ratroots._strip(cs)]
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
    found = []
    for b in sorted(roots):
        assert apply_sde(s, UniPoly.affine_power(1, b, e)).is_zero()
        found.append((b, e))
    return found


def reference(s: SDE, e_min: int, e_max: int) -> list[tuple[Fraction, int]]:
    if e_min < 1:
        raise ValueError("e_min must be at least 1")
    q = shifted_coeff_polys(s.int_polys())
    out = []
    for e in range(e_min, e_max + 1):
        out.extend(reference_at(s, q, e))
    out.sort(key=lambda be: (be[1], be[0]))
    return out


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as ex:  # the type and message are compared
        return "error", type(ex), str(ex)


def pair_sum(r2: int, e: int) -> UniPoly:
    """(x - r)^e + (x + r)^e with r^2 = r2: rational coefficients, nodes
    +-r irrational unless r2 is a square."""
    cs = [0] * (e + 1)
    for k in range(0, e + 1, 2):
        cs[e - k] = 2 * math.comb(e, k) * r2 ** (k // 2)
    return UniPoly(cs)


def ranges(s: SDE, f: UniPoly):
    """From 1, from the order and from the single-pass threshold, up to the
    single-pass window's end."""
    r = s.order
    top = f.degree + r * r
    return [(lo, top) for lo in sorted({1, max(r, 1), -(-((r + 1) ** 2) // 2)})]


PLANTED = [
    (regime, extra, terms, seed)
    for regime, extra in (
        ("big_exponents", {}),
        ("big_gaps", {"repeated_nodes": True}),
        ("distinct_nodes", {}),
    )
    for terms in (1, 2, 3)
    for seed in range(3)
]


IRRATIONAL_SUMS = [
    pair_sum(2, 13),
    pair_sum(3, 12) + UniPoly.affine_power(3, 1, 7),
    pair_sum(2, 13) + UniPoly.affine_power(3, 1, 9),
    pair_sum(2, 9) + UniPoly.affine_power(3, 1, 15),
] + [UniPoly.affine_power(2, F(1, 2), 17) + P(-2, 0, 1) ** k for k in (2, 4, 7)]


class TestAgainstReference:
    @pytest.mark.parametrize("regime, extra, terms, seed", PLANTED)
    def test_planted(self, regime, extra, terms, seed):
        f, _ = generate_instance(InstanceSpec(s=terms, seed=seed, **extra), regime)
        s = find_min_sde(f, 0)
        for lo, hi in ranges(s, f):
            assert outcome(power_solutions, s, lo, hi) == outcome(reference, s, lo, hi)

    def test_irrational_nodes(self):
        raised = 0
        for f in IRRATIONAL_SUMS:
            s = find_min_sde(f, 0)
            for lo, hi in ranges(s, f):
                got = outcome(power_solutions, s, lo, hi)
                assert got == outcome(reference, s, lo, hi)
                raised += got[0] == "error"
        assert raised >= 3

    def test_exponents_below_the_order(self):
        f = UniPoly.affine_power(1, 1, 13) + UniPoly.affine_power(2, -2, 11) + P(0, 0, 1)
        s = find_min_sde(f, 1)
        assert s.order > 2
        for lo in range(1, s.order + 1):
            assert outcome(power_solutions, s, lo, 20) == outcome(reference, s, lo, 20)

    def test_zero_top_coefficient(self):
        # a user-built equation whose P_order is zero
        s = SDE(2, 0, (P(5), P(2, -1), P()))
        assert outcome(power_solutions, s, 1, 10) == outcome(reference, s, 1, 10)
        assert power_solutions(s, 1, 10) == [(F(2), 5)]

    def test_every_node_below_the_threshold(self):
        # g'' = 0 holds for every (x - b)^1: the reference raises ValueError
        s = SDE(2, 0, (P(), P(), P(1)))
        got = outcome(power_solutions, s, 1, 4)
        assert got == outcome(reference, s, 1, 4)
        assert got[1] is ValueError

    def test_fractional_equation(self):
        s = SDE(2, 1, (P(F(7, 3)), P(F(1, 2), F(-5, 6)), P(F(1, 4), F(-1, 2), F(1, 4))))
        for lo, hi in ((1, 12), (2, 12), (5, 30)):
            assert outcome(power_solutions, s, lo, hi) == outcome(reference, s, lo, hi)


class TestAgainstShiftedPolySolutions:
    @pytest.mark.parametrize("regime, extra, terms, seed", PLANTED)
    def test_delta_zero_at_each_root_of_the_top_coefficient(self, regime, extra, terms, seed):
        # both read the node table: with delta = 0 the solutions at a root b
        # of P_order are the powers (x - b)^e that power_solutions returns
        f, _ = generate_instance(InstanceSpec(s=terms, seed=seed, **extra), regime)
        s = find_min_sde(f, 0)
        roots, cofactor_deg = ratroots.rational_roots_with_cofactor(s.polys[-1])
        assert not cofactor_deg  # P_order splits over Q for these seeds
        for lo, hi in ranges(s, f):
            pairs = power_solutions(s, lo, hi)
            for b in roots:
                want = [{e: 1} for c, e in pairs if c == b]
                assert shifted_poly_solutions(s, b, 0, lo, hi) == want


class TestIrrationalFactor:
    def test_mixed_top_coefficient_raises_at_the_same_exponent(self):
        # P_order has the rational roots 1 and 8/7 and an irreducible
        # quadratic factor, so the per-exponent path runs and raises where
        # the nodes +-sqrt(2) of exponent 13 appear
        f = pair_sum(2, 13) + UniPoly.affine_power(3, 1, 9)
        s = find_min_sde(f, 0)
        roots, cofactor_deg = ratroots.rational_roots_with_cofactor(s.polys[-1])
        assert roots and cofactor_deg == 2
        message = (
            "nodes at exponent 13 satisfy an irreducible condition of "
            "degree 2 with no rational root"
        )
        for lo in (1, s.order, 13):
            with pytest.raises(IrrationalNodeDetected) as info:
                power_solutions(s, lo, 30)
            assert str(info.value) == message
        # the rational node of exponent 9 is found below the raise
        assert power_solutions(s, 1, 12) == [(F(1), 9)]


class TestNoGcdChain:
    def test_big_exponents_makes_no_gcd_chain_and_one_check_per_pair(self, monkeypatch):
        calls = {"poly_gcd_int": 0, "apply_sde": 0, "roots": 0}
        in_roots = [False]
        gcd, apply, roots_of = ratroots.poly_gcd_int, sde.apply_sde, ratroots.rational_roots_with_cofactor

        def spy_gcd(a, b):
            # the root finder's one squarefree-part gcd is not a chain step
            calls["poly_gcd_int"] += not in_roots[0]
            return gcd(a, b)

        def spy_apply(s, f):
            calls["apply_sde"] += 1
            return apply(s, f)

        def spy_roots(f):
            calls["roots"] += 1
            in_roots[0] = True
            try:
                return roots_of(f)
            finally:
                in_roots[0] = False

        f, planted = generate_instance(InstanceSpec(s=3, seed=5), "big_exponents")
        s = find_min_sde(f, 0)
        monkeypatch.setattr(ratroots, "poly_gcd_int", spy_gcd)
        monkeypatch.setattr(ratroots, "rational_roots_with_cofactor", spy_roots)
        monkeypatch.setattr(sde, "apply_sde", spy_apply)
        r = s.order
        pairs = power_solutions(s, -(-((r + 1) ** 2) // 2), f.degree + r * r)
        assert sorted(pairs) == sorted((t.node, t.exponent) for t in planted)
        # apply_sde certifies each returned pair, not each candidate
        assert calls == {"poly_gcd_int": 0, "apply_sde": len(pairs), "roots": 1}
