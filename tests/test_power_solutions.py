"""power_solutions against a reference that searches every exponent alone,
and against the exact gcd chain it runs only where the norm screen asks.

Every node of a power solution (x - b)^e is a root of the lead P_k of the
node table at e, so power_solutions splits P_k once per run of exponents
and tests its rational roots.  The reference below finds the nodes per
exponent instead, apart from the node table power_solutions reads: the gcd
of the symbolic window's conditions, its rational roots, and a check of
every root with apply_sde on the dense expansion.  per_exponent_loop is
power_solutions with the exact gcd chain at every exponent of every run and
no norm screen.  All must give the same pairs, or the same error type and
message.
"""

import math
import operator
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
        # quadratic factor, whose gcd with the conditions of exponent 13 is
        # the node condition of +-sqrt(2): power_solutions raises there
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

    def test_top_coefficient_factored_once_per_run(self, monkeypatch):
        # every exponent from the order on shares P_order: its roots are
        # found once, not again for the condition of each exponent
        f = pair_sum(2, 13) + UniPoly.affine_power(3, 1, 9)
        s = find_min_sde(f, 0)
        calls = []
        roots_of = ratroots.rational_roots_with_cofactor

        def spy_roots(p):
            calls.append(p)
            return roots_of(p)

        monkeypatch.setattr(ratroots, "rational_roots_with_cofactor", spy_roots)
        assert power_solutions(s, s.order, 12) == [(F(1), 9)]
        assert calls == [s.polys[-1]]


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


def per_exponent_loop(s: SDE, e_min: int, e_max: int) -> list[tuple[Fraction, int]]:
    """power_solutions without the norm screen: per run P_k is split into
    its rational roots and its part h without them, and at every exponent
    h is reduced by an exact gcd against each row above the P_k row."""
    if e_min < 1:
        raise ValueError("e_min must be at least 1")
    if e_min > e_max:
        return []
    table = sde._node_table(s)
    runs = [(e, e) for e in range(e_min, min(s.order, e_max + 1))]
    if e_max >= s.order:
        runs.append((max(e_min, s.order), e_max))
    out = []
    for lo, hi in runs:
        k = next((i for i in range(min(lo, s.order), -1, -1) if not s.polys[i].is_zero()), None)
        if k is None:
            raise ValueError(
                f"every node solves the equation at exponent {lo}; "
                "the requested range is below the meaningful threshold"
            )
        roots, cofactor_deg = ratroots.rational_roots_with_cofactor(s.polys[k])
        h = [1]
        if cofactor_deg:
            linear = math.prod((UniPoly((-b, 1)) ** m for b, m in roots.items()), start=UniPoly([1]))
            h = ratroots.to_primitive_int(s.polys[k].quo_rem(linear)[0])
        above = table[s.order - k + 1 :]
        candidates = [(b, [w for w in sde._rows_at_node(table, b) if any(w)]) for b in sorted(roots)]
        for e in range(lo, hi + 1):
            falls = [math.perm(e, i) for i in range(s.order + 1)]
            g = h
            for row in above:
                if len(g) == 1:
                    break
                cs = [0] * max(map(len, row))
                for fall, w in zip(falls, row):
                    for t, c in enumerate(w):
                        cs[t] += fall * c
                if ratroots._strip(cs):
                    g = ratroots.poly_gcd_int(g, cs)
            if len(g) > 1:
                raise IrrationalNodeDetected(
                    f"nodes at exponent {e} satisfy an irreducible condition of "
                    f"degree {len(g) - 1} with no rational root",
                    exponent=e,
                )
            for b, rows in candidates:
                if not any(sum(map(operator.mul, falls, row)) for row in rows):
                    out.append((b, e))
    for b, e in out:
        assert apply_sde(s, UniPoly.affine_power(1, b, e)).is_zero()
    out.sort(key=lambda be: (be[1], be[0]))
    return out


def scaled(s: SDE, lead: UniPoly, pad: int = 0) -> SDE:
    """s with every P_i multiplied by lead, and pad zero P_i on top: the
    power solutions of s stay solutions."""
    polys = [p * lead for p in s.polys] + [P()] * pad
    return SDE(s.order + pad, s.shift + lead.degree, tuple(polys))


def outcome_with_exponent(fn, *args):
    """outcome, with the exponent attribute of an IrrationalNodeDetected."""
    got = outcome(fn, *args)
    if got[1] is IrrationalNodeDetected:
        try:
            fn(*args)
        except IrrationalNodeDetected as exc:
            return got + (exc.exponent,)
    return got


def peel_range(s: SDE, f: UniPoly) -> tuple[int, int]:
    """The range of a peeling pass of decompose_distinct_nodes."""
    return -(-((s.order + 1) ** 2) // 2), f.degree + (f.degree + 2) ** 2 // 8


WIDE = {
    # planted inputs of degree >= 100
    **{
        f"{regime}-{seed}": generate_instance(InstanceSpec(s=3, seed=seed, **extra), regime)[0]
        for regime, extra in (
            ("distinct_nodes", {"exp_min": 100, "exp_max": 140}),
            ("big_gaps", {"exp_min": 60, "repeated_nodes": True}),
        )
        for seed in range(3)
    },
    # a node that is not an integer, next to a repeated one
    "fractional_node": UniPoly.affine_power(3, F(-1157, 129), 110)
    + UniPoly.affine_power(1, 2, 104)
    + UniPoly.affine_power(-2, 2, 60),
    # an irrational pair inside the range
    "irrational_pair": pair_sum(2, 101) + UniPoly.affine_power(3, 1, 120),
}
# leads with a repeated root and a root -1157/129 that is no node
WIDE_LEADS = [P(1), P(-1, 1) ** 2 * P(1157, 129)]


class TestWidePeelRanges:
    """The sweep of each node's indicial polynomial against the loop over
    every exponent, on the ranges a peeling pass asks for at degree >= 100."""

    @pytest.mark.parametrize("lead", range(len(WIDE_LEADS)))
    @pytest.mark.parametrize("name", sorted(WIDE))
    def test_matches_per_exponent_loop(self, name, lead):
        f = WIDE[name]
        assert f.degree >= 100
        s = scaled(find_min_sde(f, 0), WIDE_LEADS[lead])
        lo, hi = peel_range(s, f)
        got = outcome_with_exponent(power_solutions, s, lo, hi)
        assert got == outcome_with_exponent(per_exponent_loop, s, lo, hi)
        if name == "irrational_pair":
            assert got[1:] == (
                IrrationalNodeDetected,
                "nodes at exponent 101 satisfy an irreducible condition of "
                "degree 2 with no rational root",
                101,
            )
        else:
            assert got[0] == "ok" and got[1]


SQRT2 = P(-2, 0, 1)  # b^2 - 2
SCREENED = {
    # an irrational factor next to rational roots, with and without a node
    # at sqrt 2 (the exponent-13 pair)
    "irrational_next_to_rational": find_min_sde(pair_sum(2, 13) + UniPoly.affine_power(3, 1, 9), 0),
    "irrational_factor_times_lead": scaled(find_min_sde(UniPoly.affine_power(2, F(1, 2), 11), 0), SQRT2 * P(-1, 1)),
    # h = (b^2 - 2)^2 is not squarefree; P_r' shares b^2 - 2 with h
    "repeated_irrational_factor": scaled(find_min_sde(pair_sum(2, 9) + UniPoly.affine_power(1, -1, 12), 0), SQRT2 ** 2),
    # P_r' = 2b(b^2 - 2) + ... shares b^2 - 2 with h = (b^2 - 2)^2 and P_1 = 0
    "derivative_shares_h_no_lower": SDE(2, 2, (P(1), P(), SQRT2 ** 2)),
    # P_{r-1} = 0 with a squarefree h
    "lower_coefficient_zero": SDE(2, 1, (P(3, 1), P(), SQRT2 * P(-1, 1))),
    # P_order = 0: the lead of the run from the order is P_1
    "zero_top_coefficient": SDE(3, 2, (P(F(1, 2)), SQRT2 * P(1, 2), P(), P())),
    "zero_top_with_node": scaled(find_min_sde(pair_sum(3, 12), 0), P(1, 0, 1), pad=2),
    # fractional user-built equations
    "fractional": SDE(2, 1, (P(F(7, 3)), P(F(1, 2), F(-5, 6)), P(F(-1, 2), 0, F(1, 4)))),
    "fractional_node": scaled(find_min_sde(pair_sum(5, 10), 1), P(F(-1, 3), 0, F(2, 3))),
}


# the cases where t P_k' + P_{k-1} shares a factor with h at every t
NORM_ZERO = {"repeated_irrational_factor", "derivative_shares_h_no_lower"}


def spy_chain(monkeypatch) -> list[int]:
    """Record the exponent of every exact gcd chain power_solutions runs."""
    chain = sde._irrational_part
    seen = []

    def spy(h, rows, falls):
        seen.append(falls[1])  # perm(e, 1) = e
        return chain(h, rows, falls)

    monkeypatch.setattr(sde, "_irrational_part", spy)
    return seen


def chain_ranges(s: SDE):
    return [(1, 30), (max(s.order, 1), 30), (s.order + 2, 45)]


class TestNormScreen:
    @pytest.mark.parametrize("name", sorted(SCREENED))
    def test_matches_per_exponent_loop(self, name):
        s = SCREENED[name]
        for lo, hi in chain_ranges(s):
            want = outcome(per_exponent_loop, s, lo, hi)
            assert outcome(power_solutions, s, lo, hi) == want
            assert want == outcome(reference, s, lo, hi)

    def test_hit_branch_raises_with_its_exponent(self):
        raised = 0
        for s in SCREENED.values():
            for lo, hi in chain_ranges(s):
                try:
                    power_solutions(s, lo, hi)
                except IrrationalNodeDetected as exc:
                    assert str(exc).startswith(f"nodes at exponent {exc.exponent} ")
                    raised += 1
        assert raised >= 6

    @pytest.mark.parametrize("name", sorted(SCREENED))
    def test_chain_runs_only_at_screen_hits(self, monkeypatch, name):
        # at 2^61 - 1 every case has lc(h) a unit.  Where P_k' and P_{k-1}
        # share a factor with h, N is zero over Q and the chain runs at
        # every exponent; elsewhere it runs exactly at the exponents where
        # the exact gcd is nonconstant, the first of which raises
        s = SCREENED[name]
        lo, hi = s.order + 1, 40
        seen = spy_chain(monkeypatch)
        got = outcome(power_solutions, s, lo, hi)
        if name in NORM_ZERO:
            assert got[0] == "ok" and seen == list(range(lo, hi + 1))
        elif got[0] == "ok":
            assert seen == []
        else:
            assert seen == [int(got[2].split()[3])]

    def test_single_exponent_runs_keep_the_chain(self, monkeypatch):
        s = SCREENED["irrational_next_to_rational"]
        seen = spy_chain(monkeypatch)
        assert power_solutions(s, 12, 12) == []
        assert seen == [12]


# N = det(t P_2' + P_1 mod h) for h = b^2 - 2 vanishes modulo 7 at every t:
# h = (b - 3)(b + 3) mod 7 and P_2' and P_1 both vanish at b = 3 mod 7, while
# over Q no t P_2'(sqrt 2) + P_1(sqrt 2) is zero
ZERO_NORM_MOD_7 = SDE(2, 1, (P(1), P(-3, 1), SQRT2 * P(-3, 1)))
# lc(h) = 7: the screen is off modulo 7
LEAD_DIVISIBLE_BY_7 = SDE(2, 1, (P(2, 1), P(5, 1), P(1, 0, 7) * P(-1, 1)))


class TestSmallPrimes:
    """The screen's prime patched to 3, 5 and 7: the outcomes stay the same,
    and the exact chain runs wherever the screen cannot rule an exponent
    out."""

    CASES = list(SCREENED.values()) + [ZERO_NORM_MOD_7, LEAD_DIVISIBLE_BY_7]

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_outcomes_unchanged(self, monkeypatch, p):
        want = [outcome(per_exponent_loop, s, lo, hi) for s in self.CASES for lo, hi in chain_ranges(s)]
        monkeypatch.setattr(ratroots, "_PRIME", p)
        got = [outcome(power_solutions, s, lo, hi) for s in self.CASES for lo, hi in chain_ranges(s)]
        assert got == want

    @pytest.mark.parametrize(
        "s, h", [(ZERO_NORM_MOD_7, [-2, 0, 1]), (LEAD_DIVISIBLE_BY_7, [1, 0, 7])], ids=["zero_norm", "lead"]
    )
    def test_chain_at_every_exponent_when_the_screen_is_off(self, monkeypatch, s, h):
        row = sde._node_table(s)[1]  # t P_2' + P_1 at t = e - 1
        assert sde._norm_mod(h, row[2], row[1], ratroots._PRIME) not in (None, [0, 0, 0])
        assert sde._norm_mod(h, row[2], row[1], 7) in (None, [0, 0, 0])
        want = per_exponent_loop(s, 2, 30)
        seen = spy_chain(monkeypatch)
        assert power_solutions(s, 2, 30) == want
        assert seen == []
        monkeypatch.setattr(ratroots, "_PRIME", 7)
        assert power_solutions(s, 2, 30) == want
        assert seen == list(range(2, 31))

    def test_unlucky_prime_runs_the_chain_at_false_hits(self, monkeypatch):
        # every exponent the chain runs at for 2^61 - 1 (an exact hit, or N
        # zero over Q) it runs at for 3 and 5 too, and at some more where
        # the norm vanishes modulo the small prime only
        extra = 0
        for s in self.CASES:
            with monkeypatch.context() as mp:
                wide = spy_chain(mp)
                outcome(power_solutions, s, 2, 40)
            for p in (3, 5):
                with monkeypatch.context() as mp:
                    seen = spy_chain(mp)
                    mp.setattr(ratroots, "_PRIME", p)
                    outcome(power_solutions, s, 2, 40)
                assert set(wide) <= set(seen)
                extra += len(seen) - len(wide)
        assert extra > 0
