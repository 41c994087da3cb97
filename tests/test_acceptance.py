"""Acceptance suite: twelve end-to-end criteria with pinned time budgets.

Each test prints one PASS line on success; a failure surfaces as a normal
pytest failure.  Later tests reuse the verified outputs recorded by earlier
ones, so the module is meant to run in file order (pytest's default).
"""

import math
import random
import time
from fractions import Fraction

import pytest

from affinepowers import (
    Criterion,
    Decomposition,
    InstanceSpec,
    IrrationalNodeDetected,
    MultiDecomposition,
    MultiPoly,
    BlackBox,
    ReconstructionFailed,
    UniPoly,
    ZeroPolynomial,
    check_conditions,
    decompose_auto,
    decompose_big_exponents,
    decompose_big_gaps,
    decompose_distinct_nodes,
    decompose_small_intervals,
    expand_multi,
    find_min_sde,
    generate_instance,
    multi_build,
    sparsest_shift,
    waring_decompose,
    wronskian,
)
from affinepowers.linalg import IntMatrix, kernel
from affinepowers.multipoly import LinearForm

F = Fraction

# every (input, output) success recorded here is re-checked by the global
# soundness gate in criterion 11
VERIFIED_RUNS: list[tuple[UniPoly, Decomposition]] = []

IRRATIONAL_13 = UniPoly(
    (0, 1664, 0, 18304, 0, 41184, 0, 27456, 0, 5720, 0, 312, 0, 2)
)


def record(f: UniPoly, dec: Decomposition) -> None:
    assert dec.expand() == f
    VERIFIED_RUNS.append((f, dec))


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    # let report() bypass capture so one PASS line per criterion reaches
    # the terminal even on green runs
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(num: int, label: str, elapsed: float) -> None:
    line = f"ACCEPTANCE {num:02d} {label}: PASS ({elapsed:.2f}s)"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def test_01_distinct_nodes_landmark_identity():
    started = time.monotonic()
    f = UniPoly.affine_power(1, -1, 36) + UniPoly.affine_power(-36, 0, 35)
    dec = decompose_distinct_nodes(f)
    assert dec == Decomposition.of([(1, -1, 36), (-36, 0, 35)])
    record(f, dec)
    elapsed = time.monotonic() - started
    assert elapsed < 30
    report(1, "distinct-nodes landmark identity", elapsed)


def test_02_waring_symmetric_rank_two():
    started = time.monotonic()
    f = UniPoly.affine_power(1, -1, 10) + UniPoly.affine_power(1, 1, 10)
    res = waring_decompose(f)
    assert res.size == 2
    assert {b for _, b in res.terms} == {F(-1), F(1)}
    assert all(c == F(1) for c, _ in res.terms)
    elapsed = time.monotonic() - started
    assert elapsed < 5
    report(2, "waring symmetric rank two", elapsed)


def test_03_big_exponents_batch():
    started = time.monotonic()
    solved = 0
    for i in range(100):
        s = (i % 3) + 1
        spec = InstanceSpec(s=s, seed=300 + i)
        f, planted = generate_instance(spec, "big_exponents")
        for t in planted:
            assert 2 * t.exponent > 5 * s * s
            assert 2 * t.exponent <= 5 * s * s + 80  # e <= 5s^2/2 + 40
            assert abs(t.node) <= 9
        dec = decompose_big_exponents(f)
        assert dec == planted
        record(f, dec)
        solved += 1
    elapsed = time.monotonic() - started
    assert solved == 100
    assert elapsed < 300
    report(3, f"big-exponents batch {solved}/100", elapsed)


def test_04_distinct_nodes_batch():
    started = time.monotonic()
    solved = 0
    for i in range(50):
        s = (i % 3) + 1
        f, planted = generate_instance(
            InstanceSpec(s=s, seed=400 + i), "distinct_nodes"
        )
        rep = check_conditions(planted, [Criterion.DISTINCT_NODES])
        assert rep.ok
        dec = decompose_distinct_nodes(f)
        assert dec == planted
        record(f, dec)
        solved += 1
    elapsed = time.monotonic() - started
    assert solved == 50
    assert elapsed < 600
    report(4, f"distinct-nodes batch {solved}/50", elapsed)


def test_05_small_intervals_batch():
    started = time.monotonic()
    combos = [
        (1, 0, 1),
        (1, 1, 2),
        (1, 2, 2),
        (2, 0, 2),
        (2, 1, 3),
        (2, 2, 4),
    ]
    solved = auto_runs = 0
    for i in range(50):
        groups, delta, s = combos[i % len(combos)]
        spec = InstanceSpec(s=s, seed=500 + i)
        f, planted = generate_instance(
            spec, "small_intervals", groups=groups, delta=delta
        )
        floor = math.ceil(5 * groups * groups * (delta + 1) ** 2 / 2)
        assert min(t.exponent for t in planted) >= floor
        if i % 5 == 0:
            dec = decompose_small_intervals(f)  # width chosen automatically
            auto_runs += 1
        else:
            dec = decompose_small_intervals(f, delta)
        assert dec == planted
        record(f, dec)
        solved += 1
    elapsed = time.monotonic() - started
    assert solved == 50
    assert auto_runs >= 10
    assert elapsed < 600
    report(5, f"small-intervals batch {solved}/50 ({auto_runs} auto)", elapsed)


def test_06_big_gaps_batch():
    started = time.monotonic()
    solved = 0
    for i in range(50):
        s = 2 + (i % 2)
        spec = InstanceSpec(s=s, seed=600 + i, repeated_nodes=True)
        f, planted = generate_instance(spec, "big_gaps")
        by_node: dict = {}
        for t in planted:
            by_node.setdefault(t.node, []).append(t.exponent)
        for exps in by_node.values():
            exps.sort()
            for lo, hi in zip(exps, exps[1:]):
                assert 2 * (hi - lo) > 5 * s * s
        dec = decompose_big_gaps(f)
        assert dec == planted
        record(f, dec)
        solved += 1
    elapsed = time.monotonic() - started
    assert solved == 50
    assert elapsed < 600
    report(6, f"big-gaps batch {solved}/50", elapsed)


def test_07_sparsest_shift_batch():
    started = time.monotonic()
    solved = 0
    for i in range(50):
        rng = random.Random(700 + i)
        d = rng.randint(9, 26)
        cap = math.isqrt(d)
        size = rng.randint(1, min(3, cap))
        if i % 4 == 0:
            shift = F(rng.randint(-9, 9), 2)
        else:
            shift = F(rng.randint(-9, 9))
        exps = sorted(rng.sample(range(1, d), size - 1) + [d])
        support = tuple((e, F(rng.choice([1, -1]) * rng.randint(1, 9))) for e in exps)
        f = UniPoly()
        for e, c in support:
            f = f + UniPoly.affine_power(c, shift, e)
        res = sparsest_shift(f)
        assert res.shift == shift
        assert res.support == support
        solved += 1
    elapsed = time.monotonic() - started
    assert solved == 50
    assert elapsed < 120
    report(7, f"sparsest-shift batch {solved}/50", elapsed)


def test_08_sde_order_bounds():
    started = time.monotonic()
    checked = 0
    # certified big-exponent instances of size s admit an equation of
    # order at most 2s - 1, and no equation of order below s
    for i in range(100):
        s = (i % 4) + 1
        f, _ = generate_instance(InstanceSpec(s=s, seed=800 + i), "big_exponents")
        eq = find_min_sde(f, 0, 2 * s - 1)
        assert eq is not None
        assert s <= eq.order <= 2 * s - 1
        checked += 1
    # planted equal-exponent instances in the certification regime have
    # minimal order exactly s
    for s, d, seed in (
        (2, 6, 0), (2, 11, 1), (2, 16, 2), (2, 21, 3),
        (3, 14, 4), (3, 18, 5), (3, 25, 6), (3, 30, 7),
        (4, 24, 8), (4, 27, 9), (4, 33, 10), (4, 40, 11),
    ):
        assert 3 * s * s <= 2 * d
        rng = random.Random(seed)
        nodes = rng.sample(range(-9, 10), s)
        f = UniPoly()
        for a in nodes:
            f = f + UniPoly.affine_power(rng.randint(1, 9), a, d)
        eq = find_min_sde(f, 0)
        assert eq.order == s
        checked += 1
    elapsed = time.monotonic() - started
    assert checked == 112
    report(8, f"sde order bounds {checked} instances", elapsed)


def coeff_rank(fams, deg: int) -> int:
    """Rank of the coefficient matrix of integer polynomials of degree at
    most deg: the family size less the nullity of the transpose."""
    cols = [[int(g.coeff(k)) for g in fams] for k in range(deg + 1)]
    return len(fams) - len(kernel(IntMatrix.from_rows(cols)))


def test_09_wronskian_rank_oracle():
    started = time.monotonic()
    rng = random.Random(900)
    agreements = dependents = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        fams = [
            UniPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 7))])
            for _ in range(n)
        ]
        if rng.random() < 0.5:
            coeffs = [rng.randint(-3, 3) for _ in range(n - 1)]
            fams[-1] = UniPoly()
            for c, g in zip(coeffs, fams[:-1]):
                fams[-1] = fams[-1] + g.scale(c)
        deg = max((g.degree for g in fams), default=-1)
        if deg < 0:
            mat_rank = 0
        else:
            mat_rank = coeff_rank(fams, deg)
        dependent = mat_rank < n
        dependents += dependent
        assert wronskian(fams).is_zero() == dependent
        agreements += 1
    elapsed = time.monotonic() - started
    assert agreements == 200
    assert 0 < dependents < 200  # both sides of the equivalence exercised
    report(9, f"wronskian oracle {agreements}/200", elapsed)


def test_10_multivariate_batch():
    started = time.monotonic()
    successes = failures = 0
    for idx in range(25):
        n = 2 if idx % 2 == 0 else 3
        rng = random.Random(1000 + idx)
        e1, e2 = rng.sample(range(11, 17), 2)

        def random_form():
            while True:
                coeffs = [rng.randint(-5, 5) for _ in range(n)]
                if any(coeffs):
                    return LinearForm.of(rng.randint(0, 3), coeffs)

        f1, f2 = random_form(), random_form()
        c1, c2 = rng.randint(1, 5), rng.randint(1, 5)
        planted = MultiDecomposition.of(n, [(c1, f1, e1), (c2, f2, e2)])
        if len(planted.terms) != 2:
            planted = MultiDecomposition.of(
                n, [(c1, f1, e1), (c2, f2, e2 + 1 if e2 < 16 else e2 - 1)]
            )
        poly = expand_multi(planted)
        bb = BlackBox.from_multipoly(poly)
        try:
            md = multi_build(
                bb, rng_seed=idx, backend="big_exponents", retries=5
            )
        except (ReconstructionFailed, IrrationalNodeDetected):
            failures += 1
            continue
        assert md == planted
        # independent 50-point evaluation agreement
        check_rng = random.Random(5000 + idx)
        for _ in range(50):
            pt = [F(check_rng.randint(-10**6, 10**6)) for _ in range(n)]
            assert md.evaluate(pt) == poly.evaluate(pt)
        successes += 1
    elapsed = time.monotonic() - started
    assert successes + failures == 25
    assert successes >= 24
    assert elapsed < 600
    report(10, f"multivariate batch {successes}/25", elapsed)


def test_11_global_soundness_gate():
    started = time.monotonic()
    # every recorded success re-expands to its input exactly
    assert len(VERIFIED_RUNS) >= 200
    for f, dec in VERIFIED_RUNS:
        assert dec.expand() == f
    # out-of-regime inputs never yield an unverified answer: each solver
    # either raises a typed error or returns something that re-expands
    rng = random.Random(1100)
    awkward = [
        UniPoly((0, 1, 1)),  # x^2 + x
        UniPoly((1, 1, 0, 0, 1)),  # x^4 + x + 1
        UniPoly([rng.randint(-9, 9) for _ in range(6)] + [1]),
        IRRATIONAL_13,
    ]
    solvers = [
        decompose_big_exponents,
        decompose_big_gaps,
        decompose_distinct_nodes,
        decompose_small_intervals,
        lambda f: decompose_auto(f)[0],
    ]
    for f in awkward:
        for solver in solvers:
            try:
                dec = solver(f)
            except (ReconstructionFailed, IrrationalNodeDetected, ZeroPolynomial):
                continue
            assert dec.expand() == f
    elapsed = time.monotonic() - started
    report(11, f"soundness gate over {len(VERIFIED_RUNS)} runs", elapsed)


def test_12_irrational_negative_control():
    started = time.monotonic()
    # rational expansion of (x - r)^13 + (x + r)^13 with r^2 = 2
    assert IRRATIONAL_13.degree == 13
    for solver in (
        lambda f: decompose_auto(f)[0],
        decompose_big_exponents,
        decompose_distinct_nodes,
        waring_decompose,
    ):
        with pytest.raises(IrrationalNodeDetected):
            solver(IRRATIONAL_13)
    elapsed = time.monotonic() - started
    report(12, "irrational negative control", elapsed)
