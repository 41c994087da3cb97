"""Seeded instance pools for the benchmark workloads, and output checks.

A workload is a fixed cycle of instance slots; a pool is several cycles,
every instance drawn from `random.Random(f"{workload}:{seed}")`.  Timed runs
stop only at cycle boundaries, so each run sees the slots in the same
proportions whatever the seed or the machine speed.  The program receives
only the generated `UniPoly` or `BlackBox`; the planted answer stays here
for the checks.

Every function takes the imported package `ap` as an argument, because the
benchmark re-imports the package for each timed set-up.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

# instances per cycle, cycles per pool, and cycles in one traced run.  An
# odd cycle puts the median inside one slot class instead of between two.
WORKLOADS = {
    "planted": (11, 30, 8),
    "small_intervals": (17, 10, 3),
    "reject": (11, 8, 3),
    "multivariate": (3, 12, 6),
}

# the percentile latency_tail_ms reports.  Runs stop at cycle boundaries,
# so a fixed percentile falls at the same place in a cycle's cost order
# however many cycles a run completes, where "the 11th largest call" moves
# from one slot to another.  Each is placed in the middle of a slot class
# (planted: distinct_nodes s=3; small_intervals: the (2, 1) slots; reject:
# degrees 27 and 29; multivariate: n = 3), not at its edge, and leaves at
# least 10 calls beyond it in a 25-s run on the VM that README.md
# describes; a shorter run falls back to the highest percentile that does.
TAIL_PERCENTILE = {"planted": 95, "small_intervals": 88, "reject": 75, "multivariate": 75}

# generic rejection inputs: degrees whose refusal takes 0.2-1 s on a 2-vCPU
# VM.  Degrees 28, 34 and 36 (4-27 s each) and 60/90 wait for a work budget.
REJECT_DEGREES = (20, 22, 24, 26, 27, 29, 31, 33)

# (groups, delta, terms, automatic width), one term count per slot.  The
# first eleven cover every (groups, delta) pair; the cost of one instance
# varies 2-4 fold with its nodes and coefficients, and in cost order the
# middle of these eleven is a mix of five slots (20-80 ms each), so their
# median moved by 18% (interquartile range over median) from seed to seed.
# Six more (2, 0) slots with automatic width, the tightest slot (20-30 ms
# an instance on the VM in its fast state), put the median inside one slot
# class.  (2, 2) keeps s = 2: s = 4..6 takes 7-16 s an instance.
SMALL_INTERVAL_SLOTS = (
    (1, 0, 1, False),
    (1, 1, 2, False),
    (1, 2, 2, False),
    (2, 0, 2, False),
    (2, 1, 2, False),
    (2, 1, 3, False),
    (2, 2, 2, False),
    (1, 1, 2, True),
    (2, 0, 2, True),
    (2, 0, 2, False),
    (2, 1, 2, True),
) + ((2, 0, 2, True),) * 6

# exponent pairs per multivariate slot, walked in this fixed order so that
# every seed sees the same exponents and only forms and coefficients vary.
# The larger exponent is the black box's degree, which sets the number of
# queries and the size of each evaluation (3 (d+1) queries of a polynomial
# with C(d+3, 3) terms for n = 3, 2.8 times more work at d = 16 than at
# d = 12).  It is fixed per slot, so that every cycle costs about the same:
# walking all pairs made a run's median and tail depend on which pairs its
# cycles reached.
MULTI_EXPONENTS = (
    ((16, 11), (16, 12), (16, 13), (16, 14), (16, 15)),  # n = 2
    ((14, 11), (14, 12), (14, 13)),  # n = 3
    ((11, 14), (12, 14), (13, 14)),  # n = 3
)


@dataclass
class Instance:
    """kind names the public entry point; arg is what the program gets;
    option is delta (small_intervals) or rng_seed (multivariate); expect is
    the planted decomposition or the refusal class."""

    kind: str
    label: str
    arg: object
    expect: object
    option: object = None


def cycle_length(workload: str) -> int:
    return WORKLOADS[workload][0]


def build_pool(ap, workload: str, seed: int, cycles: int | None = None) -> list[Instance]:
    per_cycle, pool_cycles, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    make = _BUILDERS[workload]
    pool = []
    for c in range(pool_cycles if cycles is None else cycles):
        for slot in range(per_cycle):
            pool.append(make(ap, rng, c, slot))
    return pool


def _spec_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 32)


def _planted(ap, rng, cycle, slot):
    # in cost order: four slots under 10 ms (s=1, sparsest, Waring s=2),
    # the three s=2 slots in the middle, four heavy slots (s=3, Waring s=4)
    if slot < 8:
        regime, s, extra = (
            ("big_exponents", 1, {}),
            ("big_exponents", 2, {}),
            ("big_exponents", 3, {}),
            ("big_gaps", 2, {"repeated_nodes": True}),
            ("big_gaps", 3, {"repeated_nodes": True}),
            ("distinct_nodes", 1, {}),
            ("distinct_nodes", 2, {}),
            ("distinct_nodes", 3, {}),
        )[slot]
        spec = ap.InstanceSpec(s=s, seed=_spec_seed(rng), **extra)
        f, planted = ap.generate_instance(spec, regime)
        return Instance("auto", f"{regime} s={s}", f, planted)
    if slot in (8, 9):
        # equal exponents inside the certification regime 3 s^2 <= 2 d
        s = 2 if slot == 8 else 4
        d = rng.randint(-(-3 * s * s // 2), -(-3 * s * s // 2) + 16)
        nodes = rng.sample(range(-9, 10), s)
        planted = ap.Decomposition.of((rng.randint(1, 9), a, d) for a in nodes)
        return Instance("waring", f"waring s={s}", planted.expand(), planted)
    # a single node with support size s, s^2 <= d (as acceptance 07)
    d = rng.randint(9, 26)
    size = rng.randint(1, min(3, math.isqrt(d)))
    den = 2 if rng.random() < 0.25 else 1
    shift = Fraction(rng.randint(-9, 9), den)
    exps = sorted(rng.sample(range(1, d), size - 1) + [d])
    planted = ap.Decomposition.of(
        (rng.choice((1, -1)) * rng.randint(1, 9), shift, e) for e in exps
    )
    return Instance("sparsest", f"sparsest s={size}", planted.expand(), planted)


def _small_intervals(ap, rng, cycle, slot):
    groups, delta, s, automatic = SMALL_INTERVAL_SLOTS[slot]
    spec = ap.InstanceSpec(s=s, seed=_spec_seed(rng))
    f, planted = ap.generate_instance(
        spec, "small_intervals", groups=groups, delta=delta
    )
    label = f"groups={groups} delta={'auto' if automatic else delta} s={s}"
    return Instance(
        "small_intervals", label, f, planted, None if automatic else delta
    )


def _reject(ap, rng, cycle, slot):
    if slot < len(REJECT_DEGREES):
        deg = REJECT_DEGREES[slot]
        coeffs = [rng.randint(-9, 9) for _ in range(deg)]
        coeffs.append(rng.choice([v for v in range(-9, 10) if v]))
        return Instance(
            "auto", f"generic degree {deg}", ap.UniPoly(coeffs), ap.ReconstructionFailed
        )
    # (x - r)^e + (x + r)^e with r^2 = q irrational, expanded over Q
    q = rng.choice((2, 3, 5, 6, 7, 10))
    e = rng.randint(9, 25)
    c = rng.randint(1, 9)
    coeffs = [
        2 * c * math.comb(e, k) * q ** ((e - k) // 2) if (e - k) % 2 == 0 else 0
        for k in range(e + 1)
    ]
    return Instance(
        "auto", f"irrational e={e} q={q}", ap.UniPoly(coeffs), ap.IrrationalNodeDetected
    )


def _multivariate(ap, rng, cycle, slot):
    # two-term sums as in acceptance 10, in 2, 3 and 3 variables, except
    # that no form coefficient is zero (a zero drops monomials from the
    # expansion and made the cost of an instance vary 8-fold) and that the
    # two forms are not proportional: proportional forms give one node on
    # every axis, outside the big_exponents regime of pairwise distinct
    # nodes, and multi_build rightly refuses them
    n = 2 if slot == 0 else 3
    e1, e2 = MULTI_EXPONENTS[slot][cycle % len(MULTI_EXPONENTS[slot])]

    def form():
        coeffs = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(n)]
        return ap.LinearForm.of(rng.randint(1, 3), coeffs)

    f1 = form()
    f2 = form()
    while _proportional(f1, f2):
        f2 = form()
    c1, c2 = rng.randint(1, 5), rng.randint(1, 5)
    planted = ap.MultiDecomposition.of(n, [(c1, f1, e1), (c2, f2, e2)])
    bb = ap.BlackBox.from_multipoly(_expand(ap, planted))
    return Instance(
        "multi", f"n={n} exponents {e1},{e2}", bb, planted, rng.randrange(1 << 31)
    )


def _proportional(f1, f2) -> bool:
    a = (f1.constant,) + f1.coefficients
    b = (f2.constant,) + f2.coefficients
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i))


def _expand(ap, planted):
    """Dense expansion of sum c (l_0 + l_1 x_1 + ...)^e by the multinomial
    theorem.  It gives the MultiPoly that expand_multi gives, in a few
    milliseconds instead of seconds, so set-up stays short; a wrong
    expansion would show as a failed instance."""
    n = planted.n
    terms: dict[tuple[int, ...], Fraction] = {}
    for t in planted.terms:
        base = (t.form.constant,) + t.form.coefficients
        for ks in _compositions(t.exponent, n + 1):
            coef = t.coeff * _multinomial(t.exponent, ks)
            for b, k in zip(base, ks):
                if k:
                    coef *= b**k
            key = ks[1:]
            terms[key] = terms.get(key, 0) + coef
    return ap.MultiPoly(n, terms)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for k in range(total + 1):
        for rest in _compositions(total - k, parts - 1):
            yield (k,) + rest


def _multinomial(total: int, ks) -> int:
    out = math.factorial(total)
    for k in ks:
        out //= math.factorial(k)
    return out


_BUILDERS = {
    "planted": _planted,
    "small_intervals": _small_intervals,
    "reject": _reject,
    "multivariate": _multivariate,
}


def call(ap, inst: Instance):
    """The timed call: one public entry point on the generated input."""
    if inst.kind == "auto":
        return ap.decompose_auto(inst.arg)
    if inst.kind == "waring":
        return ap.waring_decompose(inst.arg)
    if inst.kind == "sparsest":
        return ap.sparsest_shift(inst.arg)
    if inst.kind == "small_intervals":
        return ap.decompose_small_intervals(inst.arg, inst.option)
    return ap.multi_build(inst.arg, rng_seed=inst.option, backend="big_exponents")


def as_decomposition(ap, inst: Instance, result):
    """(decomposition, strategy tag) from a call's return value; the
    decomposition is None when the solver gave no certified answer."""
    if inst.kind == "auto":
        return result
    if inst.kind == "waring":
        if result.terms is None:
            return None, "waring"
        dec = ap.Decomposition.of((c, b, result.degree) for c, b in result.terms)
        return dec, "waring"
    if inst.kind == "sparsest":
        if result.support is None:
            return None, "sparsest_shift"
        dec = ap.Decomposition.of((c, result.shift, e) for e, c in result.support)
        return dec, "sparsest_shift"
    if inst.kind == "small_intervals":
        return result, "small_intervals"
    return result, "multi_build"


def outcome(ap, inst: Instance, result, error) -> dict:
    """The golden-file form of one call's outcome."""
    if error is not None:
        key = "refused" if isinstance(error, ap.ExactAlgebraError) else "error"
        return {key: type(error).__name__}
    dec, tag = as_decomposition(ap, inst, result)
    if dec is None:
        return {"tag": tag, "decomposition": None}
    ser = ap.serialize
    to_json = ser.multidec_to_json if inst.kind == "multi" else ser.decomposition_to_json
    return {"tag": tag, "decomposition": to_json(dec)}


def check(ap, inst: Instance, result, error) -> str | None:
    """Invariant check; None when the outcome is the expected one."""
    if isinstance(inst.expect, type):
        if error is None:
            return f"{inst.label}: expected {inst.expect.__name__}, got an answer"
        if not isinstance(error, inst.expect):
            return f"{inst.label}: expected {inst.expect.__name__}, got {type(error).__name__}"
        return None
    if error is not None:
        return f"{inst.label}: unexpected {type(error).__name__}: {error}"
    dec, tag = as_decomposition(ap, inst, result)
    if dec is None:
        return f"{inst.label}: no certified answer"
    if dec != inst.expect:
        return f"{inst.label}: answer differs from the planted decomposition"
    if inst.kind == "multi":
        # equal canonical forms expand alike; spot-check against the box too
        rng = random.Random(inst.option)
        for _ in range(10):
            point = [Fraction(rng.randint(-10**6, 10**6)) for _ in range(inst.arg.n)]
            if dec.evaluate(point) != inst.arg.eval(point):
                return f"{inst.label}: answer disagrees with the black box"
    elif dec.expand() != inst.arg:
        return f"{inst.label}: answer does not re-expand to the input"
    if inst.kind == "auto" and tag not in (
        "big_exponents", "big_gaps", "distinct_nodes", "small_intervals"
    ):
        return f"{inst.label}: unknown strategy tag {tag!r}"
    return None
