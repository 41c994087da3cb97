"""Seeded random generation of decompositions with certified regime bounds.

Each regime recipe plants a decomposition whose exponent pattern provably
lies inside the corresponding solver's guarantee region, then re-checks the
defining inequalities on the finished instance before returning it.  The
returned pair is (expanded polynomial, planted decomposition); generation
is deterministic for a fixed InstanceSpec.seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .decompose import Criterion, Decomposition, check_conditions
from .errors import UnsatisfiableSpec
from .unipoly import UniPoly, _parse_int

REGIMES = ("big_exponents", "distinct_nodes", "small_intervals", "big_gaps")


@dataclass(frozen=True)
class InstanceSpec:
    """Knobs for the generator: s terms, optional exponent window, optional
    minimum same-node exponent gap, node magnitude bound, whether nodes may
    repeat (big_gaps only), and the RNG seed."""

    s: int
    exp_min: int | None = None
    exp_max: int | None = None
    min_gap: int | None = None
    node_range: int = 9
    repeated_nodes: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("s", "node_range", "seed"):
            object.__setattr__(self, name, _parse_int(getattr(self, name)))
        for name in ("exp_min", "exp_max", "min_gap"):
            object.__setattr__(self, name, _optional_int(getattr(self, name)))
        if self.s < 1:
            raise ValueError("need at least one term")
        if self.node_range < 1:
            raise ValueError("node range must be at least 1")
        if (
            self.exp_min is not None
            and self.exp_max is not None
            and self.exp_min > self.exp_max
        ):
            raise ValueError("exp_min exceeds exp_max")


def _optional_int(value) -> int | None:
    return None if value is None else _parse_int(value)


def _nonzero_coeff(rng: random.Random) -> Fraction:
    c = 0
    while not c:
        c = rng.randint(-9, 9)
    return Fraction(c)


def _distinct_nodes(rng: random.Random, count: int, bound: int) -> list[Fraction]:
    if 2 * bound + 1 < count:
        raise UnsatisfiableSpec(
            f"cannot draw {count} distinct nodes from [-{bound}, {bound}]"
        )
    return [Fraction(v) for v in rng.sample(range(-bound, bound + 1), count)]


def _jittered_chain(
    rng: random.Random,
    floors: list[int],
    jitter: int,
    cap: int | None,
    min_step: int = 1,
) -> list[int]:
    """Increasing values with values[j] >= floors[j], consecutive steps of
    at least min_step, random slack up to jitter, all <= cap; shrinks the
    slack before giving up."""
    for width in (jitter, jitter // 2, 1, 0):
        values: list[int] = []
        prev = None
        for lo in floors:
            base = lo if prev is None else max(lo, prev + min_step)
            v = base + rng.randint(0, width)
            values.append(v)
            prev = v
        if cap is None or values[-1] <= cap:
            return values
    raise UnsatisfiableSpec(
        f"exponent ceiling {cap} is below the regime's minimum requirements"
    )


def _certify(dec: Decomposition, criteria: list[Criterion]) -> None:
    report = check_conditions(dec, criteria)
    if not report.ok:
        raise RuntimeError(
            f"generated instance failed certification: {report.passed}"
        )


def _gen_big_exponents(spec: InstanceSpec, rng: random.Random) -> Decomposition:
    s = spec.s
    base = (5 * s * s) // 2 + 1  # smallest integer above 5 s^2 / 2
    lo = max(base, spec.exp_min or 0)
    hi = spec.exp_max if spec.exp_max is not None else lo + 39
    if hi - lo + 1 < s:
        raise UnsatisfiableSpec(
            f"exponent window [{lo}, {hi}] cannot hold {s} distinct exponents"
        )
    exps = rng.sample(range(lo, hi + 1), s)
    nodes = _distinct_nodes(rng, s, spec.node_range)
    dec = Decomposition.of(
        (_nonzero_coeff(rng), a, e) for a, e in zip(nodes, exps)
    )
    assert all(2 * t.exponent > 5 * s * s for t in dec.terms)
    _certify(dec, [Criterion.UNIQUENESS, Criterion.EXPONENT_BOUND])
    return dec


def _gen_distinct_nodes(spec: InstanceSpec, rng: random.Random) -> Decomposition:
    s = spec.s
    # the j-th smallest exponent must be at least ceil(4 (j+1)^3 / 3)
    floors = [
        max((4 * (j + 1) ** 3 + 2) // 3, spec.exp_min or 0)
        for j in range(1, s + 1)
    ]
    exps = _jittered_chain(rng, floors, 6, spec.exp_max)
    nodes = _distinct_nodes(rng, s, spec.node_range)
    dec = Decomposition.of(
        (_nonzero_coeff(rng), a, e) for a, e in zip(nodes, exps)
    )
    _certify(dec, [Criterion.DISTINCT_NODES, Criterion.EXPONENT_BOUND])
    return dec


def _gen_big_gaps(spec: InstanceSpec, rng: random.Random) -> Decomposition:
    s = spec.s
    threshold = (5 * s * s) // 2 + 1
    gap = max(threshold, spec.min_gap or 0)
    base = max(threshold, spec.exp_min or 0)
    floors = [base + i * gap for i in range(s)]
    exps = _jittered_chain(rng, floors, 4, spec.exp_max, min_step=gap)
    if spec.repeated_nodes and s >= 2:
        m = rng.randint(1, s - 1)
    else:
        m = s
    nodes = _distinct_nodes(rng, m, spec.node_range)
    assignment = list(nodes) + [rng.choice(nodes) for _ in range(s - m)]
    rng.shuffle(assignment)
    dec = Decomposition.of(
        (_nonzero_coeff(rng), a, e) for a, e in zip(assignment, exps)
    )
    by_node: dict[Fraction, list[int]] = {}
    for t in dec.terms:
        by_node.setdefault(t.node, []).append(t.exponent)
    for es in by_node.values():
        es.sort()
        assert all(2 * (b - a) > 5 * s * s for a, b in zip(es, es[1:]))
    assert all(2 * t.exponent > 5 * s * s for t in dec.terms)
    _certify(dec, [Criterion.UNIQUENESS, Criterion.EXPONENT_BOUND])
    return dec


def _gen_small_intervals(
    spec: InstanceSpec,
    rng: random.Random,
    groups: int | None,
    delta: int | None,
) -> Decomposition:
    s = spec.s
    width = 1 if delta is None else delta
    if width < 0:
        raise ValueError("delta must be nonnegative")
    span = width + 1
    t = groups if groups is not None else -(-s // span)
    if not 1 <= t <= s:
        raise UnsatisfiableSpec(f"group count {t} is incompatible with {s} terms")
    if t * span < s:
        raise UnsatisfiableSpec(
            f"{t} groups of width {width} cannot hold {s} exponents"
        )
    base_min = (5 * t * t * span * span + 1) // 2
    base_min = max(base_min, spec.exp_min or 0)
    floors = [base_min + i * span for i in range(t)]
    cap = None if spec.exp_max is None else spec.exp_max - width
    bases = _jittered_chain(rng, floors, 8, cap, min_step=span)
    # spread the terms over the groups, each group holding 1..width+1
    sizes = [1] * t
    for _ in range(s - t):
        open_groups = [i for i in range(t) if sizes[i] < span]
        sizes[rng.choice(open_groups)] += 1
    nodes = _distinct_nodes(rng, t, spec.node_range)
    items = []
    for i in range(t):
        offsets = [0] + (
            rng.sample(range(1, span), sizes[i] - 1) if sizes[i] > 1 else []
        )
        for off in offsets:
            items.append((_nonzero_coeff(rng), nodes[i], bases[i] + off))
    dec = Decomposition.of(items)
    _certify(dec, [Criterion.UNIQUENESS, Criterion.EXPONENT_BOUND])
    return dec


def generate_instance(
    spec: InstanceSpec,
    regime: str,
    *,
    groups: int | None = None,
    delta: int | None = None,
) -> tuple[UniPoly, Decomposition]:
    """Generate (polynomial, planted decomposition) for a solver regime.

    regime is one of big_exponents, distinct_nodes, small_intervals or
    big_gaps; groups and delta shape the small_intervals recipe only.
    Raises UnsatisfiableSpec when the requested constraints cannot be met.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    groups, delta = _optional_int(groups), _optional_int(delta)
    if regime != "small_intervals" and (groups is not None or delta is not None):
        raise ValueError("groups/delta only apply to the small_intervals regime")
    if spec.repeated_nodes and regime != "big_gaps":
        raise ValueError("only the big_gaps regime admits repeated nodes")
    rng = random.Random(spec.seed)
    if regime == "big_exponents":
        dec = _gen_big_exponents(spec, rng)
    elif regime == "distinct_nodes":
        dec = _gen_distinct_nodes(spec, rng)
    elif regime == "big_gaps":
        dec = _gen_big_gaps(spec, rng)
    else:
        dec = _gen_small_intervals(spec, rng, groups, delta)
    return dec.expand(), dec
