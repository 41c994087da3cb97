"""Reconstruction of univariate sums of affine powers.

A decomposition writes f as sum_i coeff_i * (x - node_i)^exp_i with nonzero
coefficients and pairwise distinct (node, exponent) pairs.  Each algorithm
here targets a regime in which the decomposition is provably unique and
recoverable; outside its regime an algorithm either still returns a correct
answer or raises a typed error, but it never returns an unverified result:
every candidate is re-expanded and compared to the input before being
accepted.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import linalg, sde as sde_mod
from .errors import (
    DeltaExhausted,
    Inconsistent,
    IrrationalNodeDetected,
    ReconstructionFailed,
    ZeroPolynomial,
)
from .unipoly import UniPoly, _affine_sum, _clear_denominators, _frac, _parse_int


@dataclass(frozen=True, slots=True)
class AffineTerm:
    """coeff * (x - node)^exponent with coeff != 0."""

    coeff: Fraction
    node: Fraction
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "coeff", _frac(self.coeff))
        object.__setattr__(self, "node", _frac(self.node))
        object.__setattr__(self, "exponent", _parse_int(self.exponent))
        if not self.coeff:
            raise ValueError("term coefficient must be nonzero")
        if self.exponent < 0:
            raise ValueError("term exponent must be nonnegative")

    def expand(self) -> UniPoly:
        return UniPoly.affine_power(self.coeff, self.node, self.exponent)


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Terms sorted by (exponent desc, node asc); (node, exponent) unique."""

    terms: tuple[AffineTerm, ...]

    def __post_init__(self):
        keys = [(t.node, t.exponent) for t in self.terms]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (node, exponent) pair")
        ordered = tuple(
            sorted(self.terms, key=lambda t: (-t.exponent, t.node))
        )
        object.__setattr__(self, "terms", ordered)

    @classmethod
    def of(cls, items: Iterable) -> "Decomposition":
        """Build from terms or (coeff, node, exponent) triples, merging
        duplicate (node, exponent) keys and dropping zero coefficients."""
        merged: dict[tuple[Fraction, int], Fraction] = {}
        for item in items:
            if isinstance(item, AffineTerm):
                c, a, e = item.coeff, item.node, item.exponent
            else:
                c, a, e = item
            c, a = _frac(c), _frac(a)
            key = (a, _parse_int(e))
            merged[key] = merged.get(key, Fraction(0)) + c
        return cls(
            tuple(
                AffineTerm(c, a, e) for (a, e), c in merged.items() if c
            )
        )

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def expand(self) -> UniPoly:
        """The sum of the terms, in integers over one denominator (_affine_sum)."""
        nums, den = _affine_sum((t.coeff, t.node, t.exponent) for t in self.terms)
        return UniPoly(Fraction(v, den) for v in nums)

    def max_coeff_bits(self) -> int:
        bits = 0
        for t in self.terms:
            for v in (t.coeff, t.node):
                bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
        return bits


# -- admission conditions -------------------------------------------------


class Criterion(enum.Enum):
    """Support-growth tests that certify uniqueness/recoverability."""

    REAL_UNIQUENESS = "real_uniqueness"  # 2*n_e <= ceil((e+3)/2)
    UNIQUENESS = "uniqueness"  # n_e <= sqrt((e+1)/2)
    DISTINCT_NODES = "distinct_nodes"  # n_e <= (3e/4)^(1/3) - 1 for e >= 2
    EXPONENT_BOUND = "exponent_bound"  # max exponent < deg + s^2/2


@dataclass
class ConditionReport:
    passed: dict[Criterion, bool]
    witnesses: dict[Criterion, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.passed.values())


def check_conditions(
    d: Decomposition, criteria: Sequence[Criterion] | None = None
) -> ConditionReport:
    """Exact integer evaluation of the admission criteria; for each failed
    criterion the witness records the smallest offending exponent."""
    if criteria is None:
        criteria = tuple(Criterion)
    exps = sorted(t.exponent for t in d.terms)
    s = len(exps)
    report = ConditionReport(passed={c: True for c in criteria})

    def fail(crit: Criterion, witness: int) -> None:
        if report.passed[crit]:
            report.passed[crit] = False
            report.witnesses[crit] = witness

    # support counts only change at exponent values, and every right-hand
    # side below grows with e, so checking at the jumps suffices
    for crit in criteria:
        if crit is Criterion.EXPONENT_BOUND:
            continue
        for e in sorted(set(exps)):
            n_e = sum(1 for x in exps if x <= e)
            if crit is Criterion.REAL_UNIQUENESS:
                if 2 * n_e > (e + 4) // 2:
                    fail(crit, e)
            elif crit is Criterion.UNIQUENESS:
                if 2 * n_e * n_e > e + 1:
                    fail(crit, e)
            elif crit is Criterion.DISTINCT_NODES:
                ec = max(e, 2)
                n_ec = sum(1 for x in exps if x <= ec)
                if 4 * (n_ec + 1) ** 3 > 3 * ec:
                    fail(crit, ec)

    if Criterion.EXPONENT_BOUND in criteria and s:
        e_max = exps[-1]
        deg = d.expand().degree
        if 2 * (e_max - deg) >= s * s:
            fail(Criterion.EXPONENT_BOUND, e_max)
    return report


# -- shared plumbing ------------------------------------------------------


def _require_nonzero(f: UniPoly) -> None:
    if f.is_zero():
        raise ZeroPolynomial("cannot decompose the zero polynomial")


def _coords(
    f: UniPoly, candidates: Sequence[tuple[Fraction, dict[int, int]]]
) -> list[Fraction]:
    """Coordinates of f in the basis of the candidates, each a polynomial
    sum_k coeff_k (x - node)^k given as (node, {k: coeff_k}); requires a
    unique solution.  Each column is the candidate's numerators over its
    common denominator from unipoly._affine_sum (for node a/d, top k K and
    integer coeff_k, sum_k coeff_k d^(K-k) (d x - a)^k over d^K); the
    right-hand side is f times its common denominator."""
    if not candidates:
        raise ReconstructionFailed("no candidate terms to combine")
    n_rows = max(f.degree, *(max(part) for _, part in candidates)) + 1
    sums = [_affine_sum((c, node, k) for k, c in part.items()) for node, part in candidates]
    rhs, den = _clear_denominators([f.coeff(r) for r in range(n_rows)])
    mat = linalg.IntMatrix.from_rows(zip(*(col + [0] * (n_rows - len(col)) for col, _ in sums)))
    try:
        res = linalg.solve(mat, rhs)
    except Inconsistent as exc:
        raise ReconstructionFailed(
            "input is not a combination of the candidate terms"
        ) from exc
    if not res.unique:
        raise ReconstructionFailed("candidate terms are linearly dependent")
    return [y * s / den for y, (_, s) in zip(res.vector, sums)]


def _fit(
    f: UniPoly, candidates: Sequence[tuple[Fraction, dict[int, int]]]
) -> Decomposition:
    """Solve f in the basis of the candidates (see _coords) and read the
    answer off as affine-power terms: equal (node, exponent) keys merge and
    zero coefficients drop."""
    return Decomposition.of(
        (coord * c, node, k)
        for coord, (node, part) in zip(_coords(f, candidates), candidates)
        for k, c in part.items()
    )


def _verify(dec: Decomposition, f: UniPoly) -> Decomposition:
    if dec.expand() != f:
        raise ReconstructionFailed("re-expansion does not reproduce the input")
    return dec


def _has_distinct_nodes(dec: Decomposition) -> bool:
    nodes = [t.node for t in dec.terms]
    return len(set(nodes)) == len(nodes)


def _require_distinct_nodes(dec: Decomposition) -> Decomposition:
    if not _has_distinct_nodes(dec):
        raise ReconstructionFailed(
            "recovered terms repeat a node, outside this algorithm's regime"
        )
    return dec


def _ceil_half(n: int) -> int:
    return -(-n // 2)


# -- single-pass reconstruction (large exponents / large gaps) ------------


class _Scan:
    """The power solutions of one equation over ranges that share their
    start, each exponent scanned once: a range reaching past the exponents
    scanned so far extends the scan by one sde.power_solutions call over
    the rest, and a narrower one is cut from it.  Once a call raises
    IrrationalNodeDetected, every range reaching its exponent raises it
    again, as a call over that range would; only the error's exponent and
    message are kept, not its traceback."""

    def __init__(self, e_min: int):
        self.hi = e_min - 1
        self.pairs: list[tuple[Fraction, int]] = []
        self.irrational: tuple[int, str] | None = None

    def __call__(self, eq: sde_mod.PendingSDE, e_min: int, e_max: int) -> list[tuple[Fraction, int]]:
        if e_max > self.hi and (self.irrational is None or e_max < self.irrational[0]):
            try:
                self.pairs += sde_mod.power_solutions(eq, self.hi + 1, e_max)
                self.hi = e_max
            except IrrationalNodeDetected as exc:
                self.irrational = exc.exponent, str(exc)
        if self.irrational is not None and self.irrational[0] <= e_max:
            raise IrrationalNodeDetected(self.irrational[1], exponent=self.irrational[0])
        return [(b, e) for b, e in self.pairs if e <= e_max]


def _single_pass(
    f: UniPoly, eq: sde_mod.SDE | sde_mod.PendingSDE, powers=None
) -> Decomposition:
    """powers(eq, e_min, e_max) gives the power solutions (a _Scan, or
    sde.power_solutions by default)."""
    r = eq.order
    powers = powers or sde_mod.power_solutions
    pairs = powers(eq, _ceil_half((r + 1) ** 2), f.degree + (r * r) // 2)
    if not pairs:
        raise ReconstructionFailed("no admissible power solutions in range")
    return _verify(_fit(f, [(b, {e: 1}) for b, e in pairs]), f)


def decompose_big_exponents(f: UniPoly) -> Decomposition:
    """Recover f = sum alpha_i (x - a_i)^{e_i} with pairwise distinct nodes;
    guaranteed when every e_i > 5 s^2 / 2 for s terms.

    Finds the minimal plain (shift-0) equation for f, collects its power
    solutions over the admissible exponent window, and solves for the
    coefficients of f in that candidate basis.
    """
    return _require_distinct_nodes(decompose_big_gaps(f))


def decompose_big_gaps(f: UniPoly) -> Decomposition:
    """Same pipeline as decompose_big_exponents but admitting repeated
    nodes; guaranteed when all exponents and all same-node exponent gaps
    exceed 5 s^2 / 2."""
    _require_nonzero(f)
    return _single_pass(f, sde_mod.find_min_sde(f, 0))


# -- iterated reconstruction for distinct nodes ---------------------------


def decompose_distinct_nodes(
    f: UniPoly, *, stats: list | None = None
) -> Decomposition:
    """Recover a distinct-node decomposition by peeling off the terms with
    the largest exponents and recursing on the remainder.

    Guaranteed when the support grows slowly: n_e <= (3e/4)^(1/3) - 1 for
    every e >= 2, where n_e counts terms of exponent at most e.  Each pass
    finds the minimal shift-0 equation of the residual, sorts its power
    solutions by decreasing exponent d_1 >= d_2 >= ..., appends the
    sentinel value (t+1)^2/2, picks the smallest r whose exponent gap
    d_r - d_{r+1} exceeds r^2/2 (with d_{r+1} below the residual degree),
    and matches the j-th derivative of the residual, j = d_r - floor(r^2/2),
    against the first r candidates.
    """
    _require_nonzero(f)
    return _peel(f, sde_mod.find_min_sde(f, 0), stats)


def _peel(
    f: UniPoly, eq: sde_mod.SDE | sde_mod.PendingSDE, stats: list | None = None, powers=None
) -> Decomposition:
    """powers serves the first pass, as in _single_pass; later passes scan
    their own equations."""
    residual = f
    collected: list[tuple[Fraction, Fraction, int]] = []
    for iteration in range(f.degree + 2):
        if residual.is_zero():
            dec = Decomposition.of(collected)
            return _require_distinct_nodes(_verify(dec, f))
        eq = eq if iteration == 0 else sde_mod.find_min_sde(residual, 0)
        t = eq.order
        deg = residual.degree
        scan = powers if iteration == 0 and powers else sde_mod.power_solutions
        pairs = scan(eq, _ceil_half((t + 1) ** 2), deg + ((deg + 2) ** 2) // 8)
        if stats is not None:
            stats.append(
                {
                    "iteration": iteration,
                    "order": t,
                    "residual_degree": deg,
                    "max_coeff_bits": residual.max_coeff_bits(),
                }
            )
        if not pairs:
            raise ReconstructionFailed("no admissible power solutions in range")
        pairs.sort(key=lambda be: (-be[1], be[0]))
        count = len(pairs)
        r_pick = None
        for r in range(1, count + 1):
            # the docstring's gap test doubled, to stay in integers:
            # D = 2 d_(r+1), or (t+1)^2 for the sentinel
            big_d = 2 * pairs[r][1] if r < count else (t + 1) ** 2
            if 2 * pairs[r - 1][1] - big_d > r * r and big_d < 2 * deg:
                r_pick = r
                break
        if r_pick is None:
            raise ReconstructionFailed("no usable exponent gap among candidates")
        d_r = pairs[r_pick - 1][1]
        j = d_r - (r_pick * r_pick) // 2
        target = residual.derivative(j)
        betas = _coords(target, [(b, {e - j: math.perm(e, j)}) for b, e in pairs[:r_pick]])
        found = [(beta, b, e) for beta, (b, e) in zip(betas, pairs) if beta]
        nums, den = _affine_sum(found)
        if not any(nums):
            raise ReconstructionFailed("peeling step recovered nothing")
        collected += found
        residual = residual - UniPoly(Fraction(v, den) for v in nums)
    raise ReconstructionFailed("iteration limit exceeded without convergence")


# -- clustered exponents within short windows -----------------------------


# Widest interval the automatic width search of decompose_small_intervals tries.
_DELTA_MAX = 4


def decompose_small_intervals(f: UniPoly, delta: int | None = None) -> Decomposition:
    """Recover f = sum_i Q_i(x) (x - a_i)^{e_i} with deg(Q_i) <= delta,
    emitted as individual affine-power terms.

    Guaranteed when the base exponents satisfy e_i >= 5 t^2 (delta+1)^2 / 2
    for t distinct nodes.  With delta=None the width is searched upward from
    0 to 4, keeping the first verified answer (DeltaExhausted, naming each
    width's failure, when none verifies).  The candidate nodes are the
    rational roots of the top coefficient of the minimal shift-delta
    equation; per node, a basis of equation solutions Q(x) (x - a)^e over
    the admissible exponent window is found in the node's basis x - a, f is
    solved in the union basis, and the terms are read off those node-basis
    coefficients.

    Each width's equation is searched only up to the largest order whose
    exponent window is nonempty, and a width with no such order derives
    none.  The open window's length deg f - (2r+1)(delta+1)^2/2 falls by
    (delta+1)^2 per order, and an empty one has length <= 1: once empty, it
    stays empty, so no width that could answer is cut short.
    """
    _require_nonzero(f)
    if delta is None:
        return _width_scan(f, sde_mod.find_min_sde(f, 0, lazy=True))
    delta = _parse_int(delta)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return _at_width(f, delta)


def _width_scan(f: UniPoly, eq: sde_mod.PendingSDE) -> Decomposition:
    last: ReconstructionFailed | None = None
    reasons = []
    try:
        for width in range(_DELTA_MAX + 1):
            try:
                return _at_width(f, width, eq if width == 0 else None)
            except ReconstructionFailed as exc:
                last = exc
                reasons.append(f"width {width}: {exc}")
        raise DeltaExhausted(
            f"no interval width up to {_DELTA_MAX} yielded a verified "
            f"decomposition ({'; '.join(reasons)})"
        ) from last.with_traceback(None)
    finally:
        last = eq = reasons = None  # an error's traceback holds this frame: keep only its message


def _window(deg: int, r: int, delta: int) -> tuple[int, int]:
    """The exponents e_min..e_max searched with an order-r shift-delta
    equation of a degree-deg input: (r+1)^2 (delta+1)^2 / 2 < e <
    deg + r^2 (delta+1)^2 / 2, the guarantee being strict on both sides."""
    span = (delta + 1) ** 2
    return (r + 1) ** 2 * span // 2 + 1, _ceil_half(2 * deg + r * r * span) - 1


def _order_cap(deg: int, delta: int) -> int:
    """The largest order r >= 1 whose window is nonempty, or 0; every
    window above it is empty (see decompose_small_intervals)."""
    r = 1
    while (w := _window(deg, r, delta))[0] <= w[1]:
        r += 1
    return r - 1


def _empty_window(deg: int, delta: int) -> ReconstructionFailed:
    return ReconstructionFailed(
        f"exponent window is empty at every order above {_order_cap(deg, delta)}"
    )


def _at_width(f: UniPoly, delta: int, eq: sde_mod.PendingSDE | None = None) -> Decomposition:
    """Width delta on f; eq, if given, is f's minimal shift-delta equation.
    The equation is lifted only once its lead is known to have a rational
    root or cannot be refused mod p (PendingSDE.rootless)."""
    cap = _order_cap(f.degree, delta)
    if eq is None and cap >= 1:
        eq = sde_mod.find_min_sde(f, delta, max_order=cap, lazy=True)
    if eq is None or eq.order > cap:
        raise _empty_window(f.degree, delta)
    e_min, e_max = _window(f.degree, eq.order, delta)
    if eq.lead_degree < 1:
        raise ReconstructionFailed("top equation coefficient has no roots")
    nodes = [] if eq.rootless else sorted(eq.exact()._lead_roots(eq.order)[0])
    if not nodes:
        raise ReconstructionFailed("top equation coefficient has no rational roots")
    eq = eq.exact()
    candidates = [
        (c, sol)
        for c in nodes
        for sol in sde_mod.shifted_poly_solutions(eq, c, delta, e_min, e_max)
    ]
    return _verify(_fit(f, candidates), f)


# -- dispatcher -----------------------------------------------------------

# The one table of solver names, in the order decompose_auto follows (one pass
# for big_exponents and big_gaps); the command line and multi_build read it.
_STRATEGIES: tuple[tuple[str, Callable[[UniPoly], Decomposition]], ...] = (
    ("big_exponents", decompose_big_exponents),
    ("big_gaps", decompose_big_gaps),
    ("distinct_nodes", decompose_distinct_nodes),
    ("small_intervals", decompose_small_intervals),
)


def decompose_auto(f: UniPoly) -> tuple[Decomposition, str]:
    """Try big_exponents, big_gaps, distinct_nodes, then small_intervals
    with automatic width; return the first verified decomposition and the
    name of the strategy that produced it.

    Every strategy runs on one shift-0 equation of f, held unlifted
    (sde.PendingSDE), as are the equations of the other widths.  A forced
    equation ((a) in the sde module docstring) whose lead has degree 0, or
    degree >= 2 and no root mod p (d), is refused without its lift: by
    small_intervals at its width, and by big_gaps and distinct_nodes over
    each scanned exponent run where the norm N(t) built from the lead mod p
    is nonzero at every t (c).  Anything else lifts the equation and runs
    the exact path, with the same answer or error.  The big_gaps answer
    is tagged big_exponents when its nodes are distinct, and its error
    counts for both.  Its power solutions and those of distinct_nodes'
    first pass, whose ranges share their start, come from one _Scan that
    scans each exponent once, and width 0 of small_intervals reuses that
    scan's split of the equation's top coefficient.  If every strategy
    fails and any of them detected an irrational node, that error wins (the
    input decomposes only over an extension field); otherwise
    ReconstructionFailed.
    """
    _require_nonzero(f)
    eq = sde_mod.find_min_sde(f, 0, lazy=True)
    scan = _Scan(_ceil_half((eq.order + 1) ** 2))
    irrational: IrrationalNodeDetected | None = None
    last: ReconstructionFailed | None = None
    try:
        for tag, run, args in (
            ("big_gaps", _single_pass, (f, eq, scan)),
            ("distinct_nodes", _peel, (f, eq, None, scan)),
            ("small_intervals", _width_scan, (f, eq)),
        ):
            try:
                dec = run(*args)
            except IrrationalNodeDetected as exc:
                irrational = exc
            except ReconstructionFailed as exc:
                last = exc
            else:
                if tag == "big_gaps" and _has_distinct_nodes(dec):
                    tag = "big_exponents"
                return dec, tag
        if irrational is not None:
            raise irrational.with_traceback(None)
        raise ReconstructionFailed(
            "no strategy produced a verified decomposition"
        ) from last.with_traceback(None)
    finally:
        irrational = last = eq = scan = args = None  # an error's traceback holds this frame: clear errors, equation and scan
