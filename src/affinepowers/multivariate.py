"""Multivariate sums of powers of affine forms via random change of basis.

The model is f = sum_i c_i * l_i(x)^{e_i} where each l_i is a non-constant
affine form in n variables.  The solver queries f only through a black box:
after a random invertible affine substitution every form acquires a nonzero
constant term and a nonzero coefficient in every variable, so restricting
to one axis at a time yields univariate instances that the exact univariate
solvers can handle; the per-axis answers are then matched up and pulled
back through the substitution.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import decompose, linalg
from .decompose import Decomposition
from .errors import (
    DimensionMismatch,
    ExactAlgebraError,
    IrrationalNodeDetected,
    ReconstructionFailed,
    ZeroPolynomial,
)
from .multipoly import LinearForm, MultiPoly
from .unipoly import UniPoly, _clear_denominators, _frac, _parse_int, _powers, interpolate

_COORD_BOUND = 1 << 32  # substitution entries are drawn from 1..2^32
_CHECK_RANGE = 10**6  # verification points come from [-10^6, 10^6]^n
_CHECK_POINTS = 50


@dataclass(frozen=True)
class BlackBox:
    """Query-only access to a polynomial: an evaluator, the variable count
    and an upper bound on the total degree."""

    n: int
    degree_bound: int
    func: Callable[[Sequence[Fraction]], Fraction]

    def __post_init__(self):
        object.__setattr__(self, "n", _parse_int(self.n))
        object.__setattr__(self, "degree_bound", _parse_int(self.degree_bound))
        if self.n < 1:
            raise ValueError("need at least one variable")
        if self.degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")

    def eval(self, point: Sequence) -> Fraction:
        if len(point) != self.n:
            raise ValueError("wrong point dimension")
        return _frac(self.func(list(map(_frac, point))))

    @classmethod
    def from_multipoly(cls, p: MultiPoly, degree_bound: int | None = None) -> "BlackBox":
        bound = p.total_degree() if degree_bound is None else degree_bound
        return cls(p.n, max(bound, 0), p.evaluate)


@dataclass(frozen=True)
class AffineChange:
    """Invertible substitution x -> Mx + offset with a precomputed inverse."""

    matrix: tuple[tuple[Fraction, ...], ...]
    offset: tuple[Fraction, ...]
    inverse: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.offset)

    @classmethod
    def of(cls, rows: Sequence[Sequence], offset: Sequence) -> "AffineChange":
        n = len(offset)
        matrix = tuple(tuple(_frac(v) for v in row) for row in rows)
        # with L the row scales l_i, the kernel of [L M | -L] is {(x, M x)}:
        # M is invertible exactly when the j-th basis vector ends in a
        # nonzero multiple of e_j, the j-th inverse column over that entry;
        # a trailing 1 makes each cleared row end in its scale l_i
        cleared = [_clear_denominators([*row, 1])[0] for row in matrix]
        mat = linalg.IntMatrix.from_rows(
            [*row[:-1], *(-row[-1] if k == i else 0 for k in range(n))]
            for i, row in enumerate(cleared)
        )
        if mat.rows != n or mat.cols != 2 * n:
            raise ValueError("matrix shape does not match offset length")
        basis = linalg.kernel(mat)
        for j, vec in enumerate(basis):
            if any(bool(v) != (k == j) for k, v in enumerate(vec[n:])):
                raise ValueError("matrix is singular")
        inverse = tuple(
            tuple(Fraction(vec[i], vec[n + j]) for j, vec in enumerate(basis)) for i in range(n)
        )
        return cls(
            matrix=matrix,
            offset=tuple(_frac(v) for v in offset),
            inverse=inverse,
        )

    @classmethod
    def sample(cls, rng: random.Random, n: int) -> "AffineChange":
        while True:
            rows = [
                [rng.randint(1, _COORD_BOUND) for _ in range(n)] for _ in range(n)
            ]
            offset = [rng.randint(1, _COORD_BOUND) for _ in range(n)]
            try:
                return cls.of(rows, offset)
            except ValueError:
                continue  # singular draw; vanishingly rare

    def apply(self, point: Sequence) -> list[Fraction]:
        if len(point) != self.n:
            raise DimensionMismatch("point length != variable count")
        vec = [_frac(v) for v in point]
        return [
            sum((row[j] * vec[j] for j in range(self.n)), self.offset[i])
            for i, row in enumerate(self.matrix)
        ]


@dataclass(frozen=True)
class MultiTerm:
    """coeff * form(x)^exponent; the form is normalized so that its first
    nonzero variable coefficient equals 1."""

    coeff: Fraction
    form: LinearForm
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "coeff", _frac(self.coeff))
        object.__setattr__(self, "exponent", _parse_int(self.exponent))
        if not self.coeff:
            raise ValueError("term coefficient must be nonzero")
        if self.exponent < 1:
            raise ValueError("term exponent must be positive")
        if self.form.is_constant():
            raise ValueError("term form must involve a variable")


def _normalize_term(coeff: Fraction, form: LinearForm, exponent: int) -> MultiTerm:
    lead = next((c for c in form.coefficients if c), None)
    if lead is None:
        raise ValueError("term form must involve a variable")
    term = MultiTerm(coeff, form, exponent)
    if lead == 1:
        return term
    return MultiTerm(
        term.coeff * lead**term.exponent,
        LinearForm(form.constant / lead, tuple(c / lead for c in form.coefficients)),
        term.exponent,
    )


@dataclass(frozen=True)
class MultiDecomposition:
    """Normalized terms sorted by (exponent desc, form asc); the pair
    (form, exponent) is unique within a decomposition."""

    n: int
    terms: tuple[MultiTerm, ...]

    def __post_init__(self):
        normalized = tuple(
            _normalize_term(t.coeff, t.form, t.exponent) for t in self.terms
        )
        for t in normalized:
            if t.form.n != self.n:
                raise ValueError("term arity does not match decomposition")
        keys = [(t.form, t.exponent) for t in normalized]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (form, exponent) pair")
        ordered = sorted(normalized, key=lambda t: (-t.exponent, t.form.coefficients, t.form.constant))
        object.__setattr__(self, "terms", tuple(ordered))

    @classmethod
    def of(cls, n: int, items) -> "MultiDecomposition":
        """Build from MultiTerms or (coeff, form, exponent) triples: each
        term is normalized, the coefficients of equal (form, exponent) pairs
        are summed, and the pairs whose sum is zero are dropped."""
        merged: dict[tuple[LinearForm, int], Fraction] = {}
        for item in items:
            if isinstance(item, MultiTerm):
                c, form, e = item.coeff, item.form, item.exponent
            else:
                c, form, e = item
            t = _normalize_term(_frac(c), form, e)
            key = (t.form, t.exponent)
            merged[key] = merged.get(key, 0) + t.coeff
        return cls(n, tuple(MultiTerm(c, form, e) for (form, e), c in merged.items() if c))

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point; the forms are cleared per call (_evaluator)."""
        return self._evaluator()(point)

    def _evaluator(self) -> Callable[[Sequence], Fraction]:
        """The exact value as a function of the point, with the forms
        cleared once for all its points and not kept on the answer:
        c * form^e is m * (B_0 + sum_j B_j x_j)^e / den (the form over its
        own denominator b, c / b^e over den).  At N_j / D, E the largest
        exponent, it is sum m * (B_0 D + sum_j B_j N_j)^e * D^(E - e) / (den * D^E)."""
        forms = [_clear_denominators((t.form.constant, *t.form.coefficients)) for t in self.terms]
        ms, den = _clear_denominators([t.coeff / b**t.exponent for t, (_, b) in zip(self.terms, forms)])
        scaled = [(m, ints, t.exponent) for m, (ints, _), t in zip(ms, forms, self.terms)]
        top = scaled[0][2] if scaled else 0

        def value(point: Sequence) -> Fraction:
            if len(point) != self.n:
                raise DimensionMismatch("point length != variable count")
            nums, d = _clear_denominators(list(map(_frac, point)))
            nums.insert(0, d)
            num = 0
            for m, ints, e in scaled:
                num += m * sum(map(operator.mul, ints, nums)) ** e * d ** (top - e)
            return Fraction(num, den * d**top)

        return value

    def expand(self) -> MultiPoly:
        """The dense polynomial by the multinomial theorem: with the form
        b_0 + sum_j b_j x_j written as (B_0 + sum_j B_j x_j) / den over
        integers, c * form^e is c / den^e times the sum over k_0 + ... +
        k_n = e of e! / (k_0! ... k_n!) * prod B_j^k_j * x^(k_1, ..., k_n)."""
        out: dict[tuple[int, ...], Fraction] = {}
        for t in self.terms:
            e = t.exponent
            ints, den = _clear_denominators((t.form.constant, *t.form.coefficients))
            live = [(j, _powers(b, e)) for j, b in enumerate(ints) if b]
            fact = [math.factorial(k) for k in range(e + 1)]
            scale = t.coeff / den**e
            for ks in _compositions(e, len(live)):
                v = fact[e]
                for k in ks:
                    v //= fact[k]
                exps = [0] * (self.n + 1)
                for (j, table), k in zip(live, ks):
                    v *= table[k]
                    exps[j] = k
                key = tuple(exps[1:])
                out[key] = out.get(key, 0) + scale * v
        return MultiPoly(self.n, out)


def _compositions(total: int, parts: int):
    """Every tuple of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for k in range(total + 1):
        for rest in _compositions(total - k, parts - 1):
            yield (k, *rest)


def expand_multi(md: MultiDecomposition) -> MultiPoly:
    return md.expand()


def project_to_axis(
    bb: BlackBox, change: AffineChange, axis: int, origin: Fraction | None = None
) -> UniPoly:
    """Dense form of t -> f(change.apply(t * e_axis)) by interpolation at
    t = 0..d, d the degree bound: d + 1 black-box queries, or d when the
    caller passes origin, the value f(change.offset) at t = 0 that every
    axis shares.  The points offset + t * column run as one integer
    progression over their common denominator, passed as ints when it is 1."""
    if not 0 <= axis < bb.n:
        raise ValueError("axis out of range")
    if change.n != bb.n:
        raise DimensionMismatch("point length != variable count")
    ends = (*change.offset, *(row[axis] for row in change.matrix))
    ints, den = _clear_denominators(ends)
    point, step = ints[: bb.n], ints[bb.n :]
    points = [] if origin is None else [(0, origin)]
    for t in range(len(points), bb.degree_bound + 1):
        vals = [v + t * s for v, s in zip(point, step)]
        points.append((t, bb.eval(vals if den == 1 else [Fraction(v, den) for v in vals])))
    return interpolate(points)


def _assemble(
    bb: BlackBox,
    change: AffineChange,
    backend: Callable[[UniPoly], Decomposition],
) -> MultiDecomposition | None:
    """One reconstruction attempt; None means the substituted polynomial is
    identically zero on every axis (checked against the box afterwards).
    The point t = 0 is the offset on every axis, so it is asked once.

    An axis term alpha (t - a)^e is c (1 + p t)^e with c = alpha (-a)^e and
    p = -1/a, and each axis becomes one table {(c, e): p}.  The axes must
    agree on the keys; a term's substituted form 1 + sum_j p_j x_j takes
    p_j from axis j's table and is pulled back through the inverse."""
    origin = bb.eval(change.offset)
    projections = [
        project_to_axis(bb, change, axis, origin) for axis in range(bb.n)
    ]
    if all(p.is_zero() for p in projections):
        return None
    axes: list[dict[tuple[Fraction, int], Fraction]] = []
    for proj in projections:
        if proj.is_zero():
            raise ReconstructionFailed("axis projection vanished unexpectedly")
        found = backend(proj).terms
        if any(t.node == 0 for t in found):
            raise ReconstructionFailed("axis term has node zero, substitution was unlucky")
        table = {(t.coeff * (-t.node) ** t.exponent, t.exponent): -1 / t.node for t in found}
        if len({c for c, _ in table}) != len(found):
            raise ReconstructionFailed("axis term coefficients collide")
        axes.append(table)
    if len({len(table) for table in axes}) != 1:
        raise ReconstructionFailed("axes disagree on the number of terms")
    if any(table.keys() != axes[0].keys() for table in axes):
        raise ReconstructionFailed("axes disagree on term identities")
    terms = []
    for c, e in axes[0]:
        p_vec = [table[c, e] for table in axes]
        # q = p M^-1 is never zero: every p_j = -1/a with a != 0, and the
        # inverse M^-1 is invertible (AffineChange.of checks M is)
        q = [
            sum(p_vec[i] * change.inverse[i][j] for i in range(bb.n))
            for j in range(bb.n)
        ]
        const = 1 - sum(qj * lj for qj, lj in zip(q, change.offset))
        terms.append((c, LinearForm(const, tuple(q)), e))
    return MultiDecomposition.of(bb.n, terms)


def multi_build(
    bb: BlackBox,
    *,
    rng_seed: int = 0,
    backend: str = "distinct_nodes",
    retries: int = 5,
) -> MultiDecomposition:
    """Reconstruct a sum of powers of affine forms from a black box.

    The backend is "auto" or a name in decompose._STRATEGIES.  Runs up to
    retries + 1 attempts, each with a fresh random substitution, and
    accepts the first assembly that matches the box at 50 random points.
    Deterministic for a fixed rng_seed.
    """
    retries = _parse_int(retries)
    if backend == "auto":
        backend_fn = lambda f: decompose.decompose_auto(f)[0]
    else:
        backend_fn = dict(decompose._STRATEGIES).get(backend)
        if backend_fn is None:
            raise ValueError(f"unknown backend {backend!r}")
    rng = random.Random(rng_seed)
    last: ExactAlgebraError | None = None
    try:
        for _ in range(max(retries, 0) + 1):
            change = AffineChange.sample(rng, bb.n)
            try:
                candidate = _assemble(bb, change, backend_fn)
            except (ReconstructionFailed, IrrationalNodeDetected, ZeroPolynomial) as exc:
                last = exc
                continue
            result = (
                MultiDecomposition(bb.n, ()) if candidate is None else candidate
            )
            points = (
                [rng.randint(-_CHECK_RANGE, _CHECK_RANGE) for _ in range(bb.n)]
                for _ in range(_CHECK_POINTS)
            )
            value = result._evaluator()
            if all(bb.eval(point) == value(point) for point in points):
                return result
            last = ReconstructionFailed("candidate failed the random spot check")
        raise ReconstructionFailed(
            f"no attempt out of {max(retries, 0) + 1} produced a verified decomposition"
        ) from last.with_traceback(None)
    finally:
        last = None  # a caught error's traceback holds this frame: drop it on every exit
