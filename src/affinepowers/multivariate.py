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
        if self.n < 1:
            raise ValueError("need at least one variable")
        if self.degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")

    def eval(self, point: Sequence) -> Fraction:
        if len(point) != self.n:
            raise ValueError("wrong point dimension")
        return _frac(self.func([_frac(v) for v in point]))

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
        cleared = [_clear_denominators([*row, 1]) for row in matrix]
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
            tuple(vec[i] / vec[n + j] for j, vec in enumerate(basis)) for i in range(n)
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


def _form_key(form: LinearForm):
    return (form.coefficients, form.constant)


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
        ordered = tuple(
            sorted(normalized, key=lambda t: (-t.exponent, _form_key(t.form)))
        )
        object.__setattr__(self, "terms", ordered)

    @classmethod
    def of(cls, n: int, items) -> "MultiDecomposition":
        """Build from MultiTerms or (coeff, form, exponent) triples, merging
        duplicates after normalization and dropping zero coefficients."""
        merged: dict[tuple, tuple[Fraction, LinearForm, int]] = {}
        for item in items:
            if isinstance(item, MultiTerm):
                c, form, e = item.coeff, item.form, item.exponent
            else:
                c, form, e = item
            t = _normalize_term(_frac(c), form, e)
            key = (_form_key(t.form), t.exponent)
            if key in merged:
                prev_c, _, _ = merged[key]
                merged[key] = (prev_c + t.coeff, t.form, t.exponent)
            else:
                merged[key] = (t.coeff, t.form, t.exponent)
        return cls(
            n,
            tuple(
                MultiTerm(c, form, e)
                for c, form, e in merged.values()
                if c
            ),
        )

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def evaluate(self, point: Sequence) -> Fraction:
        vec = [_frac(v) for v in point]
        total = Fraction(0)
        for t in self.terms:
            total += t.coeff * t.form.evaluate(vec) ** t.exponent
        return total

    def expand(self) -> MultiPoly:
        """The dense polynomial by the multinomial theorem: with the form
        b_0 + sum_j b_j x_j written as (B_0 + sum_j B_j x_j) / den over
        integers, c * form^e is c / den^e times the sum over k_0 + ... +
        k_n = e of e! / (k_0! ... k_n!) * prod B_j^k_j * x^(k_1, ..., k_n)."""
        out: dict[tuple[int, ...], Fraction] = {}
        for t in self.terms:
            e = t.exponent
            base = (t.form.constant, *t.form.coefficients)
            den = math.lcm(*(b.denominator for b in base))
            live = [
                (j, _powers(b.numerator * (den // b.denominator), e))
                for j, b in enumerate(base)
                if b
            ]
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


def project_to_axis(bb: BlackBox, change: AffineChange, axis: int) -> UniPoly:
    """Dense form of t -> f(change.apply(t * e_axis)) from exactly
    degree_bound + 1 black-box queries, by interpolation at t = 0..d."""
    if not 0 <= axis < bb.n:
        raise ValueError("axis out of range")
    d = bb.degree_bound
    points = []
    for t in range(d + 1):
        arg = [Fraction(0)] * bb.n
        arg[axis] = Fraction(t)
        points.append((Fraction(t), bb.eval(change.apply(arg))))
    return interpolate(points)


def _assemble(
    bb: BlackBox,
    change: AffineChange,
    backend: Callable[[UniPoly], Decomposition],
) -> MultiDecomposition | None:
    """One reconstruction attempt; None means the substituted polynomial is
    identically zero on every axis (checked against the box afterwards)."""
    projections = [
        project_to_axis(bb, change, axis) for axis in range(bb.n)
    ]
    if all(p.is_zero() for p in projections):
        return None
    per_axis: list[list[tuple[Fraction, Fraction, int]]] = []
    for proj in projections:
        if proj.is_zero():
            raise ReconstructionFailed("axis projection vanished unexpectedly")
        dec = backend(proj)
        rows = []
        for term in dec.terms:
            if term.node == 0:
                raise ReconstructionFailed(
                    "axis term has node zero, substitution was unlucky"
                )
            # alpha (t - a)^e == alpha (-a)^e (1 + (-1/a) t)^e
            c = term.coeff * (-term.node) ** term.exponent
            p = -1 / term.node
            rows.append((c, p, term.exponent))
        keys = [(c, e) for c, _, e in rows]
        if len(set(c for c, _ in keys)) != len(keys):
            raise ReconstructionFailed("axis term coefficients collide")
        per_axis.append(rows)
    counts = {len(rows) for rows in per_axis}
    if len(counts) != 1:
        raise ReconstructionFailed("axes disagree on the number of terms")
    base = per_axis[0]
    maps = []
    for rows in per_axis[1:]:
        table = {(c, e): p for c, p, e in rows}
        maps.append(table)
    terms = []
    for c, p0, e in base:
        p_vec = [p0]
        for table in maps:
            if (c, e) not in table:
                raise ReconstructionFailed("axes disagree on term identities")
            p_vec.append(table[(c, e)])
        # substituted form 1 + sum_j p_j x_j pulled back through the inverse
        q = [
            sum(p_vec[i] * change.inverse[i][j] for i in range(bb.n))
            for j in range(bb.n)
        ]
        if not any(q):
            raise ReconstructionFailed("pulled-back form lost all variables")
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
            ok = True
            for _ in range(_CHECK_POINTS):
                point = [
                    Fraction(rng.randint(-_CHECK_RANGE, _CHECK_RANGE))
                    for _ in range(bb.n)
                ]
                if bb.eval(point) != result.evaluate(point):
                    ok = False
                    break
            if ok:
                return result
            last = ReconstructionFailed("candidate failed the random spot check")
        raise ReconstructionFailed(
            f"no attempt out of {max(retries, 0) + 1} produced a verified decomposition"
        ) from last
    finally:
        last = None  # a caught error's traceback holds this frame: drop it on every exit
