"""Two classical specializations of the affine-power model.

Waring: f = sum_i c_i (x - b_i)^d with every exponent equal to deg(f).
Sparsest shift: f = sum_k c_k (x - a)^k with a single common node a and as
few nonzero c_k as possible.

Both solvers only certify answers below a size threshold tied to deg(f);
past it they report AboveThreshold (terms/shift left as None) rather than
guessing, because uniqueness is no longer guaranteed there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import sde as sde_mod
from .decompose import Decomposition, _fit, _require_nonzero, _verify
from .errors import IrrationalNodeDetected
from .unipoly import UniPoly
from .ratroots import rational_roots_with_cofactor


@dataclass(frozen=True, slots=True)
class WaringResult:
    """terms is a tuple of (coeff, node) pairs, all with exponent degree;
    None means the optimum was not certified below the threshold."""

    degree: int
    terms: tuple[tuple[Fraction, Fraction], ...] | None

    @property
    def above_threshold(self) -> bool:
        return self.terms is None

    @property
    def size(self) -> int | None:
        return None if self.terms is None else len(self.terms)


def expand_waring(res: WaringResult) -> UniPoly:
    if res.terms is None:
        raise ValueError("cannot expand an above-threshold result")
    return Decomposition.of((c, b, res.degree) for c, b in res.terms).expand()


def waring_decompose(f: UniPoly) -> WaringResult:
    """Optimal rational Waring decomposition when its size k satisfies
    3 k^2 <= 2 d; otherwise WaringResult(d, None).

    The optimal size equals the minimal order of a plain (shift-0)
    equation for f, and the nodes are read off that equation's degree-d
    power solutions.
    """
    _require_nonzero(f)
    d = f.degree
    if d < 1:
        raise ValueError("degree must be at least 1")
    cap = math.isqrt(2 * d // 3)  # largest k with 3 k^2 <= 2 d
    if cap < 1:
        return WaringResult(d, None)
    eq = sde_mod.find_min_sde(f, 0, max_order=cap)
    if eq is None:
        return WaringResult(d, None)
    k = eq.order
    # power_solutions raises IrrationalNodeDetected if degree-d solutions
    # with irrational nodes exist; with all of them rational, fewer than k
    # candidates means the true optimum lies above the threshold
    pairs = sde_mod.power_solutions(eq, d, d)
    if len(pairs) < k:
        return WaringResult(d, None)
    dec = _verify(_fit(f, [(b, {d: 1}) for b, _ in pairs]), f)
    # one exponent, so the terms are in node order
    return WaringResult(d, tuple((t.coeff, t.node) for t in dec))


@dataclass(frozen=True, slots=True)
class SparsestResult:
    """shift a and the support map exponent -> coeff of a sparsest
    single-node form; both None when not certified below the threshold."""

    shift: Fraction | None
    support: tuple[tuple[int, Fraction], ...] | None

    @property
    def above_threshold(self) -> bool:
        return self.support is None

    @property
    def size(self) -> int | None:
        return None if self.support is None else len(self.support)


def expand_sparsest(res: SparsestResult) -> UniPoly:
    if res.shift is None or res.support is None:
        raise ValueError("cannot expand an above-threshold result")
    return Decomposition.of((c, res.shift, e) for e, c in res.support).expand()


def sparsest_shift(f: UniPoly) -> SparsestResult:
    """Sparsest shift a with support size s satisfying s^2 <= d; otherwise
    SparsestResult(None, None).

    A shift achieving sparsity s must be a root of the top coefficient of
    the minimal shift-0 equation (whose order is s for such f), so the
    candidates are that polynomial's rational roots.  If no rational
    candidate certifies but the top coefficient has an irrational factor,
    the optimum may live in an extension field and IrrationalNodeDetected
    is raised.
    """
    _require_nonzero(f)
    d = f.degree
    if d < 1:
        raise ValueError("degree must be at least 1")
    cap = math.isqrt(d)  # largest s with s^2 <= d
    eq = sde_mod.find_min_sde(f, 0, max_order=cap)
    if eq is None:
        return SparsestResult(None, None)
    top = eq.polys[eq.order]
    roots, cofactor = rational_roots_with_cofactor(top)
    best_shift: Fraction | None = None
    best_support: tuple[tuple[int, Fraction], ...] | None = None
    for a in sorted(roots):
        shifted = f.taylor_shift(a)
        support = tuple(
            (e, c) for e, c in enumerate(shifted.coeffs) if c
        )
        if best_support is None or len(support) < len(best_support):
            best_shift, best_support = a, support
    if best_support is not None and len(best_support) ** 2 <= d:
        _verify(Decomposition.of((c, best_shift, e) for e, c in best_support), f)
        return SparsestResult(best_shift, best_support)
    if len(cofactor) > 1:
        raise IrrationalNodeDetected(
            "the sparsest shift below the threshold, if any, is irrational"
        )
    return SparsestResult(None, None)
