"""Timing spans around the package's functions, installed from outside it.

`install` replaces a function at every place a caller looks it up: module
globals (so `from .unipoly import interpolate` in another module is covered),
entries of module-level tuples and dicts (the strategy and backend tables),
and class attributes for methods.  `Recorder.uninstall` puts the originals
back.  A span is kept only while `Recorder.instance` is set, that is inside
the benchmark's timed call for one instance; work done during instance
generation or output checking is dropped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "affinepowers"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    instance: int
    counts: dict = field(default_factory=dict)


def _kernel_counts(result, args):
    m = args["m"]
    return {"cells": m.rows * m.cols, "cols_max": m.cols}


def _find_min_sde_counts(result, args):
    # orders tried: 1..order on success, 1..max_order when none exists
    if result is not None:
        tried = result.order
    elif args["max_order"] is not None:
        tried = max(args["max_order"], 0)
    else:
        tried = args["f"].degree + 1
    return {"orders": tried}


def _power_solutions_counts(result, args):
    window = max(args["e_max"] - args["e_min"] + 1, 0)
    return {"exponents": window, "found": len(result) if result else 0}


def _gcd_counts(result, args):
    return {"trivial": int(result is not None and len(result) <= 1)}


def _basis_counts(result, args):
    return {"basis": len(result) if result else 0}


# (module, attribute path, extra counts taken from the arguments and result)
TARGETS = (
    ("decompose", "decompose_auto", None),
    ("decompose", "decompose_big_exponents", None),
    ("decompose", "decompose_big_gaps", None),
    ("decompose", "decompose_distinct_nodes", None),
    ("decompose", "decompose_small_intervals", None),
    ("decompose", "Decomposition.expand", None),
    ("classic", "waring_decompose", None),
    ("classic", "sparsest_shift", None),
    ("sde", "find_min_sde", _find_min_sde_counts),
    ("sde", "power_solutions", _power_solutions_counts),
    ("sde", "shifted_poly_solutions", _basis_counts),
    ("sde", "apply_sde", None),
    ("linalg", "kernel", _kernel_counts),
    ("linalg", "solve", None),
    ("ratroots", "poly_gcd_int", _gcd_counts),
    ("ratroots", "rational_roots_with_cofactor", None),
    ("unipoly", "interpolate", None),
    ("multivariate", "multi_build", None),
    ("multivariate", "project_to_axis", None),
    ("multivariate", "BlackBox.eval", None),
)


class Recorder:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.instance: int | None = None
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn, count=None):
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.instance is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                counts = {}
                if count is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = count(result, bound.arguments)
                self.spans[idx] = Span(name, start, end, parent, self.instance, counts)

        return traced

    def install(self) -> None:
        """Wrap every target at every name that refers to it."""
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod_name, path, count in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue  # absent in this version of the package
            wrapped = self.wrap(f"{mod_name}.{path}", original, count)
            if cls_path:
                self._set(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if key.startswith("__"):
                        continue
                    if value is original:
                        self._set(mod, key, wrapped)
                    elif isinstance(value, (tuple, dict)):
                        replaced = _replace_in(value, original, wrapped)
                        if replaced is not value:
                            self._set(mod, key, replaced)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _replace_in(container, original, wrapped):
    """Copy of a tuple/dict (nested one level) with original swapped for
    wrapped; the same object when it holds no reference to original."""
    def swap(v):
        if v is original:
            return wrapped
        if isinstance(v, tuple) and any(x is original for x in v):
            return tuple(wrapped if x is original else x for x in v)
        return v

    if isinstance(container, dict):
        if not any(swap(v) is not v for v in container.values()):
            return container
        return {k: swap(v) for k, v in container.items()}
    items = tuple(swap(v) for v in container)
    if all(a is b for a, b in zip(items, container)):
        return container
    return items


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, total_s (outermost spans of that name
    only, so recursion is not counted twice) and the summed counts."""
    own = self_times(spans)
    stats: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        row = stats.setdefault(
            s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "cols_max": 0}
        )
        row["calls"] += 1
        row["self_s"] += own[i]
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            row["total_s"] += s.end - s.start
        for key, value in s.counts.items():
            if key == "cols_max":
                row[key] = max(row[key], value)
            else:
                row[key] = row.get(key, 0) + value
    for row in stats.values():
        if "trivial" in row:
            row["trivial_frac"] = row["trivial"] / row["calls"]
    return stats
