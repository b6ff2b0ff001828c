"""Out-of-package tracing: wrap public functions, record spans, derive self time.

The tracer replaces each target function wherever callers look it up
(the defining module, every package module that imported the name, and
the class attribute for methods), records one span per call in flat
arrays, and restores the originals on uninstall.  Nothing inside the
package changes.  Spans are grouped by the point that caused them;
self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "kirchhoff_normalized"

# (metric prefix, owner, attribute); owner is "module" or "module:Class".
# linalg entries name the SciPy functions as constrained_solver imported
# them, so only the package's own calls are counted.
TARGETS = (
    ("radial_grid.grad_norm_sq", "radial_grid:RadialFunction", "grad_norm_sq"),
    ("radial_grid.stiffness_apply", "radial_grid:RadialGrid", "stiffness_apply"),
    ("radial_grid.normalize_mass", "radial_grid", "normalize_mass"),
    ("radial_grid.fiber_scale", "radial_grid", "fiber_scale"),
    ("radial_grid.make_grid", "radial_grid", "make_grid"),
    ("models.Nonlinearity.f", "models:Nonlinearity", "f"),
    ("models.Nonlinearity.F", "models:Nonlinearity", "F"),
    ("functional.energy", "functional", "energy"),
    ("functional.fiber_pohozaev", "functional", "fiber_pohozaev"),
    ("functional.multiplier_estimate", "functional", "multiplier_estimate"),
    ("functional.pde_residual_norm", "functional", "pde_residual_norm"),
    ("linalg.solveh_banded", "constrained_solver", "solveh_banded"),
    ("linalg.solve_banded", "constrained_solver", "solve_banded"),
    ("scalar_opt.golden_min", "scalar_opt", "golden_min"),
    ("scalar_opt.sign_change_brackets", "scalar_opt", "sign_change_brackets"),
    ("gn_ground_state.ground_state", "gn_ground_state", "ground_state"),
    ("omega_thresholds.threshold_set", "omega_thresholds", "threshold_set"),
    ("constrained_solver.gn_fiber_min", "constrained_solver", "gn_fiber_min"),
    ("constrained_solver.gn_fiber_well", "constrained_solver", "gn_fiber_well"),
    ("constrained_solver.gn_fiber_barrier", "constrained_solver", "gn_fiber_barrier"),
    ("constrained_solver.recommended_grid", "constrained_solver", "recommended_grid"),
    ("constrained_solver.minimize_on_sphere", "constrained_solver", "minimize_on_sphere"),
    ("constrained_solver.mountain_pass", "constrained_solver", "mountain_pass"),
    ("constrained_solver.classify", "constrained_solver", "classify"),
    ("cli.run_sweep", "cli", "run_sweep"),
    ("cli.render_report", "cli", "render_report"),
)

POINT = "point"


def self_times(names, starts, ends, parents, n_names: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-name call counts and self time from spans.

    parents[i] is the index of span i's parent span, or -1 for a root.
    A span's self time is its duration minus its direct children's
    durations; the sums are grouped by name index.
    """
    names = np.asarray(names, dtype=np.int64)
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    child_sum = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
    own = dur - child_sum
    calls = np.bincount(names, minlength=n_names)
    self_s = np.bincount(names, weights=own, minlength=n_names)
    return calls, self_s


@dataclass
class Tracer:
    """Span recorder for the TARGETS plus one root span per point."""

    labels: list[str] = field(default_factory=lambda: [t[0] for t in TARGETS] + [POINT])
    point_ids: list[str] = field(default_factory=list)
    names: array = field(default_factory=lambda: array("i"))
    parents: array = field(default_factory=lambda: array("i"))
    owners: array = field(default_factory=lambda: array("i"))
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    _stack: list[int] = field(default_factory=list)
    _owner: list[int] = field(default_factory=lambda: [-1])
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def _open(self, name: int) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.owners.append(self._owner[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: int, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def point(self, point_id: str, fn, *args, **kwargs):
        """Call fn as one point: a root span, and every span under it
        filed under point_id (the innermost point wins when they nest)."""
        self.point_ids.append(point_id)
        self._owner.append(len(self.point_ids) - 1)
        idx = self._open(len(self.labels) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)
            self._owner.pop()

    def install(self) -> None:
        """Replace every target where package code or callers look it up."""
        holders = [importlib.import_module(f"{PACKAGE}.{owner.partition(':')[0]}")
                   for _, owner, _ in TARGETS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, ((_, owner, attr), holder) in enumerate(zip(TARGETS, holders)):
            cls_name = owner.partition(":")[2]
            if cls_name:
                cls = getattr(holder, cls_name)
                self._set(cls, attr, self._wrap(name, vars(cls)[attr]))
                continue
            original = getattr(holder, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def totals(self) -> dict[str, dict[str, float]]:
        """calls and self_s per label over every recorded span."""
        calls, self_s = self_times(self.names, self.starts, self.ends,
                                   self.parents, len(self.labels))
        return {label: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                for i, label in enumerate(self.labels)}

    def write(self, path: str) -> None:
        """All spans, one gzip-compressed JSON line per point."""
        owners = np.asarray(self.owners)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"labels": self.labels}) + "\n")
            for k, pid in enumerate(self.point_ids):
                idx = np.flatnonzero(owners == k)
                out.write(json.dumps({
                    "point": pid,
                    "span": idx.tolist(),
                    "name": [self.names[i] for i in idx],
                    "parent": [self.parents[i] for i in idx],
                    "start": [self.starts[i] for i in idx],
                    "end": [self.ends[i] for i in idx],
                }) + "\n")
