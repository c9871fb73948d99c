"""Layer tracing of surfpde from outside the package.

`Tracer.installed()` swaps the public callables and methods the benchmark
measures for timing wrappers and puts the originals back on exit.  A
module-level function is replaced at every surfpde module attribute that
holds it, so calls made inside the package (`diffusion` calling
`factorize`, `artificial_viscosity` calling `upwind_differences`) are caught
as well as the benchmark's own calls; a method is replaced on its class.

Every wrapped call records a span (name, start, end, parent) and, where a
counter is attached, counts read at the same boundary.  Spans stay in
memory until `write()`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

import numpy as np


def _points(args, result):
    # methods receive (self, pts); pts has shape (..., 3)
    return {"points": int(np.asarray(args[1]).size // 3)}


def _nnz(args, result):
    return {"nnz": int(result.nnz)}


def _lu_fill(args, result):
    # SuperLU's stored nonzeros of L and U, read off the finished
    # factorization; a factorization without them counts as no fill
    lu = getattr(args[0], "_lu", None)
    mat = getattr(args[0], "_mat", None)
    if lu is None or mat is None:
        return {"lu_nnz": 0, "a_nnz": 0}
    return {"lu_nnz": int(lu.nnz), "a_nnz": int(mat.nnz)}


def _grid_size(args, result):
    return {"n_p": int(result.n_p), "n_tot": int(result.n_tot)}


# (owner, attribute, span name, counter); an owner "module:Class" is a class
TARGETS = (
    ("surfpde.geometry:LevelSetSurface", "phi", "geometry.phi", _points),
    ("surfpde.geometry:LevelSetSurface", "unit_normal", "geometry.normal",
     _points),
    ("surfpde.discretization", "discretize", "discretization.discretize",
     _grid_size),
    ("surfpde.discretization:SurfaceDiscretization", "extend",
     "discretization.extend", None),
    ("surfpde.discretization:SurfaceDiscretization", "extension_matrix",
     "discretization.extension_matrix", _nnz),
    ("surfpde.operators", "laplace_beltrami", "operators.laplace_beltrami",
     None),
    ("surfpde.operators", "reduced_operator", "operators.reduced_operator",
     _nnz),
    ("surfpde.operators", "artificial_viscosity",
     "operators.artificial_viscosity", None),
    ("surfpde.operators", "upwind_differences",
     "operators.upwind_differences", None),
    ("surfpde.operators", "tangential_projection",
     "operators.tangential_projection", None),
    ("surfpde.linalg:Factorization", "__init__", "linalg.factorize",
     _lu_fill),
    ("surfpde.linalg:Factorization", "solve", "linalg.solve", None),
    ("surfpde.linalg", "bordered_solve", "linalg.bordered_solve", None),
    ("surfpde.diffusion", "bdf2_solve", "diffusion.bdf2_solve", None),
    ("surfpde.maccormack", "maccormack_step", "maccormack.step", None),
    ("surfpde.swe", "solve_swe", "swe.solve_swe", None),
    ("surfpde.poisson", "poisson_solve", "poisson.poisson_solve", None),
)

# per-layer metrics computed from the spans, with their units
LAYER_UNITS = {
    "linalg.solve_calls": "count",
    "linalg.solve_ms_p50": "ms",
    "linalg.solve_ms_p90": "ms",
    "linalg.factorize_calls": "count",
    "linalg.factorize_s": "s",
    "linalg.lu_fill": "ratio",
    "linalg.bordered_solve_s": "s",
    "maccormack.steps": "count",
    "maccormack.step_ms_p50": "ms",
    "maccormack.step_ms_p90": "ms",
    "maccormack.step_self_ms_p50": "ms",
    "operators.artificial_viscosity_calls": "count",
    "operators.artificial_viscosity_s": "s",
    "operators.tangential_projection_s": "s",
    "discretization.extend_calls": "count",
    "discretization.extend_s": "s",
    "operators.laplace_beltrami_s": "s",
    "operators.reduced_operator_s": "s",
    "operators.red_nnz": "count",
    "discretization.extension_matrix_s": "s",
    "discretization.E_nnz": "count",
    "geometry.phi_points": "count",
    "geometry.phi_s": "s",
    "geometry.normal_points": "count",
    "geometry.normal_s": "s",
    "discretization.discretize_self_s": "s",
    "discretization.n_p": "count",
    "discretization.n_tot": "count",
}


def resolve_owner(owner):
    """The module or class named by a TARGETS owner string, or None."""
    module_name, _, class_name = owner.partition(":")
    module = sys.modules.get(module_name)
    return getattr(module, class_name, None) if class_name else module


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans = []
        self.missing = []       # TARGETS the package does not have
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name):
        rec = Span(name, time.perf_counter(),
                   self._stack[-1] if self._stack else -1)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def _close(self, rec):
        rec.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                rec.counts = counter(args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every TARGETS callable for the duration of the block."""
        try:
            for owner, attr, name, counter in TARGETS:
                target = resolve_owner(owner)
                if attr not in vars(target or object):
                    self.missing.append(f"{owner}.{attr}")
                    continue
                original = vars(target)[attr]
                wrapper = self._wrap(original, name, counter)
                if isinstance(target, type):
                    self._patch(target, attr, wrapper)
                    continue
                for mod in package_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            yield self
        finally:
            while self._patches:
                target, attr, original = self._patches.pop()
                setattr(target, attr, original)

    def _patch(self, target, attr, wrapper):
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, wrapper)

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for rec in self.spans:
            if rec.parent >= 0:
                out[rec.parent] -= rec.duration
        return out

    def layer_metrics(self):
        """Per-layer counts and times over every recorded span."""
        by_name = {}
        for i, rec in enumerate(self.spans):
            by_name.setdefault(rec.name, []).append(i)
        self_s = self.self_times()

        def spans(name):
            return [self.spans[i] for i in by_name.get(name, ())]

        def total_s(name):
            return float(sum(s.duration for s in spans(name)))

        def ms_pct(values, q):
            return float(np.percentile(values, q)) * 1e3 if values else 0.0

        def count_sum(name, key):
            return int(sum(s.counts[key] for s in spans(name)))

        solves = [s.duration for s in spans("linalg.solve")]
        steps = [s.duration for s in spans("maccormack.step")]
        step_self = [self_s[i] for i in by_name.get("maccormack.step", ())]
        lu_nnz = count_sum("linalg.factorize", "lu_nnz")
        a_nnz = count_sum("linalg.factorize", "a_nnz")
        discs = spans("discretization.discretize")
        last_disc = discs[-1].counts if discs else {"n_p": 0, "n_tot": 0}
        reds = spans("operators.reduced_operator")
        exts = spans("discretization.extension_matrix")
        return {
            "linalg.solve_calls": len(solves),
            "linalg.solve_ms_p50": ms_pct(solves, 50),
            "linalg.solve_ms_p90": ms_pct(solves, 90),
            "linalg.factorize_calls": len(spans("linalg.factorize")),
            "linalg.factorize_s": total_s("linalg.factorize"),
            "linalg.lu_fill": lu_nnz / a_nnz if a_nnz else 0.0,
            "linalg.bordered_solve_s": total_s("linalg.bordered_solve"),
            "maccormack.steps": len(steps),
            "maccormack.step_ms_p50": ms_pct(steps, 50),
            "maccormack.step_ms_p90": ms_pct(steps, 90),
            "maccormack.step_self_ms_p50": ms_pct(step_self, 50),
            "operators.artificial_viscosity_calls":
                len(spans("operators.artificial_viscosity")),
            "operators.artificial_viscosity_s":
                total_s("operators.artificial_viscosity"),
            "operators.tangential_projection_s":
                total_s("operators.tangential_projection"),
            "discretization.extend_calls":
                len(spans("discretization.extend")),
            "discretization.extend_s": total_s("discretization.extend"),
            "operators.laplace_beltrami_s":
                total_s("operators.laplace_beltrami"),
            "operators.reduced_operator_s":
                total_s("operators.reduced_operator"),
            "operators.red_nnz": reds[-1].counts["nnz"] if reds else 0,
            "discretization.extension_matrix_s":
                total_s("discretization.extension_matrix"),
            "discretization.E_nnz": exts[-1].counts["nnz"] if exts else 0,
            "geometry.phi_points": count_sum("geometry.phi", "points"),
            "geometry.phi_s": total_s("geometry.phi"),
            "geometry.normal_points": count_sum("geometry.normal", "points"),
            "geometry.normal_s": total_s("geometry.normal"),
            "discretization.discretize_self_s": float(sum(
                self_s[i] for i in by_name.get("discretization.discretize",
                                               ()))),
            "discretization.n_p": last_disc["n_p"],
            "discretization.n_tot": last_disc["n_tot"],
        }

    def write(self, path):
        """Write every span as JSON (times in seconds from the first span)."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, "counts": s.counts} for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def package_modules():
    """Every imported surfpde module, the package itself included."""
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "surfpde" or name.startswith("surfpde."))]
