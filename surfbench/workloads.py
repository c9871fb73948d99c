"""surfbench workloads: inputs from a seed, a solve through surfpde, a gate.

Each workload is one row of the paper's tables on the unit sphere.  Run as
a script, this module performs one run of one workload in the current
process and prints its record as a JSON line; `run.py` starts one such
process per run, so no package cache outlives a run and the peak resident
memory belongs to that run alone.

    python3 surfbench/workloads.py --workload bdf2-sphere-160 --seed 3
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
BOX_HALF = 1.2          # the paper's box is [-1.2, 1.2]^3
BAND = 0.5              # accepted relative deviation from a reference value
SETUP_REPS = 3          # discretize calls per run; setup_s is their median

# name -> (solver kind, grid intervals per axis)
WORKLOADS = {
    "bdf2-sphere-160": ("bdf2", 160),
    "swe-sphere-160": ("swe", 160),
    "poisson-sphere-320": ("poisson", 320),
}


class GateError(Exception):
    """A run's result failed its correctness gate."""


def load_package():
    """Import surfpde from this checkout's src/, never an installed copy."""
    pkg_dir = ROOT / "src" / "surfpde"
    if not (pkg_dir / "__init__.py").is_file():
        raise FileNotFoundError(f"no surfpde package at {pkg_dir}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import surfpde
    if Path(surfpde.__file__).resolve().parent != pkg_dir:
        raise ImportError(f"surfpde imported from {surfpde.__file__}, "
                          f"not from {pkg_dir}")
    return surfpde


def load_references():
    """The frozen table values in tests/reference_values.py."""
    path = ROOT / "tests" / "reference_values.py"
    spec = importlib.util.spec_from_file_location("reference_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_grid(surfpde, n, seed):
    """Seed 0: the centred box.  Otherwise the origin moves by [0, h)^3."""
    h = 2.0 * BOX_HALF / n
    offset = (np.zeros(3) if seed == 0
              else np.random.default_rng(seed).uniform(0.0, h, 3))
    return surfpde.Grid3(tuple(float(v) for v in offset - BOX_HALF), h,
                         (n, n, n))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- solves -------------------------------------------------------------------

def _diffusion_initial(points):
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    return 7.0 * (x - 2.0 * y) * (15.0 * z ** 2 - 3.0) / 8.0


def _poisson_data(points):
    s = points[:, 0] + points[:, 1] - 2.0 * points[:, 2]
    rhs = -(6.0 - s ** 2) * np.cos(s) + 2.0 * s * np.sin(s)
    return s, rhs


def _solve_bdf2(surfpde, disc, n):
    # table 3.1: alpha = 1/12, k = 1/(2N), t = 1
    k = 1.0 / (2.0 * n)
    u0 = _diffusion_initial(disc.positions[:disc.n_p])
    return surfpde.bdf2_solve(disc, u0, 1.0 / 12.0, k, round(1.0 / k),
                              form="divergence")


def _solve_swe(surfpde, disc, n):
    # table 4.2: tilted steady flow, nu = 1, k = 1/(2N), one day
    params = surfpde.williamson_params(30.0, nu=1.0)
    return surfpde.solve_swe(disc, params, [1.0])


def _solve_poisson(surfpde, disc, n):
    _, rhs = _poisson_data(disc.positions[:disc.n_p])
    return surfpde.poisson_solve(disc, rhs, form="divergence")


# -- correctness gates --------------------------------------------------------

def _require_finite(what, *arrays):
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise GateError(f"{what} has non-finite values")


def _require_band(what, got, ref):
    if not (1.0 - BAND) * abs(ref) <= abs(got) <= (1.0 + BAND) * abs(ref):
        raise GateError(f"{what} {got:.3e} outside +-{BAND:.0%} of "
                        f"reference {ref:.3e}")


def _check_bdf2(surfpde, refs, disc, n, u):
    _require_finite("u", u)
    exact = math.exp(-1.0) * _diffusion_initial(disc.positions)
    err = surfpde.error_norms(disc.extend(u), exact)[0]
    _require_band("relative max error of u", err,
                  refs.DIFFUSION_SPHERE[(n, "bdf2", "div")][0])
    return err


def _check_swe(surfpde, refs, disc, n, snapshots):
    _, phi_p, mom_p = snapshots[-1]
    _require_finite("Phi, Phi*v", phi_p, mom_p)
    ref = refs.SWE[(1.0, n, 1.0)]
    params = surfpde.williamson_params(30.0, nu=1.0)
    phi, mom = disc.extend(phi_p), disc.extend(mom_p)
    exact_phi = surfpde.exact_height(disc.positions, params)
    exact_mom = exact_phi[:, None] * surfpde.exact_velocity(disc.positions,
                                                            params)
    err = surfpde.error_norms(mom, exact_mom)[0]
    _require_band("relative max error of Phi*v", err, ref[0])
    mass_ref = surfpde.exact_height_integral(params)
    mass = surfpde.quadrature_weights(disc).integrate(phi)
    _require_band("relative mass integral error", (mass - mass_ref) / mass_ref,
                  ref[5])
    return err


def _check_poisson(surfpde, refs, disc, n, solution):
    u, beta = solution
    _require_finite("u", u, [beta])
    mean = float(np.mean(u))
    if abs(mean) > 1e-10 * max(1.0, float(np.abs(u).max())):
        raise GateError(f"Poisson solution mean {mean:.3e} is not zero")
    s, _ = _poisson_data(disc.positions[:disc.n_p])
    exact = np.cos(s) - np.cos(s).mean()
    err = float(np.abs(u - exact).max())
    _require_band("absolute max error of u", err, refs.POISSON_MAX[n])
    return err


SOLVERS = {"bdf2": _solve_bdf2, "swe": _solve_swe, "poisson": _solve_poisson}
CHECKS = {"bdf2": _check_bdf2, "swe": _check_swe, "poisson": _check_poisson}


# -- one run ------------------------------------------------------------------

def run(kind, n, seed, trace=False, spans_path=None):
    """One run: SETUP_REPS discretizations, one solve, one gate.

    Timings cover the last discretization, the one the solve uses, and
    stop with the solution in hand; the gate runs after them, untraced.
    With `trace`, the package layers are wrapped around that setup and
    solve, and the record carries the per-layer metrics.
    """
    surfpde = load_package()
    refs = load_references()
    surface = surfpde.sphere()
    grid = make_grid(surfpde, n, seed)
    setup_times = []
    for _ in range(SETUP_REPS - 1):
        t0 = time.perf_counter()
        surfpde.discretize(surface, grid)
        setup_times.append(time.perf_counter() - t0)

    # untraced, the tracer only holds the two phase spans below
    tracer = tracing.Tracer()
    with tracer.installed() if trace else contextlib.nullcontext():
        with tracer.span("bench.setup"):
            t0 = time.perf_counter()
            disc = surfpde.discretize(surface, grid)
            t1 = time.perf_counter()
        rss_setup = peak_rss_mb()
        with tracer.span("bench.solve"):
            solution = SOLVERS[kind](surfpde, disc, n)
            t2 = time.perf_counter()
    setup_times.append(t1 - t0)
    record = {"ok": True, "reason": None, "setup_times": setup_times,
              "solve_s": t2 - t1, "wall_s": t2 - t0,
              "peak_rss_mb": peak_rss_mb()}
    try:
        record["err_max"] = CHECKS[kind](surfpde, refs, disc, n, solution)
    except GateError as exc:
        record.update(ok=False, reason=str(exc))
    if trace:
        record["layers"] = dict(tracer.layer_metrics(),
                                **{"discretization.peak_rss_mb": rss_setup})
        record["untraced"] = tracer.missing
        if spans_path is not None:
            tracer.write(spans_path)
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args(argv)
    kind, n = WORKLOADS[args.workload]
    record = run(kind, n, args.seed, bool(args.trace), args.spans)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
