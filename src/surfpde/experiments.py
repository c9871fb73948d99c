"""Reference experiment drivers: one runner per report table.

Each runner returns a flat record list (N, time, metric, value) in a fixed
order, so CSV output is byte-identical across runs.  Console rendering adds
observed-order columns log2(err_N / err_2N) whenever two grids are present.

A runner's independent tasks, one per grid, surface, curve, stepper or
form, run in a process pool with one worker per CPU (in-process on one CPU
or when the work is small).  Each task's `_case` returns its own
records, and `_table` joins them in task order.  Table 3.2's records each
compare two grids' runs, so its cases return the runs; its pool first
builds every grid, so a grid that cannot be resolved fails before any
march, and both steppers share one march task per surface and grid.  The
pool sends out the largest grids first, so the longest run does not start
last; records keep the fixed order whatever order the tasks finish in.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from functools import partial

import numpy as np

from . import advection as adv_mod
from . import swe as swe_mod
from .curve1d import discretize_curve, m_matrix_report, make_curve
from .diffusion import bdf2_solve, forward_euler_solve
from .discretization import (SLOT, Grid, discretize,
                             interpolation_coefficients)
from .errors import StencilError
from .fields import error_norms
from .geometry import make_surface
from .operators import primary_chart_axes
from .poisson import poisson_solve
from .quadrature import quadrature_weights
from .spectrum import (cluster_errors, laplacian_eigenvalues,
                       resolvent_report)

BOX_HALF = 1.2
SPHERE_CLUSTERS = tuple(-n * (n + 1) for n in range(7))
SPHERE_MULTIPLICITIES = tuple(2 * n + 1 for n in range(7))
# short operator-form names, as the CLI and the record tags spell them
FORM_NAMES = {"div": "divergence", "nondiv": "nondivergence"}

_DISC_CACHE: dict = {}


def get_discretization(surface_name, n):
    """Build (and memoize per process) a catalog-surface discretization
    at the default admissibility bound eta."""
    key = (surface_name, int(n))
    if key not in _DISC_CACHE:
        grid = Grid.cube(-BOX_HALF, BOX_HALF, key[1])
        _DISC_CACHE[key] = discretize(make_surface(surface_name), grid)
    return _DISC_CACHE[key]


# Work whose tasks hold fewer grid cells than this in all (N^d summed over
# the tasks, one march or solve each) runs in-process: a pool's spawn and
# its workers' grid builds cost 0.6-1.5 s on 2 cores.  Table 3.1 at one N
# (four tasks) is the measured crossover: 3.2 s in-process against 3.4 s
# pooled at N = 128, 3.9 against 3.8 s at 140, 5.2 against 4.3 s at 150.
_POOL_MIN_CELLS = 4 * 140 ** 3


@contextmanager
def _task_map(tasks, dim=3):
    """A map over `tasks`, and over later stages of the same tasks, on one
    worker process per CPU: `with _task_map(tasks) as run: run(fn, tasks)`.

    Each task is a tuple whose first item is its grid size N, on a grid of
    `dim` dimensions.  Small work (under _POOL_MIN_CELLS cells, a grid
    counted once per task) runs in-process in task order, as it does on
    one CPU.  Otherwise one pool serves every stage of the `with` block and
    sends the largest grids out first.  The first task to fail cancels
    those not yet started, and its error propagates.
    """
    workers = min(len(tasks), os.cpu_count() or 1)
    if (workers <= 1
            or sum(task[0] ** dim for task in tasks) < _POOL_MIN_CELLS):
        yield lambda fn, stage: [fn(task) for task in stage]
        return
    # workers are spawned: forking a process that runs BLAS threads is unsafe
    pool = ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context("spawn"))
    try:
        yield partial(_pool_map, pool)
    finally:
        pool.shutdown(cancel_futures=True)


def _pool_map(pool, fn, tasks):
    """[fn(task) for task in tasks] on `pool`, the largest grids first."""
    results = [None] * len(tasks)
    largest_first = sorted(range(len(tasks)), key=lambda i: -tasks[i][0])
    futures = {pool.submit(fn, tasks[i]): i for i in largest_first}
    for future in as_completed(futures):
        results[futures[future]] = future.result()
    return results


def _table(case, tasks, dim=3):
    """The records of every task in task order; each case returns a list."""
    with _task_map(tasks, dim) as run:
        return [rec for recs in run(case, tasks) for rec in recs]


# ---------------------------------------------------------------------------
# fine-to-coarse comparison

def chart_interpolate(fine, full_values, points):
    """Evaluate a point field of `fine` at off-grid surface points.

    Each query point is assigned to its nearest primary and interpolated
    biquadratically over that primary's 3x3 chart stencil.  Primaries with
    incomplete stencils (possible in steep regions) are skipped in favor of
    the next-nearest complete one.
    """
    from scipy.spatial import cKDTree  # only here: it costs every import

    full_values = np.asarray(full_values, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n_p = fine.n_p
    complete = (fine.chart_neighbors >= 0).all(axis=1)
    hosts = np.flatnonzero(complete)
    if hosts.size == 0:
        raise StencilError("no fine primary has a complete chart stencil; "
                           "cannot interpolate")
    tree = cKDTree(fine.positions[:n_p][complete])
    _, picked = tree.query(points, k=1)
    owner = hosts[picked]
    nb = fine.chart_neighbors[owner]
    # ids[:, 1 + o1, 1 + o2] is the point at chart offset (o1, o2)
    ids = np.empty((len(points), 3, 3), dtype=nb.dtype)
    ids[:, 1, 1] = owner
    for (o1, o2), slot in SLOT.items():
        ids[:, 1 + o1, 1 + o2] = nb[:, slot]
    c1, c2 = primary_chart_axes(fine)
    rows = np.arange(len(points))
    d1 = (points[rows, c1[owner]]
          - fine.positions[owner, c1[owner]]) / fine.grid.h
    d2 = (points[rows, c2[owner]]
          - fine.positions[owner, c2[owner]]) / fine.grid.h
    w1 = np.stack(interpolation_coefficients(d1), axis=1)
    w2 = np.stack(interpolation_coefficients(d2), axis=1)
    return np.einsum("mi,mj,mij->m", w1, w2, full_values[ids])


def successive_errors(coarse, u_coarse_full, fine, u_fine_full):
    """Absolute max and discrete L2 of u_coarse - (fine interpolated)."""
    diff = u_coarse_full - chart_interpolate(fine, u_fine_full,
                                             coarse.positions)
    return float(np.abs(diff).max()), float(np.sqrt((diff ** 2).mean()))


# ---------------------------------------------------------------------------
# table 3.1: diffusion on the unit sphere, known exact solution

def _sphere_initial(points):
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    return 7.0 * (x - 2.0 * y) * (15.0 * z ** 2 - 3.0) / 8.0


def _time_stepper(stepper, k_fe, k_bdf2):
    """The solver and time step of `stepper`: fe or bdf2."""
    choices = {"fe": (forward_euler_solve, k_fe), "bdf2": (bdf2_solve, k_bdf2)}
    if stepper not in choices:
        raise ValueError(f"unknown stepper {stepper!r} (fe or bdf2)")
    return choices[stepper]


def _diffusion_sphere_case(args):
    n, stepper, form = args
    solver, k = _time_stepper(stepper, 8.0 / n ** 2, 1.0 / (2.0 * n))
    disc = get_discretization("sphere", n)
    u0 = _sphere_initial(disc.positions)[:disc.n_p]
    alpha = 1.0 / 12.0
    n_steps = round(1.0 / k)
    u = solver(disc, u0, alpha, k, n_steps, form=form)
    exact = math.exp(-1.0) * _sphere_initial(disc.positions)
    emax, el2 = error_norms(disc.extend(u), exact)
    short = {name: s for s, name in FORM_NAMES.items()}[form]
    tag = f"{stepper}_{short}"
    return [(n, 1.0, f"{tag}_max", emax), (n, 1.0, f"{tag}_l2", el2)]


def run_diffusion_sphere(n_list=(80, 160),
                         forms=("nondivergence", "divergence"),
                         steppers=("fe", "bdf2")):
    combos = [(form, stepper) for form in forms for stepper in steppers]
    tasks = [(n, stepper, form) for n in n_list for form, stepper in combos]
    return _table(_diffusion_sphere_case, tasks)


# ---------------------------------------------------------------------------
# table 3.2: diffusion on ellipsoid / cassini oval, successive-grid errors

def _diffusion_pair_case(args):
    n, surface, disc = args
    p = disc.positions
    u0 = np.cos(p[:, 0] - p[:, 1] + p[:, 2])[:disc.n_p]
    alpha = 0.1
    runs = {}
    for stepper in ("fe", "bdf2"):
        solver, k = _time_stepper(stepper, 8.0 / n ** 2, 1.0 / (10.0 * n))
        u = solver(disc, u0, alpha, k, round(1.0 / k), form="divergence")
        runs[stepper] = disc.extend(u)
    return runs


def _build_grid(args):
    n, surface = args
    return get_discretization(surface, n)


def run_diffusion_pair(n_list=(80, 160),
                       surfaces=("ellipsoid", "cassini_oval")):
    n_list = tuple(n_list)
    all_n = tuple(sorted({*n_list, *(2 * n for n in n_list)}))
    tasks = [(n, surface) for surface in surfaces for n in all_n]
    # every grid is built, and so checked, before any march starts
    with _task_map(tasks) as run:
        discs = run(_build_grid, tasks)
        marches = run(_diffusion_pair_case,
                      [task + (disc,) for task, disc in zip(tasks, discs)])
    runs = dict(zip(tasks, zip(discs, marches)))
    records = []
    for surface in surfaces:
        for stepper in ("fe", "bdf2"):
            for n in n_list:
                (coarse, u_coarse), (fine, u_fine) = (runs[(n, surface)],
                                                      runs[(2 * n, surface)])
                emax, el2 = successive_errors(coarse, u_coarse[stepper],
                                              fine, u_fine[stepper])
                tag = f"{surface}_{stepper}"
                records.append((n, 1.0, f"{tag}_max", emax))
                records.append((n, 1.0, f"{tag}_l2", el2))
    return records


# ---------------------------------------------------------------------------
# table 3.3: low eigenvalues of the reduced operator on the sphere

def _eigen_case(args):
    n, form = args
    disc = get_discretization("sphere", n)
    count = sum(SPHERE_MULTIPLICITIES)
    eigs, max_imag = laplacian_eigenvalues(disc, count, form=form)
    errs = cluster_errors(eigs, SPHERE_CLUSTERS, SPHERE_MULTIPLICITIES)
    return ([(n, 0.0, f"cluster_n{level}", float(err))
             for level, err in enumerate(errs)]
            + [(n, 0.0, "max_imag", float(max_imag))])


def run_eigenvalues(n_list=(40, 80), form="divergence"):
    return _table(_eigen_case, [(n, form) for n in n_list])


# ---------------------------------------------------------------------------
# poisson problem on the unit sphere

def _poisson_case(args):
    (n,) = args
    disc = get_discretization("sphere", n)
    p = disc.positions[:disc.n_p]
    s = p[:, 0] + p[:, 1] - 2.0 * p[:, 2]
    f = -(6.0 - s ** 2) * np.cos(s) + 2.0 * s * np.sin(s)
    u, beta = poisson_solve(disc, f, form="divergence")
    exact = np.cos(s)
    exact = exact - exact.mean()
    return [(n, 0.0, "err_max", float(np.abs(u - exact).max())),
            (n, 0.0, "beta", float(beta))]


def run_poisson(n_list=(80, 160)):
    return _table(_poisson_case, [(n,) for n in n_list])


# ---------------------------------------------------------------------------
# table 4.1: advection on the sphere

def _advection_case(args):
    n, times = args
    disc = get_discretization("sphere", n)
    qw = quadrature_weights(disc)
    records = []
    for t, u_p in adv_mod.solve_advection(disc, times):
        full = disc.extend(u_p)
        exact = adv_mod.exact_solution(disc.positions, t)
        emax, el2 = error_norms(full, exact)
        ref = adv_mod.exact_integral(t)
        rel_int = (qw.integrate(full) - ref) / ref
        records += [(n, t, "err_max", emax), (n, t, "err_l2", el2),
                    (n, t, "int_rel", float(rel_int))]
    return records


def run_advection(n_list=(80, 160, 320), times=(1.0, 2.0, 5.0)):
    times = tuple(float(t) for t in times)
    return _table(_advection_case, [(n, times) for n in n_list])


# ---------------------------------------------------------------------------
# tables 4.2 / 4.3: rotated steady state of the shallow water equations

def _swe_case(args):
    n, days, nu = args
    disc = get_discretization("sphere", n)
    params = swe_mod.williamson_params(30.0, nu=nu)
    qw = quadrature_weights(disc)
    exact_phi = swe_mod.exact_height(disc.positions, params)
    exact_mom = exact_phi[:, None] * swe_mod.exact_velocity(disc.positions,
                                                            params)
    mass_ref = swe_mod.exact_height_integral(params)
    energy_ref = swe_mod.exact_energy_integral(params)
    names = ("mom_max", "phi_max", "mom_l2", "phi_l2",
             "energy_int", "mass_int")
    records = []
    for t, phi_p, mom_p in swe_mod.solve_swe(disc, params, days):
        phi = disc.extend(phi_p)
        mom = disc.extend(mom_p)
        pmax, pl2 = error_norms(phi, exact_phi)
        mmax, ml2 = error_norms(mom, exact_mom)
        vel = mom / phi[:, None]
        energy = qw.integrate((vel ** 2).sum(axis=1))
        mass = qw.integrate(phi)
        values = (mmax, pmax, ml2, pl2,
                  float((energy - energy_ref) / energy_ref),
                  float((mass - mass_ref) / mass_ref))
        records += [(n, t, name, v) for name, v in zip(names, values)]
    return records


def run_swe(nu, n_list=(80, 160), days=(1.0, 2.0, 5.0)):
    days = tuple(float(d) for d in days)
    return _table(_swe_case, [(n, days, float(nu)) for n in n_list])


# ---------------------------------------------------------------------------
# surface-integral convergence for the quadrature rule

def _quadrature_case(args):
    (n,) = args
    disc = get_discretization("sphere", n)
    qw = quadrature_weights(disc)
    area = float(qw.weights.sum())
    return [(n, 0.0, "area_rel", (area - 4.0 * math.pi) / (4.0 * math.pi))]


def run_quadrature(n_list=(40, 80, 160)):
    return _table(_quadrature_case, [(n,) for n in n_list])


# ---------------------------------------------------------------------------
# resolvent sign reports for plane curves

def _curve_resolvent_case(args):
    n, kind, sigmas = args
    disc = discretize_curve(make_curve(kind),
                            Grid.square(-BOX_HALF, BOX_HALF, n))
    records = []
    for rep in resolvent_report(disc, list(sigmas)):
        tag = f"{kind}_s{rep['sigma']:g}"
        records += [(n, 0.0, f"{tag}_min_entry", float(rep["min_entry"])),
                    (n, 0.0, f"{tag}_rowsum_dev",
                     float(rep["max_rowsum_dev"]))]
    for sigma in sigmas:
        rep = m_matrix_report(disc, sigma)
        records.append((n, 0.0, f"{kind}_s{sigma:g}_m_matrix",
                        1.0 if rep["is_m_matrix"] else 0.0))
    return records


def run_curve_resolvent(curves=("circle", "ellipse"), n_list=(80, 160),
                        sigmas=(0.75, 1.0, 2.0)):
    sigmas = tuple(sigmas)
    return _table(_curve_resolvent_case,
                  [(n, kind, sigmas) for kind in curves for n in n_list],
                  dim=2)


# ---------------------------------------------------------------------------
# output helpers

def write_csv(path, experiment, records):
    """CSV with one metric per row; fixed formats keep output reproducible."""
    lines = ["experiment,N,time,metric,value"]
    for n, t, metric, value in records:
        lines.append(f"{experiment},{n},{t:g},{metric},{value:.12e}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def render_table(title, records):
    """Console table: one row per (N, time), metrics across.

    After each metric column an order column reports log2 of the ratio to the
    same metric on the next-coarser grid at the same time, when available.
    """
    metrics = []
    for _, _, metric, _ in records:
        if metric not in metrics:
            metrics.append(metric)
    keys = []
    for n, t, _, _ in records:
        if (n, t) not in keys:
            keys.append((n, t))
    value = {(n, t, m): v for n, t, m, v in records}
    with_time = len({t for _, t in keys}) > 1
    show_order = len({n for n, _ in keys}) > 1

    head = ["N"] + (["time"] if with_time else [])
    for m in metrics:
        head.append(m)
        if show_order:
            head.append("ord")
    rows = [head]
    for n, t in keys:
        row = [str(n)] + ([f"{t:g}"] if with_time else [])
        for m in metrics:
            v = value.get((n, t, m))
            row.append("" if v is None else f"{v:10.3e}")
            if not show_order:
                continue
            prev = value.get((n // 2, t, m))
            if v is None or prev is None or v == 0 or prev == 0:
                row.append("")
            else:
                row.append(f"{math.log2(abs(prev) / abs(v)):5.2f}")
        rows.append(row)

    widths = [max(len(r[i]) for r in rows) for i in range(len(head))]
    out = [title]
    for j, row in enumerate(rows):
        out.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if j == 0:
            out.append("-" * len(out[-1]))
    return "\n".join(out)
