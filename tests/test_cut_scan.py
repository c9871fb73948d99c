"""The narrow-band sign-change scan of cut location, with a gradient
bound and without one (every block), against the dense scan it
replaced, the Illinois root step against the bisection it replaced,
their memory, evaluation-count and failure contracts, and, fuzzed on
rotated ellipsoids, the invariants of the operators built on the
cuts."""

import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest
import hypothesis
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import cut_record
from surfpde import discretization, linalg
from surfpde.curve1d import circle, discretize_curve, ellipse
from surfpde.discretization import (RECORD_ARRAYS, STENCIL_OFFSETS, Grid,
                                    _admissible_mask, _column_key,
                                    _locate_cuts, _snap_and_dedupe,
                                    chart_axes, discretize)
from surfpde.errors import EmptySurfaceError, GridError, SurfPDEError
from surfpde.geometry import (BISECT_TOL, LevelSetSurface, _batch_illinois,
                              from_callables, make_surface)
from surfpde.operators import (laplace_beltrami, reduced_laplace_beltrami,
                               reduced_operator)
from surfpde.serialization import dump_discretization, load_discretization

ETA = 0.45
TOL = BISECT_TOL    # the root bracket of every build


# -- the dense scan, kept here as the oracle -------------------------------

def dense_phi(surface, grid):
    """phi at every node, the grid built with meshgrid in 4e6-node chunks."""
    coords = [grid.coords(a) for a in range(len(grid.shape))]
    shape = grid.shape
    out = np.empty(shape)
    chunk = max(1, int(4_000_000 // max(math.prod(shape[1:]), 1)))
    for i0 in range(0, shape[0], chunk):
        i1 = min(shape[0], i0 + chunk)
        mesh = np.meshgrid(coords[0][i0:i1], *coords[1:], indexing="ij")
        out[i0:i1] = surface.phi(np.stack(mesh, axis=-1))
    return out


def dense_intervals(surface, grid):
    """Per axis, from the dense phi grid via argwhere: the base indices of
    the sign-change intervals, their inside and outside ends, and phi
    there."""
    phi_grid = dense_phi(surface, grid)
    if not np.isfinite(phi_grid).all():
        raise GridError("phi evaluated to non-finite values on the grid")
    worst = min(float(np.take(phi_grid, end, axis=a).min())
                for a in range(phi_grid.ndim) for end in (0, -1))
    if worst <= 0.0:
        raise GridError("level set is not strictly inside the grid box")
    inside = phi_grid <= 0.0
    origin = np.asarray(grid.origin)
    out = []
    for axis in range(inside.ndim):
        lo = [slice(None)] * inside.ndim
        hi = [slice(None)] * inside.ndim
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        in_lo = inside[tuple(lo)]
        change = in_lo != inside[tuple(hi)]
        base = np.argwhere(change).astype(np.int64)
        p_lo = origin + grid.h * base
        p_hi = p_lo.copy()
        p_hi[:, axis] += grid.h
        f_lo = phi_grid[tuple(lo)][change]
        f_hi = phi_grid[tuple(hi)][change]
        lo_is_in = in_lo[change]
        side = lo_is_in[:, None]
        out.append((base, np.where(side, p_lo, p_hi),
                    np.where(side, p_hi, p_lo),
                    np.where(lo_is_in, f_lo, f_hi),
                    np.where(lo_is_in, f_hi, f_lo)))
    return out


def dense_locate_cuts(surface, grid):
    """Sign changes of the dense phi grid, then one Illinois root step on
    all the intervals of each axis at once."""
    return [(base, _batch_illinois(surface, p_in, p_out, f_in, f_out, axis,
                                   TOL))
            for axis, (base, p_in, p_out, f_in, f_out)
            in enumerate(dense_intervals(surface, grid))]


# -- the bisection that the Illinois step replaced, kept as the oracle -----

def batch_bisect(surface, p_in, p_out, axis, tol):
    """ceil(log2(1/tol)) halvings on every segment (phi(p_in) <= 0), then
    the midpoint of the last window."""
    m = p_in.shape[0]
    lo = np.zeros(m)
    hi = np.ones(m)
    delta = p_out[:, axis] - p_in[:, axis]
    q = p_in.copy()
    for _ in range(max(1, math.ceil(math.log2(1.0 / tol)))):
        mid = 0.5 * (lo + hi)
        q[:, axis] = p_in[:, axis] + mid * delta
        neg = surface.phi(q) <= 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    q[:, axis] = p_in[:, axis] + 0.5 * (lo + hi) * delta
    return q


def bisected_locate_cuts(surface, grid):
    """Sign changes of the dense phi grid, then the bisection oracle."""
    return [(base, batch_bisect(surface, p_in, p_out, axis, TOL))
            for axis, (base, p_in, p_out, _, _)
            in enumerate(dense_intervals(surface, grid))]


def shifted(grid, seed):
    """`grid` moved by a seeded uniform offset in [0, h) along each axis."""
    if seed is None:
        return grid
    off = np.random.default_rng(seed).uniform(0.0, grid.h, len(grid.shape))
    return type(grid)(tuple(np.asarray(grid.origin) + off), grid.h,
                      grid.n_cells)


def assert_same_fields(got, want):
    (fa, dropped_a), (fb, dropped_b) = got, want
    assert dropped_a == dropped_b
    assert fa.keys() == fb.keys()
    for name in fa:
        a, b = np.asarray(fa[name]), np.asarray(fb[name])
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


# `_PHI_CALL_NODES`, the nodes per phi call: one (one block per call and
# one block layer per group), five planes' worth, and the module default
SLABS = {"one_plane": lambda g: 1,
         "five_planes": lambda g: 5 * math.prod(g.shape[1:]),
         "default": lambda g: discretization._PHI_CALL_NODES}


CASES = [(kind, n, seed) for kind, n in
         (("sphere", 40), ("ellipsoid", 48), ("cassini_oval", 64))
         for seed in (None, 1, 2)]


@pytest.mark.parametrize("slab", sorted(SLABS))
@pytest.mark.parametrize("kind,n,seed", CASES)
def test_streamed_scan_matches_dense_scan(kind, n, seed, slab, monkeypatch):
    surface = make_surface(kind)
    grid = shifted(Grid.cube(-1.2, 1.2, n), seed)
    monkeypatch.setattr(discretization, "_PHI_CALL_NODES", SLABS[slab](grid))
    streamed = _locate_cuts(surface, grid)
    dense = dense_locate_cuts(surface, grid)
    for (b, q), (b_ref, q_ref) in zip(streamed, dense, strict=True):
        assert b.dtype == b_ref.dtype and np.array_equal(b, b_ref)
        assert np.array_equal(q, q_ref)
    got = cut_record(surface, grid, ETA)
    monkeypatch.setattr(discretization, "_locate_cuts", dense_locate_cuts)
    assert_same_fields(got, cut_record(surface, grid, ETA))


def circle_with_bound(radius=1.0):
    """The catalog circle with the gradient bound 2 max |p| of its box."""
    curve = circle(radius)
    return LevelSetSurface(
        "user", curve.phi, curve.gradient, c0=radius,
        grad_bound=lambda lo, hi: 2.0 * np.sqrt(
            np.maximum(lo * lo, hi * hi).sum(axis=-1)))


@pytest.mark.parametrize("slab", sorted(SLABS))
@pytest.mark.parametrize("curve,n,seed", [(c, n, seed)
                                          for c in (circle, ellipse,
                                                    circle_with_bound)
                                          for n in (40, 80)
                                          for seed in (None, 1)])
def test_streamed_scan_matches_dense_scan_on_curves(curve, n, seed, slab,
                                                    monkeypatch):
    grid = shifted(Grid.square(-1.2, 1.2, n), seed)
    monkeypatch.setattr(discretization, "_PHI_CALL_NODES", SLABS[slab](grid))
    got = cut_record(curve(), grid, ETA)
    monkeypatch.setattr(discretization, "_locate_cuts", dense_locate_cuts)
    assert_same_fields(got, cut_record(curve(), grid, ETA))


# -- roles and neighbours by global sorts, kept here as the oracle ---------

def sorted_cut_points(surface, grid, eta):
    """`cut_record` with roles and block order from lexsorts over the base
    columns and neighbours from a search keyed by the rank of every free
    coordinate; it relies on no order of the located cuts.  Returns the
    fields, the dropped count and how many slots the sheet reach emptied."""
    located = _locate_cuts(surface, grid)
    dim = len(located)
    base = np.concatenate([b for b, _ in located], axis=0)
    positions = np.concatenate([q for _, q in located], axis=0)
    axis = np.concatenate([np.full(b.shape[0], ax, dtype=np.int8)
                           for ax, (b, _) in enumerate(located)])
    keep, positions, normals = _snap_and_dedupe(
        surface, grid, positions, axis, base, surface.unit_normal(positions))
    admissible = _admissible_mask(normals, axis, eta)
    use = keep & admissible
    base, positions = base[use], positions[use]
    axis, normals = axis[use], normals[use]
    m = positions.shape[0]
    ids = np.arange(m)
    scaled = (positions[ids, axis] - np.asarray(grid.origin)[axis]) / grid.h
    closest = base.copy()
    closest[ids, axis] += (scaled - base[ids, axis] > 0.5).astype(np.int64)
    theta = np.clip(scaled - closest[ids, axis], -0.5, 0.5)
    interval_key = np.ravel_multi_index(
        np.vstack([axis.astype(np.int64), base.T]), (dim,) + grid.shape)
    assert np.unique(interval_key).size == m

    gp_key = np.ravel_multi_index(closest.T, grid.shape)
    order = np.lexsort((axis,) + tuple(base[:, ::-1].T)
                       + (np.abs(theta), gp_key))
    sorted_gp = gp_key[order]
    first = np.ones(m, dtype=bool)
    first[1:] = sorted_gp[1:] != sorted_gp[:-1]
    is_primary = np.zeros(m, dtype=bool)
    is_primary[order[first]] = True
    group_rep = np.empty(m, dtype=np.int64)
    group_rep[order] = order[first][np.cumsum(first) - 1]
    block_order = np.lexsort(tuple(base[:, ::-1].T)
                             + (axis, ~is_primary * 1))
    new_id = np.empty(m, dtype=np.int64)
    new_id[block_order] = np.arange(m)
    n_p = int(is_primary.sum())
    positions, axis = positions[block_order], axis[block_order]
    base = base[block_order]
    associated = np.full(m, -1, dtype=np.int64)
    associated[n_p:] = new_id[group_rep[block_order[n_p:]]]
    neighbors, emptied = ranked_neighbors(grid, positions, axis, base, n_p,
                                          eta)
    fields = dict(
        positions=positions, axis=axis, base_index=base,
        closest_gp=closest[block_order], theta=theta[block_order],
        normals=normals[block_order], n_p=n_p,
        associated_primary=associated, chart_neighbors=neighbors)
    return fields, int((keep & ~admissible).sum()), emptied


def ranked_neighbors(grid, positions, axis, base, n_p, eta):
    """Nearest candidate in each queried column by one searchsorted on
    (column, rank of the free coordinate); a candidate beyond the sheet
    reach (|offset| sqrt(1-eta^2)/eta + 1) h leaves its slot at -1."""
    n_tot, dim = positions.shape
    idx = np.arange(n_tot)
    chart = np.stack([base[idx, c] for c in chart_axes(axis, dim)], axis=1)
    bmax = max(grid.n_cells) + 3
    key = _column_key(axis, chart, bmax)
    pos_free = positions[idx, axis]
    order = np.lexsort((pos_free, key))
    distinct, rank = np.unique(pos_free, return_inverse=True)
    s_sortval = (key * distinct.size + rank)[order]
    s_key, s_pos = key[order], pos_free[order]
    out = np.full((n_p, len(STENCIL_OFFSETS[dim])), -1, dtype=np.int64)
    emptied = 0
    for slot, off in enumerate(np.asarray(STENCIL_OFFSETS[dim])):
        qkey = _column_key(axis[:n_p], chart[:n_p] + off, bmax)
        j = np.searchsorted(s_sortval, qkey * distinct.size + rank[:n_p])
        best = np.full(n_p, -1, dtype=np.int64)
        best_d = np.full(n_p, np.inf)
        for cand in (j - 1, j):
            cc = np.clip(cand, 0, n_tot - 1)
            ok = (cand >= 0) & (cand < n_tot) & (s_key[cc] == qkey)
            d = np.where(ok, np.abs(s_pos[cc] - pos_free[:n_p]), np.inf)
            better = d < best_d
            best = np.where(better, order[cc], best)
            best_d = np.where(better, d, best_d)
        reach = (math.hypot(*off) * math.sqrt(1.0 - eta ** 2) / eta
                 + 1.0) * grid.h
        far = np.isfinite(best_d) & (best_d > reach)
        emptied += int(far.sum())
        out[:, slot] = np.where(far, -1, best)
    return out, emptied


def torus(big=0.7, small=0.3):
    """A torus about the z axis, with its analytic gradient."""
    def phi(p):
        rho = np.hypot(p[..., 0], p[..., 1])
        return (rho - big) ** 2 + p[..., 2] ** 2 - small ** 2

    def grad(p):
        rho = np.hypot(p[..., 0], p[..., 1])
        f = 2.0 * (rho - big) / rho
        return np.stack([f * p[..., 0], f * p[..., 1], 2.0 * p[..., 2]],
                        axis=-1)
    return from_callables(phi, grad=grad)


ORACLE_CASES = (
    [(kind, Grid.cube(-1.2, 1.2, n), seed, ETA)
     for kind in ("sphere", "ellipsoid", "cassini_oval") for n in (40, 64)
     for seed in (None, 1, 2)]
    + [(kind, Grid.square(-1.2, 1.2, n), seed, eta)
       for kind in ("circle", "ellipse") for n in (40, 80)
       for seed in (None, 1) for eta in (ETA, 0.75)])
CURVES = {"circle": circle, "ellipse": ellipse}


@pytest.mark.parametrize("kind,grid,seed,eta", ORACLE_CASES)
def test_cut_order_roles_and_neighbours_match_the_sorted_oracle(kind, grid,
                                                                seed, eta):
    surface = CURVES[kind]() if kind in CURVES else make_surface(kind)
    grid = shifted(grid, seed)
    *want, emptied = sorted_cut_points(surface, grid, eta)
    assert emptied == 0
    assert_same_fields(cut_record(surface, grid, eta), want)


@pytest.mark.parametrize("n", [40, 64])
def test_torus_columns_of_four_cuts_match_the_sorted_oracle(n):
    grid = Grid.cube(-1.2, 1.2, n)
    got = cut_record(torus(), grid, ETA)
    *want, _ = sorted_cut_points(torus(), grid, ETA)
    assert_same_fields(got, want)
    fields = got[0]
    column = fields["base_index"].copy()
    column[np.arange(column.shape[0]), fields["axis"]] = -1
    _, counts = np.unique(np.column_stack([fields["axis"], column]), axis=0,
                          return_counts=True)
    assert counts.max() == 4


# -- the cut order and intervals are checked, also under python -O ---------

def tampered_locate(how):
    """`_locate_cuts` with two well-inside cuts of axis 0 swapped, one of
    them repeated, or one moved 7 h outward along its axis; all survive
    snapping and admissibility."""
    def locate(surface, grid):
        located = _locate_cuts(surface, grid)
        base, q = located[0]
        frac = (q[:, 0] - grid.origin[0]) / grid.h - base[:, 0]
        normal = surface.unit_normal(q)[:, 0]
        i, j = np.flatnonzero((np.abs(normal) > 0.9)
                              & (np.abs(frac - 0.5) < 0.45))[:2]
        if how == "moved":
            q = q.copy()
            q[i, 0] += 7 * grid.h * np.sign(normal[i])
            return [(base, q)] + located[1:]
        rows = {"swapped": np.r_[:i, j, i + 1:j, i, j + 1:len(q)],
                "repeated": np.r_[:i + 1, i, i + 1:len(q)]}[how]
        return [(base[rows], q[rows])] + located[1:]
    return locate


@pytest.mark.parametrize("how", ["swapped", "repeated"])
def test_cut_order_is_checked(how, monkeypatch):
    monkeypatch.setattr(discretization, "_locate_cuts", tampered_locate(how))
    with pytest.raises(GridError, match="duplicate or out-of-order cut "
                       r"points: the cut on the grid interval along axis 0"):
        discretize(make_surface("sphere"), Grid.cube(-1.2, 1.2, 20), ETA)


def test_cut_off_its_interval_is_checked(monkeypatch):
    monkeypatch.setattr(discretization, "_locate_cuts",
                        tampered_locate("moved"))
    with pytest.raises(GridError, match=r"1 cut points lie off their grid "
                       r"intervals; first the cut at .*, (-6|7)\.\d+ steps "
                       r"along axis 0 from node \(\d+, \d+, \d+\) at "
                       r".*, outside \[0, 1\]$"):
        discretize(make_surface("sphere"), Grid.cube(-1.2, 1.2, 20), ETA)


def test_cut_order_is_checked_under_optimize_flag(subprocess_env):
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {os.path.dirname(__file__)!r})
        from surfpde import discretization
        from surfpde.discretization import Grid, discretize
        from surfpde.errors import GridError
        from surfpde.geometry import from_callables, make_surface
        from test_cut_scan import tampered_locate
        real = discretization._locate_cuts
        for how in ("swapped", "repeated", "moved"):
            discretization._locate_cuts = tampered_locate(how)
            try:
                discretize(make_surface("sphere"), Grid.cube(-1.2, 1.2, 20))
            except GridError:
                continue
            finally:
                discretization._locate_cuts = real
            raise SystemExit(f"no GridError for {{how}} cuts")
        # the grid's cell counts and phi's shape
        for what, error, call in (
                ("cell counts", GridError,
                 lambda: Grid((-1.2,) * 3, 0.1, (24, 24, 0))),
                ("phi shape", ValueError,
                 lambda: discretize(from_callables(lambda p: 1.0),
                                    Grid.cube(-1.2, 1.2, 20)))):
            try:
                call()
            except error:
                continue
            raise SystemExit(f"no {{error.__name__}} for the {{what}}")
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=subprocess_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr + proc.stdout


# -- the Illinois root step against the bisection it replaced --------------

PARITY_CASES = (
    [(kind, Grid.cube(-1.2, 1.2, n), seed)
     for kind in ("sphere", "ellipsoid", "cassini_oval") for n in (80, 160)
     for seed in (None, 1, 2)]
    + [("sphere", Grid.cube(-1.2, 1.2, 320), None)]
    + [(kind, Grid.square(-1.2, 1.2, n), seed)
       for kind in ("circle", "ellipse") for n in (40, 160)
       for seed in (None, 1, 2)])


def build(kind, grid):
    if kind in CURVES:
        return discretize_curve(CURVES[kind](), grid, ETA)
    return discretize(make_surface(kind), grid, ETA)


@pytest.mark.parametrize(
    "kind,grid,seed", PARITY_CASES,
    ids=[f"{k}-{g.n_cells[0]}-{s}" for k, g, s in PARITY_CASES])
def test_illinois_cuts_match_the_bisection_oracle(kind, grid, seed,
                                                  monkeypatch):
    grid = shifted(grid, seed)
    got = build(kind, grid)
    monkeypatch.setattr(discretization, "_locate_cuts", bisected_locate_cuts)
    want = build(kind, grid)
    assert got.n_p == want.n_p and got.dropped_cuts == want.dropped_cuts
    for name in ("axis", "base_index", "closest_gp", "associated_primary",
                 "chart_neighbors"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.abs(got.positions - want.positions).max() <= 1e-12 * grid.h
    for name in ("pi_sp", "pi_ss"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a.indptr, b.indptr), name
        assert np.array_equal(a.indices, b.indices), name
    e_got, e_want = got.extension_matrix(), want.extension_matrix()
    assert np.array_equal(e_got.indptr, e_want.indptr)
    assert np.array_equal(e_got.indices, e_want.indices)
    # stronger than the bound: phi's sign changes once on the lattice at
    # every kept cut, so each is bisection's point bit for bit, and no
    # primary flips at an exact |theta| tie
    assert np.array_equal(got.positions, want.positions)


HARD_ROOTS = {
    # regula falsi alone keeps one end for ever on these
    "cubic": lambda x: (x - 0.3) ** 3,
    "steep": lambda x: np.tanh(1e4 * (x - 0.6180339887)),
    "jump": lambda x: np.where(x <= 0.1234, -1.0, 1.0) * (1.0 + x),
    "flat_then_steep": lambda x: np.expm1(40.0 * (x - 0.9)),
}


@pytest.mark.parametrize("name", sorted(HARD_ROOTS))
def test_root_step_ends_at_the_bisection_point_within_its_step_bound(name):
    g = HARD_ROOTS[name]
    calls = []

    def phi(p):
        calls.append(p.shape[0])
        return g(p[..., 0])

    surface = from_callables(phi)
    starts = np.linspace(-0.5, 0.05, 7)
    p_in = np.column_stack([starts, np.zeros(7), np.ones(7)])
    p_out = p_in.copy()
    p_out[:, 0] = 1.0
    got = _batch_illinois(surface, p_in, p_out, phi(p_in), phi(p_out), 0,
                          TOL)
    steps = len(calls) - 2
    assert 1 <= steps <= 4 * math.ceil(math.log2(1.0 / TOL))
    assert np.array_equal(got, batch_bisect(surface, p_in, p_out, 0, TOL))


# -- two threads give the parts in turn -------------------------------------

def thread_recording(surface, threads):
    """`surface` with a phi that records the thread of every call."""
    def phi(p):
        threads.add(threading.get_ident())
        return surface.phi(p)
    return from_callables(phi, grad=surface.gradient, c0=surface.c0)


@pytest.mark.parametrize("slab", ["one_plane", "default"])
@pytest.mark.parametrize("kind", ["cassini_oval", "circle"])
def test_threaded_cut_points_equal_the_parts_in_turn(kind, slab,
                                                     monkeypatch, run_inline):
    """Without a bound, so every block is read; "one_plane" evaluates at
    most one plane's nodes per phi call."""
    base = Grid.square if kind in CURVES else Grid.cube
    grid = shifted(base(-1.2, 1.2, 80), 1)
    size = {"one_plane": math.prod(grid.shape[1:]),
            "default": discretization._PHI_CALL_NODES}[slab]
    monkeypatch.setattr(discretization, "_PHI_CALL_NODES", size)
    surface = CURVES[kind]() if kind in CURVES else make_surface(kind)
    before = threading.active_count()
    threads = set()
    got = cut_record(thread_recording(surface, threads), grid, ETA)
    assert threading.active_count() == before
    # the calling thread and at least one other evaluate phi; each step
    # starts its own worker, and a joined worker's id may be reused
    assert len(threads) >= 2 and threading.get_ident() in threads
    run_inline(linalg)
    threads.clear()
    assert_same_fields(
        got, cut_record(thread_recording(surface, threads), grid, ETA))
    assert threads == {threading.get_ident()}


# -- fuzzed: rotated ellipsoids at random grid offsets ----------------------

def rotated_ellipsoid(axes, quaternion):
    """phi(p) = |D R p|^2 - 1 with R the rotation of the unit quaternion and
    D = diag(1/axes), through `from_callables` with its analytic gradient.
    |grad phi| >= 2/max(axes) on the surface; c0 = 1/max(axes) leaves the
    margin `geometry.ellipsoid` leaves."""
    w, x, y, z = np.asarray(quaternion) / np.linalg.norm(quaternion)
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
    scaled = rot / np.asarray(axes)[:, None]       # D R

    def local(p):
        return [sum(scaled[i, j] * p[..., j] for j in range(3))
                for i in range(3)]

    def phi(p):
        u = local(p)
        return u[0] ** 2 + u[1] ** 2 + u[2] ** 2 - 1.0

    def grad(p):
        u = local(p)
        return 2.0 * sum(u[i][..., None] * scaled[i] for i in range(3))

    return from_callables(phi, grad=grad, c0=1.0 / max(axes))


def offset_cube(n, offset):
    """The [-1.2, 1.2]^3 grid of n cells per axis, moved by offset * h."""
    box = Grid.cube(-1.2, 1.2, n)
    return Grid(tuple(np.asarray(box.origin) + box.h * np.asarray(offset)),
                box.h, box.n_cells)


unit = st.floats(0.0, 1.0, exclude_max=True)
# a rotated ellipsoid on an offset grid: its axes, its rotation as a
# quaternion, the grid offset in cells and the cells per axis
ROTATED_ELLIPSOIDS = dict(
    axes=st.tuples(*[st.floats(0.4, 1.1)] * 3),
    quaternion=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: np.linalg.norm(q) > 0.1),
    offset=st.tuples(unit, unit, unit), n=st.integers(24, 48))


@hypothesis.seed(20191908)
@settings(max_examples=50, deadline=5000, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**ROTATED_ELLIPSOIDS)
def test_fuzzed_cuts_stay_within_tol_of_the_bisection_oracle(axes,
                                                             quaternion,
                                                             offset, n):
    surface = rotated_ellipsoid(axes, quaternion)
    grid = offset_cube(n, offset)
    located = _locate_cuts(surface, grid)
    for axis, ((b, q), (b_ref, q_ref)) in enumerate(
            zip(located, bisected_locate_cuts(surface, grid),
                strict=True)):
        assert np.array_equal(b, b_ref)
        assert np.abs(q - q_ref).max(initial=0.0) <= TOL * grid.h
        low = grid.origin[axis] + grid.h * b[:, axis]
        assert ((q[:, axis] >= low) & (q[:, axis] <= low + grid.h)).all()


@hypothesis.seed(20191908)
@settings(max_examples=40, deadline=5000, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**ROTATED_ELLIPSOIDS)
def test_fuzzed_discretizations_keep_the_operator_invariants(axes,
                                                             quaternion,
                                                             offset, n):
    """Of the 40 seeded cases, 13 reach the invariants, and a dump and
    reload of each gives back its record, Pi and E bit for bit; the other
    27 are refused with StencilError at an admissibility gap (a secondary
    whose primary lacks a chart neighbour), none at the gradient bound
    c0."""
    try:
        d = discretize(rotated_ellipsoid(axes, quaternion),
                       offset_cube(n, offset))
        red = reduced_laplace_beltrami(d)
    except SurfPDEError:
        return    # a loud refusal is an allowed outcome
    assert np.abs(d.pi_ss).sum(axis=1).max() <= 0.5 + 1e-12
    ref = reduced_operator(laplace_beltrami(d), d)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(red, name), getattr(ref, name))
    scale = np.abs(red).sum(axis=1).max()
    assert np.abs(red @ np.ones(d.n_p)).max() <= 1e-10 * scale
    u_p = np.random.default_rng(n).normal(size=d.n_p)
    u = d.extension_matrix() @ u_p
    u_s = spla.spsolve((sp.identity(d.n_s, format="csc") - d.pi_ss).tocsc(),
                       d.pi_sp @ u_p)
    assert np.array_equal(u[:d.n_p], u_p)
    assert np.abs(u[d.n_p:] - u_s).max() <= 1e-12 * np.abs(u_p).max()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "disc.npz")
        dump_discretization(d, path)
        back = load_discretization(path)
    assert back.n_p == d.n_p
    for name in RECORD_ARRAYS:
        assert np.array_equal(getattr(back, name), getattr(d, name)), name
    for a, b in ((back.pi_sp, d.pi_sp), (back.pi_ss, d.pi_ss),
                 (back.extension_matrix(), d.extension_matrix())):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, part), getattr(b, part))


# -- memory and evaluation count -------------------------------------------

def recording_sphere(calls, radius=1.0):
    """A user sphere whose phi records the points of every call."""
    def phi(p):
        calls.append(np.array(p, copy=True))
        return (p ** 2).sum(axis=-1) - radius ** 2
    return from_callables(phi, grad=lambda p: 2.0 * p, c0=radius)


def on_grid(call, grid):
    """Whether every point of the phi call `call` is a grid node."""
    return evaluated_nodes([call], grid).size == call.size


@pytest.mark.parametrize("slab", ["five_planes", "default"])
def test_scan_evaluates_each_node_once_within_the_slab_bound(slab,
                                                             monkeypatch):
    """A surface without a bound: the band is every block, phi is
    evaluated once at every node, at most `_PHI_CALL_NODES` nodes per call."""
    n = 64
    grid = Grid.cube(-1.2, 1.2, n)
    bound = SLABS[slab](grid)
    monkeypatch.setattr(discretization, "_PHI_CALL_NODES", bound)
    calls = []
    discretize(recording_sphere(calls), grid)

    sizes = [c.size // 3 for c in calls]
    assert max(sizes) <= bound
    scan = [c for c in calls if on_grid(c, grid)]
    assert len(scan) >= 2                    # more than one call
    nodes = evaluated_nodes(scan, grid)
    assert nodes.shape[0] == (n + 1) ** 3
    assert np.unique(nodes, axis=0).shape[0] == (n + 1) ** 3
    # everything else is the root step on every sign-change interval of the
    # dense oracle: 6.0 evaluations per interval on this sphere, where the
    # bisection made 40, and one call per step on each half of each axis,
    # at most 4 ceil(log2(1/tol)) steps
    intervals = sum(b.shape[0] for b, _ in
                    dense_locate_cuts(make_surface("sphere"), grid))
    roots = sum(sizes) - (n + 1) ** 3
    assert intervals <= roots <= 6.5 * intervals
    steps = 4 * math.ceil(math.log2(1.0 / TOL))
    assert 2 * 3 <= len(calls) - len(scan) <= 2 * 3 * steps


def held_at_neighbour_lookup(monkeypatch, run):
    """Traced bytes that `run()` holds when `_resolve_neighbors` starts,
    beyond those held before it, and the discretization it returns."""
    seen = []
    real = discretization._resolve_neighbors

    def recording(*args):
        seen.append(tracemalloc.get_traced_memory()[0])
        return real(*args)

    monkeypatch.setattr(discretization, "_resolve_neighbors", recording)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        disc = run()
    finally:
        if started:
            tracemalloc.stop()
    (held,) = seen
    return held - base, disc


@pytest.mark.parametrize("route", ["build", "load"])
def test_neighbour_lookup_runs_beside_the_permuted_record_alone(route,
                                                                monkeypatch,
                                                                tmp_path):
    """The cuts reach the constructor in a dict that the derivation
    empties, so when the stencil lookup starts a build or a load holds the
    permuted record but its chart neighbours, and none of the located,
    snapped, unpermuted or file arrays.  Shifted sphere N = 64 (10,682
    points): the record is 1.21 MB and the build held 13.8 kB beyond it, a
    load 11.0 kB; holding the cuts through the constructor adds 0.79 MB."""
    grid = shifted(Grid.cube(-1.2, 1.2, 64), 1)
    path = tmp_path / "disc.npz"
    if route == "load":
        dump_discretization(discretize(make_surface("sphere"), grid), path)
        run = partial(load_discretization, path)
    else:
        run = partial(discretize, make_surface("sphere"), grid)
    held, d = held_at_neighbour_lookup(monkeypatch, run)
    record = sum(getattr(d, name).nbytes for name in RECORD_ARRAYS
                 if name != "chart_neighbors")
    assert held <= record + 2 ** 16


# -- the narrow band: blocks that a gradient bound certifies are skipped ---

def bounded_recording_sphere(calls, radius=1.0, nan_at=(), bound=None):
    """`recording_sphere` with a gradient bound, by default the catalog
    sphere's, and phi NaN at the points `nan_at`."""
    bound = bound or make_surface("sphere").grad_bound

    def phi(p):
        calls.append(np.array(p, copy=True))
        out = (p ** 2).sum(axis=-1) - radius ** 2
        for point in nan_at:
            out[(p == point).all(axis=-1)] = np.nan
        return out
    return LevelSetSurface("user", phi, lambda p: 2.0 * p, c0=radius,
                           grad_bound=bound)


def evaluated_nodes(calls, grid):
    """The grid nodes among the points of `calls`, as index rows; root
    steps and block centres are never grid nodes."""
    pts = np.concatenate([c.reshape(-1, len(grid.shape)) for c in calls])
    coords = [grid.coords(a) for a in range(len(grid.shape))]
    on = np.logical_and.reduce([np.isin(pts[:, a], x)
                                for a, x in enumerate(coords)])
    return np.stack([np.searchsorted(x, pts[on, a])
                     for a, x in enumerate(coords)], axis=1)


def test_band_scan_evaluates_the_faces_and_the_band_once():
    """Sphere N = 64: phi is evaluated on every box-boundary node and on
    32.0% of all nodes (boundary 9.0%), none twice, and the cuts are the
    dense scan's."""
    n = 64
    grid = Grid.cube(-1.2, 1.2, n)
    calls = []
    located = _locate_cuts(bounded_recording_sphere(calls), grid)
    assert max(c.size // 3 for c in calls) <= discretization._PHI_CALL_NODES
    nodes = evaluated_nodes(calls, grid)
    assert np.unique(nodes, axis=0).shape[0] == nodes.shape[0]
    boundary = ((nodes == 0) | (nodes == n)).any(axis=1)
    assert boundary.sum() == (n + 1) ** 3 - (n - 1) ** 3
    assert nodes.shape[0] <= 0.33 * (n + 1) ** 3
    for (b, q), (b_ref, q_ref) in zip(
            located, dense_locate_cuts(make_surface("sphere"), grid),
            strict=True):
        assert np.array_equal(b, b_ref) and np.array_equal(q, q_ref)


@pytest.mark.parametrize("node,reported", [
    ((3, 4, 5), False),       # |phi| > 2 there: a certified block
    ((58, 32, 32), True),     # phi = -0.049 there: a live block
    ((0, 10, 10), True),      # the box boundary is always evaluated
])
def test_band_scan_reports_non_finite_phi_where_it_evaluates(node, reported):
    grid = Grid.cube(-1.2, 1.2, 64)
    point = tuple(grid.coords(a)[i] for a, i in enumerate(node))
    surface = bounded_recording_sphere([], nan_at=[point])
    if reported:
        with pytest.raises(GridError, match="non-finite values on the grid; "
                           r"first nan at node " + re.escape(str(node))):
            discretize(surface, grid)
    else:
        assert_same_fields(cut_record(surface, grid, ETA),
                           cut_record(make_surface("sphere"), grid, ETA))


@pytest.mark.parametrize("dim", [2, 3])
def test_band_scan_matches_dense_scan_near_the_box(dim, monkeypatch):
    """A level set 0.01 inside the box: live blocks at the box boundary,
    whose read masks hold the boundary nodes and leave those off the
    grid.  Five planes' nodes per phi call, so that the band's blocks
    take several."""
    if dim == 3:
        surface, grid = make_surface("sphere", radius=1.19), Grid.cube(
            -1.2, 1.2, 64)
    else:
        surface, grid = circle_with_bound(1.19), Grid.square(-1.2, 1.2, 81)
    monkeypatch.setattr(discretization, "_PHI_CALL_NODES",
                        SLABS["five_planes"](grid))
    for (b, q), (b_ref, q_ref) in zip(_locate_cuts(surface, grid),
                                      dense_locate_cuts(surface, grid),
                                      strict=True):
        assert b.dtype == b_ref.dtype and np.array_equal(b, b_ref)
        assert np.array_equal(q, q_ref)


def test_band_scan_names_the_boundary_node_outside_the_surface():
    # as test_surface_must_fit_in_box, on a grid of more than one phi call
    with pytest.raises(GridError, match=r"min boundary phi = -1\.225e-01 "
                       r"at node \(0, 32, 32\) at \(-1\.2, "):
        discretize(make_surface("sphere", radius=1.25),
                   Grid.cube(-1.2, 1.2, 64))


@pytest.mark.parametrize("surface,error,match", [
    (make_surface("sphere", radius=5.0), GridError,
     r"not strictly inside the grid box \(min boundary phi = -2\.356e\+01 "
     r"at node \(0, 32, 32\) at \(-1\.2, 0, 0\)\)"),
    (LevelSetSurface("user", lambda p: (p ** 2).sum(axis=-1) + 1.0,
                     lambda p: 2.0 * p, c0=1.0,
                     grad_bound=make_surface("sphere").grad_bound),
     EmptySurfaceError, "no grid interval crosses the level set"),
], ids=["box-inside-the-surface", "phi-without-a-zero"])
def test_band_scan_with_every_block_certified(surface, error, match):
    """No block is left: the faces are still evaluated, so a box inside
    the level set fails containment, and a phi without a zero finds no
    cut."""
    grid = Grid.cube(-1.2, 1.2, 64)
    assert discretization._live_blocks(surface, grid).size == 0
    with pytest.raises(error, match=match):
        discretize(surface, grid)


def table_bytes(rows, dim=3):
    """The bytes of a table of `rows` blocks held at once: phi and
    phi <= 0 per node, and 4 + 3 dim int64 of indices per block."""
    return rows * (3 ** dim * 9 + (4 + 3 * dim) * 8)


@pytest.mark.parametrize("spare,scan", [(0, "band")])
def test_band_beyond_physical_memory_raises(spare, scan, monkeypatch):
    """A bound of 10^3, far above |grad phi| <= 4.2 on the box, leaves
    every block live.  The band streams them in groups with physical
    memory of only what a table of every block would take, evaluating
    each node once and finding the dense scan's cuts.  Five planes per
    phi call, whose buffers fit."""
    n = 64
    grid = Grid.cube(-1.2, 1.2, n)
    monkeypatch.setattr(discretization, "_PHI_CALL_NODES",
                        SLABS["five_planes"](grid))
    calls = []
    surface = bounded_recording_sphere(
        calls, bound=lambda lo, hi: np.full(lo.shape[:-1], 1e3))
    live = discretization._live_blocks(surface, grid).size
    assert live == (n // 3 + 1) ** 3
    monkeypatch.setattr(discretization, "_physical_memory",
                        lambda: table_bytes(live) + spare)
    calls.clear()
    located = _locate_cuts(surface, grid)
    nodes = evaluated_nodes(calls, grid)
    assert nodes.shape[0] == np.unique(nodes, axis=0).shape[0] == (n + 1) ** 3
    for (b, q), (b_ref, q_ref) in zip(
            located, dense_locate_cuts(make_surface("sphere"), grid),
            strict=True):
        assert np.array_equal(b, b_ref) and np.array_equal(q, q_ref)


def scan_peak(n, monkeypatch):
    """Traced peak bytes of the cut scan of a sphere without a gradient
    bound on n cells per axis, at most one plane's nodes per phi call and
    so one block layer per group."""
    grid = Grid.cube(-1.2, 1.2, n)
    monkeypatch.setattr(discretization, "_PHI_CALL_NODES",
                        math.prod(grid.shape[1:]))
    surface = from_callables(lambda p: (p ** 2).sum(axis=-1) - 1.0)
    tracemalloc.start()
    try:
        discretization._scan_sign_changes(surface, grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_boundless_scan_memory_grows_like_the_cuts(monkeypatch):
    """Without a bound every block is live, but the scan holds one group
    of block layers at a time beside the O(N^2) per-cut arrays: doubling
    N took the traced peak up 3.7 times (1.3 to 4.8 MiB), where a scan
    that held a table of every block took it up 6.6 times, near the 8 of
    the (N+1)^3 grid."""
    assert scan_peak(128, monkeypatch) < 5 * scan_peak(64, monkeypatch)


def test_band_scan_without_a_crossing_finds_no_cut():
    # a sphere of radius 0.01 inside the cell around the origin
    grid = offset_cube(64, (0.5, 0.5, 0.5))
    with pytest.raises(EmptySurfaceError, match="no grid interval crosses"):
        discretize(make_surface("sphere", radius=0.01), grid)


def test_certified_levels_grow_with_the_band_not_the_grid(monkeypatch):
    """A sphere of radius 1e-3 on 10^5 cells per axis: the first level
    holds at most _COARSE_BLOCKS blocks, each later one at most 27 per
    block left by the one before, and the finest blocks left lie near the
    sphere."""
    grid = Grid.cube(-1.2, 1.2, 100_000)
    sizes = []
    real = discretization._certified

    def recording(surface, grid, size, blocks):
        certified = real(surface, grid, size, blocks)
        sizes.append((blocks.shape[1], int((~certified).sum())))
        return certified

    monkeypatch.setattr(discretization, "_certified", recording)
    key = discretization._live_blocks(make_surface("sphere", radius=1e-3),
                                      grid)
    assert sizes[0][0] <= discretization._COARSE_BLOCKS
    for (_, left), (tried, _) in zip(sizes, sizes[1:]):
        assert tried <= 27 * left
    assert key.size == sizes[-1][1] > 0
    assert np.array_equal(key, np.unique(key))
    live = np.stack(np.unravel_index(
        key, np.asarray(grid.n_cells) // discretization._BLOCK + 1))
    centre = (np.asarray(grid.origin)[:, None]
              + grid.h * discretization._BLOCK * (live + 0.5))
    assert np.abs(np.linalg.norm(centre, axis=0) - 1e-3).max() < 4 * (
        discretization._BLOCK * grid.h)


# -- located failures ------------------------------------------------------

def test_non_finite_phi_names_the_first_node():
    grid = Grid.cube(-1.2, 1.2, 40)
    c = [grid.coords(a) for a in range(3)]
    bad = [(c[0][17], c[1][23], c[2][9]), (c[0][30], c[1][2], c[2][5])]

    def phi(p):
        out = (p ** 2).sum(axis=-1) - 1.0
        for node in bad:
            out[(p == node).all(axis=-1)] = np.nan
        return out

    surface = from_callables(phi, grad=lambda p: 2.0 * p, c0=1.0)
    with pytest.raises(GridError, match=r"first nan at node \(17, 23, 9\) "
                       r"at \(-0\.18, 0\.18, -0\.66\)"):
        discretize(surface, grid)


@pytest.mark.parametrize("dim", [2, 3])
def test_non_finite_phi_names_the_first_node_when_the_second_run_fails_first(
        dim, monkeypatch):
    """Two non-finite nodes on 40 cells per axis, one group of blocks:
    one on the low face of axis 0, in the first half of its blocks'
    evaluations, on this thread, and one in an interior block in the
    second half of theirs, on the worker.  The first half waits at its
    bad node until the second half has ended, and the error still names
    the first node in C order."""
    grid = (Grid.cube if dim == 3 else Grid.square)(-1.2, 1.2, 40)
    c = [grid.coords(a) for a in range(dim)]
    nodes = [(0, 3, 9)[:dim], (30, 20, 20)[:dim]]
    bad = [tuple(c[a][i] for a, i in enumerate(node)) for node in nodes]
    here = threading.get_ident()
    ended = []
    second_ended = threading.Event()
    real_run = discretization._band_run

    def run(jobs):
        try:
            return real_run(jobs)
        finally:
            ended.append(threading.get_ident() == here)
            if threading.get_ident() != here:
                second_ended.set()

    def phi(p):
        out = (p ** 2).sum(axis=-1) - 1.0
        for node in bad:
            out[(p == node).all(axis=-1)] = np.nan
        if (p == bad[0]).all(axis=-1).any():
            assert threading.get_ident() == here
            assert second_ended.wait(timeout=30)
        return out

    monkeypatch.setattr(discretization, "_band_run", run)
    surface = from_callables(phi, grad=lambda p: 2.0 * p, c0=1.0)
    build_ = discretize if dim == 3 else discretize_curve
    with pytest.raises(GridError, match="first nan at node "
                       + re.escape(str(nodes[0]))):
        build_(surface, grid)
    assert ended == [False, True]


def test_non_finite_phi_is_reported_before_containment():
    # the sphere pokes out of the box and phi is infinite on the last plane
    def phi(p):
        out = (p ** 2).sum(axis=-1) - 1.25 ** 2
        out[p[..., 0] == 1.2] = np.inf
        return out

    surface = from_callables(phi, grad=lambda p: 2.0 * p, c0=1.0)
    with pytest.raises(GridError, match=r"non-finite .* first inf at node "
                       r"\(20, 0, 0\)"):
        discretize(surface, Grid.cube(-1.2, 1.2, 20))


@pytest.mark.parametrize("face_axis", [1, 2])
def test_containment_failure_on_a_middle_slab_face(face_axis):
    """A unit sphere shifted toward the high face of axis 1 or 2 so that
    exactly one boundary node, in the middle plane along axis 0, has
    phi <= 0: the error names it, after phi at every node and before any
    root step."""
    n = 20
    grid = Grid.cube(-1.2, 1.2, n)
    centre = np.zeros(3)
    centre[face_axis] = 0.205
    calls = []

    def phi(p):
        calls.append(np.array(p, copy=True))
        return ((p - centre) ** 2).sum(axis=-1) - 1.0

    surface = from_callables(phi, grad=lambda p: 2.0 * (p - centre), c0=1.0)
    node = [n // 2, n // 2, n // 2]
    node[face_axis] = n
    with pytest.raises(GridError, match=(
            r"min boundary phi = -9\.975e-03 at node "
            + r"\(" + ", ".join(map(str, node)) + r"\)")):
        discretize(surface, grid)
    # every node once, and no root step
    assert all(on_grid(c, grid) for c in calls)
    nodes = evaluated_nodes(calls, grid)
    assert nodes.shape[0] == np.unique(nodes, axis=0).shape[0] == (n + 1) ** 3
