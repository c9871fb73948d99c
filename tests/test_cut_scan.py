"""The streamed sign-change scan of cut location, against the dense scan it
replaced, and its memory, evaluation-count and failure contracts."""

import math

import numpy as np
import pytest

from surfpde import discretization
from surfpde.curve1d import circle, ellipse
from surfpde.discretization import Grid, _cut_points, _locate_cuts, discretize
from surfpde.errors import GridError
from surfpde.geometry import _batch_bisect, from_callables, make_surface

ETA = 0.45
TOL = 1e-12


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


def dense_locate_cuts(surface, grid, tol):
    """Sign changes of the dense phi grid via argwhere, then bisection."""
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
        if base.shape[0] == 0:
            out.append((base, np.empty((0, inside.ndim))))
            continue
        p_lo = origin + grid.h * base
        p_hi = p_lo.copy()
        p_hi[:, axis] += grid.h
        lo_is_in = in_lo[change]
        p_in = np.where(lo_is_in[:, None], p_lo, p_hi)
        p_out = np.where(lo_is_in[:, None], p_hi, p_lo)
        out.append((base, _batch_bisect(surface, p_in, p_out, axis, tol)))
    return out


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


# slab sizes: one plane per phi call, five planes (a short last slab), and
# the module default
SLABS = {"one_plane": lambda g: 1,
         "five_planes": lambda g: 5 * math.prod(g.shape[1:]),
         "default": lambda g: discretization._SLAB_NODES}


CASES = [(kind, n, seed) for kind, n in
         (("sphere", 40), ("ellipsoid", 48), ("cassini_oval", 64))
         for seed in (None, 1, 2)]


@pytest.mark.parametrize("slab", sorted(SLABS))
@pytest.mark.parametrize("kind,n,seed", CASES)
def test_streamed_scan_matches_dense_scan(kind, n, seed, slab, monkeypatch):
    surface = make_surface(kind)
    grid = shifted(Grid.cube(-1.2, 1.2, n), seed)
    monkeypatch.setattr(discretization, "_SLAB_NODES", SLABS[slab](grid))
    streamed = _locate_cuts(surface, grid, TOL)
    dense = dense_locate_cuts(surface, grid, TOL)
    for (b, q), (b_ref, q_ref) in zip(streamed, dense, strict=True):
        assert b.dtype == b_ref.dtype and np.array_equal(b, b_ref)
        assert np.array_equal(q, q_ref)
    got = _cut_points(surface, grid, ETA, TOL)
    monkeypatch.setattr(discretization, "_locate_cuts", dense_locate_cuts)
    assert_same_fields(got, _cut_points(surface, grid, ETA, TOL))


@pytest.mark.parametrize("slab", sorted(SLABS))
@pytest.mark.parametrize("curve,n,seed", [(c, n, seed)
                                          for c in (circle, ellipse)
                                          for n in (40, 80)
                                          for seed in (None, 1)])
def test_streamed_scan_matches_dense_scan_on_curves(curve, n, seed, slab,
                                                    monkeypatch):
    grid = shifted(Grid.square(-1.2, 1.2, n), seed)
    monkeypatch.setattr(discretization, "_SLAB_NODES", SLABS[slab](grid))
    got = _cut_points(curve(), grid, ETA, TOL)
    monkeypatch.setattr(discretization, "_locate_cuts", dense_locate_cuts)
    assert_same_fields(got, _cut_points(curve(), grid, ETA, TOL))


# -- memory and evaluation count -------------------------------------------

def recording_sphere(calls, radius=1.0):
    """A user sphere whose phi records the points of every call."""
    def phi(p):
        calls.append(np.array(p, copy=True))
        return (p ** 2).sum(axis=-1) - radius ** 2
    return from_callables(phi, grad=lambda p: 2.0 * p, c0=radius)


@pytest.mark.parametrize("slab", ["five_planes", "default"])
def test_scan_evaluates_each_node_once_within_the_slab_bound(slab,
                                                             monkeypatch):
    n = 64
    grid = Grid.cube(-1.2, 1.2, n)
    bound = SLABS[slab](grid)
    monkeypatch.setattr(discretization, "_SLAB_NODES", bound)
    calls = []
    discretize(recording_sphere(calls), grid)

    sizes = [c.size // 3 for c in calls]
    assert max(sizes) <= bound
    scan = [c.reshape(-1, 3) for c in calls if c.ndim == 4]
    assert len(scan) >= 2                    # more than one slab
    nodes = np.concatenate(scan)
    assert nodes.shape[0] == (n + 1) ** 3
    assert np.unique(nodes, axis=0).shape[0] == (n + 1) ** 3
    # everything else is bisection: one call per step and axis, on every
    # sign-change interval of the dense oracle
    steps = math.ceil(math.log2(1.0 / TOL))
    located = dense_locate_cuts(make_surface("sphere"), grid, TOL)
    bisected = steps * sum(b.shape[0] for b, _ in located)
    assert sum(sizes) == (n + 1) ** 3 + bisected
    assert len(calls) == len(scan) + 3 * steps


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
def test_containment_failure_on_a_middle_slab_face(face_axis, monkeypatch):
    """A unit sphere shifted toward the high face of axis 1 or 2 so that
    exactly one boundary node, in the middle plane along axis 0, has
    phi <= 0; with one plane per slab that node is seen mid-scan."""
    n = 20
    grid = Grid.cube(-1.2, 1.2, n)
    centre = np.zeros(3)
    centre[face_axis] = 0.205
    calls = []

    def phi(p):
        calls.append(p.shape)
        return ((p - centre) ** 2).sum(axis=-1) - 1.0

    monkeypatch.setattr(discretization, "_SLAB_NODES", 1)
    surface = from_callables(phi, grad=lambda p: 2.0 * (p - centre), c0=1.0)
    node = [n // 2, n // 2, n // 2]
    node[face_axis] = n
    with pytest.raises(GridError, match=(
            r"min boundary phi = -9\.975e-03 at node "
            + r"\(" + ", ".join(map(str, node)) + r"\)")):
        discretize(surface, grid)
    # one call per plane, no bisection
    assert calls == [(1, n + 1, n + 1, 3)] * (n + 1)
