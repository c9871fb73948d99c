"""Cut-point discretization of a closed level set on a Cartesian grid.

Cut points are the intersections of the level set with grid intervals.
Points cut from intervals along axis nu form the set Gamma_nu and carry a
local chart over the other coordinate axes.  Each cut point is owned by its
closest grid point; the nearest cut point of each grid point is "primary",
the rest are "secondary" and carry values interpolated from primary data
(equilibration).

The construction is shared by surfaces on a 3-D grid (charts over the two
cyclic axes, 3x3 stencil) and by plane curves on a 2-D grid (`curve1d`:
chart over the one other axis, stencil offsets -1 and +1).  Both are
`geometry.LevelSetSurface` objects, both grids are one `Grid` class, both
results are one `SurfaceDiscretization` class, and the operators read the
chart axes (`chart_axes`), the stencil (`offsets`) and its axis slot pairs
from it, so one assembly serves both dimensions.

A discretization is its cut-point record (the arrays of `RECORD_ARRAYS`,
n_p, the grid and eta) plus what the constructor derives from it: the
checked interpolation blocks Pi_sp and Pi_ss, which make each secondary
the quadratic interpolant of three points in its primary's chart.  Files
store only the record.  Equilibration has one route: the extension matrix
E, the Neumann series of Pi, and `extend(u_p) = E @ u_p`.  Explicit chart
differences have one route too: the one-sided difference matrices of
`chart_differences`, built once per discretization like E.

Cut location never holds phi on the whole grid.  The scan streams slabs of
whole planes along axis 0 (at most `_SLAB_NODES` nodes per phi call, or a
single plane when one holds more) in two runs of consecutive slabs, one
on the calling thread and one on a worker thread, evaluates each node
once, checks finiteness and box containment on the way, and keeps only
the sign-change intervals, phi at their ends and phi on each run's first
and last plane.  The cuts on those intervals are then located by
`geometry._batch_illinois`, each axis in two halves, one per thread; the
stencil lookup splits its slots the same way.  Working memory is two
slabs plus O(N^2) per-cut arrays rather than (N+1)^3 values of phi.
Each two-thread step is one `linalg._in_pair` call.  Every slab,
interval and stencil slot is computed on its own and the parts join in
order, so the result is the same bit for bit as computing the parts one
after another.

Cut order: the scan returns the cuts sorted by (axis, base index in C
order), one per interval.  Snapping, dedupe and admissibility only filter,
so `_cut_points` keeps this order, checks it in O(m), and keeps it within
the primary and the secondary block without sorting the cuts again.
Each stage before the stencil lookup runs in its own helper, so the
located, snapped and unpermuted arrays are freed before
`_resolve_neighbors` runs beside the permuted record.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .errors import EmptySurfaceError, GridError, StencilError
from .geometry import BISECT_TOL, _batch_illinois
from .linalg import _in_pair

# fixed slot order for the 3x3 chart stencil, offsets along (chart1, chart2)
NEIGHBOR_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1),
                    (0, 1), (1, -1), (1, 0), (1, 1))
SLOT = {off: i for i, off in enumerate(NEIGHBOR_OFFSETS)}
# frequently used slots
SLOT_W, SLOT_E = SLOT[(-1, 0)], SLOT[(1, 0)]
SLOT_S, SLOT_N = SLOT[(0, -1)], SLOT[(0, 1)]
SLOT_SW, SLOT_NE = SLOT[(-1, -1)], SLOT[(1, 1)]
SLOT_NW, SLOT_SE = SLOT[(-1, 1)], SLOT[(1, -1)]
AXIS_SLOTS = (SLOT_W, SLOT_E, SLOT_S, SLOT_N)

# chart-stencil offsets by grid dimension: a curve's chart is one grid line
STENCIL_OFFSETS = {2: ((-1,), (1,)), 3: NEIGHBOR_OFFSETS}

# the per-point arrays of the cut-point record
RECORD_ARRAYS = ("positions", "axis", "base_index", "closest_gp", "theta",
                 "normals", "associated_primary", "chart_neighbors")

_SNAP_TOL = 1e-9  # fraction of h below which a cut is snapped to a grid point
_SLAB_NODES = 1 << 18  # grid nodes per phi call in the streamed cut scan


def _axis_slot_pairs(dim):
    """(minus, plus) stencil slots along each chart axis, one row per axis:
    (W, E) and (S, N) on a 3-D grid, the two slots on a 2-D grid."""
    offsets = STENCIL_OFFSETS[dim]
    unit = np.eye(dim - 1, dtype=np.int64)
    return np.array([[offsets.index(tuple((-u).tolist())),
                      offsets.index(tuple(u.tolist()))] for u in unit])


def chart_axes(axis, dim):
    """Chart coordinate axes for Gamma_axis: the other axes taken cyclically,
    (y,z), (z,x), (x,y) on a 3-D grid and the one other axis on a 2-D grid."""
    return tuple((axis + k) % dim for k in range(1, dim))


@dataclass(frozen=True)
class Grid:
    """Axis-aligned grid of any dimension: nodes origin + index * h,
    0 <= index[a] <= n_cells[a]."""
    origin: tuple
    h: float
    n_cells: tuple

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0
                and np.isfinite(self.origin).all()):
            raise GridError(f"grid needs a finite origin and a finite spacing "
                            f"h > 0, got origin {self.origin}, h {self.h}")

    @classmethod
    def _box(cls, lo, hi, n, dim):
        if not hi > lo or n < 2:
            raise GridError(f"bad grid request: [{lo}, {hi}] with {n} cells")
        return cls((lo,) * dim, (hi - lo) / n, (n,) * dim)

    @classmethod
    def cube(cls, lo, hi, n):
        """3-D grid with n intervals per axis spanning [lo, hi]^3."""
        return cls._box(lo, hi, n, 3)

    @classmethod
    def square(cls, lo, hi, n):
        """2-D grid with n intervals per axis spanning [lo, hi]^2."""
        return cls._box(lo, hi, n, 2)

    def require_dim(self, dim, what):
        """Raise GridError naming both dimensions unless the grid is dim-D."""
        if len(self.n_cells) != dim:
            raise GridError(f"{what} needs a {dim}-D grid, got a "
                            f"{len(self.n_cells)}-D grid")

    def coords(self, axis):
        return self.origin[axis] + self.h * np.arange(self.n_cells[axis] + 1)

    @property
    def shape(self):
        return tuple(n + 1 for n in self.n_cells)


Grid3 = Grid  # the surface grid's former name, kept for outside callers


def interpolation_coefficients(theta):
    """Quadratic interpolation weights at offset theta from the center node.

    Nodes sit at chart offsets -1, 0, +1; returns (w_minus, w_center, w_plus).
    """
    theta = np.asarray(theta, dtype=float)
    return (0.5 * (-theta + theta ** 2),
            1.0 - theta ** 2,
            0.5 * (theta + theta ** 2))


class SurfaceDiscretization:
    """The cut-point record and what it derives: Pi, E, chart differences.

    Points are ordered primaries first.  `chart_neighbors[i]` lists the
    stencil neighbors of primary i in `offsets` order (-1 when absent).
    `dropped_cuts` counts located crossings discarded by the admissibility
    test.  Pi_sp and Pi_ss are built here, so a discretization, fresh or
    loaded, passes the StencilError checks of `_interpolation_data` and
    `_pi_matrices`.
    """

    def __init__(self, grid, eta, positions, axis, base_index, closest_gp,
                 theta, normals, n_p, associated_primary, chart_neighbors,
                 surface_kind="user", surface_params=None, dropped_cuts=0):
        self.grid = grid
        self.eta = float(eta)
        self.dropped_cuts = int(dropped_cuts)
        self.positions = positions
        self.axis = axis
        self.base_index = base_index
        self.closest_gp = closest_gp
        self.theta = theta
        self.normals = normals
        self.n_p = int(n_p)
        self.associated_primary = associated_primary
        self.chart_neighbors = chart_neighbors
        self.surface_kind = surface_kind
        self.surface_params = dict(surface_params or {})
        self.pi_sp, self.pi_ss = _pi_matrices(
            *_interpolation_data(positions, axis, theta, self.n_p,
                                 associated_primary, chart_neighbors),
            positions, self.n_p)
        self._extension = None
        self._differences = None

    # -- basic queries ---------------------------------------------------

    @property
    def n_tot(self):
        return self.positions.shape[0]

    @property
    def n_s(self):
        return self.n_tot - self.n_p

    @property
    def h(self):
        return self.grid.h

    @property
    def offsets(self):
        """Chart offsets of the `chart_neighbors` slots, in slot order."""
        return STENCIL_OFFSETS[self.positions.shape[1]]

    # -- equilibration ---------------------------------------------------

    def extend(self, values_p):
        """Extend primary values to all cut points: E @ values_p."""
        values_p = np.asarray(values_p, dtype=float)
        if values_p.shape[0] != self.n_p:
            raise ValueError(f"expected {self.n_p} primary values, "
                             f"got {values_p.shape[0]}")
        return self.extension_matrix() @ values_p

    def extension_matrix(self):
        """Explicit sparse extension E: u_p -> all points.

        Built as the Neumann series sum_k Pi_ss^k Pi_sp (geometric decay,
        ||Pi_ss||_inf <= 1/2), summed until terms vanish at double precision.
        """
        if self._extension is None:
            w = self.pi_sp.copy()
            term = self.pi_sp
            for _ in range(200):
                term = self.pi_ss @ term
                if term.nnz == 0 or np.abs(term.data).max() < 1e-17:
                    break
                w = w + term
            else:  # pragma: no cover - ||Pi_ss|| <= 1/2 forbids this
                raise RuntimeError("extension series failed to converge")
            self._extension = sp.vstack(
                [sp.identity(self.n_p, format="csr"), w], format="csr")
        return self._extension

    def chart_differences(self, direction=None):
        """Cached one-sided chart-difference matrix, built on first use.

        Rows come in blocks of n_p, one block per chart axis (c1, then c2
        on a surface): u(q+) - u(p) for direction='forward' and
        u(p) - u(q-) for 'backward', with q-/q+ the primary's axis
        neighbors in its own set.  `direction=None` stacks the forward
        blocks over the backward ones.  Entries are +-1; divide the
        product by h for derivatives.  The forward and backward matrices
        share the stacked one's data and indices, so none of the three may
        be written into.  Raises StencilError on the first call if a
        primary lacks an axis neighbor.
        """
        if self._differences is None:
            pairs = _axis_slot_pairs(self.positions.shape[1])
            self.require_full_stencil("one-sided chart differences",
                                      slots=pairs.ravel())
            nb = self.chart_neighbors
            own = [np.arange(self.n_p)] * len(pairs)
            hi = np.concatenate([nb[:, pairs[:, 1]].T.ravel()] + own)
            lo = np.concatenate(own + [nb[:, pairs[:, 0]].T.ravel()])
            m = hi.size
            both = sp.csr_matrix(
                (np.tile([1.0, -1.0], m), np.stack([hi, lo], axis=1).ravel(),
                 np.arange(0, 2 * m + 1, 2)), shape=(m, self.n_tot))
            # two entries a row: each half is a slice of data and indices,
            # and both halves share one indptr (a row slice would copy)
            half = m // 2
            self._differences = {None: both}
            for side, part in (("forward", slice(None, m)),
                               ("backward", slice(m, None))):
                self._differences[side] = sp.csr_matrix(
                    (both.data[part], both.indices[part],
                     both.indptr[:half + 1]), shape=(half, self.n_tot),
                    copy=False)
        if direction not in self._differences:
            raise ValueError(f"direction must be 'forward' or 'backward', "
                             f"got {direction!r}")
        return self._differences[direction]

    # -- stencil checks used by the operators ----------------------------

    def require_full_stencil(self, what="operator stencil", slots=None):
        """Raise StencilError if any primary lacks a neighbor in `slots`.

        `slots=None` demands the full chart stencil; operators that read
        only part of it (one-sided differences need the axis slots, the
        divergence form needs one diagonal pair per point) pass a subset.
        """
        slot_ids = list(range(len(self.offsets)) if slots is None else slots)
        nb = self.chart_neighbors[:, slot_ids]
        missing = np.nonzero((nb < 0).any(axis=1))[0]
        if missing.size:
            i = int(missing[0])
            offs = [self.offsets[slot_ids[s]] for s in
                    np.nonzero(nb[i] < 0)[0]]
            raise StencilError(
                f"{what}: {missing.size} primary points lack chart-stencil "
                f"neighbors; first at {self.positions[i]} (set Gamma_"
                f"{int(self.axis[i]) + 1}), missing offsets {offs}. "
                f"Try a finer grid or a smaller eta (eta={self.eta}).")


# -- construction, shared by curves (2-D grid) and surfaces (3-D grid) ---


def _node_text(grid, node):
    """A grid node's index and coordinates, for error messages."""
    idx = tuple(int(i) for i in node)
    xyz = ", ".join(f"{float(grid.coords(a)[i]):.6g}"
                    for a, i in enumerate(idx))
    return f"{idx} at ({xyz})"


def _boundary_min(f, i0, shape):
    """(phi, node index) of the smallest phi among the box-boundary nodes of
    the slab `f`, whose first plane is plane i0 along axis 0; ties go to the
    first node in C order."""
    faces = [(a, end) for a in range(1, f.ndim)
             for end in (0, f.shape[a] - 1)]
    faces += [(0, k) for k in {-i0, shape[0] - 1 - i0} if 0 <= k < f.shape[0]]
    best = (np.inf, ())
    for a, end in faces:
        face = np.take(f, end, axis=a)
        k = int(np.argmin(face))
        idx = list(np.unravel_index(k, face.shape))
        idx.insert(a, end)
        idx[0] += i0
        best = min(best, (float(face.flat[k]), tuple(int(i) for i in idx)))
    return best


def _sign_changes(f, inside, axis, offset):
    """(base index, phi at the low end, phi at the high end) of every sign
    change of `inside` (phi <= 0 on the nodes of `f`) along `axis`, in C
    order; `offset` is the axis-0 index of the first plane of `f`."""
    lo = [slice(None)] * inside.ndim
    hi = [slice(None)] * inside.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    in_lo = inside[tuple(lo)]
    idx = np.unravel_index(np.flatnonzero(in_lo != inside[tuple(hi)]),
                           in_lo.shape)
    up = list(idx)
    up[axis] = up[axis] + 1
    base = np.stack(idx, axis=1).astype(np.int64, copy=False)
    base[:, 0] += offset
    return base, f[idx], f[tuple(up)]


def _plane_seam(before, after, i):
    """`_sign_changes` along axis 0 between phi on plane i (`before`) and
    on plane i + 1 (`after`)."""
    idx = np.nonzero((before <= 0.0) != (after <= 0.0))
    base = np.stack((np.full(idx[0].shape, i),) + idx, axis=1)
    return base.astype(np.int64, copy=False), before[idx], after[idx]


def _scan_run(surface, grid, starts, depth):
    """One run of the scan: the slabs of `depth` planes along axis 0 that
    start at the consecutive planes `starts`.  Returns, per axis, the
    `_sign_changes` parts inside the run in cut order, the run's
    `_boundary_min`, and phi on its first and on its last plane (None for
    a run of no slab)."""
    shape = grid.shape
    dim = len(shape)
    coords = [grid.coords(a) for a in range(dim)]
    # coordinate-major storage: phi reads each coordinate contiguously
    pts = np.moveaxis(np.empty((dim, depth) + shape[1:]), 0, -1)
    for a in range(1, dim):
        pts[..., a] = coords[a].reshape((-1,) + (1,) * (dim - 1 - a))
    found = [[] for _ in range(dim)]
    worst = (np.inf, ())
    first = prev = None
    for i0 in starts:
        slab = pts[:min(depth, shape[0] - i0)]
        slab[..., 0] = coords[0][i0:i0 + slab.shape[0]].reshape(
            (-1,) + (1,) * (dim - 1))
        f = surface.phi(slab)
        finite = np.isfinite(f)
        if not finite.all():
            node = np.unravel_index(int(np.argmin(finite)), f.shape)
            raise GridError(
                f"phi evaluated to non-finite values on the grid; first "
                f"{f[node]} at node "
                f"{_node_text(grid, (i0 + node[0],) + node[1:])}")
        worst = min(worst, _boundary_min(f, i0, shape))
        inside = f <= 0.0
        # axis 0 also crosses the seam from the previous slab's last plane
        if prev is not None:
            found[0].append(_plane_seam(prev, f[0], i0 - 1))
        for a in range(dim):
            found[a].append(_sign_changes(f, inside, a, i0))
        if first is None:
            first = f[0].copy()
        prev = f[-1].copy()
    return found, worst, first, prev


def _physical_memory():
    """Bytes of physical memory, or None where the system does not say."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None
    return pages * size if pages > 0 and size > 0 else None


def _scan_sign_changes(surface, grid):
    """Sign-change intervals of phi between neighbouring grid nodes.

    Slabs of whole planes along axis 0, at most _SLAB_NODES nodes per phi
    call (one plane when a plane holds more), are split into two runs of
    consecutive slabs, scanned at once by this thread and a worker thread
    (`_in_pair`); every node is evaluated once, and within a run only the
    last plane's phi carries over to the next slab.  The axis-0 changes
    across the seam between the runs come from the first run's last plane
    and the second run's first, and the parts join in run order, so the
    result does not depend on the split.  Raises GridError at the first
    non-finite phi (the first run's before the second's), after the scan
    if a boundary node has phi <= 0, and before any buffer is made if one
    slab's buffers exceed physical memory.  Returns, per axis, the base
    indices of the changing intervals in the cut order of the module
    docstring and phi at both ends of each.
    """
    shape = grid.shape
    dim = len(shape)
    depth = max(1, min(shape[0], _SLAB_NODES // math.prod(shape[1:])))
    # a slab holds dim coordinates and phi per node, all float64
    slab_bytes = depth * math.prod(shape[1:]) * (dim + 1) * 8
    memory = _physical_memory()
    if memory is not None and slab_bytes > memory:
        raise GridError(
            f"grid of {grid.n_cells} cells is too large to scan: one slab of "
            f"{depth} plane(s) needs {slab_bytes} bytes, more than the "
            f"{memory} bytes of physical memory")
    starts = range(0, shape[0], depth)
    cut = (len(starts) + 1) // 2
    (found, worst, _, last), (parts, run_worst, first, _) = _in_pair(
        partial(_scan_run, surface, grid, starts[:cut], depth),
        partial(_scan_run, surface, grid, starts[cut:], depth))
    if first is not None:       # the second run holds a slab
        found[0].append(_plane_seam(last, first, starts[cut] - 1))
    for a in range(dim):
        found[a] += parts[a]
    worst = min(worst, run_worst)
    if worst[0] <= 0.0:
        raise GridError(
            f"level set is not strictly inside the grid box (min boundary "
            f"phi = {worst[0]:.3e} at node {_node_text(grid, worst[1])})")
    return [tuple(map(np.concatenate, zip(*parts))) for parts in found]


def _admissible_mask(normals, axis, eta):
    """Admissibility filter: keep cuts whose free-axis normal component is
    at least eta in magnitude.  An all-False result is not an error."""
    normals = np.atleast_2d(normals)
    ax = np.broadcast_to(np.asarray(axis), normals.shape[:1])
    return np.abs(normals[np.arange(normals.shape[0]), ax]) >= eta


def _interval_cuts(surface, grid, axis, base, f_lo, f_hi, tol):
    """The cut point on each interval along `axis` from the nodes `base`,
    given phi at both ends of each."""
    p_lo = np.asarray(grid.origin) + grid.h * base
    p_hi = p_lo.copy()
    p_hi[:, axis] += grid.h
    lo_is_in = f_lo <= 0.0
    p_in = np.where(lo_is_in[:, None], p_lo, p_hi)
    p_out = np.where(lo_is_in[:, None], p_hi, p_lo)
    return _batch_illinois(surface, p_in, p_out,
                           np.where(lo_is_in, f_lo, f_hi),
                           np.where(lo_is_in, f_hi, f_lo), axis, tol)


def _locate_cuts(surface, grid, tol=BISECT_TOL):
    """Per axis, the base indices of all sign-change intervals and the cut
    point on each, in the cut order of the module docstring.  The scan and
    the root steps run on this thread and a worker: each axis's intervals
    are located in two halves, and the halves join in order."""
    out = []
    for axis, (base, f_lo, f_hi) in enumerate(
            _scan_sign_changes(surface, grid)):
        cut = (base.shape[0] + 1) // 2
        halves = [partial(_interval_cuts, surface, grid, axis, base[part],
                          f_lo[part], f_hi[part], tol)
                  for part in (slice(None, cut), slice(cut, None))]
        out.append((base, np.concatenate(_in_pair(*halves))))
    return out


def _snap_and_dedupe(surface, grid, positions, axis, base, normals):
    """Snap near-grid-point cuts to grid points exactly and keep only one
    record per snapped node: the axis of largest |n| component.  Returns
    the keep mask, positions and normals (recomputed where snapped)."""
    origin = np.asarray(grid.origin)
    free = positions[np.arange(len(axis)), axis]
    scaled = (free - origin[axis]) / grid.h
    nearest = np.rint(scaled)
    snap = np.abs(scaled - nearest) <= _SNAP_TOL
    keep = np.ones(len(axis), dtype=bool)
    if not snap.any():
        return keep, positions, normals
    positions = positions.copy()
    positions[snap, axis[snap]] = origin[axis[snap]] + grid.h * nearest[snap]

    node = base.copy()
    node[np.arange(len(axis)), axis] = 0
    node[snap, axis[snap]] = nearest[snap].astype(np.int64)
    snap_ids = np.nonzero(snap)[0]
    key = np.ravel_multi_index(node[snap_ids].T, grid.shape)
    for k in np.unique(key):
        group = snap_ids[key == k]
        if group.size == 1:
            continue
        n = normals[group[0]]
        want = int(np.argmax(np.abs(n)))
        cand = group[axis[group] == want]
        chosen = cand[0] if cand.size else group[
            int(np.argmax(np.abs(normals[group, axis[group]])))]
        keep[group] = False
        keep[chosen] = True
    normals = normals.copy()
    normals[snap] = surface.unit_normal(positions[snap])
    return keep, positions, normals


def _column_key(axis, chart_index, bmax):
    """Integer id of the chart column (set, chart indices) of each row."""
    key = axis.astype(np.int64)
    for c in chart_index.T:
        key = key * bmax + (c + 1)
    return key


def _resolve_neighbors(grid, positions, axis, base, n_p, eta):
    """For each primary point, resolve its chart-stencil neighbor ids.

    Candidates share the primary's set Gamma_nu and the queried chart
    column; the one nearest in the free coordinate is taken, ties to the
    lower.  An admissible sheet moves at most sqrt(1-eta^2)/eta per unit of
    chart distance, so a candidate farther than that times |offset|, plus
    h, lies on another sheet of the level set and the slot stays -1.
    """
    n_tot, dim = positions.shape
    idx = np.arange(n_tot)
    chart = np.stack([base[idx, c] for c in chart_axes(axis, dim)], axis=1)
    bmax = max(grid.n_cells) + 3
    key = _column_key(axis, chart, bmax)
    pos_free = positions[idx, axis]
    # column by column, in free order (a column has one cut per interval)
    order = np.argsort(key * bmax + base[idx, axis])
    s_key = key[order]
    s_pos = pos_free[order]
    starts = np.flatnonzero(np.r_[True, s_key[1:] != s_key[:-1], True])
    widest = int(np.diff(starts).max())

    prim = np.arange(n_p)
    offsets = np.asarray(STENCIL_OFFSETS[dim])
    reach = (np.linalg.norm(offsets, axis=1) * math.sqrt(1.0 - eta ** 2)
             / eta + 1.0) * grid.h
    out = np.empty((n_p, len(offsets)), dtype=np.int64)

    def fill(slots):
        for slot in slots:
            qkey = _column_key(axis[:n_p], chart[:n_p] + offsets[slot], bmax)
            cand = np.searchsorted(s_key, qkey) + np.arange(widest)[:, None]
            cc = np.minimum(cand, n_tot - 1)
            d = np.where((cand < n_tot) & (s_key[cc] == qkey),
                         np.abs(s_pos[cc] - pos_free[:n_p]), np.inf)
            k = np.argmin(d, axis=0)   # first of equals: lower free coordinate
            out[:, slot] = np.where(d[k, prim] <= reach[slot],
                                    order[cc[k, prim]], -1)

    # each slot fills its own column; half the slots on the worker
    half = len(offsets) // 2
    _in_pair(partial(fill, range(half)),
             partial(fill, range(half, len(offsets))))
    return out


def _cut_points(surface, grid, eta, tol=BISECT_TOL):
    """Cut points, roles and chart neighbors of `surface` on `grid`.

    The steps shared by curves and surfaces, from the streamed sign-change
    scan to the stencil lookup.  Returns the per-point arrays under the
    constructor names of SurfaceDiscretization (primary points first, each
    block in the cut order of the module docstring) and the number of
    located cuts that failed the admissibility test.  Raises GridError if
    the located cuts break that order or repeat an interval.  Each stage
    before the stencil lookup is a helper, so the located, snapped and
    unpermuted arrays are freed with its frame and only the permuted
    record is alive while `_resolve_neighbors` runs.
    """
    fields, dropped = _ordered_cuts(surface, grid, eta, tol)
    fields["chart_neighbors"] = _resolve_neighbors(
        grid, fields["positions"], fields["axis"], fields["base_index"],
        fields["n_p"], eta)
    return fields, dropped


def _ordered_cuts(surface, grid, eta, tol):
    """`_primaries_first` of the `_admissible_cuts`, and the number of cuts
    that failed the admissibility test."""
    cuts, dropped = _admissible_cuts(surface, grid, eta, tol)
    return _primaries_first(grid, *cuts), dropped


def _admissible_cuts(surface, grid, eta, tol):
    """The located cuts, snapped and deduplicated, that pass the
    admissibility test, in cut order: (base, positions, axis, normals),
    and the number that failed it."""
    located = _locate_cuts(surface, grid, tol)
    base = np.concatenate([b for b, _ in located], axis=0)
    positions = np.concatenate([q for _, q in located], axis=0)
    axis = np.concatenate([np.full(b.shape[0], ax, dtype=np.int8)
                           for ax, (b, _) in enumerate(located)])
    if positions.shape[0] == 0:
        raise EmptySurfaceError("no grid interval crosses the level set")
    keep, positions, normals = _snap_and_dedupe(
        surface, grid, positions, axis, base, surface.unit_normal(positions))
    admissible = _admissible_mask(normals, axis, eta)
    use = keep & admissible
    if not use.any():
        raise EmptySurfaceError(
            f"all {int(keep.sum())} located cut points failed the "
            f"admissibility test at eta={eta}")
    return ((base[use], positions[use], axis[use], normals[use]),
            int((keep & ~admissible).sum()))


def _primaries_first(grid, base, positions, axis, normals):
    """Check the cut order, give each cut its closest grid point and role,
    and return the record fields but `chart_neighbors`, primaries first."""
    dim = positions.shape[1]
    m = positions.shape[0]
    ids = np.arange(m)
    origin = np.asarray(grid.origin)
    scaled = (positions[ids, axis] - origin[axis]) / grid.h
    closest = base.copy()
    closest[ids, axis] += scaled - base[ids, axis] > 0.5
    theta = np.clip(scaled - closest[ids, axis], -0.5, 0.5)

    # the cut order holds: at most one cut per grid interval, in order
    interval_key = np.ravel_multi_index(
        np.vstack([axis.astype(np.int64), base.T]), (dim,) + grid.shape)
    bad = np.diff(interval_key) <= 0
    if bad.any():
        i = int(np.argmax(bad)) + 1
        raise GridError(f"duplicate or out-of-order cut points: the cut on "
                        f"the grid interval along axis {axis[i]} from node "
                        f"{_node_text(grid, base[i])} breaks the cut order")

    # primary = smallest |theta| at its grid point; exact ties go to the
    # lowest base index, then the lowest axis
    gp_key = np.ravel_multi_index(closest.T, grid.shape)
    order = np.lexsort((np.ravel_multi_index(base.T, grid.shape) * dim + axis,
                        np.abs(theta), gp_key))
    sorted_gp = gp_key[order]
    first = np.r_[True, sorted_gp[1:] != sorted_gp[:-1]]
    is_primary = np.zeros(m, dtype=bool)
    is_primary[order[first]] = True
    # owner primary for every point, via its grid-point group
    group_rep = np.empty(m, dtype=np.int64)
    group_rep[order] = order[first][np.cumsum(first) - 1]

    # primaries then secondaries, each block keeping the cut order, so an
    # owner's new id is its rank among the primaries
    block_order = np.argsort(~is_primary, kind="stable")
    new_id = np.cumsum(is_primary) - 1
    n_p = int(is_primary.sum())
    associated = np.full(m, -1, dtype=np.int64)
    associated[n_p:] = new_id[group_rep[block_order[n_p:]]]
    return dict(
        positions=positions[block_order], axis=axis[block_order],
        base_index=base[block_order], closest_gp=closest[block_order],
        theta=theta[block_order], normals=normals[block_order], n_p=n_p,
        associated_primary=associated)


def _interpolation_data(positions, axis, theta, n_p, associated_primary,
                        neighbors):
    """Secondary interpolation triples (q-, p, q+) and their weights.

    A secondary cut along axis nu is interpolated along nu in the chart of
    its primary, from the primary and its two stencil neighbors there.
    """
    n_tot, dim = positions.shape
    sec = np.arange(n_p, n_tot)
    p = associated_primary[sec]
    mu = axis[p].astype(np.int64)
    nu = axis[sec].astype(np.int64)
    same = nu == mu
    if same.any():
        i = sec[same][0]
        raise StencilError(
            f"secondary cut point at {positions[i]} shares its interval axis "
            f"with its associated primary; interpolation along the chart is "
            f"impossible (under-resolved level set)")
    slots = _axis_slot_pairs(dim)[(nu - mu) % dim - 1]
    qm = neighbors[p, slots[:, 0]]
    qp = neighbors[p, slots[:, 1]]
    bad = (qm < 0) | (qp < 0)
    if bad.any():
        i = sec[bad][0]
        raise StencilError(
            f"secondary cut point at {positions[i]} needs chart neighbors of "
            f"its primary at {positions[p[bad][0]]} that do not exist "
            f"(admissibility gap); refine the grid or lower eta")
    wm, wc, wp = interpolation_coefficients(theta[sec])
    points = np.stack([qm, p, qp], axis=1).astype(np.int64)
    coeffs = np.stack([wm, wc, wp], axis=1)
    return points, coeffs


def _pi_matrices(points, coeffs, positions, n_p):
    """Split the interpolation rows into Pi_sp (onto primaries) and Pi_ss.

    Raises StencilError unless every row of |Pi_ss| sums to at most 1/2,
    the bound that makes the extension series converge geometrically.
    """
    n_s = points.shape[0]
    rows = np.repeat(np.arange(n_s), 3)
    cols = points.ravel()
    vals = coeffs.ravel()
    in_p = cols < n_p
    pi_sp = sp.coo_matrix((vals[in_p], (rows[in_p], cols[in_p])),
                          shape=(n_s, n_p)).tocsr()
    pi_ss = sp.coo_matrix((vals[~in_p], (rows[~in_p], cols[~in_p] - n_p)),
                          shape=(n_s, n_s)).tocsr()
    if n_s:
        row_sums = np.asarray(abs(pi_ss).sum(axis=1)).ravel()
        worst = int(np.argmax(row_sums))
        if row_sums[worst] > 0.5 + 1e-12:
            raise StencilError(
                f"interpolation weights on secondary points sum to "
                f"{row_sums[worst]:.6g} > 1/2 in the row of the secondary "
                f"cut point at {positions[n_p + worst]}; the extension "
                f"series needs every such row sum at most 1/2")
    return pi_sp, pi_ss


def _check_eta(eta, dim):
    """Raise ValueError unless 0 < eta < 1/sqrt(dim) (see `discretize`)."""
    if not 0.0 < eta < 1.0 / math.sqrt(dim):
        raise ValueError(f"eta must lie in (0, 1/sqrt({dim})) on a {dim}-D "
                         f"grid, got {eta}")


def _discretize(surface, grid, eta, dim, what):
    """`discretize` on a dim-D grid; `what` names the caller in errors."""
    grid.require_dim(dim, what)
    _check_eta(eta, dim)
    fields, dropped = _cut_points(surface, grid, eta)
    return SurfaceDiscretization(
        grid=grid, eta=eta, surface_kind=surface.kind,
        surface_params=surface.params, dropped_cuts=dropped, **fields)


def discretize(surface, grid, eta=0.45):
    """Build the cut-point discretization of `surface` on `grid`.

    Parameters
    ----------
    surface : LevelSetSurface
    grid : Grid
        A 3-D grid (GridError otherwise) that strictly contains the
        surface (checked on the boundary faces).  phi is evaluated once
        per grid node, streamed over slabs of planes in two runs on two
        threads (this one and a worker), so working memory is two slabs
        plus what grows like the number of cut points, O(N^2), not like
        the (N+1)^3 grid.  The root steps and the stencil lookup also run
        on the two threads.
        A non-finite phi (the first in C order) or a boundary node with
        phi <= 0 raises GridError naming the node.
    eta : float
        Admissibility threshold on |n_nu| at the cut point, 0 < eta <
        1/sqrt(3) (ValueError otherwise): a unit normal has a component of
        at least 1/sqrt(3), so every crossing keeps an admissible axis.

    Returns
    -------
    SurfaceDiscretization with primary points first (each block ordered by
    (axis, base index) for deterministic output), and the number of cuts
    dropped by admissibility in `dropped_cuts`.
    """
    return _discretize(surface, grid, eta, 3, "discretize")


# -- discretization quality report ---------------------------------------


@dataclass
class QualityReport:
    """Geometric quality bounds of the primary point set."""
    h: float
    n_p: int
    n_s: int
    normal_ratio_max: float        # max over primaries of max_other |n_mu|/|n_nu|
    min_primary_spacing: float     # min pairwise distance between primaries
    max_primary_gap: float         # max distance to the nearest other primary


def quality_report(disc):
    """Check the geometric guarantees of the primary set.

    The free-axis normal component of a primary point nearly dominates the
    others (ratio <= 1 + O(h)); primaries are pairwise separated by at least
    (sqrt(2)/2) h - O(h^2) and no primary is farther than (3 sqrt(2)/2) h +
    O(h^2) from another.
    """
    from scipy.spatial import cKDTree  # only here: it costs every import

    n_p = disc.n_p
    n = disc.normals[:n_p]
    ax = disc.axis[:n_p].astype(np.int64)
    own = np.abs(n[np.arange(n_p), ax])
    others = np.abs(n).copy()
    others[np.arange(n_p), ax] = 0.0
    ratio = others.max(axis=1) / own
    tree = cKDTree(disc.positions[:n_p])
    d, _ = tree.query(disc.positions[:n_p], k=2)
    nearest = d[:, 1]
    return QualityReport(
        h=disc.h, n_p=n_p, n_s=disc.n_s,
        normal_ratio_max=float(ratio.max()),
        min_primary_spacing=float(nearest.min()),
        max_primary_gap=float(nearest.max()))
