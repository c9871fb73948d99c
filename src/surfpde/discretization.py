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

A discretization is built from its cuts, the `CUT_ARRAYS` in cut order,
and its grid and eta.  The constructor derives the rest, for a build and a
load alike: each cut's closest grid point, theta and role, each
secondary's owner, each primary's chart neighbours (the `RECORD_ARRAYS`
and n_p), and the checked interpolation blocks Pi_sp and Pi_ss, which make
each secondary the quadratic interpolant of three points in its primary's
chart.  Equilibration has one route: the extension matrix E, the Neumann
series of Pi, and `extend(u_p) = E @ u_p`.  Explicit chart differences
have one route too: the one matrix of `chart_differences`, built once per
discretization like E, whose rows hold the forward differences along each
chart axis over the backward ones.

Cut location has one scan, the narrow band, and never holds phi on the
whole grid.  A surface's `grad_bound` (see `geometry.LevelSetSurface`)
certifies blocks of the grid, level by level from coarse to fine, in
which phi cannot change sign: a block is skipped when |phi| at its centre
exceeds the bound times its half-diagonal.  A surface without a bound
leaves every block.  The blocks left, the narrow band around the surface
(about 6% of the nodes of a sphere at N = 320), are walked in groups of
whole block layers along axis 0: one layer, or as many as keep the
group's table of phi within one phi call's buffers.  A group reads every
node it needs through its block's read mask: the nodes of the blocks
left, the faces of the next blocks that their intervals cross, and the
box boundary.  So phi is evaluated once per node, at most
`_PHI_CALL_NODES` nodes per call, in two halves, one on the calling
thread and one on a worker thread (`linalg._in_pair`).  A group's sign
changes, the intervals and phi at their ends, are taken once the next
group's first layer is read, and its phi is then dropped.  Working
memory is O(N^2) per-cut arrays plus one group, for any phi; a looser
bound only widens the band and adds groups.  Containment is checked
after the last group on phi at every box-boundary node, not on the
blocks' certificates, so phi stays checked on the whole boundary.  The
cuts on the intervals are then located by `geometry._batch_illinois`,
each axis in two halves, one per thread; the stencil lookup splits its
slots the same way.  Every block, interval and stencil slot is computed
on its own and the parts join in order, so the result is the same bit
for bit as computing the parts one after another, and the band finds
the same intervals, with the same phi, as a scan of every node.

Cut order: the scan returns the cuts sorted by (axis, base index in C
order), one per interval.  Snapping, dedupe and admissibility only filter,
so `_admissible_cuts` keeps this order; the constructor checks it in O(m)
and keeps it within the primary and the secondary block without sorting
the cuts again.  Each stage before the stencil lookup runs in its own
helper, and the cuts reach the constructor in a dict that the derivation
empties, so the located, snapped and unpermuted arrays are freed before
`_resolve_neighbors` runs beside the permuted record.
"""

from __future__ import annotations

import math
import numbers
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

# chart-stencil offsets by grid dimension: a curve's chart is one grid line
STENCIL_OFFSETS = {2: ((-1,), (1,)), 3: NEIGHBOR_OFFSETS}

# the per-cut arrays a discretization is built from, in cut order
CUT_ARRAYS = ("positions", "axis", "base_index", "normals")
# the per-point arrays of the cut-point record, primaries first
RECORD_ARRAYS = ("positions", "axis", "base_index", "closest_gp", "theta",
                 "normals", "associated_primary", "chart_neighbors")

_SNAP_TOL = 1e-9  # fraction of h below which a cut is snapped to a grid point
_PHI_CALL_NODES = 1 << 18  # most grid nodes per phi call; a group of the
                           # band holds phi in no more bytes than its buffers
_BLOCK = 3  # cells per side of the finest certified block; odd, so its
            # centre is a cell centre
_COARSE_BLOCKS = 1 << 12  # most blocks on the first certification level
_BOUND_MARGIN = 2.0 ** -20  # relative slack of a certificate over rounding


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
        if not (len(self.n_cells) == len(self.origin) and all(
                isinstance(n, numbers.Integral) and not isinstance(n, bool)
                and n > 0 for n in self.n_cells)):
            raise GridError(f"grid needs n_cells of positive whole numbers, "
                            f"one per origin coordinate, got n_cells "
                            f"{self.n_cells} for origin {self.origin}")

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
    """A discretization built from its cuts: the record, Pi, E and chart
    differences.

    `cuts` is a dict of the `CUT_ARRAYS` in cut order, which the
    constructor empties as it derives the `RECORD_ARRAYS` and n_p (see
    `_record`) and the checked Pi (`_interpolation_data`, `_pi_matrices`).
    Points are ordered primaries first; `chart_neighbors[i]` lists the
    stencil neighbors of primary i in `offsets` order (-1 when absent).
    `dropped_cuts` counts located crossings that failed admissibility.
    """

    def __init__(self, grid, eta, cuts, surface_kind="user",
                 surface_params=None, dropped_cuts=0):
        self.grid = grid
        self.eta = float(eta)
        self.dropped_cuts = int(dropped_cuts)
        self.surface_kind = surface_kind
        self.surface_params = dict(surface_params or {})
        record = _record(grid, self.eta, cuts)
        self.n_p = record.pop("n_p")
        vars(self).update(record)
        self.pi_sp, self.pi_ss = _pi_matrices(
            *_interpolation_data(self.positions, self.axis, self.theta,
                                 self.n_p, self.associated_primary,
                                 self.chart_neighbors),
            self.positions, self.n_p)
        self._extension = None
        self._differences = None

    def cuts(self):
        """The `CUT_ARRAYS` in cut order: what the constructor takes."""
        order = np.argsort(_interval_key(self.grid, self.axis,
                                         self.base_index))
        return {name: getattr(self, name)[order] for name in CUT_ARRAYS}

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

    def chart_differences(self):
        """Cached chart-difference matrix, built on first use.

        One CSR matrix of shape (2 (d-1) n_p, n_tot) in blocks of n_p rows:
        the forward differences u(q+) - u(p) along each chart axis (c1,
        then c2 on a surface), then the backward differences u(p) - u(q-)
        in the same axis order, with q-/q+ the primary's axis neighbors in
        its own set.  Entries are +-1; divide the product by h for
        derivatives.  Raises StencilError on the first call if a primary
        lacks an axis neighbor.
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
            self._differences = sp.csr_matrix(
                (np.tile([1.0, -1.0], m), np.stack([hi, lo], axis=1).ravel(),
                 np.arange(0, 2 * m + 1, 2)), shape=(m, self.n_tot))
        return self._differences

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


def _physical_memory():
    """Bytes of physical memory, or None where the system does not say."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None
    return pages * size if pages > 0 and size > 0 else None


def _require_memory(grid, what, need):
    """Raise GridError unless `need` bytes, held by `what`, fit in physical
    memory."""
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise GridError(
            f"grid of {grid.n_cells} cells is too large to scan: {what} needs "
            f"{need} bytes, more than the {memory} bytes of physical memory")


def _scan_sign_changes(surface, grid):
    """Sign-change intervals of phi between neighbouring grid nodes.

    The one scan of cut location, on 2-D and 3-D grids: phi on the box
    boundary and on the narrow band of blocks that the surface's gradient
    bound leaves (`_live_blocks`, `_band_scan`), every block for a surface
    without a bound.  It holds the O(N^2) per-cut arrays and one group of
    block layers for any phi: a looser bound, or none, only adds groups.
    Each node is evaluated at most once, at most _PHI_CALL_NODES nodes per
    phi call, on this thread and a worker thread (`_in_pair`).  Raises
    GridError before any phi call if the buffers of the largest phi call,
    counted as at least one plane along axis 0, exceed physical memory,
    then at the first non-finite phi, then if a boundary node has
    phi <= 0.  Returns, per axis, the base indices of the changing
    intervals in the cut order of the module docstring and phi at both
    ends of each.
    """
    shape = grid.shape
    call = max(math.prod(shape[1:]), min(_PHI_CALL_NODES, math.prod(shape)))
    # a phi call holds dim coordinates and phi per node, all float64
    _require_memory(grid, f"one phi call of up to {call} nodes",
                    call * (len(shape) + 1) * 8)
    return _band_scan(surface, grid, _live_blocks(surface, grid))


# -- the narrow-band scan -------------------------------------------------


def _certified(surface, grid, size, blocks):
    """Whether phi keeps one sign, by the surface's gradient bound, on each
    block of `size` cells per side; block J, column J of `blocks`, spans
    the cells from node size * J.  A block is certified when |phi| at its
    centre exceeds the bound on its box times its half-diagonal, with a
    relative margin over rounding.  The centre of an odd-sized block is a
    cell centre, never a grid node; a non-finite phi there leaves the
    block uncertified."""
    dim = blocks.shape[0]
    reach = 0.5 * size * grid.h * math.sqrt(dim) * (1.0 + _BOUND_MARGIN)
    out = np.empty(blocks.shape[1], dtype=bool)
    step = max(1, _PHI_CALL_NODES)
    for i in range(0, blocks.shape[1], step):
        # coordinate-major boxes: phi and the bound read each coordinate
        # contiguously
        lo = (np.asarray(grid.origin)[:, None]
              + grid.h * size * blocks[:, i:i + step]).T
        hi = lo + grid.h * size
        f = surface.phi(0.5 * (lo + hi))
        out[i:i + step] = np.isfinite(f) & (
            np.abs(f) > surface.grad_bound(lo, hi) * reach)
    return out


def _live_blocks(surface, grid):
    """The blocks of _BLOCK cells per side that the gradient bound does not
    certify, as sorted raveled indices in the grid of n // _BLOCK + 1
    blocks per axis, or None for a surface without a bound, whose every
    block is live.  Block J holds the nodes from _BLOCK * J up to but not
    including _BLOCK * (J + 1) along each axis, and every interval from
    one of them lies in its box, so a certified block holds none of the
    sign changes.  Blocks are certified level by level, each three times
    as wide as the next, from the first level of at most _COARSE_BLOCKS
    blocks; only the uncertified blocks of a level are split."""
    if surface.grad_bound is None:
        return None
    n = np.asarray(grid.n_cells)
    dim = n.size
    size = _BLOCK
    while np.prod(n // size + 1) > _COARSE_BLOCKS:
        size *= 3
    blocks = np.indices(n // size + 1).reshape(dim, -1)
    children = np.indices((3,) * dim).reshape(dim, 1, -1)
    while True:
        blocks = blocks[:, ~_certified(surface, grid, size, blocks)]
        if size == _BLOCK:
            return np.sort(np.ravel_multi_index(blocks, n // _BLOCK + 1))
        size //= 3
        blocks = (3 * blocks[:, :, None] + children).reshape(dim, -1)
        # the children of the last blocks along an axis may leave the grid
        last = (n // size)[:, None]
        if (blocks > last).any():
            blocks = blocks[:, (blocks <= last).all(axis=0)]


def _block_nodes(dim):
    """Node offsets of a block in C order, shape (_BLOCK**dim, dim)."""
    return np.indices((_BLOCK,) * dim).reshape(dim, -1).T


def _strides(nb):
    """Raveled-index step along each axis of a C-ordered grid `nb`."""
    return np.cumprod(np.r_[1, nb[:0:-1]])[::-1]


def _read_blocks(key, nb, lo, hi):
    """The blocks of block layers lo to hi - 1 along axis 0 that the scan
    reads, as sorted raveled indices in the grid `nb` of blocks, and which
    of their nodes it reads, as bits (see `_group_values`): each live
    block (sorted raveled indices `key`, from layer lo - 1 on, or every
    block for None) whole, bit 1; the next one along each axis a on their
    shared face, bit 2 << a; and each block at the low and at the high
    end of axis a on that face of the box, bits 2 << (dim + 2 a) and
    4 << (dim + 2 a)."""
    dim = nb.size
    stride = _strides(nb)
    layer = int(stride[0])
    if key is None:
        # every block is read whole: no face of a next block to add
        keys = [np.arange(lo * layer, hi * layer)] + [np.arange(0)] * dim
    else:
        keys = [key] + [key[i < m - 1] + s for i, m, s in
                        zip(np.unravel_index(key, nb), nb, stride)]
    for a in range(dim):
        for end in (0, nb[a] - 1):
            ranges = [np.arange(lo, hi)] + [np.arange(m) for m in nb[1:]]
            ranges[a] = ranges[a][ranges[a] == end]
            keys.append(sum(r * s for r, s in
                            zip(np.ix_(*ranges), stride)).ravel())
    bits = np.repeat(np.left_shift(1, np.arange(len(keys)), dtype=np.int16),
                     [k.size for k in keys])
    keys = np.concatenate(keys)
    mine = (keys >= lo * layer) & (keys < hi * layer)
    keys, bits = keys[mine], bits[mine]
    # each list is sorted, so a stable sort merges them
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # the keys are non-negative, so the first is a start; every layer
    # holds blocks of the box boundary, so there is one
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    bits = np.bitwise_or.reduceat(bits[order], starts)
    # a block read whole needs no face bit of its own
    return keys[starts], np.where(bits & 1, bits & ~((2 << dim) - 2), bits)


def _block_chunk(surface, grid, nb, blocks, locs, boundary, table, rows):
    """phi on the nodes at offsets `locs` (in `_block_nodes` order) of the
    `blocks`, raveled indices in the grid `nb` of blocks, into table[rows]
    with +inf on the other nodes, unless `table` is None.  Returns the
    first non-finite (ravel index, phi) in C order, or None, and the
    smallest phi on the nodes at the offsets locs[boundary], on the box
    boundary, with the lowest ravel index among ties, (phi, ravel
    index)."""
    dim = nb.size
    first = _BLOCK * np.stack(np.unravel_index(blocks, nb), axis=1)
    offsets = _block_nodes(dim)[locs]
    # coordinate-major storage: phi reads each coordinate contiguously
    pts = np.empty((dim, first.shape[0], locs.size))
    for a in range(dim):
        # a last block's offsets past the grid, in no mask, read its last
        # coordinate
        axis = grid.origin[a] + grid.h * np.minimum(
            first[:, a, None] + np.arange(_BLOCK), grid.n_cells[a])
        np.take(axis, offsets[:, a], axis=1, out=pts[a])
    f = surface.phi(np.moveaxis(pts, 0, -1))
    if table is not None and locs.size == table.shape[1]:
        table[rows] = f
    elif table is not None:
        table[rows] = np.inf
        table[rows[:, None], locs] = f
    finite = np.isfinite(f)
    if not finite.all():
        blk, j = np.nonzero(~finite)
        keys = np.ravel_multi_index((first[blk] + offsets[j]).T, grid.shape)
        k = int(np.argmin(keys))
        return (int(keys[k]), float(f[blk[k], j[k]])), (math.inf, -1)
    if not boundary.any():
        return None, (math.inf, -1)
    f = f[:, boundary]
    low = f.min()
    blk, j = np.nonzero(f == low)
    keys = np.ravel_multi_index((first[blk] + offsets[boundary][j]).T,
                                grid.shape)
    return None, (float(low), int(keys.min()))


def _band_run(jobs):
    """One half of a group's evaluations: run the `_block_chunk` `jobs` in
    turn and return the first non-finite phi among them in C order,
    (ravel index, phi) or None, and the smallest phi on the box boundary,
    (phi, ravel index)."""
    found = [job() for job in jobs]
    bad = [b for b, _ in found if b is not None]
    return (min(bad) if bad else None,
            min((low for _, low in found), default=(math.inf, -1)))


def _group_values(surface, grid, nb, key, lo, hi):
    """phi on the nodes that the scan reads in block layers lo to hi - 1
    along axis 0, given the live blocks `key` from layer lo - 1 on, or
    None for every block (see `_read_blocks`).  A block's bits give its
    read mask: every node for bit 1, those at offset 0 along axis a for a
    seam face or the low box face, and those at the grid's last node's
    offset along a for the high box face; a last block's nodes off the
    grid are in no mask.  The blocks of each mask are evaluated in two
    halves, one per thread.  Returns the blocks read whole or on a seam
    face, as sorted raveled indices, and their table, a row of phi per
    block with +inf on the nodes not read; a block read only for the box
    boundary gets no row.  Also returns the smallest phi on the box
    boundary, (phi, ravel index).  Raises GridError at the first
    non-finite phi in C order."""
    dim = nb.size
    blocks, bits = _read_blocks(key, nb, lo, hi)
    row = (bits & ((2 << dim) - 1)) != 0
    slot = np.cumsum(row) - 1
    table = np.empty((int(row.sum()), _BLOCK ** dim))
    order = np.argsort(bits, kind="stable")
    starts = np.flatnonzero(np.diff(bits[order], prepend=-1))
    codes = bits[order[starts]]
    # each code's read mask, and the box boundary within it
    bit = (codes[:, None, None] >> np.arange(1 + 3 * dim)) & 1 == 1
    seam = bit[..., 1:1 + dim]
    low, high = bit[..., 1 + dim::2], bit[..., 2 + dim::2]
    offsets = _block_nodes(dim)
    last = np.asarray(grid.n_cells) - _BLOCK * (nb - 1)
    at0 = offsets == 0
    boundary = ((low & at0) | (high & (offsets == last))).any(axis=2)
    read = (bit[..., 0] | (seam & at0).any(axis=2) | boundary) & ~(
        high & (offsets > last)).any(axis=2)
    reads = [(np.flatnonzero(r), b[r]) for r, b in zip(read, boundary)]
    # each code's blocks in two halves, one per thread
    halves = ([], [])
    for (locs, on_box), members in zip(reads, np.split(order, starts[1:])):
        step = max(1, _PHI_CALL_NODES // locs.size)
        for half, part in zip(halves, np.array_split(members, 2)):
            for i in range(0, part.size, step):
                some = part[i:i + step]
                half.append(partial(
                    _block_chunk, surface, grid, nb, blocks[some], locs,
                    on_box, table if row[some[0]] else None, slot[some]))
    (bad_a, low_a), (bad_b, low_b) = _in_pair(
        *(partial(_band_run, half) for half in halves))
    bad = [b for b in (bad_a, bad_b) if b is not None]
    if bad:
        at, f = min(bad)
        raise GridError(
            f"phi evaluated to non-finite values on the grid; first {f} at "
            f"node {_node_text(grid, np.unravel_index(at, grid.shape))}")
    return blocks[row], table, min(low_a, low_b)


def _group_changes(shape, nb, key, rows, table, head, out):
    """Append to out[a], per axis a, the sign changes (base indices, phi
    at the low end, phi at the high end) in cut order on the intervals
    from the nodes of the live blocks `key`, sorted raveled indices in the
    grid `nb` of blocks.  `table` and then `head`, the rows of the next
    group's first layer, hold phi by blocks, a row per block of the sorted
    raveled indices `rows`, which list every live block and each next
    block along an axis whose face the intervals from its last layer end
    on; a missing block past the grid reads +inf, outside the level
    set."""
    dim = nb.size
    width = _BLOCK ** dim
    cube = (-1,) + (_BLOCK,) * dim
    head = np.concatenate([head, np.full((1, width), np.inf)])
    inside = np.concatenate([table <= 0.0, head <= 0.0])
    own = np.searchsorted(rows, key)
    own_in = inside[own].reshape(cube)
    high_in = np.empty_like(own_in)
    block = np.stack(np.unravel_index(key, nb), axis=1)
    first, offsets = _BLOCK * block, _block_nodes(dim)
    # a node's raveled index: its block's first node's plus its offset's
    corner = np.ravel_multi_index(first.T, shape)
    step = np.ravel_multi_index(offsets.T, shape)
    flat = table.ravel()
    for a, (stride, s) in enumerate(zip(_strides(nb),
                                        _strides(np.full(dim, _BLOCK)))):
        up = np.where(block[:, a] < nb[a] - 1,
                      np.searchsorted(rows, key + stride), rows.size)
        # the node after each along a: in its block, or from the block's
        # last layer at offset 0 of the next block
        mine, after = (np.moveaxis(x, 1 + a, 1) for x in (own_in, high_in))
        after[:, :-1] = mine[:, 1:]
        after[:, -1] = np.moveaxis(inside.reshape(cube), 1 + a, 1)[up, 0]
        blk, loc = np.divmod(np.flatnonzero(own_in != high_in), width)
        order = np.argsort(corner[blk] + step[loc])
        blk, loc = blk[order], loc[order]
        across = offsets[loc, a] == _BLOCK - 1
        hi_row = np.where(across, up[blk], own[blk])
        hi_loc = loc + np.where(across, (1 - _BLOCK) * s, s)
        # the high ends in the next group's first layer read its rows
        f_hi = flat[np.minimum(hi_row, len(table) - 1) * width + hi_loc]
        later = np.flatnonzero(hi_row >= len(table))
        f_hi[later] = head[hi_row[later] - len(table), hi_loc[later]]
        out[a].append((first[blk] + offsets[loc],
                       flat[own[blk] * width + loc], f_hi))


def _band_scan(surface, grid, live):
    """The scan of the narrow band, the `_live_blocks` `live` (every block
    for None), in groups of whole block layers along axis 0, each of one
    layer or of at most (dim + 1) _PHI_CALL_NODES nodes of live blocks,
    so that its table holds no more than one phi call's buffers.  A
    group's nodes are read once (`_group_values`); its sign changes
    (`_group_changes`) are taken once the next group's first layer is
    read, and its table is then dropped.  Raises GridError after the last
    group if a boundary node has phi <= 0: after that no interval from a
    node of the grid to one off it changes sign.  Returns, per axis, the
    base indices of the changing intervals in cut order and phi at both
    ends of each."""
    n = np.asarray(grid.n_cells)
    dim = n.size
    nb = n // _BLOCK + 1
    layer = math.prod(nb[1:])
    count = (np.full(nb[0], layer) if live is None
             else np.bincount(live // layer, minlength=nb[0]))
    # a phi call holds dim + 1 float64 per node, a table one
    cap = _PHI_CALL_NODES * (dim + 1) // _BLOCK ** dim
    starts, held = [0], 0
    for i, c in enumerate(count):
        if held and held + c > cap:
            starts.append(i)
            held = 0
        held += c
    out = [[] for _ in range(dim)]
    worst, prev = (math.inf, -1), None
    for lo, hi in zip(starts, starts[1:] + [nb[0]]):
        # the live blocks from the layer before, for their seams into this
        # group; without a bound every block is live and read whole
        start = max(lo - 1, 0) * layer
        key = None if live is None else live[
            np.searchsorted(live, start):np.searchsorted(live, hi * layer)]
        rows, table, low = _group_values(surface, grid, nb, key, lo, hi)
        worst = min(worst, low)
        if prev is not None:
            head = np.searchsorted(rows, (lo + 1) * layer)
            _group_changes(grid.shape, nb, prev[0],
                           np.concatenate([prev[1], rows[:head]]), prev[2],
                           table[:head], out)
        prev = (np.arange(lo * layer, hi * layer) if key is None
                else key[key >= lo * layer]), rows, table
    _group_changes(grid.shape, nb, *prev, table[:0], out)
    if worst[0] <= 0.0:
        raise GridError(
            f"level set is not strictly inside the grid box (min boundary "
            f"phi = {worst[0]:.3e} at node "
            f"{_node_text(grid, np.unravel_index(worst[1], grid.shape))})")
    return [tuple(map(np.concatenate, zip(*parts))) for parts in out]


def _admissible_mask(normals, axis, eta):
    """Admissibility filter: keep cuts whose free-axis normal component is
    at least eta in magnitude.  An all-False result is not an error."""
    normals = np.atleast_2d(normals)
    ax = np.broadcast_to(np.asarray(axis), normals.shape[:1])
    return np.abs(normals[np.arange(normals.shape[0]), ax]) >= eta


def _interval_cuts(surface, grid, axis, base, f_lo, f_hi):
    """The cut point on each interval along `axis` from the nodes `base`,
    given phi at both ends of each, to within BISECT_TOL of a step."""
    p_lo = np.asarray(grid.origin) + grid.h * base
    p_hi = p_lo.copy()
    p_hi[:, axis] += grid.h
    lo_is_in = f_lo <= 0.0
    p_in = np.where(lo_is_in[:, None], p_lo, p_hi)
    p_out = np.where(lo_is_in[:, None], p_hi, p_lo)
    return _batch_illinois(surface, p_in, p_out,
                           np.where(lo_is_in, f_lo, f_hi),
                           np.where(lo_is_in, f_hi, f_lo), axis, BISECT_TOL)


def _locate_cuts(surface, grid):
    """Per axis, the base indices of all sign-change intervals and the cut
    point on each, in the cut order of the module docstring.  The scan and
    the root steps run on this thread and a worker: each axis's intervals
    are located in two halves, and the halves join in order."""
    out = []
    for axis, (base, f_lo, f_hi) in enumerate(
            _scan_sign_changes(surface, grid)):
        cut = (base.shape[0] + 1) // 2
        halves = [partial(_interval_cuts, surface, grid, axis, base[part],
                          f_lo[part], f_hi[part])
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
    h, lies on another sheet of the level set and the slot stays -1.  A
    dense table of the d (N+3)^(d-1) column ids gives each column's head
    and count among the points sorted by column.
    """
    n_tot, dim = positions.shape
    idx = np.arange(n_tot)
    chart = np.stack([base[idx, c] for c in chart_axes(axis, dim)], axis=1)
    bmax = max(grid.n_cells) + 3
    key = _column_key(axis, chart, bmax)
    pos_free = positions[idx, axis]
    order = np.argsort(key, kind="stable")
    s_pos = pos_free[order]
    count = np.bincount(key, minlength=dim * bmax ** (dim - 1))
    head = np.cumsum(count) - count
    widest = int(count.max())

    p_pos = pos_free[:n_p]
    offsets = np.asarray(STENCIL_OFFSETS[dim])
    reach = (np.linalg.norm(offsets, axis=1) * math.sqrt(1.0 - eta ** 2)
             / eta + 1.0) * grid.h
    # the column key is linear in the chart indices
    shift = offsets @ bmax ** np.arange(dim - 2, -1, -1)
    out = np.empty((n_p, len(offsets)), dtype=np.int64)

    def fill(slots):
        for slot in slots:
            qkey = key[:n_p] + shift[slot]
            first, many = head[qkey], count[qkey]
            for k in range(widest):
                j = np.minimum(first + k, n_tot - 1)
                pos = s_pos[j]
                d = np.abs(pos - p_pos)
                d[many <= k] = np.inf
                if k == 0:
                    best, best_d = j, d
                    continue
                # nearest; of two at one distance, the lower lies below p
                better = (d < best_d) | ((d == best_d) & (pos < p_pos))
                np.copyto(best, j, where=better)
                np.copyto(best_d, d, where=better)
            out[:, slot] = np.where(best_d <= reach[slot], order[best], -1)

    # each slot fills its own column; half the slots on the worker
    half = len(offsets) // 2
    _in_pair(partial(fill, range(half)),
             partial(fill, range(half, len(offsets))))
    return out


def _admissible_cuts(surface, grid, eta):
    """The located cuts, snapped and deduplicated, that pass the
    admissibility test, in cut order: a dict of the `CUT_ARRAYS` for the
    constructor, and the number that failed the test."""
    located = _locate_cuts(surface, grid)
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
    return (dict(positions=positions[use], axis=axis[use],
                 base_index=base[use], normals=normals[use]),
            int((keep & ~admissible).sum()))


def _interval_key(grid, axis, base):
    """Cut-order key: the index of each cut's interval (axis, base index)."""
    return np.ravel_multi_index(np.vstack([axis.astype(np.int64), base.T]),
                                (len(grid.shape),) + grid.shape)


def _record(grid, eta, cuts):
    """The record the constructor derives from the dict `cuts` of the
    `CUT_ARRAYS`: the `RECORD_ARRAYS` and n_p, before Pi.  Raises
    GridError if the cuts break the cut order or leave their intervals.
    `_primaries_first` empties `cuts`, so only the permuted record is alive
    while `_resolve_neighbors` runs."""
    record = _primaries_first(grid, cuts)
    record["chart_neighbors"] = _resolve_neighbors(
        grid, record["positions"], record["axis"], record["base_index"],
        record["n_p"], eta)
    return record


def _primaries_first(grid, cuts):
    """Check the cut order and that each cut lies on its interval, give
    each cut its closest grid point and role, and return the record fields
    but `chart_neighbors`, primaries first.  Pops the arrays from `cuts`."""
    positions, axis, base, normals = [cuts.pop(name) for name in CUT_ARRAYS]
    dim = positions.shape[1]
    m = positions.shape[0]
    ids = np.arange(m)
    origin = np.asarray(grid.origin)
    scaled = (positions[ids, axis] - origin[axis]) / grid.h
    frac = scaled - base[ids, axis]

    # the cut order holds: at most one cut per grid interval, in order
    bad = np.diff(_interval_key(grid, axis, base)) <= 0
    if bad.any():
        i = int(np.argmax(bad)) + 1
        raise GridError(f"duplicate or out-of-order cut points: the cut on "
                        f"the grid interval along axis {axis[i]} from node "
                        f"{_node_text(grid, base[i])} breaks the cut order")
    # each cut lies on its interval, as located (a snapped one at an end)
    off = ~(np.abs(frac - 0.5) <= 0.5 + _SNAP_TOL)
    if off.any():
        i = int(np.argmax(off))
        raise GridError(f"{int(off.sum())} cut points lie off their grid "
                        f"intervals; first the cut at {positions[i]}, "
                        f"{frac[i]:.6g} steps along axis {axis[i]} from node "
                        f"{_node_text(grid, base[i])}, outside [0, 1]")
    closest = base.copy()
    closest[ids, axis] += frac > 0.5
    theta = np.clip(scaled - closest[ids, axis], -0.5, 0.5)

    # primary = smallest |theta| at its grid point; exact ties go to the
    # lowest base index, then the lowest axis; each cut's owner primary
    group_rep = _owners(np.ravel_multi_index(closest.T, grid.shape),
                        np.abs(theta),
                        np.ravel_multi_index(base.T, grid.shape) * dim + axis)
    is_primary = group_rep == ids

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


def _owners(gp_key, size, rank):
    """The primary of each cut's grid point `gp_key`: the cut of smallest
    `size` there, exact ties to the smallest `rank`.  The cuts come in cut
    order, a few runs of near-sorted grid points, which a stable sort
    merges; two `minimum.reduceat` passes over the groups then pick the
    primary, so no sort by size is needed."""
    order = np.argsort(gp_key, kind="stable")
    first = np.r_[True, np.diff(gp_key[order]) != 0]
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    size = size[order]
    tie = np.where(size == np.minimum.reduceat(size, starts)[group],
                   rank[order], np.iinfo(np.int64).max)
    won = order[tie == np.minimum.reduceat(tie, starts)[group]]
    owner = np.empty(gp_key.size, dtype=np.int64)
    owner[order] = won[group]
    return owner


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
    """Raise ValueError unless eta is a real number and 0 < eta <
    1/sqrt(dim) (see `discretize`)."""
    if not isinstance(eta, numbers.Real):
        raise ValueError(f"eta must be a real number, got {eta!r}")
    if not 0.0 < eta < 1.0 / math.sqrt(dim):
        raise ValueError(f"eta must lie in (0, 1/sqrt({dim})) on a {dim}-D "
                         f"grid, got {eta}")


def _discretize(surface, grid, eta, dim, what):
    """`discretize` on a dim-D grid; `what` names the caller in errors."""
    grid.require_dim(dim, what)
    _check_eta(eta, dim)
    cuts, dropped = _admissible_cuts(surface, grid, eta)
    return SurfaceDiscretization(grid, eta, cuts, surface.kind,
                                 surface.params, dropped)


def discretize(surface, grid, eta=0.45):
    """Build the cut-point discretization of `surface` on `grid`.

    Parameters
    ----------
    surface : LevelSetSurface
    grid : Grid
        A 3-D grid (GridError otherwise) that strictly contains the
        surface (checked on phi at every box-boundary node).  phi is
        evaluated once per node on the box faces and in the narrow band
        of grid blocks that the gradient bound (`surface.grad_bound`)
        does not certify free of sign changes; without a bound the band
        is every block and phi is evaluated once per grid node.  For any
        phi, working memory is the O(N^2) per-cut arrays plus one group
        of block layers, not the (N+1)^3 grid (see
        `_scan_sign_changes`).  The evaluations, the root steps and the
        stencil lookup run on two threads (this one and a worker).
        A non-finite phi or a boundary node with phi <= 0 raises
        GridError naming the node: the first non-finite phi in C order
        among the nodes evaluated, so a non-finite phi in a certified
        block, away from the surface and the box faces, is not seen.
    eta : float
        Admissibility threshold on |n_nu| at the cut point, a real number
        with 0 < eta < 1/sqrt(3) (ValueError otherwise): a unit normal
        has a component of at least 1/sqrt(3), so every crossing keeps an
        admissible axis.

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
