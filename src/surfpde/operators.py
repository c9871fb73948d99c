"""Discrete surface operators on cut-point sets.

Each primary point carries a chart over the other coordinate axes; the
level set is locally a graph with slopes read off the stored unit normals.
The chart is two-dimensional on a surface (3x3 stencil) and one-dimensional
on a plane curve (offsets -1 and +1); the chart metric and the
divergence-form Laplace-Beltrami operator are assembled the same way for
both, with the chart axes, the stencil slots and the row width taken from
the discretization.  The nondivergence form (closed-form coefficients) is
sphere only.  L is written straight into CSR from the fixed-width stencil
rows: columns sorted within each row, absent slots dropped, with no COO
triplets and no row-index array.  Explicit chart differences (upwinding,
switched viscosity) are products with the one matrix that
`SurfaceDiscretization.chart_differences` builds once per discretization:
n_p rows per chart axis, the forward blocks over the backward ones.  Each
operator reads the blocks it needs; with the extension matrix E as
operand they act on primary values alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .discretization import (SLOT_E, SLOT_N, SLOT_NE, SLOT_NW, SLOT_S,
                             SLOT_SE, SLOT_SW, SLOT_W, STENCIL_OFFSETS,
                             _axis_slot_pairs, chart_axes)
from .errors import StencilError
from .linalg import _in_pair

_TANGENCY_TOL = 1e-10  # relative normal velocity that advection warns above


@dataclass
class ChartMetric:
    """Per-point metric data of the local graph charts (arrays over all points).

    On a plane curve the chart has one axis: w2 = 0, so g12 = 0 and
    a11 = sqrt(g) g^{11} = |n_axis|.
    """
    w1: np.ndarray       # chart slope along first chart axis
    w2: np.ndarray       # along the second (0 on a curve)
    g: np.ndarray        # metric determinant 1 + w1^2 + w2^2
    sqrt_g: np.ndarray
    g11: np.ndarray      # inverse metric components
    g12: np.ndarray
    g22: np.ndarray
    a11: np.ndarray      # sqrt(g) * g^{ij}
    a12: np.ndarray
    a22: np.ndarray


def chart_metric(disc):
    """Metric quantities at every cut point, from the stored unit normals."""
    n = disc.normals
    ax = disc.axis.astype(np.int64)
    idx = np.arange(disc.n_tot)
    n_free = n[idx, ax]
    # a plane curve's chart has one axis; its second slope is 0
    w1, w2 = ([-n[idx, c] / n_free for c in chart_axes(ax, n.shape[1])]
              + [np.zeros(disc.n_tot)])[:2]
    g = 1.0 + w1 ** 2 + w2 ** 2
    sqrt_g = np.sqrt(g)
    g11 = (1.0 + w2 ** 2) / g
    g22 = (1.0 + w1 ** 2) / g
    g12 = -w1 * w2 / g
    return ChartMetric(w1=w1, w2=w2, g=g, sqrt_g=sqrt_g, g11=g11, g12=g12,
                       g22=g22, a11=sqrt_g * g11, a12=sqrt_g * g12,
                       a22=sqrt_g * g22)


def primary_chart_axes(disc):
    """Chart coordinate axes for each primary point: (c1, c2) on a surface,
    (c1,) on a plane curve."""
    ax = disc.axis[:disc.n_p].astype(np.int64)
    return chart_axes(ax, disc.positions.shape[1])


def divergence_weights(a11_n, a22_n, a12_n, a11_c, a22_c, a12_c, g12_c,
                       sqrt_g_c, h):
    """Stencil weights of the divergence-form operator.

    Neighbor coefficient arrays have shape (m, width) in slot order, width 8
    on a surface and 2 on a plane curve; center values shape (m,).  Returns
    (m, width + 1) weights, last column the center.  Each chart axis gets
    averaged coefficients at its (minus, plus) slots.  On a surface the
    cross terms follow sign(g12) at the center: the ⟋ diagonal pair for
    g12 >= 0, the ⟍ pair otherwise, so every averaged coefficient that
    multiplies an off-center value is nonnegative wherever g12 does not
    change sign across the stencil.
    """
    m, width = a11_n.shape
    dim, = (d for d, offs in STENCIL_OFFSETS.items() if len(offs) == width)
    w = np.zeros((m, width + 1))
    pos = g12_c >= 0.0

    # each axis reads its coefficient only at its own (minus, plus) slots
    for pair, aii_n, aii_c in zip(_axis_slot_pairs(dim), (a11_n, a22_n),
                                  (a11_c, a22_c)):
        ii_n, i12_n = aii_n[:, pair], a12_n[:, pair]
        ta_n = np.where(pos[:, None], ii_n - i12_n, ii_n + i12_n)
        ta_c = np.where(pos, aii_c - a12_c, aii_c + a12_c)
        w[:, pair] = 0.5 * (ta_n + ta_c[:, None])
    if dim == 3:
        w[:, SLOT_NE] = np.where(pos, 0.5 * (a12_n[:, SLOT_NE] + a12_c), 0.0)
        w[:, SLOT_SW] = np.where(pos, 0.5 * (a12_n[:, SLOT_SW] + a12_c), 0.0)
        w[:, SLOT_NW] = np.where(pos, 0.0, -0.5 * (a12_n[:, SLOT_NW] + a12_c))
        w[:, SLOT_SE] = np.where(pos, 0.0, -0.5 * (a12_n[:, SLOT_SE] + a12_c))
    w[:, width] = -w[:, :width].sum(axis=1)
    w /= (sqrt_g_c * h * h)[:, None]
    return w


def nondivergence_weights(g11_c, g22_c, g12_c, b1_c, b2_c, h):
    """Stencil weights of the nondivergence-form operator (center coefficients)."""
    m = g11_c.shape[0]
    w = np.zeros((m, 9))
    h2 = h * h
    pos = g12_c >= 0.0
    d1 = np.where(pos, g11_c - g12_c, g11_c + g12_c) / h2
    d2 = np.where(pos, g22_c - g12_c, g22_c + g12_c) / h2
    w[:, SLOT_E] = d1 + b1_c / (2.0 * h)
    w[:, SLOT_W] = d1 - b1_c / (2.0 * h)
    w[:, SLOT_N] = d2 + b2_c / (2.0 * h)
    w[:, SLOT_S] = d2 - b2_c / (2.0 * h)
    w[:, SLOT_NE] = np.where(pos, g12_c / h2, 0.0)
    w[:, SLOT_SW] = np.where(pos, g12_c / h2, 0.0)
    w[:, SLOT_NW] = np.where(pos, 0.0, -g12_c / h2)
    w[:, SLOT_SE] = np.where(pos, 0.0, -g12_c / h2)
    w[:, 8] = -2.0 * (d1 + d2) - 2.0 * np.abs(g12_c) / h2
    return w


def _sphere_chart_coefficients(disc):
    r2 = float(disc.surface_params.get("radius", 1.0)) ** 2
    c1, c2 = primary_chart_axes(disc)
    idx = np.arange(disc.n_p)
    xi1 = disc.positions[idx, c1]
    xi2 = disc.positions[idx, c2]
    g11 = (r2 - xi1 ** 2) / r2
    g22 = (r2 - xi2 ** 2) / r2
    g12 = -xi1 * xi2 / r2
    b1 = -2.0 * xi1 / r2
    b2 = -2.0 * xi2 / r2
    return g11, g22, g12, b1, b2


def laplace_beltrami(disc, form="divergence"):
    """Assemble the discrete Laplace-Beltrami operator, one row per primary.

    The stencil is the primary's chart stencil plus its center: 3x3 (9
    entries per row) on a surface, offsets -1, 0, +1 (3 entries) on a
    plane curve, where the divergence form is the second arclength
    derivative.  Returns an (n_p, n_tot) CSR matrix acting on full
    (equilibrated) fields.  Constants are annihilated exactly in divergence
    form by construction and in nondivergence form by the symmetric second
    differences.

    A stencil slot may be unresolved (no cut point on that chart column) as
    long as its weight vanishes; the branch on sign(g12) leaves one diagonal
    pair unused per point, which is what makes steep regions assemblable.
    Unresolved slots are left out of the matrix; resolved ones are stored
    even where their weight is 0, and every row's columns are sorted, so
    the result is in canonical format.
    """
    if form not in ("divergence", "nondivergence"):
        raise ValueError(f"unknown form {form!r}; "
                         "use 'divergence' or 'nondivergence'")
    if form == "nondivergence" and disc.surface_kind != "sphere":
        raise ValueError(
            "nondivergence form uses closed-form sphere coefficients; "
            f"surface kind is {disc.surface_kind!r} (use form='divergence')")
    n_p, n_tot = disc.n_p, disc.n_tot
    nb = disc.chart_neighbors
    if form == "divergence":
        w = _divergence_form_weights(disc)
    else:
        w = nondivergence_weights(*_sphere_chart_coefficients(disc), disc.h)
    width = nb.shape[1]
    absent = nb < 0
    bad = absent & (w[:, :width] != 0.0)
    if bad.any():
        i, s = map(int, np.argwhere(bad)[0])
        raise StencilError(
            f"{form}-form Laplace-Beltrami assembly: "
            f"{int(bad.any(axis=1).sum())} primary points lack a stencil "
            f"neighbor carrying nonzero weight; first at {disc.positions[i]} "
            f"(set Gamma_{int(disc.axis[i]) + 1}), offset "
            f"{disc.offsets[s]}. Try a finer grid or a smaller eta "
            f"(eta={disc.eta}).")
    # the CSR arrays straight from the fixed-width rows: an absent slot
    # gets column n_tot, which sorts after every point and is dropped
    itype = np.int32 if max(n_tot, nb.size + n_p) < 2 ** 31 else np.int64
    cols = np.empty((n_p, width + 1), dtype=itype)
    cols[:, :width] = np.where(absent, n_tot, nb)
    cols[:, width] = np.arange(n_p)
    order = np.argsort(cols, axis=1)
    cols = np.take_along_axis(cols, order, axis=1)
    w = np.take_along_axis(w, order, axis=1)
    keep = cols < n_tot
    indptr = np.zeros(n_p + 1, dtype=itype)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return sp.csr_matrix((w[keep], cols[keep], indptr), shape=(n_p, n_tot))


def _divergence_form_weights(disc):
    """`divergence_weights` of every primary.  Of the ten chart-metric
    arrays only the five the weights read outlive `chart_metric`."""
    n_p = disc.n_p
    met = chart_metric(disc)
    coeffs = (met.a11, met.a22, met.a12)
    g12_c, sqrt_g_c = met.g12[:n_p], met.sqrt_g[:n_p]
    del met
    nb = disc.chart_neighbors
    return divergence_weights(*(c[nb] for c in coeffs),
                              *(c[:n_p] for c in coeffs), g12_c, sqrt_g_c,
                              disc.h)


def reduced_operator(op, disc):
    """Fold equilibration into an operator: A_red = A E, acting on primaries."""
    return (op @ disc.extension_matrix()).tocsr()


def reduced_laplace_beltrami(disc, form="divergence"):
    """The reduced Laplace-Beltrami operator L E, (n_p, n_p) on primaries.

    L and the extension matrix E do not depend on each other, so a worker
    thread builds E (cached on `disc` like every `extension_matrix()`
    call) while this thread assembles L; the product is taken after both.
    An error raised assembling L reaches the caller unchanged once E is
    done.
    """
    op, _ = _in_pair(partial(laplace_beltrami, disc, form),
                     disc.extension_matrix)
    return reduced_operator(op, disc)


def tangential_projection(vectors, normals):
    """Project vectors onto the tangent planes of the given unit normals."""
    vectors = np.asarray(vectors, dtype=float)
    normals = np.asarray(normals, dtype=float)
    # one component at a time: a sum over the strided length-3 axis is slow
    v, n = vectors, normals
    dot = v[..., 0] * n[..., 0] + v[..., 1] * n[..., 1] + v[..., 2] * n[..., 2]
    return vectors - dot[..., None] * normals


def advection_coefficients(disc, velocity):
    """Chart components (v1, v2) of a tangential velocity at primary points.

    The chart components of a tangent vector equal its Cartesian components
    along the chart's free coordinate axes.  Warns if the supplied field has
    a normal component beyond _TANGENCY_TOL relative.
    """
    pos = disc.positions[:disc.n_p]
    v = np.asarray(velocity(pos), dtype=float)
    if v.shape != pos.shape:
        raise ValueError(f"velocity must return shape {pos.shape}, "
                         f"got {v.shape}")
    n = disc.normals[:disc.n_p]
    normal_part = np.abs((v * n).sum(axis=1))
    scale = np.linalg.norm(v, axis=1) + 1e-300
    worst = float((normal_part / scale).max(initial=0.0))
    if worst > _TANGENCY_TOL:
        warnings.warn(f"velocity field is not tangential: max relative "
                      f"normal component {worst:.3e}", stacklevel=2)
    c1, c2 = primary_chart_axes(disc)
    idx = np.arange(disc.n_p)
    return v[idx, c1], v[idx, c2]


def sphere_geometry_weights(disc):
    """Weights of the sphere's chart geometry term, shape (3, n_p).

    Row c holds x_c / height^2 where c is a chart axis of the primary and
    0 on its normal axis, so `(w * v).sum(axis=0)` is
    (xi1 v_c1 + xi2 v_c2) / height^2 for Cartesian component rows v.
    """
    n_p = disc.n_p
    idx = np.arange(n_p)
    ax = disc.axis[:n_p].astype(np.int64)
    pos = disc.positions[:n_p]
    w = np.ascontiguousarray(pos.T) / pos[idx, ax] ** 2
    w[ax, idx] = 0.0
    return w


def upwind_differences(disc, field, direction):
    """One-sided chart differences (D1, D2) of a field at primary points,
    one per chart axis: (D1,) on a plane curve.

    direction='forward' reads the top half of `chart_differences()` (E/N
    neighbors), 'backward' the bottom half (W/S).  Works on scalar fields
    (n_tot,), stacked components (n_tot, m) and sparse operands: with E it
    gives (n_p, n_p) matrices acting on primary values.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', "
                         f"got {direction!r}")
    diffs, n_p = disc.chart_differences(), disc.n_p
    half = diffs.shape[0] // 2
    rows = slice(None, half) if direction == "forward" else slice(half, None)
    d = diffs[rows] @ field / disc.h
    return tuple(d[a:a + n_p] for a in range(0, half, n_p))


def _magnitude(diffs):
    """|D| at each primary from (chart axis, component, n_p) differences;
    the squares add in place, where `sum` would allocate each partial."""
    sq = diffs[0] ** 2
    for d in diffs[1:]:
        sq += d ** 2
    return np.sqrt(sq.sum(axis=0))


def artificial_viscosity(disc, field, nu, k):
    """Switched diffusion increment nu*k*h * sum_i(|D+|D_i+ - |D-|D_i-).

    The gradient-magnitude switch couples the chart directions; for vector
    fields a single magnitude over all components scales every component's
    differences.  Returns increments at primary points.
    """
    f = np.asarray(field, dtype=float)
    diffs = disc.chart_differences()
    # one product per component row, on contiguous rows (m, 2 (d-1) n_p)
    d = np.stack([diffs @ row for row in f.reshape(f.shape[0], -1).T])
    d /= disc.h
    # forward and backward, each (chart axis, component, n_p); the sums
    # over chart axes run one axis at a time, not strided
    dp, dm = d.reshape(len(d), 2, -1, disc.n_p).transpose(1, 2, 0, 3)
    mag_p, mag_m = _magnitude(dp), _magnitude(dm)
    incr = nu * k * disc.h * (mag_p * sum(dp[1:], dp[0])
                              - mag_m * sum(dm[1:], dm[0]))
    return incr.T.reshape((disc.n_p,) + f.shape[1:])
