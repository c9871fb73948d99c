"""Discrete surface operators on cut-point sets.

Each primary point carries a chart over its coordinate plane; the surface is
locally a graph with slopes read off the stored unit normals.  The
Laplace-Beltrami operator is built on the 3x3 chart stencil in either
divergence form (metric-weighted second differences, nonnegative off-diagonal
weights) or nondivergence form (sphere only, closed-form coefficients).
Explicit chart differences (upwinding, switched viscosity, the sphere's
surface divergence) are products with the one-sided difference matrices
that `SurfaceDiscretization.chart_differences` builds once per
discretization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .discretization import (NEIGHBOR_OFFSETS, SLOT_E, SLOT_N, SLOT_NE,
                             SLOT_NW, SLOT_S, SLOT_SE, SLOT_SW, SLOT_W)
from .errors import StencilError
from .linalg import assemble_csr


@dataclass
class ChartMetric:
    """Per-point metric data of the local graph charts (arrays over all points)."""
    w1: np.ndarray       # chart slope along first chart axis
    w2: np.ndarray
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
    c1 = (ax + 1) % 3
    c2 = (ax + 2) % 3
    n_free = n[idx, ax]
    w1 = -n[idx, c1] / n_free
    w2 = -n[idx, c2] / n_free
    g = 1.0 + w1 ** 2 + w2 ** 2
    sqrt_g = np.sqrt(g)
    g11 = (1.0 + w2 ** 2) / g
    g22 = (1.0 + w1 ** 2) / g
    g12 = -w1 * w2 / g
    return ChartMetric(w1=w1, w2=w2, g=g, sqrt_g=sqrt_g, g11=g11, g12=g12,
                       g22=g22, a11=sqrt_g * g11, a12=sqrt_g * g12,
                       a22=sqrt_g * g22)


def primary_chart_axes(disc):
    """(c1, c2) chart coordinate axes for each primary point."""
    ax = disc.axis[:disc.n_p].astype(np.int64)
    return (ax + 1) % 3, (ax + 2) % 3


def divergence_weights(a11_n, a22_n, a12_n, a11_c, a22_c, a12_c, g12_c,
                       sqrt_g_c, h):
    """Stencil weights of the divergence-form operator.

    Neighbor coefficient arrays have shape (m, 8) in slot order; center
    values shape (m,).  Returns (m, 9) weights, last column the center.
    The branch follows sign(g12) at the center: the ⟋ diagonal pair for
    g12 >= 0, the ⟍ pair otherwise, so every averaged coefficient that
    multiplies an off-center value is nonnegative wherever g12 does not
    change sign across the stencil.
    """
    m = a11_c.shape[0]
    w = np.zeros((m, 9))
    pos = g12_c >= 0.0

    ta1_n = np.where(pos[:, None], a11_n - a12_n, a11_n + a12_n)
    ta1_c = np.where(pos, a11_c - a12_c, a11_c + a12_c)
    ta2_n = np.where(pos[:, None], a22_n - a12_n, a22_n + a12_n)
    ta2_c = np.where(pos, a22_c - a12_c, a22_c + a12_c)

    w[:, SLOT_E] = 0.5 * (ta1_n[:, SLOT_E] + ta1_c)
    w[:, SLOT_W] = 0.5 * (ta1_n[:, SLOT_W] + ta1_c)
    w[:, SLOT_N] = 0.5 * (ta2_n[:, SLOT_N] + ta2_c)
    w[:, SLOT_S] = 0.5 * (ta2_n[:, SLOT_S] + ta2_c)
    w[:, SLOT_NE] = np.where(pos, 0.5 * (a12_n[:, SLOT_NE] + a12_c), 0.0)
    w[:, SLOT_SW] = np.where(pos, 0.5 * (a12_n[:, SLOT_SW] + a12_c), 0.0)
    w[:, SLOT_NW] = np.where(pos, 0.0, -0.5 * (a12_n[:, SLOT_NW] + a12_c))
    w[:, SLOT_SE] = np.where(pos, 0.0, -0.5 * (a12_n[:, SLOT_SE] + a12_c))
    w[:, 8] = -w[:, :8].sum(axis=1)
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

    Returns an (n_p, n_tot) CSR matrix acting on full (equilibrated) fields.
    Constants are annihilated exactly in divergence form by construction and
    in nondivergence form by the symmetric second differences.

    A stencil slot may be unresolved (no cut point on that chart column) as
    long as its weight vanishes; the branch on sign(g12) leaves one diagonal
    pair unused per point, which is what makes steep regions assemblable.
    """
    if form not in ("divergence", "nondivergence"):
        raise ValueError(f"unknown form {form!r}; "
                         "use 'divergence' or 'nondivergence'")
    if form == "nondivergence" and disc.surface_kind != "sphere":
        raise ValueError(
            "nondivergence form uses closed-form sphere coefficients; "
            f"surface kind is {disc.surface_kind!r} (use form='divergence')")
    n_p = disc.n_p
    nb = disc.chart_neighbors
    if form == "divergence":
        met = chart_metric(disc)
        w = divergence_weights(met.a11[nb], met.a22[nb], met.a12[nb],
                               met.a11[:n_p], met.a22[:n_p], met.a12[:n_p],
                               met.g12[:n_p], met.sqrt_g[:n_p], disc.h)
    else:
        g11, g22, g12, b1, b2 = _sphere_chart_coefficients(disc)
        w = nondivergence_weights(g11, g22, g12, b1, b2, disc.h)
    cols = np.hstack([nb, np.arange(n_p)[:, None]])
    absent = cols < 0
    bad = absent & (w != 0.0)
    if bad.any():
        i, s = map(int, np.argwhere(bad)[0])
        raise StencilError(
            f"{form}-form Laplace-Beltrami assembly: "
            f"{int(bad.any(axis=1).sum())} primary points lack a stencil "
            f"neighbor carrying nonzero weight; first at {disc.positions[i]} "
            f"(set Gamma_{int(disc.axis[i]) + 1}), offset "
            f"{NEIGHBOR_OFFSETS[s]}. Try a finer grid or a smaller eta "
            f"(eta={disc.eta}).")
    rows = np.repeat(np.arange(n_p), 9)
    keep = ~absent.ravel()
    return assemble_csr(rows[keep], cols.ravel()[keep], w.ravel()[keep],
                        (n_p, disc.n_tot))


def reduced_operator(op, disc):
    """Fold equilibration into an operator: A_red = A E, acting on primaries."""
    return (op @ disc.extension_matrix()).tocsr()


def tangential_projection(vectors, normals):
    """Project vectors onto the tangent planes of the given unit normals."""
    vectors = np.asarray(vectors, dtype=float)
    normals = np.asarray(normals, dtype=float)
    dot = (vectors * normals).sum(axis=-1, keepdims=True)
    return vectors - dot * normals


def advection_coefficients(disc, velocity, tangency_tol=1e-10):
    """Chart components (v1, v2) of a tangential velocity at primary points.

    The chart components of a tangent vector equal its Cartesian components
    along the chart's free coordinate axes.  Warns if the supplied field has
    a normal component beyond `tangency_tol` relative.
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
    if worst > tangency_tol:
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


def sphere_surface_divergence(disc, vec_full):
    """Surface divergence of a tangential field on the sphere, per primary.

    Chart derivatives are centered differences, the mean of the forward
    and backward ones, of the Cartesian chart components; the geometric
    factor (xi_i / height^2) is exact for the sphere.  `vec_full` holds
    equilibrated Cartesian vectors at all points.
    """
    if disc.surface_kind != "sphere":
        raise ValueError("closed-form surface divergence only on the sphere")
    v = np.asarray(vec_full, dtype=float)
    n_p = disc.n_p
    d = (disc.chart_differences() @ v).reshape(2, 2, n_p, 3)
    centred = (d[0] + d[1]) / (2.0 * disc.h)
    c1, c2 = primary_chart_axes(disc)
    idx = np.arange(n_p)
    geo = (sphere_geometry_weights(disc) * v[:n_p].T).sum(axis=0)
    return centred[0, idx, c1] + centred[1, idx, c2] + geo


def upwind_differences(disc, field, direction):
    """One-sided chart differences (D1, D2) of a field at primary points.

    direction='forward' uses E/N neighbors, 'backward' uses W/S.  Works on
    scalar fields (n_tot,) or stacked components (n_tot, m).
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', "
                         f"got {direction!r}")
    d = disc.chart_differences(direction) @ np.asarray(field, dtype=float)
    d /= disc.h
    return d[:disc.n_p], d[disc.n_p:]


def artificial_viscosity(disc, field, nu, k):
    """Switched diffusion increment nu*k*h * sum_i(|D+|D_i+ - |D-|D_i-).

    The gradient-magnitude switch couples the two chart directions; for
    vector fields a single magnitude over all components scales every
    component's differences.  Returns increments at primary points.
    """
    f = np.asarray(field, dtype=float)
    diffs = disc.chart_differences()
    # one product per component row, on contiguous rows (m, 4 n_p)
    d = np.stack([diffs @ row for row in f.reshape(f.shape[0], -1).T])
    d /= disc.h
    d = d.reshape(-1, 2, 2, disc.n_p).transpose(1, 2, 0, 3)
    (dp1, dp2), (dm1, dm2) = d
    mag_p = np.sqrt((dp1 ** 2 + dp2 ** 2).sum(axis=0))
    mag_m = np.sqrt((dm1 ** 2 + dm2 ** 2).sum(axis=0))
    incr = nu * k * disc.h * (mag_p * (dp1 + dp2) - mag_m * (dm1 + dm2))
    return incr.T.reshape((disc.n_p,) + f.shape[1:])


def row_sign_structure(lb, disc, metric=None):
    """Diagnostics of the stencil sign pattern of an assembled operator.

    Returns (min_offdiag_uniform, max_center_uniform, min_offdiag_all,
    max_abs_rowsum): the first two taken over the rows whose stencil carries a
    uniform-sign g12 (where the sign guarantees apply), the last two global.
    """
    lb = lb.tocsr()
    n_p = disc.n_p
    met = metric if metric is not None else chart_metric(disc)
    nb = disc.chart_neighbors
    center = met.g12[:n_p][:, None]
    # absent slots contribute nothing; count them with the center's sign
    g12_stencil = np.hstack([np.where(nb >= 0, met.g12[nb], center), center])
    uniform = (g12_stencil >= 0.0).all(axis=1) | (g12_stencil <= 0.0).all(axis=1)

    dense_rows_min = np.full(n_p, np.inf)
    center = np.empty(n_p)
    rowsum = np.empty(n_p)
    indptr, indices, data = lb.indptr, lb.indices, lb.data
    for i in range(n_p):
        sl = slice(indptr[i], indptr[i + 1])
        cols = indices[sl]
        vals = data[sl]
        is_center = cols == i
        center[i] = vals[is_center].sum()
        off = vals[~is_center]
        dense_rows_min[i] = off.min(initial=np.inf)
        rowsum[i] = vals.sum()
    return (float(dense_rows_min[uniform].min()),
            float(center[uniform].max()),
            float(dense_rows_min.min()),
            float(np.abs(rowsum).max()))
