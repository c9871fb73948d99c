"""Closed curves in the plane: the one-dimensional analogue of the surface
discretization, used to study resolvent positivity of the reduced Laplacian.

A curve is a `geometry.LevelSetSurface` whose phi and gradient act on
(..., 2) points, and it is discretized on a 2-D `discretization.Grid`.
Cut points are taken on grid intervals in two direction sets; each primary
point differences along the grid axis transverse to its interval, with
coefficients built from the arclength density.  The cut points, roles,
stencil neighbors and interpolation blocks come from the construction core
in `discretization`, shared with surfaces, and so do the result class
`SurfaceDiscretization` and equilibration: the extension matrix E is its
only route.  This module adds the curve-only parts: the catalog curves,
the coverage gap above eta = 1/sqrt(2), the stencil coefficients,
and, explicitly, the near-M-matrix of the positivity argument and the row
operations that finish it, so the structural claims can be checked directly
instead of only observing signs of the inverse.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .discretization import (SurfaceDiscretization, _cut_points,
                             _with_interpolation)
from .geometry import LevelSetSurface
from .linalg import Factorization, assemble_csr, resolvent_entry_report
from .operators import reduced_operator


def circle(radius=1.0):
    r2 = radius ** 2

    def phi(p):
        return p[..., 0] ** 2 + p[..., 1] ** 2 - r2

    def grad(p):
        return np.stack([2.0 * p[..., 0], 2.0 * p[..., 1]], axis=-1)

    return LevelSetSurface("circle", phi, grad, {"radius": radius})


def ellipse(a=1.0, b=0.65):
    def phi(p):
        return (p[..., 0] / a) ** 2 + (p[..., 1] / b) ** 2 - 1.0

    def grad(p):
        return np.stack([2.0 * p[..., 0] / a ** 2, 2.0 * p[..., 1] / b ** 2],
                        axis=-1)

    return LevelSetSurface("ellipse", phi, grad, {"a": a, "b": b})


def perturbed_circle(base=1.0, amp=0.2, lobes=3):
    """Non-convex closed curve r(polar angle) = base + amp*cos(lobes*angle)."""
    def phi(p):
        x, y = p[..., 0], p[..., 1]
        rho = np.sqrt(x ** 2 + y ** 2)
        tau = np.arctan2(y, x)
        return rho - base - amp * np.cos(lobes * tau)

    def grad(p):
        x, y = p[..., 0], p[..., 1]
        rho2 = x ** 2 + y ** 2
        rho = np.sqrt(rho2)
        tau = np.arctan2(y, x)
        s = amp * lobes * np.sin(lobes * tau)
        return np.stack([x / rho - s * y / rho2, y / rho + s * x / rho2],
                        axis=-1)

    return LevelSetSurface("perturbed_circle", phi, grad,
                           {"base": base, "amp": amp, "lobes": lobes})


CURVE_CATALOG = {
    "circle": circle,
    "ellipse": ellipse,
    "perturbed_circle": perturbed_circle,
}


def make_curve(name, **params):
    try:
        factory = CURVE_CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown curve {name!r}; "
                         f"available: {sorted(CURVE_CATALOG)}") from None
    return factory(**params)


def _drop_coverage_gap(fields):
    """Remove secondaries whose interpolation stencil is missing or was
    itself removed, until none is left; returns how many were removed."""
    n_p = fields["n_p"]
    m = fields["positions"].shape[0]
    sec = np.arange(n_p, m)
    stencil = fields["chart_neighbors"][fields["associated_primary"][sec]]
    gone = np.zeros(m + 1, dtype=bool)
    gone[-1] = True                      # an absent neighbor (-1) is gone
    while True:
        lost = gone[stencil].any(axis=1) & ~gone[sec]
        if not lost.any():
            break
        gone[sec[lost]] = True
    keep = ~gone[:-1]
    if keep.all():
        return 0
    new_id = np.cumsum(keep) - 1
    nb = fields["chart_neighbors"]
    fields["chart_neighbors"] = np.where((nb >= 0) & keep[nb], new_id[nb], -1)
    for name in ("positions", "axis", "base_index", "closest_gp", "theta",
                 "normals", "associated_primary"):
        fields[name] = fields[name][keep]
    return int(m - keep.sum())


def discretize_curve(curve, grid, eta=0.45, tol=1e-12):
    """Cut-point discretization of a closed plane curve on a 2-D grid.

    eta below 1/sqrt(2) guarantees every crossing keeps an admissible
    direction; larger values are allowed and the discarded crossings are
    counted in `dropped_cuts`.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    grid.require_dim(2, "discretize_curve")
    fields, dropped = _cut_points(curve, grid, eta, tol)
    if eta > 1.0 / math.sqrt(2.0):
        dropped += _drop_coverage_gap(fields)
    return SurfaceDiscretization(
        grid=grid, eta=eta, dropped_cuts=dropped, surface_kind=curve.kind,
        surface_params=curve.params, **_with_interpolation(fields))


def curve_coefficients(disc):
    """Arclength-density stencil coefficients of each primary.

    gamma is |n_axis| at a cut point, the local ds/dxi inverse of its chart.
    The neighbor coefficients are the half-interval products
    gamma_i (gamma_i + gamma_neighbor)/2 of the divergence form; the center
    is their sum, so the averaging identity holds exactly.  Returns
    (c_minus, c_plus, c_center) arrays over primaries.
    """
    disc.require_full_stencil("curve stencil")
    idx = np.arange(disc.n_tot)
    gamma = np.abs(disc.normals[idx, disc.axis])
    nb = disc.chart_neighbors
    g_c = gamma[:disc.n_p]
    c_minus = 0.5 * g_c * (g_c + gamma[nb[:, 0]])
    c_plus = 0.5 * g_c * (g_c + gamma[nb[:, 1]])
    return c_minus, c_plus, c_minus + c_plus


def lb_curve(disc):
    """Second-arclength-derivative operator, one row per primary point."""
    c_minus, c_plus, c_center = curve_coefficients(disc)
    nb = disc.chart_neighbors
    n_p = disc.n_p
    h2 = disc.h ** 2
    rows = np.repeat(np.arange(n_p), 3)
    cols = np.stack([nb[:, 0], nb[:, 1], np.arange(n_p)], axis=1).ravel()
    vals = np.stack([c_minus, c_plus, -c_center], axis=1).ravel() / h2
    return assemble_csr(rows, cols, vals, (n_p, disc.n_tot))


def reduced_lb_curve(disc):
    return reduced_operator(lb_curve(disc), disc)


def coefficient_report(disc):
    """Size and smoothness diagnostics of the stencil coefficients.

    min_center_half is min of c_center/2 (compare 1/2 - O(h)); max_jump is
    the largest |neighbor - center/2| (compare O(h)); pointwise_gap is the
    largest |c_center/2 - gamma^2|, the discrepancy between the averaged
    and the pointwise readings of the coefficient (O(h^2)).
    """
    c_minus, c_plus, c_center = curve_coefficients(disc)
    half = 0.5 * c_center
    idx = np.arange(disc.n_p)
    gamma = np.abs(disc.normals[idx, disc.axis[:disc.n_p]])
    return {
        "min_center_half": float(half.min()),
        "max_jump": float(np.maximum(np.abs(c_minus - half),
                                     np.abs(c_plus - half)).max()),
        "pointwise_gap": float(np.abs(half - gamma ** 2).max()),
    }


def resolvent_positivity(disc, k_over_h2_list):
    """Sign report on (I - k reduced_LB)^{-1} for each sigma = k/h^2."""
    return resolvent_entry_report(reduced_lb_curve(disc), k_over_h2_list,
                                  disc.h)


def proof_matrix(disc, sigma):
    """The (n_tot x n_tot) matrix A of the positivity argument.

    Upper rows are I - k*LB at the primaries (k = sigma h^2); lower rows
    state that each secondary equals its quadratic interpolation,
    u_s - Pi_sp u_p - Pi_ss u_s = 0.
    """
    n_p, n_s, n = disc.n_p, disc.n_s, disc.n_tot
    upper = sp.eye(n_p, n) - sigma * disc.h ** 2 * lb_curve(disc)
    lower = sp.hstack([-disc.pi_sp, sp.identity(n_s) - disc.pi_ss])
    return sp.vstack([upper, lower], format="csr")


def proof_row_operations(disc, sigma):
    """The matrix P that clears the positive interpolation entries of A.

    For each secondary row with a positive entry at one neighbor of its
    primary, add 1/(8 sigma c_that_side) times the primary row.  P has unit
    diagonal and those multipliers in the (secondary, primary) slots.
    """
    c_minus, c_plus, _ = curve_coefficients(disc)
    n_p, n = disc.n_p, disc.n_tot
    sec = np.arange(n_p, n)
    t = disc.theta[sec]
    sec = sec[t != 0.0]
    t = t[t != 0.0]
    p = disc.associated_primary[sec]
    # positive entry sits at q_minus for t > 0, q_plus for t < 0
    c_side = np.where(t > 0.0, c_minus[p], c_plus[p])
    diag = np.arange(n)
    return assemble_csr(np.concatenate([diag, sec]),
                        np.concatenate([diag, p]),
                        np.concatenate([np.ones(n),
                                        1.0 / (8.0 * sigma * c_side)]),
                        (n, n))


def m_matrix_report(disc, sigma):
    """Structural check that PA is an M-matrix at the given sigma.

    Reports the worst positive off-diagonal of A before the row operations,
    then for PA: the largest off-diagonal, the smallest diagonal, and the
    smallest row sum (strict dominance needs it positive).
    """
    a = proof_matrix(disc, sigma)
    p = proof_row_operations(disc, sigma)
    pa = (p @ a).tocsr()

    def split(mat):
        mat = mat.tocoo()
        off = mat.row != mat.col
        diag = mat.tocsr().diagonal()
        off_max = float(mat.data[off].max(initial=-np.inf))
        return diag, off_max

    _, off_before = split(a)
    diag, off_after = split(pa)
    rowsums = np.asarray(pa.sum(axis=1)).ravel()
    return {
        "sigma": float(sigma),
        "positive_offdiag_before": off_before,
        "max_offdiag_after": off_after,
        "min_diag_after": float(diag.min()),
        "min_rowsum_after": float(rowsums.min()),
        "is_m_matrix": bool(off_after <= 1e-13 and diag.min() > 0.0
                            and rowsums.min() > 0.0),
    }


def block_elimination_residual(disc, sigma, seed=0):
    """Consistency of the proof matrix with the reduced resolvent.

    Solves A (u_p, u_s) = (y, 0) and measures both the defect of
    (I - k LB_red) u_p = y and the gap to the directly solved u_p.
    """
    n_p = disc.n_p
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n_p)
    a = proof_matrix(disc, sigma)
    rhs = np.concatenate([y, np.zeros(disc.n_s)])
    u_all = Factorization(a.tocsc(), disc.positions).solve(rhs)
    u_p = u_all[:n_p]
    k = sigma * disc.h ** 2
    red = reduced_lb_curve(disc)
    lhs = u_p - k * (red @ u_p)
    direct = Factorization(sp.identity(n_p, format="csc") - k * red.tocsc(),
                           disc.positions[:n_p]).solve(y)
    return {
        "defect": float(np.abs(lhs - y).max() / np.abs(y).max()),
        "route_gap": float(np.abs(u_p - direct).max()
                           / max(np.abs(direct).max(), 1e-300)),
    }
