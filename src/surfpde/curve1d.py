"""Closed curves in the plane and the resolvent-positivity study of their
reduced Laplacian.

A curve is a `geometry.LevelSetSurface` whose phi and gradient act on
(..., 2) points, discretized on a 2-D `discretization.Grid` by the same
construction core, into the same `SurfaceDiscretization` class, as a
surface.  Each primary point's chart is the grid line transverse to its
interval, and `operators.laplace_beltrami` assembles its second arclength
derivative as the one-axis divergence form, so the operator, its reduced
form L E and the resolvent report (`spectrum.resolvent_report`) are the
surface ones.  This module adds only what is curve-specific: the catalog
curves and, explicitly, the near-M-matrix of the positivity argument and
the row operations that finish it, so the structural claims can be checked
directly instead of only observing signs of the inverse.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .discretization import _discretize
from .geometry import LevelSetSurface
from .linalg import assemble_csr
from .operators import laplace_beltrami


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


def discretize_curve(curve, grid, eta=0.45):
    """Cut-point discretization of a closed plane curve on a 2-D grid.

    eta must lie in (0, 1/sqrt(2)) (ValueError otherwise): a unit normal in
    the plane has a component of at least 1/sqrt(2), so below that bound
    every crossing keeps an admissible axis.
    """
    return _discretize(curve, grid, eta, 2, "discretize_curve")


def _side_coefficients(disc):
    """(c_minus, c_plus): the neighbor weights of each primary's row of the
    Laplace-Beltrami operator, times h^2, close to
    gamma_i (gamma_i + gamma_neighbor)/2 with gamma = |n_axis|."""
    lb = laplace_beltrami(disc)
    nb = disc.chart_neighbors
    i = np.arange(disc.n_p)
    h2 = disc.h ** 2
    return tuple(np.asarray(lb[i, nb[:, side]]).ravel() * h2
                 for side in (0, 1))


def proof_matrix(disc, sigma):
    """The (n_tot x n_tot) matrix A of the positivity argument.

    Upper rows are I - k*LB at the primaries (k = sigma h^2); lower rows
    state that each secondary equals its quadratic interpolation,
    u_s - Pi_sp u_p - Pi_ss u_s = 0.
    """
    n_p, n_s, n = disc.n_p, disc.n_s, disc.n_tot
    upper = sp.eye(n_p, n) - sigma * disc.h ** 2 * laplace_beltrami(disc)
    lower = sp.hstack([-disc.pi_sp, sp.identity(n_s) - disc.pi_ss])
    return sp.vstack([upper, lower], format="csr")


def check_sigma(sigma):
    """Raise ValueError unless the resolvent coefficient sigma = k/h^2 is
    finite and positive."""
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")


def proof_row_operations(disc, sigma):
    """The matrix P that clears the positive interpolation entries of A.

    For each secondary row with a positive entry at one neighbor of its
    primary, add 1/(8 sigma c_that_side) times the primary row.  P has unit
    diagonal and those multipliers in the (secondary, primary) slots.
    Raises ValueError unless sigma is finite and positive.
    """
    check_sigma(sigma)
    c_minus, c_plus = _side_coefficients(disc)
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
    p = proof_row_operations(disc, sigma)
    a = proof_matrix(disc, sigma)
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
