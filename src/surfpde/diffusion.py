"""Surface diffusion u_t = alpha * Laplace-Beltrami(u), explicit and implicit."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .linalg import Factorization
from .maccormack import check_finite
from .operators import laplace_beltrami, reduced_operator


def forward_euler_solve(disc, u0_p, alpha, k, n_steps, form="divergence"):
    """March u^{n+1} = u^n + k*alpha*L(E u^n) at the primary points.

    The product L E is materialized once, so each step is a single
    matrix-vector product on the primaries.
    """
    u = np.asarray(u0_p, dtype=float).copy()
    ka = k * alpha
    red = reduced_operator(laplace_beltrami(disc, form), disc)
    for step in range(n_steps):
        u = u + ka * (red @ u)
        check_finite(u, step + 1, (step + 1) * k)
    return u


def bdf2_solve(disc, u0_p, alpha, k, n_steps, form="divergence"):
    """Second-order implicit (two-step backward differentiation) diffusion.

    Startup is one backward Euler step.  Both implicit matrices involve the
    reduced operator L E and are factored once up front, in the
    nested-dissection order of the primary positions.
    """
    red = reduced_operator(laplace_beltrami(disc, form), disc)
    n_p = disc.n_p
    eye = sp.identity(n_p, format="csr")
    points = disc.positions[:n_p]
    fac_be = Factorization(eye - k * alpha * red, points)
    u_prev = np.asarray(u0_p, dtype=float).copy()
    if n_steps == 0:
        return u_prev
    u = fac_be.solve(u_prev)
    fac = Factorization(eye - (2.0 / 3.0) * k * alpha * red, points)
    for step in range(1, n_steps):
        u, u_prev = fac.solve((4.0 * u - u_prev) / 3.0), u
        check_finite(u, step + 1, (step + 1) * k)
    return u
