"""Transport of a scalar by a steady tangential flow on the unit sphere.

The test flow rotates fluid around the sphere while compressing it
(nonzero surface divergence), so the scalar is advected but its integral
drifts; the closed-form solution makes pointwise errors measurable at any
time.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import dblquad

from . import maccormack
from .operators import advection_coefficients, upwind_differences


def rotation_velocity(points):
    """Tangential test velocity (x^2 z - y, x + x y z, -x (x^2 + y^2))."""
    p = np.asarray(points, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    r2 = x ** 2 + y ** 2
    return np.stack([x * x * z - y, x + x * y * z, -x * r2], axis=-1)


def exact_solution(points, t):
    """Closed-form advected scalar with initial value x^2 + y^2."""
    p = np.asarray(points, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    r2 = x ** 2 + y ** 2
    shifted = z + y * (1.0 - np.cos(t)) + x * np.sin(t)
    return r2 / (shifted ** 2 + r2)


def exact_integral(t, epsabs=1e-12):
    """Surface integral of the exact solution over the unit sphere."""
    def integrand(phi, theta):
        st = np.sin(theta)
        x = st * np.cos(phi)
        y = st * np.sin(phi)
        z = np.cos(theta)
        return exact_solution(np.array([x, y, z]), t) * st

    val, _ = dblquad(integrand, 0.0, np.pi, 0.0, 2.0 * np.pi,
                     epsabs=epsabs, epsrel=1e-12)
    return val


def solve_advection(disc, t_ends):
    """March the scalar with predictor-corrector upwinding; snapshot at t_ends.

    Returns a list of (t, values_at_primaries).  The step is fixed at
    k = 1/(2N), N the grid's largest cell count (spacing 2.4/N), and each
    requested time must be a nonnegative whole number of steps.
    """
    k = 1.0 / (2.0 * max(disc.grid.n_cells))
    v1, v2 = advection_coefficients(disc, rotation_velocity)

    def rhs(direction, full):
        d1, d2 = upwind_differences(disc, full, direction)
        return -(v1 * d1 + v2 * d2)

    def advance(u):
        return maccormack.maccormack_step(u, k, rhs, disc.extend)

    u0 = exact_solution(disc.positions[:disc.n_p], 0.0)
    return maccormack.march(u0, advance, k, t_ends)
