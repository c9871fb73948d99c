"""Shallow water equations on the rotating unit sphere.

State is the geopotential height Phi and the Cartesian momentum Phi*v at
the primary points, stored component-major as contiguous (4, n) rows.
Fluxes are formed per point on the equilibrated state and differenced in
each primary's chart by sparse products with the chart-difference matrices
that the discretization builds once; vector terms are projected back to
the tangent plane.
The standard test is a zonal flow tilted 30 degrees from the rotation axis,
a steady solution whose drift measures the scheme's error.

Units: lengths are scaled by the planet radius and time by one day, so a
step count of 2N per day matches a grid of 2N intervals across the box.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from . import maccormack
from .operators import (artificial_viscosity, primary_chart_axes,
                        sphere_geometry_weights, tangential_projection)

EARTH_RADIUS = 6.37122e6          # m
EARTH_OMEGA = 7.292e-5            # 1/s
DAY = 86400.0                     # s
GH0 = 2.94e4                      # m^2/s^2, mean geopotential of the test


@dataclass
class SWEParams:
    """Nondimensional parameters of the tilted steady-flow test."""
    omega: float       # planetary rotation per day
    u0: float          # peak flow speed
    phi0: float        # background geopotential
    mu: float          # geopotential dip coefficient omega*u0 + u0^2/2
    cos_a: float
    sin_a: float
    nu: float          # artificial viscosity coefficient


def williamson_params(alpha_degrees=30.0, nu=1.0):
    if not (math.isfinite(nu) and nu >= 0.0):
        raise ValueError(f"viscosity nu must be finite and >= 0, got {nu}")
    omega = EARTH_OMEGA * DAY
    u0 = 2.0 * math.pi / 12.0
    phi0 = GH0 * (DAY / EARTH_RADIUS) ** 2
    alpha = math.radians(alpha_degrees)
    return SWEParams(omega=omega, u0=u0, phi0=phi0,
                     mu=omega * u0 + 0.5 * u0 ** 2,
                     cos_a=math.cos(alpha), sin_a=math.sin(alpha), nu=nu)


def _axis_dot(points, params):
    # projection on the tilted rotation axis (-sin a, 0, cos a)
    return -params.sin_a * points[..., 0] + params.cos_a * points[..., 2]


def exact_velocity(points, params):
    p = np.asarray(points, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    u0, ca, sa = params.u0, params.cos_a, params.sin_a
    return np.stack([-u0 * ca * y, u0 * (ca * x + sa * z), -u0 * sa * y],
                    axis=-1)


def exact_height(points, params):
    return params.phi0 - params.mu * _axis_dot(points, params) ** 2


def coriolis_parameter(points, params):
    return 2.0 * params.omega * _axis_dot(points, params)


def initial_state(disc, params):
    pos = disc.positions[:disc.n_p]
    phi = exact_height(pos, params)
    mom = phi[:, None] * exact_velocity(pos, params)
    return phi, mom


def exact_height_integral(params):
    """Closed form of the sphere integral of the steady height field."""
    return 4.0 * math.pi * (params.phi0 - params.mu / 3.0)


def exact_energy_integral(params):
    """Closed form of the sphere integral of |v|^2 for the steady flow."""
    return 8.0 * math.pi * params.u0 ** 2 / 3.0


class _Workspace:
    """Frozen per-primary geometry and the chart operators of the RHS.

    Per direction, `div` (n_p, 3 n_tot) differences a component-major
    stack of per-point fields along each primary's chart axes, reading
    component c1 along c1 and c2 along c2 (column c * n_tot + j); `grad`
    (3 n_p, n_tot) puts the chart differences of a scalar into rows
    c1 * n_p + i and c2 * n_p + i, a Cartesian vector with a zero
    normal-axis component.  Both hold +-1 entries.
    """

    def __init__(self, disc, params):
        self.disc = disc
        n_p, n_tot = disc.n_p, disc.n_tot
        self.normals = np.ascontiguousarray(disc.normals[:n_p].T)
        self.geo = sphere_geometry_weights(disc)
        # f n, rolled by one and two components for the cross product
        f_normals = coriolis_parameter(disc.positions[:n_p],
                                       params) * self.normals
        self.f_normals = f_normals[[1, 2, 0]], f_normals[[2, 0, 1]]
        comp = np.concatenate(primary_chart_axes(disc))
        # the forward rows of the chart differences, then the backward rows
        diffs = disc.chart_differences()
        half = diffs.shape[0] // 2
        self.ops = {}
        for s, direction in enumerate(("forward", "backward")):
            d = diffs[s * half:(s + 1) * half].tocoo()
            c, i = comp[d.row], d.row % n_p
            div = sp.csr_matrix((d.data, (i, c * n_tot + d.col)),
                                shape=(n_p, 3 * n_tot))
            grad = sp.csr_matrix((d.data, (c * n_p + i, d.col)),
                                 shape=(3 * n_p, n_tot))
            self.ops[direction] = div, grad


def _swe_rhs(ws, direction, full):
    """Right-hand side of both equations with one-sided chart differences.

    `full` is the equilibrated state as contiguous (4, n_tot) rows
    [Phi, m_x, m_y, m_z]; returns the (4, n_p) time derivative at the
    primaries.
    """
    n_p, h = ws.disc.n_p, ws.disc.h
    div, grad = ws.ops[direction]
    phi, mom = full[0], full[1:]
    mom_c = mom[:, :n_p]
    geo = (ws.geo * mom_c).sum(axis=0)
    out = np.empty((4, n_p))
    out[0] = -(div @ mom.ravel() / h + geo)

    # momentum advection: chart divergence of the point fluxes v_c * m,
    # plus the pressure gradient of Phi^2/2, projected
    vel = mom / phi
    adv = np.stack([div @ (vel * m).ravel() for m in mom])
    adv += (grad @ (0.5 * phi ** 2)).reshape(3, n_p)
    adv /= h
    tangential = tangential_projection(adv.T, ws.normals.T).T

    fn1, fn2 = ws.f_normals
    coriolis = fn1 * mom_c[[2, 0, 1]] - fn2 * mom_c[[1, 2, 0]]
    out[1:] = -(tangential + coriolis + (geo / phi[:n_p]) * mom_c)
    return out


def solve_swe(disc, params, t_ends):
    """Run the steady-flow test; snapshot (t, phi_p, mom_p) at each t_end.

    Each step, of fixed size k = 1/(2N) for N the largest cell count, is
    predictor-corrector with the switched artificial viscosity evaluated at
    the old state, then projects the momentum back to the tangent plane.
    The viscosity runs on one worker thread, owned by this call, while the
    predictor and corrector run on the calling thread; the old extended
    state it reads is written by no one until `maccormack_step` joins it,
    so the march is the same as with the viscosity inline.  Every t_end
    must be a nonnegative whole number of steps.
    """
    k = 1.0 / (2.0 * max(disc.grid.n_cells))
    ws = _Workspace(disc, params)
    phi0, mom0 = initial_state(disc, params)
    state = np.vstack([phi0, mom0.T])

    # E is the identity on the primaries; its rows below are the
    # secondaries' weights, applied to each component row.  Each call fills
    # a new array: the viscosity reads the old state's extension on the
    # worker while the predictor is extended here.
    n_p, weights = disc.n_p, disc.extension_matrix()[disc.n_p:]

    def extend(state_p):
        full = np.empty((4, disc.n_tot))
        full[:, :n_p] = state_p
        for row, values in zip(full[:, n_p:], state_p):
            row[:] = weights @ values
        return full

    def viscosity(full_old):
        incr = np.empty((4, disc.n_p))
        incr[0] = artificial_viscosity(disc, full_old[0], params.nu, k)
        incr[1:] = artificial_viscosity(disc, full_old[1:].T, params.nu, k).T
        return incr

    rhs = partial(_swe_rhs, ws)

    # the viscosity reads only the old extended state, so one worker thread
    # computes it while the predictor and corrector run on this one
    with ThreadPoolExecutor(max_workers=1) as worker:
        extra = (partial(worker.submit, viscosity) if params.nu != 0.0
                 else None)

        def advance(state):
            state = maccormack.maccormack_step(state, k, rhs, extend,
                                               extra_corrector=extra)
            state[1:] = tangential_projection(state[1:].T, ws.normals.T).T
            return state

        snapshots = maccormack.march(state, advance, k, t_ends)
    return [(t, s[0], s[1:].T.copy()) for t, s in snapshots]
