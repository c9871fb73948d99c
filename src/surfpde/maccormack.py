"""Predictor-corrector (MacCormack) time stepping on cut-point sets.

The forward predictor and backward corrector use mirrored one-sided chart
differences; the average recovers second order in time and space.  State is
kept at primary points and re-equilibrated after each substep so one-sided
neighbors are always available.  `march` is the one explicit time loop,
shared by advection, shallow water and forward Euler diffusion.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverAbortError


def maccormack_step(state_p, k, rhs, equilibrate, extra_corrector=None):
    """One predictor-corrector step of u_t = R(u) at the primary points.

    `rhs(direction, full)` evaluates R with 'forward' or 'backward' chart
    differences on an equilibrated field; `equilibrate` extends primary
    values to all points.  `extra_corrector(full_old)` may add a stabilizing
    increment evaluated at the old state (applied once, after averaging).
    """
    full = equilibrate(state_p)
    pred_p = state_p + k * rhs("forward", full)
    full_pred = equilibrate(pred_p)
    corr_p = pred_p + k * rhs("backward", full_pred)
    new_p = 0.5 * (state_p + corr_p)
    if extra_corrector is not None:
        new_p = new_p + extra_corrector(full)
    return new_p


def check_finite(state, step, time):
    """Abort with context if a solver state leaves the finite range."""
    if not np.isfinite(state).all():
        raise SolverAbortError(
            f"solution lost finiteness at step {step} (t = {time:.6g})",
            step=step, time=time)


def march(state, advance, k, t_ends):
    """Apply `advance` step by step; snapshot the state at each of t_ends.

    Every time must be a nonnegative whole number of steps k (to 1e-9), and
    all are checked before the first step.  Each step is checked for
    finiteness under one global step count.  Returns a list of
    (t, copy of the state) in increasing t.
    """
    targets = []
    for t in sorted(t_ends):
        n = round(t / k)
        if t < 0 or abs(n * k - t) > 1e-9:
            raise ValueError(
                f"t = {t} is not a nonnegative multiple of the step {k}")
        targets.append((t, n))
    out, step = [], 0
    for t, n in targets:
        while step < n:
            state = advance(state)
            step += 1
            check_finite(state, step, step * k)
        out.append((t, state.copy()))
    return out
