"""Predictor-corrector (MacCormack) time stepping on cut-point sets.

The forward predictor and backward corrector use mirrored one-sided chart
differences; the average recovers second order in time and space.  State is
kept at primary points and extended after each substep, unless the operators
fold the extension in (advection).  `march` is the one explicit time loop,
shared by advection, shallow water and forward Euler diffusion.  Shallow
water computes its old-state viscosity (`extra_corrector`) on a worker
thread while the predictor and corrector run on the calling thread.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverAbortError

_MAX_STEPS = 2 ** 53  # steps a march may take: n k is exact up to here


def maccormack_step(state_p, k, rhs, equilibrate, extra_corrector=None):
    """One predictor-corrector step of u_t = R(u) at the primary points.

    `rhs(direction, full)` evaluates R with 'forward' or 'backward' chart
    differences on `full = equilibrate(state)`, the extended state or, when
    R acts on primaries, the state itself.  `extra_corrector(full_old)` may
    add a stabilizing increment at the old state once, after averaging.  It
    is called as soon as the old state is extended, before the predictor,
    and returns a `concurrent.futures.Future` of the increment, which is
    joined where the increment is added: so a caller can compute it on a
    worker thread while the predictor and corrector run here.  Nothing
    writes into `full` before that join; `equilibrate` must return a new
    array on each call.
    """
    full = equilibrate(state_p)
    extra = None if extra_corrector is None else extra_corrector(full)
    pred_p = state_p + k * rhs("forward", full)
    full_pred = equilibrate(pred_p)
    corr_p = pred_p + k * rhs("backward", full_pred)
    new_p = 0.5 * (state_p + corr_p)
    if extra is not None:
        new_p = new_p + extra.result()
    return new_p


def check_finite(state, step, time):
    """Abort with context if a solver state leaves the finite range."""
    if not np.isfinite(state).all():
        raise SolverAbortError(
            f"solution lost finiteness at step {step} (t = {time:.6g})",
            step=step, time=time)


def march(state, advance, k, t_ends):
    """Apply `advance` step by step; snapshot the state at each of t_ends.

    Every time must be finite and a nonnegative whole number of steps k (to
    1e-9), at most 2**53 of them, and all are checked before the first
    step.  Each step is checked for finiteness under one global step
    count.  Returns a list of (t, copy of the state) in increasing t.
    """
    targets = []
    for t in sorted(t_ends):
        if not math.isfinite(t):
            raise ValueError(f"t = {t} is not a finite time")
        n = round(t / k)
        if t < 0 or abs(n * k - t) > 1e-9:
            raise ValueError(
                f"t = {t} is not a nonnegative multiple of the step {k}")
        if n > _MAX_STEPS:
            raise ValueError(
                f"t = {t} is {n:.3e} steps of {k}, more than 2**53, past "
                f"which a step count times k is not exact")
        targets.append((t, n))
    out, step = [], 0
    for t, n in targets:
        while step < n:
            state = advance(state)
            step += 1
            check_finite(state, step, step * k)
        out.append((t, state.copy()))
    return out
