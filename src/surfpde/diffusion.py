"""Surface diffusion u_t = alpha * Laplace-Beltrami(u), explicit and implicit."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import SolverAbortError
from .linalg import BiCGSTAB, _amax
from .maccormack import check_finite, march
from .operators import reduced_laplace_beltrami

_MAX_ORDER = 5  # highest guess order: the quartic, from five levels


def _extrapolate(diffs, order):
    """The order-`order` guess of the next level from the backward
    differences u^n, u^n - u^{n-1}, ... at the newest: the sum of the first
    `order`, which is exact for every polynomial sequence of degree < order
    (order 4 is 4u^n - 6u^{n-1} + 4u^{n-2} - u^{n-3}).  The guess is a new
    array, which the solver may overwrite; order 1 copies u^n."""
    return sum(diffs[1:order], diffs[0]) if order > 1 else diffs[0].copy()


def _push(diffs, u):
    """Turn the backward differences at the last level into those at the
    new level u, in place.  Entry p becomes u minus the order-p guess, so
    it is also that guess's miss."""
    last = u
    for d in diffs:
        last = np.subtract(last, d, out=d)
    diffs.insert(0, u)


def forward_euler_solve(disc, u0_p, alpha, k, n_steps, form="divergence"):
    """March u^{n+1} = u^n + k*alpha*L(E u^n) at the primary points.

    The product L E is materialized once, so each step is a single
    matrix-vector product on the primaries.  n_steps must be nonnegative.
    """
    ka = k * alpha
    red = reduced_laplace_beltrami(disc, form)
    (_, u), = march(np.asarray(u0_p, dtype=float),
                    lambda u: u + ka * (red @ u), k, [n_steps * k])
    return u


def bdf2_solve(disc, u0_p, alpha, k, n_steps, form="divergence"):
    """Second-order implicit (two-step backward differentiation) diffusion.

    Startup is one backward Euler step.  No matrix is factored: each of the
    two implicit matrices I - c L E (c = k alpha for the startup, 2/3 k
    alpha after it) is Jacobi-scaled once by `linalg.BiCGSTAB`, which
    solves every step from a guess.  The startup starts from u^0.  With
    `top` levels held (at most 5), a later step starts from the order-`top`
    or the order-`top - 1` extrapolation of the levels (`_extrapolate`),
    whichever missed the previous solution by less in max norm; an order
    with no miss on record yet, because it just became available, is used.
    The levels are held as backward differences, so a miss is read off the
    next differences (`_push`) and only the chosen guess is formed.  At
    small k the quartic guess amplifies rounding and the cubic one wins,
    so neither order alone is best on every march.  A step is accepted only
    when its true residual passes the backward-error test
    ||b - A u||_inf <= 1e-14 (||A||_inf ||u||_inf + ||b||_inf) on the
    scaled system; otherwise the march raises SolverAbortError with the
    step, its time and the residual.
    """
    red = reduced_laplace_beltrami(disc, form)
    eye = sp.identity(disc.n_p, format="csr")
    u = np.asarray(u0_p, dtype=float).copy()
    if n_steps == 0:
        return u
    solver = BiCGSTAB(eye - k * alpha * red)
    diffs = [u]   # backward differences at the newest level
    misses = {}   # order -> max-norm miss of its guess at the last step
    rhs = u
    for step in range(1, n_steps + 1):
        if step == 2:
            solver = BiCGSTAB(eye - (2.0 / 3.0) * k * alpha * red)
        top = len(diffs)
        # an order without a miss on record sorts first
        order = min((p for p in (top, top - 1) if p),
                    key=lambda p: misses.get(p, -1.0))
        try:
            u = solver.solve(rhs, _extrapolate(diffs, order))
        except SolverAbortError as exc:
            raise SolverAbortError(
                f"BDF2 step {step} (t = {step * k:.6g}): {exc}",
                step=step, time=step * k) from None
        check_finite(u, step, step * k)
        rhs = (4.0 * u - diffs[0]) / 3.0
        _push(diffs, u)
        misses = {p: _amax(diffs[p]) for p in (top, top - 1) if p}
        del diffs[_MAX_ORDER:]
    return u
