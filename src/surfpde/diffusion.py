"""Surface diffusion u_t = alpha * Laplace-Beltrami(u), explicit and implicit."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import SolverAbortError
from .linalg import BiCGSTAB
from .maccormack import check_finite, march
from .operators import laplace_beltrami, reduced_operator

# weights of the newest levels u^n, u^{n-1}, ... in the extrapolated guess
_EXTRAPOLATION = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0),
                  (4.0, -6.0, 4.0, -1.0))


def forward_euler_solve(disc, u0_p, alpha, k, n_steps, form="divergence"):
    """March u^{n+1} = u^n + k*alpha*L(E u^n) at the primary points.

    The product L E is materialized once, so each step is a single
    matrix-vector product on the primaries.  n_steps must be nonnegative.
    """
    ka = k * alpha
    red = reduced_operator(laplace_beltrami(disc, form), disc)
    (_, u), = march(np.asarray(u0_p, dtype=float),
                    lambda u: u + ka * (red @ u), k, [n_steps * k])
    return u


def bdf2_solve(disc, u0_p, alpha, k, n_steps, form="divergence"):
    """Second-order implicit (two-step backward differentiation) diffusion.

    Startup is one backward Euler step.  No matrix is factored: each of the
    two implicit matrices I - c L E (c = k alpha for the startup, 2/3 k
    alpha after it) is Jacobi-scaled once by `linalg.BiCGSTAB`, which
    solves every step from a guess.  The startup starts from u^0; later
    steps extrapolate the last levels: linearly, then quadratically, then
    cubically, 4u^n - 6u^{n-1} + 4u^{n-2} - u^{n-3}.  A step is accepted
    only when its true residual passes the backward-error test
    ||b - A u||_inf <= 1e-14 (||A||_inf ||u||_inf + ||b||_inf) on the
    scaled system; otherwise the march raises SolverAbortError with the
    step, its time and the residual.
    """
    red = reduced_operator(laplace_beltrami(disc, form), disc)
    eye = sp.identity(disc.n_p, format="csr")
    u = np.asarray(u0_p, dtype=float).copy()
    if n_steps == 0:
        return u
    solver = BiCGSTAB(eye - k * alpha * red)
    levels = [u]  # newest first, at most len(_EXTRAPOLATION)
    for step in range(1, n_steps + 1):
        if step == 2:
            solver = BiCGSTAB(eye - (2.0 / 3.0) * k * alpha * red)
        rhs = u if step == 1 else (4.0 * u - levels[1]) / 3.0
        x0 = sum(c * lev for c, lev in
                 zip(_EXTRAPOLATION[len(levels) - 1], levels))
        try:
            u = solver.solve(rhs, x0)
        except SolverAbortError as exc:
            raise SolverAbortError(
                f"BDF2 step {step} (t = {step * k:.6g}): {exc}",
                step=step, time=step * k) from None
        check_finite(u, step, step * k)
        levels = [u] + levels[:len(_EXTRAPOLATION) - 1]
    return u
