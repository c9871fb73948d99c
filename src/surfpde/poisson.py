"""Surface Poisson problems Laplace-Beltrami(u) = f with a mean constraint.

On a closed surface the operator kernel holds the constants, so the system
is the bordered one, L u + beta 1 = f with sum(u) = 0: the multiplier beta
absorbs the component of f outside the discrete range and the solution has
zero mean over the primaries.  `bordered_solve` factors L with one pinned
diagonal entry instead of the dense border row and column, in the
nested-dissection order of the primary positions.  The factor is single
precision and the solve is refined in double to roundoff, so u and beta
carry double-precision accuracy; the factor, the largest block of memory
of the solve, takes about two thirds of a double one's bytes.

One float64 copy of the operator reaches the factorization.  The CSR
reduced operator goes straight to `bordered_solve`, which makes its one
pinned CSC copy B and so lets the CSR go; `Factorization` keeps B only
until it is permuted into `_mat`, and rounds `_mat`'s values alone for
SuperLU.  The residual check takes L u from the factor's `_mat` and
ordering, as B u less the pinned entry's share.

The assembly and the ordering each use a worker thread beside the calling
one, with results the same bit for bit as one thread's.
"""

from __future__ import annotations

import numpy as np

from .linalg import bordered_solve
from .operators import reduced_laplace_beltrami


def poisson_solve(disc, f_p, form="divergence"):
    """Solve L u = f at the primary points; returns (u_p, beta).

    beta is the bordering multiplier; for consistent data it shrinks at the
    rate of the truncation error (O(h^2)).  E builds on a worker thread
    while L assembles, and the right half of the ordering splits on one
    while the left half splits here; the single-precision factorization
    and its refined solve run here alone.
    """
    return bordered_solve(reduced_laplace_beltrami(disc, form),
                          np.asarray(f_p, dtype=float),
                          disc.positions[:disc.n_p])
