"""Eigenvalues and resolvent diagnostics of the reduced Laplace-Beltrami
operator, on surfaces and on plane curves."""

from __future__ import annotations

import numpy as np

from .linalg import resolvent_entry_report, smallest_eigenvalues
from .operators import reduced_laplace_beltrami

_EIG_SHIFT = 0.5  # the shift-invert shift of laplacian_eigenvalues


def laplacian_eigenvalues(disc, count, form="divergence"):
    """The `count` eigenvalues of smallest magnitude of the reduced operator.

    The reduced operator is not symmetric but its spectrum sits near the
    negative real axis, so a small positive shift keeps the magnitude
    ordering under shift-invert.  Returns real parts sorted decreasingly
    (0 first), plus the max imaginary residue as a sanity value.
    """
    red = reduced_laplace_beltrami(disc, form)
    vals = smallest_eigenvalues(red, count, disc.positions[:disc.n_p],
                                sigma=_EIG_SHIFT)
    max_imag = float(np.abs(vals.imag).max(initial=0.0))
    return np.sort(vals.real)[::-1], max_imag


def cluster_errors(eigs, exact_levels, sizes):
    """Max |computed - exact| over each consecutive cluster of eigenvalues."""
    out = []
    start = 0
    for lam, size in zip(exact_levels, sizes):
        chunk = eigs[start:start + size]
        if len(chunk) < size:
            raise ValueError("not enough eigenvalues for the requested "
                             "clusters")
        out.append(float(np.abs(chunk - lam).max()))
        start += size
    return out


def resolvent_report(disc, sigmas):
    """Entrywise signs of (I - sigma h^2 L_red)^{-1} for several sigmas.

    The inverse is formed densely (at most 9000 primaries), so this is a
    diagnostic for coarse grids.  Each row reports the minimum entry, the
    worst row-sum deviation from one, and invertibility.
    """
    red = reduced_laplace_beltrami(disc)
    return resolvent_entry_report(red, sigmas, disc.h)
