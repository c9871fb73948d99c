"""Discrete error norms of point-value fields."""

from __future__ import annotations

import numpy as np


def error_norms(computed, exact):
    """Relative max and relative discrete L2 error between point samples.

    Both norms are taken over every supplied point; the L2 norm is the
    root mean square |w(X)|^2 averaged over the points.  Vector-valued
    samples (m, 3) are compared in the pointwise Euclidean norm.  Raises
    ValueError if the exact field vanishes identically (no relative scale).
    """
    computed = np.asarray(computed, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if computed.shape != exact.shape:
        raise ValueError(f"shape mismatch: {computed.shape} vs {exact.shape}")
    diff = computed - exact
    if computed.ndim == 2:
        mag_d = np.linalg.norm(diff, axis=1)
        mag_e = np.linalg.norm(exact, axis=1)
    else:
        mag_d = np.abs(diff)
        mag_e = np.abs(exact)
    denom_max = mag_e.max(initial=0.0)
    denom_l2 = float(np.sqrt(np.mean(mag_e ** 2)))
    if denom_max == 0.0:
        raise ValueError("exact field is identically zero; "
                         "relative errors undefined")
    rel_max = float(mag_d.max() / denom_max)
    rel_l2 = float(np.sqrt(np.mean(mag_d ** 2)) / denom_l2)
    return rel_max, rel_l2

