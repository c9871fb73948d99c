"""Surface integrals by a partition of unity over the coordinate directions.

Every cut point lies on a grid interval along some axis nu and sees the
surface as a graph over the plane normal to that axis; the cell area
h^2 / |n_nu| is exact for the local graph patch.  A smooth partition of
unity, built from the angle between the normal and each axis, blends the
three overlapping direction sets into one second-order (in practice third
order or better) quadrature rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# cutoff angle of each direction's bump; cos(62.5 deg) < 1/sqrt(3), so at
# least one direction is always active
POU_ANGLE = math.radians(62.5)


def bump(r):
    """C-infinity bump exp(r^2 / (r^2 - 1)) on |r| < 1, zero outside."""
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    # exponent stays within float range: clamp far below underflow anyway
    expo = ri ** 2 / (ri ** 2 - 1.0)
    out[inside] = np.exp(np.maximum(expo, -745.0))
    return out


def direction_weights(normals):
    """Partition-of-unity weights psi_nu(n) over the three axes, shape (m, 3).

    psi_nu is the normalized bump of arccos|n_nu| / POU_ANGLE: directions
    whose axis is within the cutoff angle of the normal share the weight,
    smoothly fading to zero at the cutoff.  Rows sum to one whenever
    max_nu |n_nu| > cos(POU_ANGLE), which holds for every unit normal when
    the cutoff exceeds arccos(1/sqrt(3)) ~ 54.7 degrees.
    """
    n = np.asarray(normals, dtype=float)
    if n.ndim == 1:
        n = n[None, :]
    ang = np.arccos(np.clip(np.abs(n), 0.0, 1.0))
    sigma = bump(ang / POU_ANGLE)
    total = sigma.sum(axis=1, keepdims=True)
    if (total <= 0.0).any():
        raise ValueError("partition of unity vanished: POU_ANGLE too small "
                         "for some normal directions")
    return sigma / total


@dataclass
class QuadratureWeights:
    """Per-point surface quadrature weights."""
    weights: np.ndarray    # psi * h^2 / |n_axis| per cut point

    def integrate(self, values):
        values = np.asarray(values, dtype=float)
        return float(self.weights @ values)


def quadrature_weights(disc):
    """Quadrature weights over all cut points of a discretization."""
    idx = np.arange(disc.n_tot)
    ax = disc.axis.astype(np.int64)
    psi = direction_weights(disc.normals)[idx, ax]
    return QuadratureWeights(psi * disc.h ** 2 / np.abs(disc.normals[idx, ax]))
