import math

import numpy as np
import pytest

from surfpde.quadrature import (POU_ANGLE, bump, direction_weights,
                                quadrature_weights)


def test_bump_endpoints_and_midpoint():
    assert bump(np.array([0.0]))[0] == 1.0
    assert bump(np.array([1.0]))[0] == 0.0
    assert bump(np.array([2.5]))[0] == 0.0
    assert bump(np.array([-1.0]))[0] == 0.0
    assert bump(np.array([0.5]))[0] == pytest.approx(math.exp(-1.0 / 3.0))


def test_bump_monotone_on_unit_interval():
    r = np.linspace(0, 1, 200)
    v = bump(r)
    assert (np.diff(v) <= 1e-15).all()


def test_direction_weights_axis_normal():
    psi = direction_weights(np.array([[1.0, 0.0, 0.0]]))
    assert psi[0] == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)


def test_direction_weights_symmetric_normal():
    n = np.full((1, 3), 1.0 / math.sqrt(3.0))
    psi = direction_weights(n)
    assert psi[0] == pytest.approx([1 / 3, 1 / 3, 1 / 3], rel=1e-12)


def test_direction_weights_direct_evaluation():
    # one component outside the support angle, two inside
    n = np.array([[0.0, 0.6, 0.8]])
    psi = direction_weights(n)

    def b(r):
        return math.exp(r * r / (r * r - 1.0)) if abs(r) < 1 else 0.0

    sy = b(math.acos(0.6) / POU_ANGLE)
    sz = b(math.acos(0.8) / POU_ANGLE)
    assert psi[0, 0] == 0.0
    assert psi[0, 1] == pytest.approx(sy / (sy + sz), rel=1e-13)
    assert psi[0, 2] == pytest.approx(sz / (sy + sz), rel=1e-13)


def test_partition_of_unity_on_random_normals():
    rng = np.random.default_rng(1234)
    n = rng.normal(size=(1000, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    psi = direction_weights(n)
    assert np.abs(psi.sum(axis=1) - 1.0).max() <= 1e-13
    assert psi.min() >= 0.0


def test_sphere_area(sphere40):
    qw = quadrature_weights(sphere40)
    area = qw.weights.sum()
    assert abs(area - 4 * math.pi) / (4 * math.pi) < 1e-3
    # a weight can be exactly zero: kept points only need |normal| >= 0.45
    # along their own axis, below the bump's inner cutoff cos(62.5 deg)
    assert qw.weights.min() >= 0.0


def test_surface_integral_odd_function_vanishes(sphere40):
    # z is odd across the equator; the point set is symmetric for the sphere
    val = quadrature_weights(sphere40).integrate(sphere40.positions[:, 2])
    assert abs(val) < 1e-6
