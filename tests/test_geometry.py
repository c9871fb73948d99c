import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from surfpde.curve1d import CURVE_CATALOG, make_curve
from surfpde.errors import BracketingError, DegenerateGradientError
from surfpde.geometry import (SURFACE_CATALOG, find_cut, from_callables,
                              make_surface)

from reference_values import CUT_Z_SQ


def test_sphere_phi_values():
    s = make_surface("sphere")
    assert s.phi(np.array([1.0, 0.0, 0.0])) == 0.0
    assert s.phi(np.array([0.0, 0.0, 0.0])) == -1.0
    assert s.phi(np.array([[0.0, 2.0, 0.0]])) == pytest.approx(3.0)


def test_ellipsoid_phi_on_axes():
    s = make_surface("ellipsoid")
    for p in ([1.0, 0, 0], [0, 0.8, 0], [0, 0, 0.65]):
        assert abs(s.phi(np.array(p, dtype=float))) < 1e-12


def test_cassini_phi_waist_and_lobe():
    s = make_surface("cassini_oval")
    a, b = 0.65, 0.715
    # on the axis of revolution the surface sits at z^2 = b^2 - a^2
    z = math.sqrt(b * b - a * a)
    assert abs(s.phi(np.array([0.0, 0.0, z]))) < 1e-12
    # widest point of the oval: rho^2 = a^2 + b^2 in the z=0 plane
    rho = math.sqrt(a * a + b * b)
    assert abs(s.phi(np.array([rho, 0.0, 0.0]))) < 1e-12


# scale of the random sample points around each shape
SAMPLE_SCALE = {"ellipsoid": [1.0, 0.8, 0.65], "cassini_oval": 0.6,
                "ellipse": [1.0, 0.65]}


@pytest.mark.parametrize("name", ["sphere", "ellipsoid", "cassini_oval",
                                  *CURVE_CATALOG])
def test_analytic_gradient_matches_differences(name):
    # a wrong analytic gradient corrupts every admissibility decision
    # downstream; the plane curves also run the difference fallback in 2-D
    curve = name in CURVE_CATALOG
    surf = make_curve(name) if curve else make_surface(name)
    fd_surf = from_callables(surf.phi, params=surf.params)
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(100, 2 if curve else 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= np.asarray(SAMPLE_SCALE.get(name, 1.0))
    pts += 0.01 * rng.normal(size=pts.shape)
    g_exact = surf.gradient(pts)
    g_fd = fd_surf.gradient(pts)
    scale = np.linalg.norm(g_exact, axis=1)
    assert np.abs(g_fd - g_exact).max() / scale.min() < 1e-6


def test_unit_normal_is_normalized():
    surf = make_surface("ellipsoid")
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(50, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    n = surf.unit_normal(pts)
    assert np.abs(np.linalg.norm(n, axis=1) - 1.0).max() < 1e-12


def test_find_cut_sphere_oracle():
    surf = make_surface("sphere")
    q = find_cut(surf, [0.6, 0.24, 0.72], [0.6, 0.24, 0.78])
    assert q[0] == 0.6 and q[1] == 0.24
    assert q[2] == pytest.approx(math.sqrt(CUT_Z_SQ), abs=1e-10)
    assert abs(surf.phi(q)) < 1e-9


def test_find_cut_exact_endpoint_returned():
    surf = make_surface("sphere")
    q = find_cut(surf, [1.0, 0.0, 0.0], [1.1, 0.0, 0.0])
    assert q[0] == 1.0
    q = find_cut(surf, [0.9, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert q[0] == 1.0


def test_find_cut_rejects_nonbracketing_segment():
    surf = make_surface("sphere")
    with pytest.raises(BracketingError):
        find_cut(surf, [0.1, 0.0, 0.0], [0.2, 0.0, 0.0])
    with pytest.raises(BracketingError):
        # reversed orientation: phi(p_in) > 0
        find_cut(surf, [1.1, 0.0, 0.0], [0.9, 0.0, 0.0])


def test_find_cut_rejects_diagonal_segment():
    surf = make_surface("sphere")
    with pytest.raises(ValueError):
        find_cut(surf, [0.9, 0.0, 0.0], [1.1, 0.1, 0.0])


def test_degenerate_gradient_raises():
    surf = from_callables(lambda p: (p ** 2).sum(axis=-1) - 1.0, c0=10.0)
    with pytest.raises(DegenerateGradientError):
        surf.unit_normal(np.array([[1.0, 0.0, 0.0]]))
    # a plane curve's vanishing gradient is caught the same way
    with pytest.raises(DegenerateGradientError):
        make_curve("circle").unit_normal(np.zeros((1, 2)))


def test_find_cut_tolerance_scales():
    surf = make_surface("sphere")
    loose = find_cut(surf, [0.6, 0.24, 0.72], [0.6, 0.24, 0.78], tol=1e-4)
    assert abs(loose[2] - math.sqrt(CUT_Z_SQ)) < 1e-4 * 0.06 * 2


# -- the certified gradient bounds of the catalog surfaces -----------------

_point = st.tuples(*[st.floats(-1.5, 1.5)] * 3)


@seed(20191908)
@settings(max_examples=300, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(SURFACE_CATALOG)),
       a=_point, b=_point, points=st.integers(0, 2 ** 32 - 1))
def test_gradient_bound_is_a_lipschitz_bound_on_its_box(kind, a, b, points):
    """|phi(p) - phi(c)| <= grad_bound(box) |p - c| for random points p of
    a random box in [-1.5, 1.5]^3 with centre c, which is what certifying
    a grid block from phi(c) takes.  Halving any catalog bound fails it."""
    surface = make_surface(kind)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    c = 0.5 * (lo + hi)
    p = lo + (hi - lo) * np.random.default_rng(points).uniform(size=(64, 3))
    bound = surface.grad_bound(lo, hi)
    assert np.shape(bound) == ()
    gap = np.abs(surface.phi(p) - surface.phi(c))
    assert (gap <= bound * np.linalg.norm(p - c, axis=1) * (1 + 1e-12)
            + 1e-12).all()
