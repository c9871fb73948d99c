"""Surface diffusion stepping: explicit/implicit marching, reduced-operator
equivalence, exact-decay accuracy on the sphere, and abort behavior."""

import numpy as np
import pytest
import scipy.sparse as sp

from surfpde.diffusion import bdf2_solve, forward_euler_solve
from surfpde.errors import SolverAbortError
from surfpde.experiments import get_discretization, run_diffusion_sphere
from surfpde.linalg import Factorization
from surfpde.operators import laplace_beltrami, reduced_operator

ALPHA = 1.0 / 12.0


@pytest.fixture(scope="module")
def sphere40():
    return get_discretization("sphere", 40)


@pytest.fixture(scope="module")
def cubic_harmonic(sphere40):
    # xyz restricted to the unit sphere: surface Laplacian equals -12*xyz,
    # so with alpha = 1/12 the solution decays as exp(-t)
    p = sphere40.positions
    return (p[:, 0] * p[:, 1] * p[:, 2])[: sphere40.n_p]


def test_reduced_and_interleaved_routes_agree(sphere40, cubic_harmonic):
    k = 8.0 / 40 ** 2
    a = forward_euler_solve(sphere40, cubic_harmonic, 0.1, k, 20)
    # interleaved route: extend to all points, then apply L
    lb = laplace_beltrami(sphere40)
    ext = sphere40.extension_matrix()
    b = cubic_harmonic.copy()
    for _ in range(20):
        b = b + k * 0.1 * (lb @ (ext @ b))
    assert np.abs(a - b).max() < 1e-12


def test_constants_are_stationary(sphere40):
    # alpha = 0.1 keeps k * alpha / h^2 inside the explicit stability range
    ones = np.ones(sphere40.n_p)
    k = 8.0 / 40 ** 2
    assert np.abs(forward_euler_solve(sphere40, ones, 0.1, k, 25) - 1.0) \
        .max() < 1e-13
    assert np.abs(bdf2_solve(sphere40, ones, 0.3, 1.0 / 400, 25) - 1.0) \
        .max() < 1e-12


@pytest.mark.parametrize("form", ["divergence", "nondivergence"])
def test_forward_euler_exact_decay(sphere40, cubic_harmonic, form):
    k = 8.0 / 40 ** 2
    n_steps = int(round(0.25 / k))
    u = forward_euler_solve(sphere40, cubic_harmonic, ALPHA, k, n_steps, form)
    exact = np.exp(-0.25) * cubic_harmonic
    rel = np.abs(u - exact).max() / np.abs(exact).max()
    assert rel < 2.5e-3


@pytest.mark.parametrize("form", ["divergence", "nondivergence"])
def test_bdf2_exact_decay(sphere40, cubic_harmonic, form):
    k = 1.0 / 400
    u = bdf2_solve(sphere40, cubic_harmonic, ALPHA, k, int(round(0.25 / k)),
                   form)
    exact = np.exp(-0.25) * cubic_harmonic
    rel = np.abs(u - exact).max() / np.abs(exact).max()
    assert rel < 2.5e-3


def test_bdf2_startup_is_one_backward_euler_step(sphere40, cubic_harmonic):
    k = 1.0 / 400
    red = reduced_operator(laplace_beltrami(sphere40), sphere40)
    eye = sp.identity(sphere40.n_p, format="csr")
    manual = Factorization(eye - k * ALPHA * red,
                       sphere40.positions[:sphere40.n_p]).solve(cubic_harmonic)
    assert np.abs(bdf2_solve(sphere40, cubic_harmonic, ALPHA, k, 1) - manual) \
        .max() < 1e-12


def test_unstable_step_aborts_with_location(sphere40, cubic_harmonic):
    with pytest.raises(SolverAbortError) as info:
        with np.errstate(over="ignore", invalid="ignore"):
            forward_euler_solve(sphere40, cubic_harmonic, 1.0, 10.0, 500)
    assert info.value.step > 0
    assert info.value.time == pytest.approx(info.value.step * 10.0)


def test_forward_euler_rejects_negative_step_count(sphere40, cubic_harmonic):
    with pytest.raises(ValueError, match="nonnegative"):
        forward_euler_solve(sphere40, cubic_harmonic, ALPHA, 1e-3, -1)


def test_zero_steps_returns_initial_state(sphere40, cubic_harmonic):
    out = bdf2_solve(sphere40, cubic_harmonic, ALPHA, 1e-3, 0)
    assert np.array_equal(out, cubic_harmonic)


def test_unknown_stepper_is_rejected():
    with pytest.raises(ValueError, match="'x'"):
        run_diffusion_sphere((20,), steppers=("x",))
