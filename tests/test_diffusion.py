"""Surface diffusion stepping: explicit/implicit marching, reduced-operator
equivalence, exact-decay accuracy on the sphere, agreement of the Krylov
BDF2 march with a sparse-LU march, the Bi-CGSTAB work of the Table 3.1 and
3.2 marches, abort behavior, and the fine-to-coarse chart interpolation
behind Table 3.2's successive-grid errors."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from surfpde import diffusion, linalg
from surfpde.curve1d import circle, discretize_curve
from surfpde.diffusion import (_MAX_ORDER, _extrapolate, _push, bdf2_solve,
                               forward_euler_solve)
from surfpde.discretization import Grid
from surfpde.errors import SolverAbortError
from surfpde.experiments import (chart_interpolate, get_discretization,
                                 run_diffusion_sphere)
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


def lu_bdf2(disc, u0_p, alpha, k, n_steps, form):
    """The BDF2 march with both implicit matrices factored: the oracle."""
    red = reduced_operator(laplace_beltrami(disc, form), disc)
    eye = sp.identity(disc.n_p, format="csr")
    points = disc.positions[:disc.n_p]
    u_prev = np.asarray(u0_p, dtype=float)
    u = Factorization(eye - k * alpha * red, points).solve(u_prev)
    fac = Factorization(eye - (2.0 / 3.0) * k * alpha * red, points)
    for _ in range(1, n_steps):
        u, u_prev = fac.solve((4.0 * u - u_prev) / 3.0), u
    return u


@pytest.mark.parametrize("case", ["sphere40 divergence",
                                  "sphere40 nondivergence",
                                  "ellipsoid40", "circle80"])
def test_bdf2_matches_lu_march(case):
    # each run's own step: Table 3.1, Table 3.2, and k = h/4 on the circle
    if case == "circle80":
        disc = discretize_curve(circle(), Grid.square(-1.2, 1.2, 80))
        alpha, k, form = 1.0, disc.grid.h / 4.0, "divergence"
    elif case == "ellipsoid40":
        disc = get_discretization("ellipsoid", 40)
        alpha, k, form = 0.1, 1.0 / 400, "divergence"
    else:
        disc = get_discretization("sphere", 40)
        alpha, k, form = ALPHA, 1.0 / 80, case.split()[1]
    p = disc.positions[:disc.n_p]
    u0 = np.cos(p[:, 0] - p[:, 1] + p[:, -1]) + p[:, 0] * p[:, 1]
    got = bdf2_solve(disc, u0, alpha, k, 40, form)
    want = lu_bdf2(disc, u0, alpha, k, 40, form)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("order", range(1, _MAX_ORDER + 1))
def test_extrapolation_is_exact_below_its_order(order):
    # the order-p guess reproduces every polynomial sequence of degree < p;
    # one of degree p it misses by p! 0.1^p times the leading coefficient,
    # and that miss is entry p of the next differences
    rng = np.random.default_rng(order)
    for degree in range(order + 1):
        poly = np.polynomial.Polynomial(rng.standard_normal(degree + 1))
        diffs = []
        for t in 0.3 - 0.1 * np.arange(order)[::-1]:   # oldest first
            _push(diffs, poly(np.array([t])))
        guess = _extrapolate(diffs, order)[0]
        _push(diffs, poly(np.array([0.4])))
        miss = diffs[order][0]
        assert miss == pytest.approx(poly(0.4) - guess, abs=1e-14)
        if degree < order:
            assert abs(miss) <= 1e-13 * np.abs(poly.coef).sum()
        else:
            assert abs(miss) == pytest.approx(
                math.factorial(order) * 0.1 ** order * abs(poly.coef[-1]))


def scripted_solver(levels, guesses):
    """A stand-in for BiCGSTAB that returns `levels` in turn, whatever the
    system, and records the guess each solve starts from."""
    script = iter(levels)

    class Scripted:
        def __init__(self, mat):
            pass

        def solve(self, rhs, x0):
            guesses.append(np.array(x0))
            return next(script).copy()

    return Scripted


def weighted_guess(levels, order):
    """The order-p extrapolation from its weights: C(p, 1) u^n - C(p, 2)
    u^{n-1} + ... over the p newest levels, newest first."""
    return sum((-1) ** i * math.comb(order, i + 1) * lev
               for i, lev in enumerate(levels[:order]))


@pytest.mark.parametrize("script,late_order", [("quartic", 5),
                                               ("alternating", 4)])
def test_bdf2_starts_from_the_guess_that_missed_less(sphere40, monkeypatch,
                                                     script, late_order):
    # a quartic sequence is met exactly by the quartic guess; alternating
    # noise is amplified 32x by the quartic guess and 16x by the cubic one
    t = 0.1 * np.arange(13)
    w = np.random.default_rng(5).uniform(1.0, 2.0, sphere40.n_p)
    if script == "quartic":
        values = 1.0 + t - t ** 2 + 0.5 * t ** 3 + 2.0 * t ** 4
    else:
        values = 1.0 + t + 1e-3 * (-1.0) ** np.arange(t.size)
    levels = [v * w for v in values]
    guesses = []
    monkeypatch.setattr(diffusion, "BiCGSTAB",
                        scripted_solver(levels[1:], guesses))
    bdf2_solve(sphere40, levels[0], ALPHA, 1e-3, t.size - 1)
    assert len(guesses) == t.size - 1
    misses = {}
    for step, guess in enumerate(guesses, start=1):
        held = levels[step - 1::-1][:_MAX_ORDER]    # newest first
        top = len(held)
        order = top if top not in misses else min(
            (top, top - 1), key=lambda p: misses[p])
        want = weighted_guess(held, order)
        assert np.abs(guess - want).max() <= 1e-12 * np.abs(want).max()
        if step > _MAX_ORDER:
            assert order == late_order
        misses = {p: np.abs(weighted_guess(held, p) - levels[step]).max()
                  for p in (top, top - 1) if p}


def bdf2_products(monkeypatch, disc, u0, alpha, k, n_steps):
    """The sparse products of a BDF2 march, over both of its solvers."""
    made = []

    class Counting(linalg.BiCGSTAB):
        def __init__(self, mat):
            super().__init__(mat)
            made.append(self)

    monkeypatch.setattr(diffusion, "BiCGSTAB", Counting)
    bdf2_solve(disc, u0, alpha, k, n_steps)
    assert len(made) == 2
    return sum(solver.products for solver in made)


def test_table31_march_products(monkeypatch):
    # sphere N = 80, k = 1/(2N): 1,918 products from the cubic guess alone,
    # 1,447 from the better of the cubic and quartic guesses
    disc = get_discretization("sphere", 80)
    p = disc.positions[:disc.n_p]
    u0 = 7.0 * (p[:, 0] - 2.0 * p[:, 1]) * (15.0 * p[:, 2] ** 2 - 3.0) / 8.0
    assert bdf2_products(monkeypatch, disc, u0, ALPHA, 1.0 / 160, 160) \
        <= 1600


def test_table32_march_products(monkeypatch):
    # ellipsoid N = 40, k = 1/(10N): 2,064 products from the cubic guess
    # alone, 1,620 from the better of the cubic and quartic guesses
    disc = get_discretization("ellipsoid", 40)
    p = disc.positions[:disc.n_p]
    u0 = np.cos(p[:, 0] - p[:, 1] + p[:, 2])
    assert bdf2_products(monkeypatch, disc, u0, 0.1, 1.0 / 400, 400) <= 1800


def test_bdf2_guess_may_be_overwritten(sphere40, cubic_harmonic,
                                       monkeypatch):
    # the solver iterates in its guess; a guess that aliased a held level
    # (order 1 is u^n) would carry the clobbered values into the march
    want = bdf2_solve(sphere40, cubic_harmonic, ALPHA, 0.01, 8)

    class Clobbering(linalg.BiCGSTAB):
        def solve(self, rhs, x0):
            x = super().solve(rhs, x0.copy())
            x0[:] = np.nan
            return x

    monkeypatch.setattr(diffusion, "BiCGSTAB", Clobbering)
    np.testing.assert_array_equal(
        bdf2_solve(sphere40, cubic_harmonic, ALPHA, 0.01, 8), want)


def test_bdf2_stops_at_the_iteration_cap(sphere40, cubic_harmonic,
                                         monkeypatch):
    monkeypatch.setattr(linalg, "_KRYLOV_MAXITER", 1)
    with pytest.raises(SolverAbortError, match="residual") as info:
        bdf2_solve(sphere40, cubic_harmonic, ALPHA, 1.0 / 400, 10)
    assert info.value.step == 1
    assert info.value.time == pytest.approx(1.0 / 400)
    assert "after 1 iterations" in str(info.value)


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


@pytest.mark.parametrize("surface", ["sphere", "ellipsoid"])
def test_chart_interpolation_converges(surface):
    # cos(x - y + z) on the N = 2n grid, read at the N = n grid's points;
    # max errors 2.9e-5 -> 3.8e-6 (sphere), 5.0e-5 -> 8.4e-6 (ellipsoid)
    def field(p):
        return np.cos(p[:, 0] - p[:, 1] + p[:, 2])

    errs = []
    for n in (40, 80):
        fine, coarse = (get_discretization(surface, m) for m in (2 * n, n))
        got = chart_interpolate(fine, field(fine.positions), coarse.positions)
        errs.append(np.abs(got - field(coarse.positions)).max())
    assert errs[0] / errs[1] >= 4.5, errs
