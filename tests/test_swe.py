"""Shallow-water flow on the sphere: steady zonal flow drift, rest-state
invariance, tangency of the evolved momentum, and quadrature cross-checks."""

import dataclasses
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from surfpde import Grid, discretize, make_surface
from surfpde import maccormack, swe
from surfpde.advection import rotation_velocity
from surfpde.discretization import SLOT_E, SLOT_N, SLOT_S, SLOT_W
from surfpde.experiments import get_discretization
from surfpde.maccormack import maccormack_step
from surfpde.operators import primary_chart_axes
from surfpde.quadrature import quadrature_weights
from surfpde.serialization import dump_discretization, load_discretization
from surfpde.swe import (_swe_rhs, _Workspace, coriolis_parameter,
                         exact_energy_integral, exact_height,
                         exact_height_integral, exact_velocity, initial_state,
                         solve_swe, williamson_params)


@pytest.fixture(scope="module")
def params():
    return williamson_params()


def test_parameter_values(params):
    # nondimensional groups for the tilted zonal flow (unit radius, unit day)
    assert params.omega == pytest.approx(7.292e-5 * 86400, rel=1e-12)
    assert params.u0 == pytest.approx(2 * np.pi / 12, rel=1e-12)
    assert params.phi0 == pytest.approx(2.94e4 * (86400 / 6.37122e6) ** 2,
                                        rel=1e-12)
    assert params.mu == pytest.approx(
        params.omega * params.u0 + params.u0 ** 2 / 2, rel=1e-12)
    assert params.cos_a == pytest.approx(np.cos(np.radians(30)), rel=1e-12)


def test_exact_flow_is_tangential(params):
    rng = np.random.default_rng(21)
    p = rng.normal(size=(500, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    v = exact_velocity(p, params)
    assert np.abs((v * p).sum(axis=1)).max() < 1e-13


def test_initial_state_matches_closed_forms(params):
    d = get_discretization("sphere", 40)
    phi, mom = initial_state(d, params)
    p = d.positions[: d.n_p]
    assert np.allclose(phi, exact_height(p, params), atol=1e-13)
    assert np.allclose(mom, phi[:, None] * exact_velocity(p, params),
                       atol=1e-12)
    assert (phi > 0).all()


def test_quadrature_matches_integral_closed_forms(params):
    d = get_discretization("sphere", 80)
    p = d.positions
    v = exact_velocity(p, params)
    qw = quadrature_weights(d)
    mass = qw.integrate(exact_height(p, params))
    energy = qw.integrate((v * v).sum(axis=1))
    assert mass == pytest.approx(exact_height_integral(params), rel=1e-5)
    assert energy == pytest.approx(exact_energy_integral(params), rel=1e-5)


def test_rest_state_is_stationary(params):
    # zero velocity and flat height: every forcing term must cancel exactly
    rest = dataclasses.replace(params, u0=0.0, mu=0.0)
    d = get_discretization("sphere", 40)
    k = 1.0 / 80
    (_, phi, mom), = solve_swe(d, rest, [10 * k])
    assert np.abs(phi - rest.phi0).max() < 1e-12
    assert np.abs(mom).max() < 1e-12


def test_steady_flow_drift_converges(params):
    errs = {}
    for n in (40, 80):
        d = get_discretization("sphere", n)
        (_, phi, mom), = solve_swe(d, params, [0.5])
        p = d.positions[: d.n_p]
        phi_ex = exact_height(p, params)
        mom_ex = phi_ex[:, None] * exact_velocity(p, params)
        errs[n] = (np.abs(phi - phi_ex).max() / np.abs(phi_ex).max(),
                   np.abs(mom - mom_ex).max() / np.abs(mom_ex).max())
        normal_part = np.abs((mom * d.normals[: d.n_p]).sum(axis=1)).max()
        assert normal_part <= 1e-12
    assert errs[40][0] < 4e-2 and errs[40][1] < 6e-2
    assert errs[80][0] < 1.2e-2 and errs[80][1] < 2e-2
    assert errs[40][0] / errs[80][0] > 2.5
    assert errs[40][1] / errs[80][1] > 2.5


def test_unaligned_time_is_rejected(params):
    d = get_discretization("sphere", 40)
    with pytest.raises(ValueError):
        solve_swe(d, params, [1.0 / 3.0])


def gather_rhs(disc, params, direction, full):
    """The right-hand side by neighbor gathers on a point-major (n_tot, 4)
    state, returning (n_p, 4): the oracle for the chart-difference form."""
    n_p, h = disc.n_p, disc.h
    c1, c2 = primary_chart_axes(disc)
    idx = np.arange(n_p)
    pos = disc.positions
    ax = disc.axis[:n_p].astype(np.int64)
    inv_h2 = 1.0 / pos[idx, ax] ** 2
    geo1, geo2 = pos[idx, c1] * inv_h2, pos[idx, c2] * inv_h2
    normals = disc.normals[:n_p]
    f = coriolis_parameter(pos[:n_p], params)
    nb = disc.chart_neighbors
    if direction == "forward":
        hi1, lo1, hi2, lo2 = nb[:, SLOT_E], idx, nb[:, SLOT_N], idx
    else:
        hi1, lo1, hi2, lo2 = idx, nb[:, SLOT_W], idx, nb[:, SLOT_S]
    phi, mom = full[:, 0], full[:, 1:4]
    m1_hi, m1_lo = mom[hi1, c1], mom[lo1, c1]
    m2_hi, m2_lo = mom[hi2, c2], mom[lo2, c2]
    m1_c, m2_c = mom[idx, c1], mom[idx, c2]
    dphi = -((m1_hi - m1_lo) / h + (m2_hi - m2_lo) / h
             + geo1 * m1_c + geo2 * m2_c)
    flux1_hi = (m1_hi / phi[hi1])[:, None] * mom[hi1]
    flux1_lo = (m1_lo / phi[lo1])[:, None] * mom[lo1]
    flux2_hi = (m2_hi / phi[hi2])[:, None] * mom[hi2]
    flux2_lo = (m2_lo / phi[lo2])[:, None] * mom[lo2]
    adv = (flux1_hi - flux1_lo + flux2_hi - flux2_lo) / h
    half_sq = 0.5 * phi ** 2
    press = np.zeros_like(adv)
    press[idx, c1] = (half_sq[hi1] - half_sq[lo1]) / h
    press[idx, c2] = (half_sq[hi2] - half_sq[lo2]) / h
    v = adv + press
    tangential = v - (v * normals).sum(axis=1, keepdims=True) * normals
    mom_c = mom[idx]
    coriolis = f[:, None] * np.cross(normals, mom_c)
    geo = ((geo1 * m1_c + geo2 * m2_c) / phi[idx])[:, None] * mom_c
    return np.column_stack([dphi, -(tangential + coriolis + geo)])


def perturbed_full_state(disc, params, seed):
    phi, mom = initial_state(disc, params)
    state = np.column_stack([phi, mom])
    rng = np.random.default_rng(seed)
    return disc.extend(state * (1.0 + 0.01 * rng.normal(size=state.shape)))


@pytest.fixture(scope="module")
def shifted_sphere40():
    h = 2.4 / 40
    shift = np.random.default_rng(1).uniform(0.0, h, 3)
    return discretize(make_surface("sphere"),
                      Grid(tuple(float(v) for v in shift - 1.2), h,
                            (40, 40, 40)))


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("which", ["centred", "shifted"])
def test_rhs_matches_gather_formula(params, direction, which,
                                    shifted_sphere40):
    d = get_discretization("sphere", 40) if which == "centred" \
        else shifted_sphere40
    full = perturbed_full_state(d, params, seed=3)
    want = gather_rhs(d, params, direction, full)
    got = _swe_rhs(_Workspace(d, params), direction,
                   np.ascontiguousarray(full.T))
    assert got.shape == (4, d.n_p)
    scale = np.abs(want).max(axis=0)
    assert (np.abs(got.T - want).max(axis=0) <= 1e-12 * scale).all()


def test_mass_row_divergence_oracle(params, sphere40, sphere80):
    # with Phi = 1 the mass row is minus the surface divergence of the
    # momentum; the mean of its two one-sided forms converges at second
    # order to div v = 3 x z for the advection test velocity
    errs = []
    for d in (sphere40, sphere80):
        full = np.vstack([np.ones(d.n_tot), rotation_velocity(d.positions).T])
        ws = _Workspace(d, params)
        div = -0.5 * (_swe_rhs(ws, "forward", full)[0]
                      + _swe_rhs(ws, "backward", full)[0])
        p = d.positions[:d.n_p]
        errs.append(np.abs(div - 3.0 * p[:, 0] * p[:, 2]).max())
    assert errs[0] < 0.03
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_reloaded_discretization_builds_its_own_operators(params, tmp_path):
    d = get_discretization("sphere", 40)
    path = tmp_path / "sphere40.npz"
    dump_discretization(d, path)
    back = load_discretization(path)
    assert back.chart_differences() is not d.chart_differences()
    assert (back.chart_differences() != d.chart_differences()).nnz == 0
    full = np.ascontiguousarray(perturbed_full_state(d, params, seed=4).T)
    for direction in ("forward", "backward"):
        np.testing.assert_array_equal(
            _swe_rhs(_Workspace(back, params), direction, full),
            _swe_rhs(_Workspace(d, params), direction, full))


def test_step_extension_is_the_e_product(params, shifted_sphere40,
                                         monkeypatch):
    # solve_swe extends the component-major state row by row; every
    # extension must equal E applied to the point-major state, bit for bit,
    # and must not be overwritten by the next one
    d = shifted_sphere40
    ext = d.extension_matrix()
    steps = []

    def checked_step(state_p, k, rhs, equilibrate, **kwargs):
        first = equilibrate(state_p)
        second = equilibrate(2.0 * state_p)
        want = (ext @ np.ascontiguousarray(state_p.T)).T
        np.testing.assert_array_equal(first, want)
        np.testing.assert_array_equal(second, (ext @ (2.0 * state_p.T)).T)
        steps.append(k)
        return maccormack_step(state_p, k, rhs, equilibrate, **kwargs)

    monkeypatch.setattr(maccormack, "maccormack_step", checked_step)
    solve_swe(d, params, [2.0 / 80.0])
    assert len(steps) == 2


class InlineExecutor:
    """A stand-in for the step's worker pool that runs each task at once,
    on the calling thread."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_worker_viscosity_march_equals_the_inline_march(
        params, shifted_sphere40, monkeypatch):
    d = shifted_sphere40
    times = [4.0 / 80.0, 10.0 / 80.0]
    threads = set()
    viscosity = swe.artificial_viscosity

    def recording(*args):
        threads.add(threading.get_ident())
        return viscosity(*args)

    monkeypatch.setattr(swe, "artificial_viscosity", recording)
    threaded = solve_swe(d, params, times)
    assert threads and threading.get_ident() not in threads
    threads.clear()
    monkeypatch.setattr(swe, "ThreadPoolExecutor", InlineExecutor)
    inline = solve_swe(d, params, times)
    assert threads == {threading.get_ident()}
    for (t1, phi1, mom1), (t2, phi2, mom2) in zip(threaded, inline,
                                                  strict=True):
        assert t1 == t2
        np.testing.assert_array_equal(phi1, phi2)
        np.testing.assert_array_equal(mom1, mom2)


class ViscosityFault(Exception):
    pass


def test_solve_swe_leaves_no_thread_running(params, monkeypatch):
    d = get_discretization("sphere", 40)
    before = threading.active_count()
    solve_swe(d, params, [2.0 / 80.0])
    assert threading.active_count() == before

    # the third call is the first of the second step
    viscosity, calls = swe.artificial_viscosity, []

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise ViscosityFault("viscosity failed")
        return viscosity(*args)

    monkeypatch.setattr(swe, "artificial_viscosity", failing)
    with pytest.raises(ViscosityFault, match="viscosity failed"):
        solve_swe(d, params, [4.0 / 80.0])
    assert threading.active_count() == before
