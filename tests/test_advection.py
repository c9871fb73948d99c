"""Scalar transport on the sphere: the closed-form test flow, the
predictor-corrector marcher, and its second-order convergence."""

import numpy as np
import pytest
import scipy.sparse as sp

from surfpde import maccormack
from surfpde.advection import (exact_integral, exact_solution,
                               rotation_velocity, solve_advection)
from surfpde.experiments import get_discretization


def test_velocity_is_tangential_everywhere():
    # v . x vanishes identically, not only on the unit sphere
    rng = np.random.default_rng(11)
    p = rng.normal(size=(1000, 3)) * rng.uniform(0.5, 1.5, size=(1000, 1))
    v = rotation_velocity(p)
    assert np.abs((v * p).sum(axis=1)).max() < 1e-13


def test_exact_solution_special_values():
    rng = np.random.default_rng(12)
    p = rng.normal(size=(200, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    r2 = p[:, 0] ** 2 + p[:, 1] ** 2
    assert np.abs(exact_solution(p, 0.0) - r2).max() < 1e-14
    assert exact_solution(np.array([1.0, 0.0, 0.0]), np.pi / 2) \
        == pytest.approx(0.5, abs=1e-15)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    for t in (0.0, 0.8, 3.0):
        assert np.abs(exact_solution(poles, t)).max() == 0.0


def test_exact_pair_satisfies_transport_equation():
    # independent check: d/dt u + v . grad u = 0 on the unit sphere,
    # via centered finite differences of the closed form
    rng = np.random.default_rng(5)
    p = rng.normal(size=(40, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    t, e = 0.7, 1e-5
    for q in p:
        ut = (exact_solution(q, t + e) - exact_solution(q, t - e)) / (2 * e)
        g = np.zeros(3)
        for k in range(3):
            dq = np.zeros(3)
            dq[k] = e
            g[k] = (exact_solution(q + dq, t)
                    - exact_solution(q - dq, t)) / (2 * e)
        assert abs(ut + rotation_velocity(q) @ g) < 1e-8


def test_exact_integral_at_time_zero_closed_form():
    # integral of x^2 + y^2 over the unit sphere is 8 pi / 3
    assert exact_integral(0.0) == pytest.approx(8.0 * np.pi / 3.0, abs=1e-12)


def test_solver_second_order_against_closed_form():
    errs = {}
    for n in (40, 80):
        d = get_discretization("sphere", n)
        (_, u), = solve_advection(d, [0.5])
        ex = exact_solution(d.positions[: d.n_p], 0.5)
        errs[n] = np.abs(u - ex).max() / np.abs(ex).max()
    assert errs[40] < 5e-3
    assert errs[80] < 1.5e-3
    assert 3.2 < errs[40] / errs[80] < 5.4


def test_snapshots_continue_the_same_march():
    d = get_discretization("sphere", 40)
    split = solve_advection(d, [0.25, 0.5])
    single = solve_advection(d, [0.5])
    assert len(split) == 2
    assert split[0][0] == 0.25 and split[1][0] == 0.5
    assert np.array_equal(split[1][1], single[0][1])


def test_folded_operators_annihilate_constants(sphere40, monkeypatch):
    # each substep is one product with R = -(V1 D1 + V2 D2) E / h on the
    # primaries; E reproduces constants and differences kill them, so R 1 = 0
    d = sphere40
    steps = []

    def record(u, k, rhs, equilibrate, extra_corrector=None):
        steps.append((rhs, equilibrate))
        return u

    monkeypatch.setattr(maccormack, "maccormack_step", record)
    solve_advection(d, [1.0 / 80.0])
    (rhs, equilibrate), = steps
    ones = np.ones(d.n_p)
    assert equilibrate(ones) is ones
    for direction in ("forward", "backward"):
        r = rhs(direction, sp.identity(d.n_p, format="csr"))
        assert r.shape == (d.n_p, d.n_p)
        assert r.nnz < 4 * d.n_p
        assert np.abs(rhs(direction, ones)).max() <= 1e-12 * abs(r).max()


def test_unaligned_time_is_rejected():
    d = get_discretization("sphere", 40)
    with pytest.raises(ValueError):
        solve_advection(d, [1.0 / 3.0])
