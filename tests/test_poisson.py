"""Mean-constrained Poisson solves on the sphere against a closed-form
manufactured solution."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from surfpde import linalg
from surfpde.experiments import get_discretization
from surfpde.poisson import poisson_solve


def _case(disc):
    p = disc.positions[: disc.n_p]
    s = p[:, 0] + p[:, 1] - 2.0 * p[:, 2]
    # surface Laplacian of cos(s) on the unit sphere, s = x + y - 2z
    f = -(6.0 - s ** 2) * np.cos(s) + 2.0 * s * np.sin(s)
    exact = np.cos(s)
    return f, exact - exact.mean()


@pytest.mark.parametrize("form", ["divergence", "nondivergence"])
def test_manufactured_solution_and_multiplier(form):
    d = get_discretization("sphere", 40)
    f, exact = _case(d)
    u, beta = poisson_solve(d, f, form=form)
    assert abs(u.mean()) <= 1e-12
    assert np.abs(u - exact).max() < 5.5e-3
    # the multiplier absorbs the O(h^2) quadrature defect of the forcing
    assert abs(beta) <= 10 * d.grid.h ** 2


def test_second_order_convergence():
    errs = {}
    for n in (40, 80):
        d = get_discretization("sphere", n)
        f, exact = _case(d)
        u, _ = poisson_solve(d, f)
        errs[n] = np.abs(u - exact).max()
    assert 3.2 < errs[40] / errs[80] < 5.0


def test_zero_forcing_gives_zero_solution():
    d = get_discretization("sphere", 40)
    u, beta = poisson_solve(d, np.zeros(d.n_p))
    assert np.abs(u).max() < 1e-10
    assert abs(beta) < 1e-10


def test_pinned_factor_stays_single_precision(monkeypatch):
    # the N = 80 bordered solve refines its float32 factor to double
    # roundoff in a few passes and never falls back to float64
    made = []

    class Recorded(linalg.Factorization):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(linalg, "Factorization", Recorded)
    d = get_discretization("sphere", 80)
    f, exact = _case(d)
    u, _ = poisson_solve(d, f)
    assert np.abs(u - exact).max() < 1.5e-3
    (fac,) = made
    assert fac.precision == np.float32
    assert 1 <= fac.refinements <= 6


def test_factor_starts_with_one_float64_copy_of_the_operator(monkeypatch):
    # at SuperLU's entry the solve holds the permuted float64 L, the
    # float32 values given to SuperLU and the ordering, beyond the record
    # and its E; it used to hold L four times in float64
    d = get_discretization("sphere", 80)
    d.extension_matrix()
    f, _ = _case(d)
    seen = []
    splu = spla.splu

    def recording(mat, *args, **kwargs):
        budget = (8 * mat.nnz + mat.indices.nbytes + mat.indptr.nbytes
                  + mat.data.nbytes + 8 * mat.shape[0])
        seen.append((tracemalloc.get_traced_memory()[0], budget))
        return splu(mat, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        poisson_solve(d, f)
    finally:
        if started:
            tracemalloc.stop()
    ((held, budget),) = seen
    assert held - base <= budget + 2 ** 16
