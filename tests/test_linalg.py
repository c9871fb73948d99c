import functools
import threading
import time
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import cut_record
from surfpde import (Grid, discretization, discretize, linalg, make_surface,
                     operators)
from surfpde.curve1d import ellipse
from surfpde.errors import SingularMatrixError, SolverAbortError
from surfpde.linalg import (BiCGSTAB, Factorization, _in_pair,
                            bordered_solve, dissection_order,
                            resolvent_entry_report, smallest_eigenvalues)
from surfpde.operators import (laplace_beltrami, reduced_laplace_beltrami,
                               reduced_operator)

# a shift-invert shift right of the nonpositive spectra below, as in
# spectrum.laplacian_eigenvalues
SHIFT = 0.5


def periodic_laplacian(n, h=1.0):
    i = np.arange(n)
    rows = np.concatenate([i, i, i])
    cols = np.concatenate([i, (i + 1) % n, (i - 1) % n])
    vals = np.concatenate([np.full(n, -2.0), np.ones(n), np.ones(n)]) / h ** 2
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def circle(n):
    # coordinates of the periodic Laplacian's unknowns, equally spaced
    angle = 2 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(angle), np.sin(angle)])


def line(n):
    return np.arange(n, dtype=float)[:, None]


def test_factorize_solves():
    rng = np.random.default_rng(3)
    dense = rng.normal(size=(40, 40)) + 40 * np.eye(40)
    mat = sp.csr_matrix(dense)
    x = rng.normal(size=40)
    fac = Factorization(mat, line(40))
    assert np.abs(fac.solve(mat @ x) - x).max() < 1e-10


def test_factorize_singular_raises():
    mat = sp.csr_matrix((3, 3))
    with pytest.raises(SingularMatrixError):
        Factorization(mat, line(3))


def test_refinement_failure_raises():
    # the stored matrix is not the factored one, so refinement on the
    # float32 factor stalls; the float64 refactor is made to factor the old
    # matrix too, so both paths fail and the last residual must raise
    # instead of returning x
    rng = np.random.default_rng(4)
    dense = rng.normal(size=(40, 40)) + 40 * np.eye(40)
    fac = Factorization(sp.csr_matrix(dense), line(40))
    stale = fac._factor(np.float64)
    refactored = []
    fac._factor = lambda dtype: refactored.append(dtype) or stale
    fac._mat = sp.csc_matrix(2.0 * dense)
    with pytest.raises(SingularMatrixError, match="residual"):
        fac.solve(rng.normal(size=40))
    assert refactored == [np.float64]
    assert fac.precision == np.float64


def test_ill_conditioned_matrix_falls_back_to_double():
    # condition number 1e10: float32 refinement stalls, so the matrix is
    # refactored in float64 and solved to a backward error below 1e-10
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(40, 40)))
    dense = q @ np.diag(np.logspace(0, -10, 40)) @ q.T
    assert np.linalg.cond(dense) == pytest.approx(1e10, rel=1e-3)
    mat = sp.csc_matrix(dense)
    fac = Factorization(mat, line(40))
    assert fac.precision == np.float32
    b = rng.normal(size=40)
    x = fac.solve(b)
    assert fac.precision == np.float64
    scale = linalg._inf_norm(mat) * np.abs(x).max() + np.abs(b).max()
    assert np.abs(b - mat @ x).max() <= 1e-10 * scale
    # later solves start on the float64 factor
    before = fac.refinements
    fac.solve(b)
    assert fac.precision == np.float64 and fac.refinements - before <= 3


def test_single_precision_solve_reaches_double_roundoff():
    # a well-conditioned matrix stays on its float32 factor; right-hand
    # sides far outside float32's range are scaled, not flushed to 0 or inf
    rng = np.random.default_rng(6)
    dense = rng.normal(size=(40, 40)) + 40 * np.eye(40)
    mat = sp.csc_matrix(dense)
    fac = Factorization(mat, line(40))
    x = rng.normal(size=40)
    for size in (1.0, 1e-45, 1e45):
        got = fac.solve(mat @ (size * x))
        assert np.abs(got - size * x).max() <= 1e-14 * size
    assert fac.precision == np.float32
    assert fac.refinements <= 3 * 6


def test_bicgstab_breakdown_ends_in_abort():
    # r0 = (1, 1) is orthogonal to A r0, so the first step breaks down
    # each time the iteration restarts; the abort names the true residual
    mat = sp.csr_matrix([[1.0, -2.0], [0.0, 1.0]])
    solver = BiCGSTAB(mat)
    with pytest.raises(SolverAbortError, match=r"residual 1\.000e\+00 "):
        solver.solve(np.ones(2), np.zeros(2))
    # each pass forms the true residual and one product before breaking
    # down; every pass after the first is a restart
    cap = linalg._KRYLOV_MAXITER
    assert (solver.products, solver.restarts) == (2 * cap + 1, cap - 1)


class CountingMatrix:
    def __init__(self, mat):
        self.mat, self.count = mat, 0

    def __matmul__(self, vec):
        self.count += 1
        return self.mat @ vec


def test_bicgstab_products_match_the_products_made():
    # a nonsymmetric tridiagonal system takes full iterations; every
    # product the solver makes, and only those, is counted
    n = 60
    mat = sp.diags([-1.3, 3.0, -0.7], [-1, 0, 1], shape=(n, n), format="csr")
    solver = BiCGSTAB(mat)
    counter = solver._mat = CountingMatrix(solver._mat)
    rhs = np.random.default_rng(2).normal(size=n)
    for _ in range(2):
        x = solver.solve(rhs, np.zeros(n))
        assert np.abs(mat @ x - rhs).max() <= 1e-12
    assert counter.count > 10
    assert (solver.products, solver.restarts) == (counter.count, 0)


def test_bicgstab_counts_its_work_over_its_solves():
    # on the identity one iteration lands on b: the initial residual, one
    # product and the accepting true residual; from b itself, only the last
    solver = BiCGSTAB(sp.identity(3, format="csr"))
    b = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(solver.solve(b, np.zeros(3)), b)
    assert (solver.products, solver.restarts) == (3, 0)
    solver.solve(b, b)
    assert (solver.products, solver.restarts) == (4, 0)


def test_bicgstab_iterates_in_a_float_guess():
    # a float guess becomes the iterate; any other is converted, untouched
    mat = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(20, 20),
                   format="csr")
    rhs = np.arange(20.0)
    solver = BiCGSTAB(mat)
    guess = np.zeros(20)
    x = solver.solve(rhs, guess)
    assert x is guess
    assert np.abs(mat @ x - rhs).max() <= 1e-12
    int_guess = np.zeros(20, dtype=int)
    np.testing.assert_array_equal(solver.solve(rhs, int_guess), x)
    assert not int_guess.any()


def closed_form_smallest(n, h, count):
    lam = [-(2.0 / h ** 2) * (1 - np.cos(2 * np.pi * m / n))
           for m in range(n)]
    return np.array(sorted(lam, key=abs)[:count])


def test_periodic_laplacian_eigenvalues_closed_form():
    n, h = 64, 0.1
    vals = smallest_eigenvalues(periodic_laplacian(n, h), 5, circle(n),
                                sigma=SHIFT)
    assert np.abs(vals.imag).max() < 1e-9
    assert np.abs(np.sort(vals.real) - np.sort(closed_form_smallest(n, h, 5))
                  ).max() < 1e-8


def test_shift_invert_matches_dense_eigenvalues_on_the_sphere():
    # the 49 eigenvalues of table 3.3 at N = 20, against a dense solve of
    # the same reduced operator made here
    d = discretize(make_surface("sphere"), Grid.cube(-1.2, 1.2, 20))
    red = reduced_laplace_beltrami(d, "nondivergence")
    assert d.n_p == 714
    vals = smallest_eigenvalues(red, 49, d.positions[:d.n_p], sigma=SHIFT)
    dense = np.linalg.eigvals(red.toarray())
    ref = dense[np.argsort(np.abs(dense), kind="stable")][:49]
    assert np.abs(np.sort_complex(vals) - np.sort_complex(ref)).max() <= 1e-10


def test_shift_invert_path_matches_dense_path():
    # against the closed form at a size where a dense solve is slow
    n, h = 2000, 0.1
    vals = smallest_eigenvalues(periodic_laplacian(n, h), 5, circle(n),
                                sigma=SHIFT)
    assert np.abs(vals.imag).max() < 1e-7
    assert np.abs(np.sort(vals.real) - np.sort(closed_form_smallest(n, h, 5))
                  ).max() < 1e-6


def test_bordered_solve_constant_shift():
    # singular system A u + beta 1 = f with sum(u) = 0
    lap = periodic_laplacian(32)
    rng = np.random.default_rng(11)
    f = rng.normal(size=32)
    u, beta = bordered_solve(lap, f, circle(32))
    assert abs(u.sum()) < 1e-9
    assert np.abs(lap @ u + beta - f).max() < 1e-9
    assert beta == pytest.approx(f.mean())


def test_resolvent_entry_report_m_matrix_case():
    lap = periodic_laplacian(32, h=0.5)
    reports = resolvent_entry_report(lap, [0.5, 2.0], h=0.5)
    for rep in reports:
        assert rep["invertible"]
        # classic five-point resolvent is entrywise nonnegative, row sums 1
        assert rep["min_entry"] >= -1e-14
        assert rep["max_rowsum_dev"] < 1e-12


def explicit_bordered_solve(mat, rhs):
    """The (n+1) bordered system [[A, 1], [1^T, 0]], solved directly."""
    n = mat.shape[0]
    ones = sp.csr_matrix(np.ones((n, 1)))
    big = sp.bmat([[mat, ones], [ones.T, None]], format="csc")
    sol = spla.spsolve(big, np.concatenate([rhs, [0.0]]))
    return sol[:n], sol[n]


@functools.lru_cache(maxsize=None)
def disc40(name, seed):
    h = 2.4 / 40
    shift = (np.zeros(3) if seed == 0
             else np.random.default_rng(seed).uniform(0.0, h, 3))
    grid = Grid(tuple(float(v) for v in shift - 1.2), h, (40, 40, 40))
    return discretize(make_surface(name), grid)


# the nondivergence form exists for the sphere only
PINNED_CASES = [
    ("sphere", 0, "divergence"), ("sphere", 0, "nondivergence"),
    ("sphere", 1, "divergence"), ("sphere", 1, "nondivergence"),
    ("ellipsoid", 0, "divergence"), ("ellipsoid", 1, "divergence")]


@pytest.mark.parametrize("name,seed,form", PINNED_CASES)
def test_pinned_solve_matches_explicit_border(name, seed, form):
    disc = disc40(name, seed)
    red = reduced_operator(laplace_beltrami(disc, form), disc)
    f = np.random.default_rng(17).normal(size=disc.n_p)
    u, beta = bordered_solve(red, f, disc.positions[:disc.n_p])
    u_ref, beta_ref = explicit_bordered_solve(red, f)
    scale = np.abs(u_ref).max()
    assert np.abs(u - u_ref).max() <= 1e-12 * scale
    assert abs(beta - beta_ref) <= 1e-12 * scale
    assert abs(u.sum()) <= 1e-12 * scale * disc.n_p


def summed_pin_solve(mat, rhs, points):
    """bordered_solve's u and beta with B formed as the sparse sum
    A + d e_j e_j^T and passed to Factorization directly."""
    mat = sp.csc_matrix(mat)
    n = mat.shape[0]
    j = int(np.argmax(np.abs(mat.diagonal())))
    pin = sp.csc_matrix(([abs(mat[j, j])], ([j], [j])), shape=(n, n))
    fac = Factorization(mat + pin, points)
    v, z = fac.solve(np.column_stack([rhs, np.ones(n)])).T
    beta = float(v[j] / z[j])
    u = v - beta * z
    u -= u.mean()
    return u, beta


@pytest.mark.parametrize("name,seed,form", PINNED_CASES)
def test_pinned_copy_solves_like_the_summed_pin(name, seed, form):
    # d added in place to the one CSC copy gives the B of the sparse sum,
    # so u and beta are the same bit for bit
    disc = disc40(name, seed)
    red = reduced_operator(laplace_beltrami(disc, form), disc)
    f = np.random.default_rng(17).normal(size=disc.n_p)
    u, beta = bordered_solve(red, f, disc.positions[:disc.n_p])
    u_ref, beta_ref = summed_pin_solve(red, f, disc.positions[:disc.n_p])
    assert u.tobytes() == u_ref.tobytes()
    assert beta == beta_ref


def test_bordered_solve_leaves_a_csc_argument_unchanged():
    disc = disc40("sphere", 1)
    red = reduced_operator(laplace_beltrami(disc, "divergence"), disc).tocsc()
    before = [arr.tobytes() for arr in (red.data, red.indices, red.indptr)]
    bordered_solve(red, np.random.default_rng(17).normal(size=disc.n_p),
                   disc.positions[:disc.n_p])
    assert [arr.tobytes() for arr in (red.data, red.indices,
                                      red.indptr)] == before


def test_bordered_solve_rejects_two_dimensional_null_space():
    # two uncoupled periodic Laplacians: constants on each block separately
    lap = sp.block_diag([periodic_laplacian(16), periodic_laplacian(24)],
                        format="csr")
    f = np.random.default_rng(19).normal(size=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NaN or inf on the way fails
        with pytest.raises(SingularMatrixError):
            bordered_solve(lap, f, np.vstack([circle(16), circle(24) + 3]))


@pytest.mark.parametrize("name", ["sphere40", "ellipsoid40"])
def test_factorization_fill_below_colamd(name, request):
    disc = request.getfixturevalue(name)
    k, alpha = 1.0 / 80.0, 0.1
    red = reduced_operator(laplace_beltrami(disc, "divergence"), disc)
    mat = sp.csc_matrix(sp.identity(disc.n_p)
                        - (2.0 / 3.0) * k * alpha * red)
    lu = Factorization(mat, disc.positions[:disc.n_p])._lu
    fill = (lu.L.nnz + lu.U.nnz) / mat.nnz
    colamd = spla.splu(mat, permc_spec="COLAMD")
    colamd_fill = (colamd.L.nnz + colamd.U.nnz) / mat.nnz
    assert fill <= 0.8 * colamd_fill


# -- _in_pair: every caller's two threads give the parts in turn ------------

class FirstFault(Exception):
    pass


def shifted_grid(base, n, seed):
    grid = base(-1.2, 1.2, n)
    off = np.random.default_rng(seed).uniform(0.0, grid.h, len(grid.shape))
    return Grid(tuple(np.asarray(grid.origin) + off), grid.h, grid.n_cells)


@functools.lru_cache(maxsize=None)
def ordering_problem():
    disc = disc40("sphere", 1)
    return (disc.positions[:disc.n_p],
            reduced_operator(laplace_beltrami(disc), disc))


# each caller of _in_pair: the call, and the module and name of the
# function that its (first) pair's first callable runs
PAIR_CALLERS = {
    # a catalog surface, with a gradient bound, and a curve, without one:
    # the narrow band and every block
    "cut_points_surface": (
        lambda: cut_record(make_surface("ellipsoid"),
                           shifted_grid(Grid.cube, 40, 1), 0.45),
        discretization, "_band_run"),
    "cut_points_curve": (
        lambda: cut_record(ellipse(), shifted_grid(Grid.square, 80, 2),
                           0.45),
        discretization, "_band_run"),
    # a new discretization each time, so E is built and not taken from
    # the cache
    "reduced_laplace_beltrami": (
        lambda: reduced_laplace_beltrami(
            discretize(make_surface("sphere"), shifted_grid(Grid.cube, 24,
                                                            3))),
        operators, "laplace_beltrami"),
    "dissection_order": (lambda: dissection_order(*ordering_problem()),
                         linalg, "_edges"),
}


def assert_identical(a, b):
    """a and b equal bit for bit: arrays in dtype and value, sparse
    matrices in format and arrays, dicts and tuples item by item."""
    if sp.issparse(a):
        assert a.format == b.format
        for name in ("indptr", "indices", "data"):
            assert_identical(getattr(a, name), getattr(b, name))
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_identical(a[key], b[key])
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_identical(x, y)
    else:
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("caller", sorted(PAIR_CALLERS))
def test_every_pair_caller_equals_its_parts_in_turn(caller, monkeypatch,
                                                    run_inline):
    call, module, name = PAIR_CALLERS[caller]
    before = threading.active_count()
    threaded = call()
    assert threading.active_count() == before
    # the first callable fails on this thread while the second runs on
    # the worker: its error reaches the caller, and no worker is left
    real, here = getattr(module, name), threading.get_ident()

    def failing(*args, **kwargs):
        if threading.get_ident() == here:
            raise FirstFault(name)
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(module, name, failing)
        with pytest.raises(FirstFault, match=name):
            call()
    assert threading.active_count() == before
    run_inline(linalg)
    assert_identical(threaded, call())


def test_in_pair_joins_its_worker_before_the_first_error_wins():
    ended = []

    def first():
        raise FirstFault("first")

    def second():
        time.sleep(0.05)
        ended.append(threading.get_ident())
        raise ValueError("second")

    before = threading.active_count()
    with pytest.raises(FirstFault, match="first"):
        _in_pair(first, second)
    assert ended and ended[0] != threading.get_ident()
    assert threading.active_count() == before
