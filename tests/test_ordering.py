"""Nested-dissection ordering: a deterministic permutation, checked input,
solutions equal to a direct solve, and less fill than minimum degree."""

import hashlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from surfpde import Grid, discretize, make_surface
from surfpde.linalg import Factorization, dissection_order
from surfpde.operators import laplace_beltrami, reduced_operator


def disc_at(name, n, seed):
    h = 2.4 / n
    shift = (np.zeros(3) if seed == 0
             else np.random.default_rng(seed).uniform(0.0, h, 3))
    grid = Grid(tuple(float(v) for v in shift - 1.2), h, (n, n, n))
    return discretize(make_surface(name), grid)


def factored_matrices(disc, n):
    """Three fill cases for the nested-dissection order on the primaries.

    The pinned Poisson and shifted matrices are the ones the package
    factors.  BDF2 now solves its step matrix iteratively, but that matrix
    stays here as a third pattern, diagonally dominant, for the order.
    """
    red = sp.csc_matrix(
        reduced_operator(laplace_beltrami(disc, "divergence"), disc))
    eye = sp.identity(disc.n_p, format="csc")
    j = int(np.argmax(np.abs(red.diagonal())))
    pin = sp.csc_matrix(([abs(red[j, j])], ([j], [j])), shape=red.shape)
    k, alpha = 1.0 / (2 * n), 1.0 / 12.0
    return {"bdf2": eye - (2.0 / 3.0) * k * alpha * red,
            "pinned poisson": red + pin,
            "shift 0.5": red - 0.5 * eye}


def path_graph(n):
    i = np.arange(n - 1)
    return sp.csr_matrix((np.concatenate([-np.ones(2 * n - 2),
                                          np.full(n, 3.0)]),
                          (np.concatenate([i, i + 1, np.arange(n)]),
                           np.concatenate([i + 1, i, np.arange(n)]))),
                         shape=(n, n))


def test_order_is_a_repeatable_permutation(sphere40):
    red = reduced_operator(laplace_beltrami(sphere40), sphere40)
    pts = sphere40.positions[:sphere40.n_p]
    first = dissection_order(pts, red)
    assert np.array_equal(np.sort(first), np.arange(sphere40.n_p))
    assert np.array_equal(first, dissection_order(pts, red))


# SHA-256 of the little-endian int64 order, recorded from the one-thread
# level loop; splitting the two root halves on two threads must not move it
ORDER_SHA256 = {
    ("ellipsoid", 80, 3):
        "d74654752cd3773610dd9f061b3536713512c9b96b32bb058f9953d9af3db1d4",
    ("sphere", 160, 1):
        "39ac47aa93254395af53671fa94d81ea6cce4c8556da8df3e8b8c051d547f5cb",
}


@pytest.mark.parametrize("name,n,seed", sorted(ORDER_SHA256))
def test_order_matches_the_recorded_digest(name, n, seed):
    disc = disc_at(name, n, seed)
    red = reduced_operator(laplace_beltrami(disc), disc)
    # switch threads often, so a lost update of the shared path would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        order = dissection_order(disc.positions[:disc.n_p], red)
    finally:
        sys.setswitchinterval(interval)
    digest = hashlib.sha256(order.astype("<i8").tobytes()).hexdigest()
    assert digest == ORDER_SHA256[name, n, seed]


def test_root_separator_is_eliminated_last():
    # a path split at its median: node 19 is the only left node with an
    # edge into the right half, so the post-order ends with it
    order = dissection_order(np.arange(40.0)[:, None], path_graph(40))
    assert np.array_equal(np.sort(order), np.arange(40))
    assert order[-1] == 19


@pytest.mark.parametrize("points", [
    np.zeros((39, 1)), np.zeros(40), np.zeros((40, 0)),
    np.where(np.arange(40)[:, None] == 7, np.nan, 0.0)])
def test_bad_points_raise(points):
    with pytest.raises(ValueError, match="points"):
        dissection_order(points, path_graph(40))


def test_bad_points_raise_under_optimize_flag(subprocess_env):
    code = (
        "import numpy as np, scipy.sparse as sp\n"
        "from surfpde.linalg import Factorization\n"
        "mat = sp.identity(4, format='csc')\n"
        "for pts in (np.zeros((3, 2)), np.full((4, 2), np.nan)):\n"
        "    try:\n"
        "        Factorization(mat, pts)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('no ValueError')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=subprocess_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("name", ["sphere", "ellipsoid"])
def test_solutions_match_direct_solve(name):
    disc = disc_at(name, 40, 0)
    rhs = np.random.default_rng(5).normal(size=disc.n_p)
    for what, mat in factored_matrices(disc, 40).items():
        x = Factorization(mat, disc.positions[:disc.n_p]).solve(rhs)
        ref = spla.spsolve(mat, rhs)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max(), what


def fill_ratio(disc, n):
    """ND over minimum-degree fill of each of the three factored matrices."""
    ratios = {}
    for what, mat in factored_matrices(disc, n).items():
        nd = Factorization(mat, disc.positions[:disc.n_p])._lu.nnz
        md = spla.splu(mat, permc_spec="MMD_AT_PLUS_A",
                       options={"SymmetricMode": True}).nnz
        ratios[what] = nd / md
    return ratios


@pytest.mark.parametrize("name", ["sphere", "ellipsoid", "cassini_oval"])
def test_fill_below_minimum_degree_at_160(name):
    ratios = fill_ratio(disc_at(name, 160, 0), 160)
    assert max(ratios.values()) <= 0.92, ratios


@pytest.mark.parametrize("n,seed", [(48, 0), (48, 1), (80, 0), (80, 1)])
@pytest.mark.parametrize("name", ["sphere", "ellipsoid", "cassini_oval"])
def test_fill_near_minimum_degree_on_coarse_grids(name, n, seed):
    ratios = fill_ratio(disc_at(name, n, seed), n)
    assert max(ratios.values()) <= 1.07, ratios
