"""Closed plane curves: discretization on a 2-D grid, the surface
Laplace-Beltrami assembly on a one-axis chart (checked against its closed
form and run through the surface eigenvalue and BDF2 solvers), and the
resolvent-positivity study (row-operation M-matrix construction included)."""

import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from surfpde.curve1d import (
    CURVE_CATALOG,
    _side_coefficients,
    circle,
    discretize_curve,
    ellipse,
    m_matrix_report,
    make_curve,
    perturbed_circle,
    proof_matrix,
    proof_row_operations,
)
from surfpde.diffusion import bdf2_solve
from surfpde.discretization import Grid, _interpolation_data
from surfpde.errors import EmptySurfaceError, GridError, StencilError
from surfpde.geometry import LevelSetSurface
from surfpde.linalg import Factorization
from surfpde.operators import laplace_beltrami, reduced_operator
from surfpde.spectrum import (cluster_errors, laplacian_eigenvalues,
                              resolvent_report)

ETA = 0.45
RHS_SEED = 0  # of the random right-hand side of block_elimination_residual


@pytest.fixture(scope="module")
def circle40():
    return discretize_curve(circle(), Grid.square(-1.2, 1.2, 40))


@pytest.fixture(scope="module")
def circle80():
    return discretize_curve(circle(), Grid.square(-1.2, 1.2, 80))


@pytest.fixture(scope="module")
def ellipse80():
    return discretize_curve(ellipse(), Grid.square(-1.2, 1.2, 80))


@pytest.fixture(scope="module")
def perturbed80():
    return discretize_curve(perturbed_circle(), Grid.square(-1.5, 1.5, 80))


# ---------------------------------------------------------------- factories


def test_make_curve_catalog_and_unknown():
    assert sorted(CURVE_CATALOG) == ["circle", "ellipse", "perturbed_circle"]
    assert make_curve("ellipse").kind == "ellipse"
    with pytest.raises(ValueError):
        make_curve("astroid")


# ------------------------------------------------- brute-force scan oracle


def circle_cut_inventory(n):
    """Closed-form crossings of the unit circle with the grid lines of
    square(-1.2, 1.2, n), admissibility-filtered, grouped by closest node.

    Returns (records, groups, n_inadmissible) where each record is
    (axis, base_indices, position, theta) keyed by its grid interval, and
    groups maps a closest-node index pair to the record keys it owns.
    """
    h = 2.4 / n
    lines = -1.2 + h * np.arange(n + 1)
    recs = {}
    n_bad = 0
    for axis in (0, 1):
        f = 1 - axis
        for j, c in enumerate(lines):
            if abs(c) >= 1.0:
                continue
            t = math.sqrt(1.0 - c * c)
            for root in (t, -t):
                # oracle robustness: the crossing must sit clearly away
                # from grid planes and from the admissibility threshold
                frac_global = (root + 1.2) / h
                assert abs(frac_global - round(frac_global)) > 1e-6
                assert abs(abs(root) - ETA) > 1e-3
                if abs(root) < ETA:  # |n_axis| = |coordinate| on the circle
                    n_bad += 1
                    continue
                base = [0, 0]
                base[axis] = int(math.floor(frac_global))
                base[f] = j
                pos = [0.0, 0.0]
                pos[axis] = root
                pos[f] = c
                frac = frac_global - base[axis]
                offset = 1 if frac > 0.5 else 0
                node = list(base)
                node[axis] += offset
                theta = frac - offset
                recs[(axis, tuple(base))] = (pos, theta, tuple(node))
    groups = {}
    for key, (_, theta, node) in recs.items():
        groups.setdefault(node, []).append(key)
    return recs, groups, n_bad


@pytest.mark.parametrize("n", [40, 80, 160])
def test_circle_inventory_matches_construction(n, circle40, circle80):
    # N = 40 and 160 put exact |theta| ties inside node groups, N = 80 none
    d = {40: circle40, 80: circle80}.get(n) or discretize_curve(
        circle(), Grid.square(-1.2, 1.2, n))
    recs, groups, n_bad = circle_cut_inventory(n)
    assert d.n_tot == len(recs)
    assert d.n_p == len(groups)
    assert d.dropped_cuts == n_bad
    seen_primary = {}
    for i in range(d.n_tot):
        key = (int(d.axis[i]), tuple(int(b) for b in d.base_index[i]))
        assert key in recs
        pos, theta, node = recs[key]
        assert np.abs(d.positions[i] - pos).max() < 1e-9
        assert abs(d.theta[i] - theta) < 1e-9
        if i < d.n_p:
            seen_primary.setdefault(node, []).append(abs(theta))
    # exactly one primary per node group, and it attains the group's
    # smallest |theta| (symmetry can tie two cuts exactly; the designated
    # one must still be minimal up to roundoff)
    assert sorted(seen_primary) == sorted(groups)
    primary_key = {(int(d.axis[i]), tuple(int(b) for b in d.base_index[i]))
                   for i in range(d.n_p)}
    for node, keys in groups.items():
        assert len(seen_primary[node]) == 1
        best = min(abs(recs[k][1]) for k in keys)
        assert seen_primary[node][0] <= best + 1e-9
        # a tie goes to the lowest base index, then the lowest axis, as
        # on surfaces
        tied = [k for k in keys if abs(recs[k][1]) <= best + 1e-12]
        winner = min(tied, key=lambda k: (k[1], k[0]))
        assert winner in primary_key


# ----------------------------------------------------- structural invariants


def test_points_on_curve_and_theta_bounds(circle80):
    d = circle80
    r = np.linalg.norm(d.positions, axis=1)
    assert np.abs(r - 1.0).max() < 1e-9
    assert np.abs(d.theta).max() <= 0.5 + 1e-12
    assert np.abs(np.linalg.norm(d.normals, axis=1) - 1.0).max() < 1e-12
    gamma = np.abs(d.normals[np.arange(d.n_tot), d.axis])
    assert gamma.min() >= ETA
    # each secondary's |theta| is at least its primary's
    for s in range(d.n_p, d.n_tot):
        p = d.associated_primary[s]
        assert abs(d.theta[s]) >= abs(d.theta[p]) - 1e-9
        assert (d.closest_gp[s] == d.closest_gp[p]).all()


def test_interpolation_rows(circle80):
    d = circle80
    points, coeffs = _interpolation_data(
        d.positions, d.axis, d.theta, d.n_p, d.associated_primary,
        d.chart_neighbors)
    for s in range(d.n_s):
        q_minus, p, q_plus = points[s]
        assert p == d.associated_primary[d.n_p + s]
        t = d.theta[d.n_p + s]
        expect = (0.5 * (-t + t * t), 1.0 - t * t, 0.5 * (t + t * t))
        assert np.abs(coeffs[s] - expect).max() < 1e-13
        assert abs(coeffs[s].sum() - 1.0) < 1e-13
        # stencil points live in adjacent chart columns of the primary
        pa = d.axis[p]
        fr = 1 - pa
        for q, delta in ((q_minus, -1), (q_plus, 1)):
            assert d.axis[q] == pa
            assert d.base_index[q][fr] == d.base_index[p][fr] + delta
    if d.n_s:
        row_abs = np.abs(d.pi_ss).sum(axis=1)
        assert float(row_abs.max()) <= 0.5 + 1e-12


def test_equilibration_routes_and_constants(circle80):
    d = circle80
    rng = np.random.default_rng(3)
    up = rng.standard_normal(d.n_p)
    full = d.extend(up)
    assert np.abs(full[: d.n_p] - up).max() == 0.0
    # independent oracle: solve (I - Pi_ss) u_s = Pi_sp u_p directly
    other = spla.spsolve((sp.identity(d.n_s, format="csc") - d.pi_ss).tocsc(),
                         d.pi_sp @ up)
    assert np.abs(full[d.n_p:] - other).max() < 1e-12
    const = d.extend(np.ones(d.n_p))
    assert np.abs(const - 1.0).max() < 1e-13


def test_determinism():
    a = discretize_curve(circle(), Grid.square(-1.2, 1.2, 40))
    b = discretize_curve(circle(), Grid.square(-1.2, 1.2, 40))
    assert (a.positions == b.positions).all()
    assert (a.axis == b.axis).all()
    assert (a.theta == b.theta).all()


# ------------------------------------------------------------- the operator


def test_lb_rows_match_closed_form(circle80, ellipse80, perturbed80):
    # on a one-axis chart the divergence form is the arclength-density
    # stencil: neighbor weights gamma_c (gamma_c + gamma_nb) / (2 h^2) with
    # gamma = |n_axis|, center minus their sum
    for d in (circle80, ellipse80, perturbed80):
        lb = laplace_beltrami(d)
        gamma = np.abs(d.normals[np.arange(d.n_tot), d.axis])
        nb = d.chart_neighbors
        i = np.arange(d.n_p)
        g_c = gamma[: d.n_p]
        sides = [0.5 * g_c * (g_c + gamma[nb[:, s]]) / d.grid.h ** 2
                 for s in (0, 1)]
        expect = np.stack(sides + [-(sides[0] + sides[1])], axis=1)
        got = np.stack([np.asarray(lb[i, c]).ravel()
                        for c in (nb[:, 0], nb[:, 1], i)], axis=1)
        assert lb.nnz == 3 * d.n_p
        assert np.abs(got / expect - 1.0).max() <= 1e-14


def test_lb_annihilates_constants(circle80, ellipse80, perturbed80):
    for d in (circle80, ellipse80, perturbed80):
        red = reduced_operator(laplace_beltrami(d), d)
        assert np.abs(red @ np.ones(d.n_p)).max() < 1e-10


def test_lb_cosine_arclength_second_order(circle80):
    # u = cos(arclength) on the unit circle satisfies u_ss = -u exactly
    errs = []
    for d in (circle80,
              discretize_curve(circle(), Grid.square(-1.2, 1.2, 160))):
        s = np.arctan2(d.positions[:, 1], d.positions[:, 0])
        u = np.cos(s)
        errs.append(np.abs(laplace_beltrami(d) @ u + u[: d.n_p]).max())
    assert errs[0] < 1.5e-3
    assert 3.4 < errs[0] / errs[1] < 4.6


def second_arclength_derivative(pos, normal, kappa):
    """d^2/ds^2 of cos(x + 2y) along a curve with outward normal and
    curvature kappa: tangent^T Hess tangent - kappa * normal . grad."""
    c = np.cos(pos[:, 0] + 2.0 * pos[:, 1])
    s = np.sin(pos[:, 0] + 2.0 * pos[:, 1])
    t1, t2 = -normal[:, 1], normal[:, 0]
    return -c * (t1 + 2.0 * t2) ** 2 \
        + kappa * s * (normal[:, 0] + 2.0 * normal[:, 1])


def test_lb_full_consistency_second_order_circle_and_ellipse():
    for make, kap_fn in (
        (circle, lambda p: np.ones(len(p))),
        (ellipse, lambda p: 0.65 / ((p[:, 1] / 0.65) ** 2
                                    + 0.4225 * p[:, 0] ** 2) ** 1.5),
    ):
        errs = []
        for n in (80, 160, 320):
            d = discretize_curve(make(), Grid.square(-1.2, 1.2, n))
            f = np.cos(d.positions[:, 0] + 2.0 * d.positions[:, 1])
            ref = second_arclength_derivative(
                d.positions[: d.n_p], d.normals[: d.n_p],
                kap_fn(d.positions[: d.n_p]))
            errs.append(np.abs(laplace_beltrami(d) @ f - ref).max())
        assert 3.2 < errs[0] / errs[1] < 4.8
        assert 3.2 < errs[1] / errs[2] < 4.8


def test_reduced_consistency_first_order_near_secondaries():
    # eliminating secondaries injects the O(h^3) interpolation error into
    # rows scaled by 1/h^2: first order at those rows, second elsewhere
    for n in (80, 160, 320):
        d = discretize_curve(circle(), Grid.square(-1.2, 1.2, n))
        f = np.cos(d.positions[:, 0] + 2.0 * d.positions[:, 1])
        ref = second_arclength_derivative(
            d.positions[: d.n_p], d.normals[: d.n_p], np.ones(d.n_p))
        lb = laplace_beltrami(d)
        err_full = np.abs(lb @ f - ref)
        err_red = np.abs(reduced_operator(lb, d) @ f[: d.n_p] - ref)
        clean = (d.chart_neighbors < d.n_p).all(axis=1)
        assert np.abs(err_red[clean] - err_full[clean]).max() < 1e-9
        assert err_red.max() <= 3.0 * d.grid.h


def test_flat_side_reduces_to_standard_second_difference():
    # where the normal is essentially axis-aligned the metric factor is 1
    # and the stencil must be the classical (1, -2, 1)/h^2
    flat = LevelSetSurface("superellipse",
                           lambda p: (p ** 8).sum(axis=-1) - 0.8 ** 8,
                           lambda p: 8 * p ** 7)
    d = discretize_curve(flat, Grid.square(-1.2, 1.2, 80))
    A = laplace_beltrami(d)
    h = d.grid.h
    rows = [i for i in range(d.n_p)
            if abs(d.positions[i, 0]) < 0.2 and d.positions[i, 1] < 0]
    assert len(rows) >= 8
    for i in rows:
        r = A.getrow(i).toarray().ravel() * h * h
        ref = np.zeros_like(r)
        ref[i] = -2.0
        ref[d.chart_neighbors[i, 0]] += 1.0
        ref[d.chart_neighbors[i, 1]] += 1.0
        assert np.abs(r - ref).max() < 1e-6


def test_circle_eigenvalue_clusters_second_order():
    # the surface spectrum route on the unit circle: eigenvalues -m^2,
    # once for m = 0 and twice for m = 1..4
    errs = []
    for n in (80, 160, 320):
        d = discretize_curve(circle(), Grid.square(-1.2, 1.2, n))
        eigs, _ = laplacian_eigenvalues(d, 9)
        errs.append(max(cluster_errors(eigs, (0.0, -1.0, -4.0, -9.0, -16.0),
                                       (1, 2, 2, 2, 2))))
    assert errs[0] <= 0.03
    assert np.log2(errs[0] / errs[1]) >= 1.8
    assert np.log2(errs[1] / errs[2]) >= 1.8


def test_circle_bdf2_diffusion_second_order():
    # the surface BDF2 solver on the unit circle: cos 2s decays as e^{-4t}
    t_end = 0.25
    errs = []
    for n in (80, 160, 320):
        d = discretize_curve(circle(), Grid.square(-1.2, 1.2, n))
        steps = round(t_end * 4.0 / d.grid.h)
        s = np.arctan2(d.positions[: d.n_p, 1], d.positions[: d.n_p, 0])
        u = bdf2_solve(d, np.cos(2.0 * s), 1.0, t_end / steps, steps)
        errs.append(np.abs(u - np.cos(2.0 * s) * np.exp(-4.0 * t_end)).max())
    assert np.log2(errs[0] / errs[1]) >= 1.8
    assert np.log2(errs[1] / errs[2]) >= 1.8


def coefficient_report(disc):
    """Size and smoothness diagnostics of the stencil coefficients.

    With c_center = c_minus + c_plus: min_center_half is min of
    c_center/2 (compare 1/2 - O(h)); max_jump is the largest
    |neighbor - center/2| (compare O(h)); pointwise_gap is the largest
    |c_center/2 - gamma^2|, the discrepancy between the averaged and the
    pointwise readings of the coefficient (O(h^2)).
    """
    c_minus, c_plus = _side_coefficients(disc)
    half = 0.5 * (c_minus + c_plus)
    idx = np.arange(disc.n_p)
    gamma = np.abs(disc.normals[idx, disc.axis[:disc.n_p]])
    return {
        "min_center_half": float(half.min()),
        "max_jump": float(np.maximum(np.abs(c_minus - half),
                                     np.abs(c_plus - half)).max()),
        "pointwise_gap": float(np.abs(half - gamma ** 2).max()),
    }


def test_coefficient_report_bounds():
    # neighbor coefficients hover near the metric value with the
    # guaranteed lower bound 1/2 - O(h), O(h) jumps, and an O(h^2) gap
    # to the pointwise metric
    for n in (40, 80, 160):
        d = discretize_curve(circle(), Grid.square(-1.2, 1.2, n))
        h = d.grid.h
        rep = coefficient_report(d)
        assert abs(rep["min_center_half"] - 0.5) <= 1.0 * h
        assert rep["max_jump"] <= 0.5 * h
        assert rep["pointwise_gap"] <= 0.8 * h * h


# --------------------------------------------- positivity study / M-matrix


def test_resolvent_reports(circle80, ellipse80, perturbed80):
    rep = resolvent_report(circle80, [0.0, 1.0])
    ident, at_one = rep
    assert ident["sigma"] == 0.0
    assert ident["min_entry"] == 0.0
    assert ident["max_rowsum_dev"] == 0.0
    assert ident["invertible"]
    assert at_one["min_entry"] >= -1e-12
    assert at_one["max_rowsum_dev"] <= 1e-10
    assert at_one["invertible"]
    for d, sig in ((ellipse80, 2.0), (perturbed80, 0.5), (perturbed80, 2.0)):
        r = resolvent_report(d, [sig])[0]
        assert r["min_entry"] >= -1e-12
        assert r["max_rowsum_dev"] <= 1e-10


def test_proof_matrix_structure(circle40):
    d = circle40
    sigma = 1.0
    A = proof_matrix(d, sigma).toarray()
    n_p, n_tot = d.n_p, d.n_tot
    diag = np.diag(A)
    assert (diag[:n_p] >= 1.0).all()          # 1 + 2 sigma c_i
    assert np.abs(diag[n_p:] - 1.0).max() == 0.0
    off = A - np.diag(diag)
    # primary rows are nonpositive off the diagonal; each secondary row
    # carries at most one positive entry, bounded by 1/8
    assert off[:n_p].max() <= 1e-14
    for ell in range(n_p, n_tot):
        pos = off[ell][off[ell] > 1e-14]
        assert len(pos) <= 1
        if len(pos):
            assert pos[0] <= 0.125 + 1e-12


def test_row_operations_structure(circle40):
    d = circle40
    P = proof_row_operations(d, 1.0).toarray()
    n_p, n_tot = d.n_p, d.n_tot
    assert np.abs(np.diag(P) - 1.0).max() == 0.0
    off = P - np.eye(n_tot)
    rows, cols = np.nonzero(off)
    assert (rows >= n_p).all() and (cols < n_p).all()
    assert (off[rows, cols] > 0).all()


def test_m_matrix_threshold(circle40, perturbed80):
    # the row-operation construction succeeds for sigma above ~1/2 and
    # must fail below it (the elimination multiplier 1/(8 sigma c) grows)
    low = m_matrix_report(circle40, 0.1)
    assert not low["is_m_matrix"]
    assert low["max_offdiag_after"] > 0
    for sigma in (1.0, 2.0, 10.0):
        rep = m_matrix_report(circle40, sigma)
        assert rep["is_m_matrix"]
        assert rep["max_offdiag_after"] <= 1e-13
        assert rep["min_diag_after"] > 0
        assert rep["min_rowsum_after"] > 0
    assert 0 < low["positive_offdiag_before"] <= 0.125 + 1e-12
    assert m_matrix_report(perturbed80, 1.0)["is_m_matrix"]


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, -math.inf],
                         ids=["zero", "negative", "nan", "inf", "minus_inf"])
def test_row_operations_need_a_finite_positive_sigma(sigma, circle40):
    # sigma = 0 used to divide by zero and give an all-zero M-matrix report
    for report in (proof_row_operations, m_matrix_report):
        with pytest.raises(ValueError,
                           match=f"sigma must be finite and > 0, got {sigma}"):
            report(circle40, sigma)


def block_elimination_residual(disc, sigma):
    """Consistency of the proof matrix with the reduced resolvent.

    Solves A (u_p, u_s) = (y, 0) for a seeded random y and measures both
    the defect of (I - k LB_red) u_p = y and the gap to the direct u_p.
    """
    n_p = disc.n_p
    rng = np.random.default_rng(RHS_SEED)
    y = rng.standard_normal(n_p)
    a = proof_matrix(disc, sigma)
    rhs = np.concatenate([y, np.zeros(disc.n_s)])
    u_all = Factorization(a.tocsc(), disc.positions).solve(rhs)
    u_p = u_all[:n_p]
    k = sigma * disc.h ** 2
    red = reduced_operator(laplace_beltrami(disc), disc)
    lhs = u_p - k * (red @ u_p)
    direct = Factorization(sp.identity(n_p, format="csc") - k * red.tocsc(),
                           disc.positions[:n_p]).solve(y)
    return {
        "defect": float(np.abs(lhs - y).max() / np.abs(y).max()),
        "route_gap": float(np.abs(u_p - direct).max()
                           / max(np.abs(direct).max(), 1e-300)),
    }


def test_block_elimination_matches_direct_resolvent(circle40, perturbed80):
    for d in (circle40, perturbed80):
        rep = block_elimination_residual(d, 1.0)
        assert rep["defect"] <= 1e-10
        assert rep["route_gap"] <= 1e-10


# ------------------------------------------------------------ marginal size


def test_marginal_circle_axis_crossings_all_primary():
    # radius 2.5h centered at a grid node: the four on-axis crossings are
    # admissible (|n| = 1 along their axis), sit at |theta| = 1/2, and are
    # each the only cut owned by their node, hence primary
    n = 40
    h = 2.4 / n
    r = 2.5 * h
    crossings = []
    for axis in (0, 1):
        f = 1 - axis
        for j in range(n + 1):
            c = -1.2 + j * h
            if abs(c) >= r:
                continue
            t = math.sqrt(r * r - c * c)
            for root in (t, -t):
                frac_global = (root + 1.2) / h
                base = int(math.floor(frac_global))
                frac = frac_global - base
                nrm = abs(root) / r
                if nrm < ETA - 1e-12:
                    continue
                offset = 1 if frac > 0.5 else 0
                node = [0, 0]
                node[axis] = base + offset
                node[f] = j
                crossings.append((axis, tuple(node), frac - offset,
                                  (root, c) if axis == 0 else (c, root)))
    owners = {}
    for axis, node, theta, pos in crossings:
        owners.setdefault(node, []).append((axis, theta, pos))
    on_axis = [c for c in crossings
               if abs(abs(c[3][0]) - r) < 1e-12 or abs(abs(c[3][1]) - r) < 1e-12]
    assert len(on_axis) == 4
    for axis, node, theta, pos in on_axis:
        assert abs(abs(theta) - 0.5) < 1e-12
        assert len(owners[node]) == 1      # sole owner -> primary
    # the full constructor cannot complete at this size and says so
    with pytest.raises(StencilError):
        discretize_curve(circle(r), Grid.square(-1.2, 1.2, n))


# ------------------------------------------------------------ failure paths


def test_grid2_validation():
    assert Grid.square(-1.2, 1.2, 40) == Grid((-1.2, -1.2), 2.4 / 40,
                                              (40, 40))
    with pytest.raises(GridError):
        Grid.square(1.0, -1.0, 40)
    with pytest.raises(GridError):
        Grid.square(-1.0, 1.0, 1)


def test_curve_needs_a_plane_grid():
    with pytest.raises(GridError, match="discretize_curve needs a 2-D grid, "
                       "got a 3-D grid"):
        discretize_curve(circle(), Grid.cube(-1.2, 1.2, 40))


def test_curve_outside_box():
    with pytest.raises(GridError):
        discretize_curve(circle(1.3), Grid.square(-1.2, 1.2, 40))


def test_tiny_curve_without_interior_node():
    h = 2.4 / 40
    tiny = LevelSetSurface(
        "offcenter",
        lambda p: ((p - h / 2) ** 2).sum(axis=-1) - (0.4 * h) ** 2,
        lambda p: 2 * (p - h / 2))
    with pytest.raises(EmptySurfaceError):
        discretize_curve(tiny, Grid.square(-1.2, 1.2, 40))


def test_under_resolved_failures_are_loud():
    with pytest.raises(StencilError):
        discretize_curve(circle(), Grid.square(-1.2, 1.2, 10))
    d = discretize_curve(circle(), Grid.square(-1.2, 1.2, 12))
    first = int(np.nonzero((d.chart_neighbors < 0).any(axis=1))[0][0])
    with pytest.raises(StencilError,
                       match="divergence-form Laplace-Beltrami assembly: "
                       ".* first at " + re.escape(str(d.positions[first]))):
        laplace_beltrami(d)


def test_a_neighbour_on_another_sheet_is_no_neighbour():
    # at eta = 0.65 the nearest admissible cut in a neighbouring chart column
    # of a primary near a lobe of the perturbed circle lies on the far side
    # of the curve, about 50h away; it is no neighbour, and the build says
    # where the stencil is missing
    with pytest.raises(StencilError, match=r"its primary at \[ ?1\.03489"):
        discretize_curve(perturbed_circle(), Grid.square(-1.5, 1.5, 80),
                         eta=0.65)
