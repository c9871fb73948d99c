"""Construction of the cut-point set, checked against an independent
enumeration of the unit sphere's grid-line crossings."""

import math
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

from surfpde import discretization
from surfpde.curve1d import circle, discretize_curve
from surfpde.discretization import (SLOT_E, SLOT_N, SLOT_S, SLOT_W, Grid,
                                    SurfaceDiscretization,
                                    _interpolation_data, discretize,
                                    interpolation_coefficients,
                                    quality_report)
from surfpde.errors import (EmptySurfaceError, GridError, StencilError)
from surfpde.geometry import from_callables, make_surface
from surfpde.operators import laplace_beltrami, reduced_laplace_beltrami

from reference_values import INTERP_HALF

ETA = 0.45


# -- quadratic interpolation weights --------------------------------------

def test_interpolation_weights_at_center():
    wm, wc, wp = interpolation_coefficients(0.0)
    assert (wm, wc, wp) == (0.0, 1.0, 0.0)


def test_interpolation_weights_at_half():
    assert interpolation_coefficients(0.5) == INTERP_HALF


def test_interpolation_weights_reproduce_quadratics():
    rng = np.random.default_rng(3)
    theta = rng.uniform(-0.5, 0.5, size=200)
    w = np.stack(interpolation_coefficients(theta), axis=1)
    nodes = np.array([-1.0, 0.0, 1.0])
    for poly in (lambda t: np.ones_like(t), lambda t: t, lambda t: t ** 2):
        vals = w @ poly(nodes)
        assert np.abs(vals - poly(theta)).max() < 1e-14


# -- independent enumeration of the unit-sphere cut points -----------------

def sphere_cut_inventory(n):
    """All admissible cut points of the unit sphere on cube(-1.2, 1.2, n),
    from the closed-form crossing positions.  Returns a dict keyed by
    (axis, interval index) holding position, closest node and theta, plus
    the node groups that decide primary designation."""
    lo, h = -1.2, 2.4 / n
    vals = lo + h * np.arange(n + 1)
    recs = {}
    for ax in range(3):
        others = [o for o in range(3) if o != ax]
        a, b = np.meshgrid(vals, vals, indexing="ij")
        rho2 = a ** 2 + b ** 2
        i1, i2 = np.nonzero(rho2 < 1.0)
        root = np.sqrt(1.0 - rho2[i1, i2])
        for sign in (1.0, -1.0):
            z = sign * root
            scaled = (z - lo) / h
            # these grids put no crossing on a grid plane or at the
            # admissibility threshold; the enumeration relies on both
            assert np.abs(scaled - np.round(scaled)).min() > 1e-6
            assert np.abs(np.abs(z) - ETA).min() > 1e-6
            keep = np.abs(z) >= ETA       # |n_ax| = |position_ax| here
            nearest = np.round(scaled[keep]).astype(int)
            theta = scaled[keep] - nearest
            base_ax = np.floor(scaled[keep]).astype(int)
            for i, j, zz, bf, nd, th in zip(i1[keep], i2[keep], z[keep],
                                            base_ax, nearest, theta):
                base = [0, 0, 0]
                base[others[0]], base[others[1]], base[ax] = i, j, bf
                node = list(base)
                node[ax] = nd
                pos = [0.0, 0.0, 0.0]
                pos[others[0]], pos[others[1]] = vals[i], vals[j]
                pos[ax] = zz
                key = (ax, tuple(base))
                assert key not in recs, "two admissible cuts in one interval"
                recs[key] = {"pos": np.array(pos), "node": tuple(node),
                             "theta": th}
    groups = {}
    for key, r in recs.items():
        groups.setdefault(r["node"], []).append(key)
    return recs, groups


@pytest.mark.parametrize("n", [40, 80])
def test_sphere_inventory_matches_construction(n, sphere40, sphere80):
    disc = {40: sphere40, 80: sphere80}[n]
    recs, groups = sphere_cut_inventory(n)
    assert disc.n_tot == len(recs)
    assert disc.n_p == len(groups)
    index_of = {}
    for i in range(disc.n_tot):
        key = (int(disc.axis[i]), tuple(int(v) for v in disc.base_index[i]))
        r = recs[key]
        assert np.abs(disc.positions[i] - r["pos"]).max() < 1e-9
        assert tuple(int(v) for v in disc.closest_gp[i]) == r["node"]
        assert abs(float(disc.theta[i]) - r["theta"]) < 1e-9
        index_of[key] = i
    assert len(index_of) == len(recs)
    # one primary per node group, and it is (a) closest cut of the group;
    # symmetry can tie |theta| exactly, so compare against the group minimum
    for members in groups.values():
        prim = [k for k in members if index_of[k] < disc.n_p]
        assert len(prim) == 1
        t_min = min(abs(recs[k]["theta"]) for k in members)
        assert abs(recs[prim[0]]["theta"]) <= t_min + 1e-9


# -- structural invariants -------------------------------------------------

def test_cut_points_lie_on_surface(sphere80):
    radii = np.linalg.norm(sphere80.positions, axis=1)
    assert np.abs(radii - 1.0).max() < 1e-11


def test_theta_bounds_and_primary_is_closest(sphere80):
    d = sphere80
    assert np.abs(d.theta).max() <= 0.5 + 1e-12
    sec = np.arange(d.n_p, d.n_tot)
    prim = d.associated_primary[sec]
    assert ((prim >= 0) & (prim < d.n_p)).all()
    assert (np.abs(d.theta[prim]) <= np.abs(d.theta[sec]) + 1e-12).all()
    # secondary and its primary share the closest grid node
    assert (d.closest_gp[sec] == d.closest_gp[prim]).all()
    # every set Gamma_axis is present, and each block is sorted by axis
    assert np.unique(d.axis).tolist() == [0, 1, 2]
    for block in (d.axis[:d.n_p], d.axis[d.n_p:]):
        assert (np.diff(block) >= 0).all()


def test_admissibility_on_kept_points(sphere80):
    d = sphere80
    own = np.abs(d.normals[np.arange(d.n_tot), d.axis.astype(np.int64)])
    assert own.min() >= ETA


def test_admissibility_filter_may_empty_an_axis():
    # the filter acts per point on its own axis component; wiping out every
    # candidate of one axis is a valid outcome, not an error
    from surfpde.discretization import _admissible_mask
    normals = np.array([[0.9, 0.3, 0.3], [0.2, 0.9, 0.3], [0.3, 0.2, 0.9],
                        [0.2, 0.6, 0.7]])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    axis = np.array([0, 0, 0, 1])
    mask = _admissible_mask(normals, axis, 0.45)
    assert mask.tolist() == [True, False, False, True]
    none = _admissible_mask(normals[1:3], np.array([0, 0]), 0.45)
    assert not none.any() and none.shape == (2,)


def test_frozen_coordinates_are_exact_grid_values(sphere80):
    d = sphere80
    for ax in range(3):
        sel = d.axis != ax
        vals = d.positions[sel, ax]
        scaled = (vals - d.grid.origin[ax]) / d.h
        assert np.abs(scaled - np.round(scaled)).max() < 1e-12


def test_interpolation_slots_are_frozen_offsets(sphere80):
    d = sphere80
    sec = np.arange(d.n_p, d.n_tot)
    points, coeffs = _interpolation_data(
        d.positions, d.axis, d.theta, d.n_p, d.associated_primary,
        d.chart_neighbors)
    prim = points[:, 1]
    assert (prim == d.associated_primary[sec]).all()
    nu = d.axis[sec].astype(np.int64)
    rows = np.arange(len(sec))
    for col, sgn in ((0, -1.0), (2, 1.0)):
        q = points[:, col]
        off = d.positions[q, nu[rows]] - d.positions[prim, nu[rows]]
        assert np.abs(off - sgn * d.h).max() < 1e-12
    w = np.stack(interpolation_coefficients(d.theta[sec]), axis=1)
    assert np.abs(w - coeffs).max() < 1e-14
    # Pi holds exactly these rows
    expect = sp.csr_matrix((coeffs.ravel(), (np.repeat(rows, 3),
                                             points.ravel())),
                           shape=(len(sec), d.n_tot))
    assert abs(sp.hstack([d.pi_sp, d.pi_ss]) - expect).max() == 0.0


def test_pi_row_sums(sphere80):
    d = sphere80
    full = np.asarray((d.pi_sp.sum(axis=1) + d.pi_ss.sum(axis=1))).ravel()
    assert np.abs(full - 1.0).max() < 1e-13
    assert np.abs(d.pi_ss).sum(axis=1).max() <= 0.5 + 1e-12


def test_pi_row_sum_bound_is_checked_under_optimize(subprocess_env):
    # made-up interpolation rows: secondary 1 leans on secondary 2 with
    # weights summing to 0.8 > 1/2; the check must survive python -O
    script = textwrap.dedent("""
        import numpy as np
        from surfpde.discretization import _pi_matrices
        from surfpde.errors import StencilError
        points = np.array([[0, 0, 0], [1, 0, 2], [0, 0, 0]])
        coeffs = np.array([[0.0, 1.0, 0.0], [0.4, 0.2, 0.4],
                           [0.0, 1.0, 0.0]])
        positions = np.array([[0.0, 0.0, 0.0], [0.1, 0.2, 0.3],
                              [0.25, 0.5, 0.75], [0.4, 0.5, 0.6]])
        try:
            _pi_matrices(points, coeffs, positions, 1)
        except StencilError as exc:
            print(exc)
        else:
            raise SystemExit("no StencilError")
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=subprocess_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "0.8" in proc.stdout
    assert "[0.25 0.5  0.75]" in proc.stdout


# -- equilibration ---------------------------------------------------------

def exact_field(points):
    return np.cos(points[:, 0] + points[:, 1] - 2.0 * points[:, 2])


def direct_extension(d, u_p):
    """Independent oracle: solve (I - Pi_ss) u_s = Pi_sp u_p directly."""
    mat = (sp.identity(d.n_s, format="csc") - d.pi_ss).tocsc()
    return np.concatenate([u_p, spla.spsolve(mat, d.pi_sp @ u_p)])


def test_equilibration_routes_agree(sphere40):
    d = sphere40
    u_p = exact_field(d.positions)[:d.n_p]
    direct = direct_extension(d, u_p)
    series = d.extension_matrix() @ u_p
    assert np.abs(direct - series).max() < 1e-12
    assert np.abs(d.extend(u_p) - series).max() == 0.0


def test_equilibration_preserves_constants(sphere40):
    d = sphere40
    assert np.abs(d.extend(np.ones(d.n_p)) - 1.0).max() < 1e-13
    rows = np.asarray(d.extension_matrix().sum(axis=1)).ravel()
    assert np.abs(rows - 1.0).max() < 1e-13


def test_equilibration_third_order(sphere40, sphere80):
    errs = []
    for d in (sphere40, sphere80):
        u = exact_field(d.positions)
        errs.append(np.abs(d.extend(u[:d.n_p]) - u)[d.n_p:].max())
    ratio = errs[0] / errs[1]
    assert 5.5 < ratio < 12.0
    assert errs[1] < 2e-4


def test_extend_rejects_wrong_length(sphere40):
    with pytest.raises(ValueError):
        sphere40.extend(np.zeros(sphere40.n_p + 1))


# -- degenerate grids and failure paths ------------------------------------

def test_surface_must_fit_in_box():
    # the six face centres tie at phi = 1.2^2 - 1.25^2; the first node in
    # C order is named
    with pytest.raises(GridError, match=r"min boundary phi = -1\.225e-01 "
                       r"at node \(0, 10, 10\) at \(-1\.2, "):
        discretize(make_surface("sphere", radius=1.25),
                   Grid.cube(-1.2, 1.2, 20))


def test_scan_slab_beyond_physical_memory_fails_before_phi(monkeypatch):
    # a phi call of up to 21 planes of 21 x 21 nodes holds 4 float64
    # per node
    calls = []
    surf = make_surface("sphere")
    phi = surf.phi
    monkeypatch.setattr(surf, "phi", lambda p: calls.append(1) or phi(p))
    monkeypatch.setattr(discretization, "_physical_memory",
                        lambda: 21 ** 3 * 32 - 1)
    with pytest.raises(GridError, match=r"grid of \(20, 20, 20\) cells is "
                       r"too large to scan: one phi call of up to 9261 nodes "
                       r"needs 296352 bytes, more than the 296351 bytes"):
        discretize(surf, Grid.cube(-1.2, 1.2, 20))
    assert calls == []
    monkeypatch.setattr(discretization, "_physical_memory", lambda: None)
    assert discretize(surf, Grid.cube(-1.2, 1.2, 20)).n_p > 0


def test_grid_validation():
    assert Grid.cube(-1.2, 1.2, 40) == Grid((-1.2,) * 3, 2.4 / 40, (40,) * 3)
    with pytest.raises(GridError):
        Grid.cube(1.0, -1.0, 10)
    with pytest.raises(GridError):
        # one cell has no interior node
        Grid.cube(-1.0, 1.0, 1)
    bad = [((0.0, 0.0, 0.0), h) for h in (-0.1, 0.0, math.nan, math.inf)]
    bad += [((0.0, x, 0.0), 0.1) for x in (math.nan, -math.inf)]
    for origin, h in bad:
        with pytest.raises(GridError, match="grid needs a finite origin and "
                           "a finite spacing h > 0"):
            Grid(origin, h, (4, 4, 4))


GRID_COUNTS = {
    # each used to fail inside discretize: IndexError, TypeError, a bare
    # broadcast ValueError and a misleading EmptySurfaceError
    "negative": ((-1.2,) * 3, (24, 24, -3)),
    "float": ((-1.2,) * 3, (24.0, 24, 24)),
    "origin-of-two": ((-1.2,) * 2, (24, 24, 24)),
    "zero": ((-1.2,) * 3, (24, 24, 0)),
    "bool": ((-1.2,) * 3, (24, True, 24)),
    "counts-of-two": ((-1.2,) * 3, (24, 24)),
}


@pytest.mark.parametrize("case", sorted(GRID_COUNTS))
def test_grid_checks_its_cell_counts(case):
    origin, n_cells = GRID_COUNTS[case]
    with pytest.raises(GridError, match=re.escape(
            f"grid needs n_cells of positive whole numbers, one per origin "
            f"coordinate, got n_cells {n_cells} for origin {origin}")):
        discretize(make_surface("sphere"), Grid(origin, 0.1, n_cells))
    # any integer type will do
    assert Grid(origin, 0.1, (np.int64(24),) * len(origin)).shape == (
        (25,) * len(origin))


def test_surface_needs_a_space_grid():
    with pytest.raises(GridError, match="discretize needs a 3-D grid, got a "
                       "2-D grid"):
        discretize(make_surface("sphere"), Grid.square(-1.2, 1.2, 40))


class CutsReached(Exception):
    pass


@pytest.mark.parametrize("side", ["negative", "zero", "bound", "above",
                                  "one", "below", "string", "complex",
                                  "none"])
@pytest.mark.parametrize("dim", [2, 3])
def test_one_eta_rule_for_curves_and_surfaces(dim, side, monkeypatch):
    """0 < eta < 1/sqrt(dim): outside it ValueError names the bound, just
    below the bound the build goes on to locate the cuts; an eta that is
    not a real number raises ValueError naming eta."""
    bound = 1.0 / math.sqrt(dim)
    eta = {"negative": -0.2, "zero": 0.0, "bound": bound,
           "above": math.nextafter(bound, 1.0), "one": 1.0,
           "below": math.nextafter(bound, 0.0), "string": "0.4",
           "complex": 0.4 + 0j, "none": None}[side]

    def admissible_cuts(surface, grid, eta):
        raise CutsReached(eta)

    monkeypatch.setattr(discretization, "_admissible_cuts", admissible_cuts)
    if dim == 2:
        build, surface, grid = discretize_curve, circle(), Grid.square
    else:
        build, surface, grid = discretize, make_surface("sphere"), Grid.cube
    if side == "below":
        want = pytest.raises(CutsReached, match=re.escape(str(eta)))
    elif side in ("string", "complex", "none"):
        want = pytest.raises(ValueError, match=re.escape(
            f"eta must be a real number, got {eta!r}"))
    else:
        want = pytest.raises(ValueError, match=re.escape(
            f"eta must lie in (0, 1/sqrt({dim})) on a {dim}-D grid, got "
            f"{eta}"))
    with want:
        build(surface, grid(-1.2, 1.2, 10), eta=eta)


def shifted_cube(n, seed):
    """The [-1.2, 1.2]^3 grid of n cells, moved by default_rng(seed)'s
    uniform offset in [0, h)^3 (not moved for seed 0)."""
    grid = Grid.cube(-1.2, 1.2, n)
    if not seed:
        return grid
    off = np.random.default_rng(seed).uniform(0.0, grid.h, 3)
    return Grid(tuple(np.asarray(grid.origin) + off), grid.h, grid.n_cells)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind,n", [("sphere", 40), ("sphere", 64),
                                    ("ellipsoid", 64)])
def test_admissibility_frontier_builds_at_the_default_eta(kind, n, seed):
    # the cells of the frontier table that build at eta = 0.45 at every
    # offset; one that stops building moves the frontier
    d = discretize(make_surface(kind), shifted_cube(n, seed))
    red = reduced_laplace_beltrami(d)
    assert np.abs(red @ np.ones(d.n_p)).max() <= 1e-10 * abs(red).max()


def test_surface_missing_every_grid_line():
    h = 2.4 / 80
    c = np.array([h / 2, h / 2, h / 2])
    surf = from_callables(lambda p: ((p - c) ** 2).sum(axis=-1) - (0.66 * h) ** 2,
                          lambda p: 2.0 * (p - c))
    with pytest.raises(EmptySurfaceError):
        discretize(surf, Grid.cube(-1.2, 1.2, 80))


def test_under_resolved_surface_fails_loudly():
    with pytest.raises(StencilError):
        discretize(make_surface("sphere"), Grid.cube(-1.2, 1.2, 16))


def test_large_eta_fails_loudly():
    with pytest.raises(StencilError):
        discretize(make_surface("sphere"), Grid.cube(-1.2, 1.2, 40), eta=0.55)


def test_missing_weighted_neighbor_aborts_assembly(sphere40):
    d = sphere40
    sec = np.arange(d.n_p, d.n_tot)
    owner = d.associated_primary[sec]
    # owners of a secondary interpolated along their W-E chart line
    interp_we = owner[(d.axis[sec] - d.axis[owner]) % 3 == 1]

    def without_east(i):
        nb = d.chart_neighbors.copy()
        nb[i, SLOT_E] = -1
        return nb

    # the record's own interpolation needs the neighbor: Pi cannot be built
    with pytest.raises(StencilError, match="chart neighbors"):
        _interpolation_data(d.positions, d.axis, d.theta, d.n_p,
                            d.associated_primary, without_east(interp_we[0]))
    broken = SurfaceDiscretization(d.grid, d.eta, d.cuts())
    broken.chart_neighbors = without_east(
        np.setdiff1d(np.arange(d.n_p), interp_we)[0])
    with pytest.raises(StencilError):
        laplace_beltrami(broken, "divergence")
    with pytest.raises(StencilError):
        broken.require_full_stencil("axis differences",
                                    slots=(SLOT_W, SLOT_E, SLOT_S, SLOT_N))


@pytest.mark.parametrize("n", [40, 64])
def test_cassini_admissibility_gap_names_the_secondary(n):
    # on the table box the Cassini oval builds at N = 48 and 80 but leaves
    # a secondary without its interpolation neighbours at N = 40 and 64;
    # the error gives that secondary's coordinates, a cut on a grid line
    surf = make_surface("cassini_oval")
    grid = Grid.cube(-1.2, 1.2, n)
    with pytest.raises(StencilError, match="admissibility gap") as err:
        discretize(surf, grid)
    text = re.search(r"secondary cut point at \[([^\]]*)\]", str(err.value))
    x = np.array(text.group(1).split(), dtype=float)
    nodes = (x + 1.2) / grid.h
    assert (np.abs(nodes - np.round(nodes)) < 1e-6).sum() == 2
    assert abs(surf.phi(x)) < 1e-6


def test_unused_diagonal_may_be_absent():
    # the waist of this surface leaves some off-branch diagonals unresolved;
    # they carry no weight, so assembly must succeed regardless
    disc = discretize(make_surface("cassini_oval"), Grid.cube(-1.2, 1.2, 48))
    assert (disc.chart_neighbors < 0).any()
    with pytest.raises(StencilError):
        disc.require_full_stencil("full 3x3 gather")
    lb = laplace_beltrami(disc, "divergence")
    red = (lb @ disc.extension_matrix()).tocsr()
    assert np.abs(red @ np.ones(disc.n_p)).max() < 1e-10


# -- snapping and marginal-resolution cases --------------------------------

def test_grid_point_cut_is_deduplicated():
    # radius 0.6 = 20 h puts the six extreme points exactly on grid nodes;
    # several axis sweeps locate each one, a single record must survive
    disc = discretize(make_surface("sphere", radius=0.6),
                      Grid.cube(-1.2, 1.2, 80))
    poles = 0.6 * np.vstack([np.eye(3), -np.eye(3)])
    dist, idx = cKDTree(disc.positions).query(poles, k=2)
    assert dist[:, 0].max() < 1e-9          # pole present
    assert dist[:, 1].min() > 1e-6          # exactly once
    for row, i in enumerate(idx[:, 0]):
        assert int(disc.axis[i]) == row % 3
        assert abs(float(disc.theta[i])) < 1e-12
        assert i < disc.n_p
    d_all, _ = cKDTree(disc.positions).query(disc.positions, k=2)
    assert d_all[:, 1].min() > 1e-9         # no duplicate records anywhere


def test_marginal_sphere_axis_crossings_are_primary():
    """Sphere of radius 2.5 h at a grid point: the six crossings on the
    coordinate axes sit exactly midway in their intervals and, per the
    designation rule, must come out admissible and be alone at their nodes
    (hence primary).  The configuration is too coarse for the later
    equilibration stage, so the check runs on the sweep output."""
    from surfpde.discretization import _admissible_mask, _locate_cuts
    n = 40
    h = 2.4 / n
    grid = Grid.cube(-1.2, 1.2, n)
    surf = make_surface("sphere", radius=2.5 * h)
    cuts, axes, nodes, thetas = [], [], [], []
    for ax, (base, q) in enumerate(_locate_cuts(surf, grid)):
        normals = surf.unit_normal(q)
        keep = _admissible_mask(normals, np.full(len(q), ax), ETA)
        scaled = (q[keep, ax] + 1.2) / h
        node = base[keep].copy()
        node[:, ax] = np.round(scaled).astype(int)
        cuts.append(q[keep])
        axes.append(np.full(int(keep.sum()), ax))
        nodes.append(node)
        thetas.append(scaled - np.round(scaled))
    cuts = np.vstack(cuts)
    nodes = np.vstack(nodes)
    thetas = np.concatenate(thetas)
    poles = 2.5 * h * np.vstack([np.eye(3), -np.eye(3)])
    dist, idx = cKDTree(cuts).query(poles, k=1)
    assert dist.max() < 1e-9
    for i in idx:
        assert abs(abs(float(thetas[i])) - 0.5) < 1e-6
        same_node = (nodes == nodes[i]).all(axis=1)
        assert same_node.sum() == 1      # alone at its node: primary
    # the full construction cannot equilibrate at this resolution and
    # must say so rather than degrade
    with pytest.raises(StencilError):
        discretize(surf, grid)


# -- geometric quality -----------------------------------------------------

def test_quality_report_bounds(sphere80):
    q = quality_report(sphere80)
    assert q.n_p == sphere80.n_p and q.n_s == sphere80.n_s
    assert q.normal_ratio_max < 2.0
    assert q.min_primary_spacing > 0.5 * q.h
    assert q.max_primary_gap < 2.5 * q.h


def test_determinism():
    a = discretize(make_surface("sphere"), Grid.cube(-1.2, 1.2, 40))
    b = discretize(make_surface("sphere"), Grid.cube(-1.2, 1.2, 40))
    assert a.n_p == b.n_p
    assert (a.positions == b.positions).all()
    assert (a.chart_neighbors == b.chart_neighbors).all()
    assert (a.pi_sp != b.pi_sp).nnz == 0 and (a.pi_ss != b.pi_ss).nnz == 0
