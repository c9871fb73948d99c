import warnings

import numpy as np
import pytest

from surfpde import Grid, discretize, make_surface
from surfpde.discretization import (SLOT_E, SLOT_N, SLOT_NE, SLOT_NW, SLOT_S,
                                    SLOT_SE, SLOT_SW, SLOT_W,
                                    SurfaceDiscretization)
from surfpde.errors import StencilError
from surfpde.operators import (advection_coefficients, artificial_viscosity,
                               chart_metric, divergence_weights,
                               laplace_beltrami, nondivergence_weights,
                               primary_chart_axes, reduced_operator,
                               row_sign_structure, sphere_surface_divergence,
                               tangential_projection, upwind_differences)


def harmonic3(points):
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    return 7.0 * (x - 2.0 * y) * (15.0 * z ** 2 - 3.0) / 8.0


def constant_coefficient_stencil(a11, a22, a12, g12, sqrt_g, h, form):
    ones = np.ones((1, 8))
    if form == "divergence":
        return divergence_weights(a11 * ones, a22 * ones, a12 * ones,
                                  np.array([a11]), np.array([a22]),
                                  np.array([a12]), np.array([g12]),
                                  np.array([sqrt_g]), h)[0]
    return nondivergence_weights(np.array([a11]), np.array([a22]),
                                 np.array([g12]), np.array([0.0]),
                                 np.array([0.0]), h)[0]


def apply_stencil(w, values):
    # values on the 3x3 chart lattice, rows = first offset, cols = second
    slots = {SLOT_SW: (0, 0), SLOT_W: (0, 1), SLOT_NW: (0, 2),
             SLOT_S: (1, 0), SLOT_N: (1, 2), SLOT_SE: (2, 0),
             SLOT_E: (2, 1), SLOT_NE: (2, 2)}
    total = w[8] * values[1][1]
    for slot, (i, j) in slots.items():
        total += w[slot] * values[i][j]
    return total


def lattice(fn, h):
    return [[fn(d1 * h, d2 * h) for d2 in (-1, 0, 1)] for d1 in (-1, 0, 1)]


def test_flat_chart_gives_five_point_laplacian():
    w = constant_coefficient_stencil(1.0, 1.0, 0.0, 0.0, 1.0, 0.5,
                                     "divergence")
    h2 = 0.25
    assert w[SLOT_E] == w[SLOT_W] == w[SLOT_N] == w[SLOT_S] == 1.0 / h2
    assert w[SLOT_NE] == w[SLOT_SW] == w[SLOT_NW] == w[SLOT_SE] == 0.0
    assert w[8] == -4.0 / h2


@pytest.mark.parametrize("g12", [0.3, -0.3])
def test_divergence_weights_exact_on_quadratics(g12):
    # constant-coefficient operator applied to xi1*xi2 equals 2 g12 exactly
    sqrt_g, h = 1.7, 0.1
    a12 = sqrt_g * g12
    w = constant_coefficient_stencil(1.1 * sqrt_g, 0.9 * sqrt_g, a12, g12,
                                     sqrt_g, h, "divergence")
    val = apply_stencil(w, lattice(lambda s, t: (s + 0.3) * (t - 0.2), h))
    assert val == pytest.approx(2.0 * g12, rel=1e-12)


def test_divergence_weights_row_sums_vanish():
    rng = np.random.default_rng(5)
    m = 40
    a11_n = 1.0 + rng.random((m, 8))
    a22_n = 1.0 + rng.random((m, 8))
    a12_n = rng.normal(size=(m, 8)) * 0.3
    w = divergence_weights(a11_n, a22_n, a12_n, 1.0 + rng.random(m),
                           1.0 + rng.random(m), rng.normal(size=m) * 0.3,
                           rng.normal(size=m), 1.0 + rng.random(m), 0.05)
    assert np.abs(w.sum(axis=1)).max() < 1e-10


def test_divergence_branches_agree_when_a12_zero():
    rng = np.random.default_rng(6)
    m = 10
    a11_n = 1.0 + rng.random((m, 8))
    a22_n = 1.0 + rng.random((m, 8))
    zero = np.zeros((m, 8))
    a11_c, a22_c = 1.0 + rng.random(m), 1.0 + rng.random(m)
    sg = 1.0 + rng.random(m)
    w_pos = divergence_weights(a11_n, a22_n, zero, a11_c, a22_c,
                               np.zeros(m), np.full(m, 1e-300), sg, 0.1)
    w_neg = divergence_weights(a11_n, a22_n, zero, a11_c, a22_c,
                               np.zeros(m), np.full(m, -1e-300), sg, 0.1)
    np.testing.assert_array_equal(w_pos, w_neg)


@pytest.mark.parametrize("g12", [0.25, -0.25])
def test_nondivergence_weights_exact_on_quadratics(g12):
    h = 0.1
    w = nondivergence_weights(np.array([1.3]), np.array([0.8]),
                              np.array([g12]), np.array([0.4]),
                              np.array([-0.7]), h)[0]
    # g^ij d_i d_j u + b_i d_i u for u = (xi1+c)(xi2+d) at the center
    val = apply_stencil(w, lattice(lambda s, t: (s + 0.3) * (t - 0.2), h))
    assert val == pytest.approx(2.0 * g12 + 0.4 * (-0.2) + (-0.7) * 0.3,
                                rel=1e-12)


def test_chart_metric_matches_sphere_closed_forms(sphere40):
    met = chart_metric(sphere40)
    n_p = sphere40.n_p
    c1, c2 = primary_chart_axes(sphere40)
    idx = np.arange(n_p)
    xi1 = sphere40.positions[idx, c1]
    xi2 = sphere40.positions[idx, c2]
    assert np.abs(met.g11[:n_p] - (1.0 - xi1 ** 2)).max() < 1e-9
    assert np.abs(met.g22[:n_p] - (1.0 - xi2 ** 2)).max() < 1e-9
    assert np.abs(met.g12[:n_p] - (-xi1 * xi2)).max() < 1e-9
    # a^ij = sqrt(g) g^ij makes det(a) = g * det(g^inv) = 1 identically
    assert np.abs(met.a11 * met.a22 - met.a12 ** 2 - 1.0).max() < 1e-12


@pytest.mark.parametrize("form", ["divergence", "nondivergence"])
def test_laplacian_consistency_second_order(form, sphere40, sphere80):
    errs = []
    for disc in (sphere40, sphere80):
        lb = laplace_beltrami(disc, form)
        u = harmonic3(disc.positions)
        resid = lb @ u + 12.0 * u[: disc.n_p]
        errs.append(np.abs(resid).max() / np.abs(u).max())
    assert 3.2 < errs[0] / errs[1] < 4.8


@pytest.mark.parametrize("form", ["divergence", "nondivergence"])
def test_reduced_operator_annihilates_constants(form, sphere40):
    red = reduced_operator(laplace_beltrami(sphere40, form), sphere40)
    assert np.abs(red @ np.ones(sphere40.n_p)).max() < 1e-10


def test_nondivergence_restricted_to_sphere(ellipsoid40):
    with pytest.raises(ValueError):
        laplace_beltrami(ellipsoid40, "nondivergence")


def test_unknown_form_rejected(sphere40):
    with pytest.raises(ValueError):
        laplace_beltrami(sphere40, "weak")


def test_row_sign_structure_on_uniform_rows(sphere40):
    lb = laplace_beltrami(sphere40, "divergence")
    min_off_u, max_center_u, _, max_rowsum = row_sign_structure(lb, sphere40)
    assert min_off_u >= -1e-9
    assert max_center_u < 0.0
    assert max_rowsum < 1e-9


def row_sign_structure_loop(lb, disc):
    """Row-by-row oracle of row_sign_structure: stored zeros are entries."""
    lb = lb.tocsr()
    n_p = disc.n_p
    met = chart_metric(disc)
    nb = disc.chart_neighbors
    center = met.g12[:n_p][:, None]
    g12_stencil = np.hstack([np.where(nb >= 0, met.g12[nb], center), center])
    uniform = ((g12_stencil >= 0.0).all(axis=1)
               | (g12_stencil <= 0.0).all(axis=1))

    dense_rows_min = np.full(n_p, np.inf)
    center = np.empty(n_p)
    rowsum = np.empty(n_p)
    indptr, indices, data = lb.indptr, lb.indices, lb.data
    for i in range(n_p):
        sl = slice(indptr[i], indptr[i + 1])
        cols = indices[sl]
        vals = data[sl]
        is_center = cols == i
        center[i] = vals[is_center].sum()
        off = vals[~is_center]
        dense_rows_min[i] = off.min(initial=np.inf)
        rowsum[i] = vals.sum()
    return (float(dense_rows_min[uniform].min()),
            float(center[uniform].max()),
            float(dense_rows_min.min()),
            float(np.abs(rowsum).max()))


@pytest.mark.parametrize("name,form", [("sphere40", "divergence"),
                                       ("sphere40", "nondivergence"),
                                       ("ellipsoid40", "divergence")])
def test_row_sign_structure_matches_row_loop(name, form, request):
    disc = request.getfixturevalue(name)
    lb = laplace_beltrami(disc, form).copy()
    # a stored zero is an entry of its row, as in the loop
    lb.data[np.flatnonzero(lb.indices != 0)[:3]] = 0.0
    fast = row_sign_structure(lb, disc)
    slow = row_sign_structure_loop(lb, disc)
    assert fast[:3] == slow[:3]
    # the row sums are roundoff themselves; only their summation order differs
    assert abs(fast[3] - slow[3]) <= 2e-12


def test_tangential_projection_properties():
    rng = np.random.default_rng(8)
    n = rng.normal(size=(30, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    v = rng.normal(size=(30, 3))
    t = tangential_projection(v, n)
    assert np.abs((t * n).sum(axis=1)).max() < 1e-14
    np.testing.assert_allclose(tangential_projection(t, n), t, atol=1e-14)


def test_advection_coefficients_components(sphere40):
    def velocity(p):
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        return np.stack([x * x * z - y, x + x * y * z,
                         -x * (x * x + y * y)], axis=1)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v1, v2 = advection_coefficients(sphere40, velocity)
    c1, c2 = primary_chart_axes(sphere40)
    full = velocity(sphere40.positions[: sphere40.n_p])
    idx = np.arange(sphere40.n_p)
    np.testing.assert_array_equal(v1, full[idx, c1])
    np.testing.assert_array_equal(v2, full[idx, c2])


def test_advection_coefficients_warn_on_normal_component(sphere40):
    with pytest.warns(UserWarning, match="not tangential"):
        advection_coefficients(sphere40, lambda p: p.copy())


def test_sphere_surface_divergence_oracle(sphere40, sphere80):
    def velocity(p):
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        return np.stack([x * x * z - y, x + x * y * z,
                         -x * (x * x + y * y)], axis=1)

    errs = []
    for disc in (sphere40, sphere80):
        div = sphere_surface_divergence(disc, velocity(disc.positions))
        p = disc.positions[: disc.n_p]
        exact = 3.0 * p[:, 0] * p[:, 2]
        errs.append(np.abs(div - exact).max())
    assert errs[0] < 0.03
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_upwind_differences_exact_on_coordinates(sphere40):
    x = sphere40.positions[:, 0]
    c1, _ = primary_chart_axes(sphere40)
    mask = c1 == 0
    assert mask.any()
    for direction in ("forward", "backward"):
        d1, _ = upwind_differences(sphere40, x, direction)
        assert np.abs(d1[mask] - 1.0).max() < 1e-12


def test_upwind_differences_bad_direction(sphere40):
    with pytest.raises(ValueError):
        upwind_differences(sphere40, sphere40.positions[:, 0], "sideways")


def test_artificial_viscosity_vanishes_on_constants(sphere40):
    out = artificial_viscosity(sphere40, np.full(sphere40.n_tot, 3.7),
                               nu=1.0, k=0.01)
    assert np.abs(out).max() == 0.0


def test_artificial_viscosity_spike_value(sphere40):
    nu, k, h = 0.5, 0.02, sphere40.grid.h
    field = np.zeros(sphere40.n_tot)
    field[0] = 1.0
    out = artificial_viscosity(sphere40, field, nu=nu, k=k)
    expected = -4.0 * np.sqrt(2.0) * nu * k / h
    assert out[0] == pytest.approx(expected, rel=1e-12)


def test_artificial_viscosity_vector_shares_magnitude(sphere40):
    rng = np.random.default_rng(12)
    f = rng.normal(size=(sphere40.n_tot, 3))
    out = artificial_viscosity(sphere40, f, nu=1.0, k=0.01)
    assert out.shape == (sphere40.n_p, 3)
    # scaling the field by c scales the quadratic increment by c^2
    out2 = artificial_viscosity(sphere40, 2.0 * f, nu=1.0, k=0.01)
    np.testing.assert_allclose(out2, 4.0 * out, rtol=1e-12)


# -- cached chart-difference matrices against the neighbor gathers --------


def copy_discretization(d, **changes):
    """A fresh SurfaceDiscretization over the arrays of `d` (no caches)."""
    names = ("grid", "eta", "positions", "axis", "base_index", "closest_gp",
             "theta", "normals", "n_p", "associated_primary",
             "chart_neighbors", "interp_points", "interp_coeffs", "pi_sp",
             "pi_ss", "surface_kind", "surface_params")
    return SurfaceDiscretization(**dict({k: getattr(d, k) for k in names},
                                        **changes))


def gather_differences(d, f, direction):
    """The one-sided differences by indexing, before the division by h."""
    nb = d.chart_neighbors
    c = np.arange(d.n_p)
    if direction == "forward":
        return f[nb[:, SLOT_E]] - f[c], f[nb[:, SLOT_N]] - f[c]
    return f[c] - f[nb[:, SLOT_W]], f[c] - f[nb[:, SLOT_S]]


@pytest.fixture(scope="module", params=[
    ("sphere", 0), ("sphere", 1), ("ellipsoid", 0), ("ellipsoid", 1)],
    ids=["sphere-centred", "sphere-shifted", "ellipsoid-centred",
         "ellipsoid-shifted"])
def any_disc(request):
    name, seed = request.param
    h = 2.4 / 40
    shift = (np.zeros(3) if seed == 0
             else np.random.default_rng(seed).uniform(0.0, h, 3))
    grid = Grid(tuple(float(v) for v in shift - 1.2), h, (40, 40, 40))
    return discretize(make_surface(name), grid)


@pytest.mark.parametrize("shape", [(), (3,)], ids=["scalar", "vector"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_chart_differences_match_gathers(any_disc, shape, direction):
    d = any_disc
    rng = np.random.default_rng(31)
    f = rng.normal(size=(d.n_tot,) + shape)
    raw = d.chart_differences(direction) @ f
    g1, g2 = gather_differences(d, f, direction)
    np.testing.assert_array_equal(raw, np.concatenate([g1, g2]))
    d1, d2 = upwind_differences(d, f, direction)
    for got, want in ((d1, g1 / d.h), (d2, g2 / d.h)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_stacked_chart_differences_are_forward_over_backward(any_disc):
    d = any_disc
    f = np.cos(3.0 * d.positions[:, 0]) * d.positions[:, 2]
    both = d.chart_differences() @ f
    np.testing.assert_array_equal(both, np.concatenate(
        gather_differences(d, f, "forward")
        + gather_differences(d, f, "backward")))


def test_artificial_viscosity_matches_gather_formula(any_disc):
    d = any_disc
    rng = np.random.default_rng(32)
    nu, k = 0.7, 0.01
    for f in (rng.normal(size=d.n_tot), rng.normal(size=(d.n_tot, 3))):
        dp1, dp2 = (g / d.h for g in gather_differences(d, f, "forward"))
        dm1, dm2 = (g / d.h for g in gather_differences(d, f, "backward"))
        sq_p, sq_m = dp1 ** 2 + dp2 ** 2, dm1 ** 2 + dm2 ** 2
        if f.ndim == 2:
            sq_p = sq_p.sum(axis=1, keepdims=True)
            sq_m = sq_m.sum(axis=1, keepdims=True)
        want = nu * k * d.h * (np.sqrt(sq_p) * (dp1 + dp2)
                               - np.sqrt(sq_m) * (dm1 + dm2))
        got = artificial_viscosity(d, f, nu, k)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_chart_differences_are_cached(sphere40):
    d = copy_discretization(sphere40)
    calls = []
    check = d.require_full_stencil

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    d.require_full_stencil = counted
    both = d.chart_differences()
    assert d.chart_differences() is both
    for direction in ("forward", "backward"):
        assert d.chart_differences(direction) is \
            d.chart_differences(direction)
    f = sphere40.positions[:, 1]
    upwind_differences(d, f, "forward")
    upwind_differences(d, f, "backward")
    artificial_viscosity(d, f, 1.0, 0.01)
    assert len(calls) == 1
    assert both.shape == (4 * d.n_p, d.n_tot)
    assert both.nnz == 8 * d.n_p
    assert set(np.unique(both.data)) == {-1.0, 1.0}


@pytest.mark.parametrize("slot", [SLOT_E, SLOT_W, SLOT_N, SLOT_S])
def test_missing_axis_neighbor_fails_on_first_use(sphere40, slot):
    nb = sphere40.chart_neighbors.copy()
    i = 17
    nb[i, slot] = -1
    broken = copy_discretization(sphere40, chart_neighbors=nb)
    with pytest.raises(StencilError) as err:
        upwind_differences(broken, sphere40.positions[:, 0], "forward")
    assert str(sphere40.positions[i]) in str(err.value)
    with pytest.raises(StencilError):
        artificial_viscosity(broken, sphere40.positions[:, 0], 1.0, 0.01)
