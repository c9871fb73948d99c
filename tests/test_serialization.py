import functools
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap

import hypothesis
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from surfpde import discretize, make_surface
from surfpde.curve1d import circle, discretize_curve
from surfpde.discretization import RECORD_ARRAYS, Grid
from surfpde.errors import FormatError, StencilError, VersionError
from surfpde.serialization import dump_discretization, load_discretization


def test_round_trip(sphere40, tmp_path):
    path = tmp_path / "disc.npz"
    dump_discretization(sphere40, path)
    back = load_discretization(path)
    assert back.n_p == sphere40.n_p
    assert back.n_tot == sphere40.n_tot
    assert back.grid.h == sphere40.grid.h
    assert back.surface_kind == "sphere"
    assert back.dropped_cuts == sphere40.dropped_cuts > 0
    np.testing.assert_array_equal(back.positions, sphere40.positions)
    np.testing.assert_array_equal(back.axis, sphere40.axis)
    np.testing.assert_array_equal(back.theta, sphere40.theta)
    np.testing.assert_array_equal(back.chart_neighbors,
                                  sphere40.chart_neighbors)
    assert (back.pi_ss - sphere40.pi_ss).nnz == 0
    assert (back.pi_sp - sphere40.pi_sp).nnz == 0


def test_curve_round_trip(tmp_path):
    # eta = 0.65 drops crossings and leaves secondaries, so the dropped
    # count and Pi both survive the trip
    disc = discretize_curve(circle(), Grid.square(-1.2, 1.2, 80), eta=0.65)
    assert (disc.n_p, disc.n_tot, disc.dropped_cuts) == (188, 204, 64)
    path = tmp_path / "curve.npz"
    dump_discretization(disc, path)
    back = load_discretization(path)
    assert back.grid == disc.grid
    assert (back.n_p, back.dropped_cuts, back.eta, back.surface_kind) == \
        (disc.n_p, 64, 0.65, "circle")
    for name in RECORD_ARRAYS:
        np.testing.assert_array_equal(getattr(back, name),
                                      getattr(disc, name))
    for name in ("pi_sp", "pi_ss"):
        assert (getattr(back, name) != getattr(disc, name)).nnz == 0
    assert (back.extension_matrix() != disc.extension_matrix()).nnz == 0


def test_dump_writes_exactly_the_given_path(sphere40, tmp_path):
    # a path without the .npz suffix gets none appended
    path = tmp_path / "disc"
    dump_discretization(sphere40, path)
    assert [p.name for p in tmp_path.iterdir()] == ["disc"]
    back = load_discretization(path)
    np.testing.assert_array_equal(back.positions, sphere40.positions)


def test_file_holds_only_the_record(sphere40, tmp_path):
    path = tmp_path / "disc.npz"
    dump_discretization(sphere40, path)
    with np.load(path) as blob:
        assert sorted(blob.files) == sorted(RECORD_ARRAYS + ("header",))


def test_reloaded_extension_identical(sphere40, tmp_path):
    path = tmp_path / "disc.npz"
    dump_discretization(sphere40, path)
    back = load_discretization(path)
    u = np.cos(sphere40.positions[: sphere40.n_p, 0])
    assert np.array_equal(sphere40.extend(u), back.extend(u))


def test_load_rejects_non_npz(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"not actually a zip archive")
    with pytest.raises(FormatError):
        load_discretization(path)


def test_load_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.npz"
    header = np.frombuffer(
        json.dumps({"format": "something-else", "version": 1}).encode(),
        dtype=np.uint8)
    np.savez(path, header=header)
    with pytest.raises(FormatError):
        load_discretization(path)


def rewrite_header(path, edit):
    """Apply `edit` to the JSON header of the npz file at `path`."""
    blob = dict(np.load(path, allow_pickle=False))
    header = json.loads(bytes(blob["header"]).decode())
    edit(header)
    blob["header"] = np.frombuffer(json.dumps(header).encode(),
                                   dtype=np.uint8)
    np.savez(path, **blob)


def rewrite_array(path, name, edit):
    """Replace the array `name` of the npz file at `path` by
    edit(array, n_p, n_tot)."""
    blob = dict(np.load(path, allow_pickle=False))
    header = json.loads(bytes(blob["header"]).decode())
    blob[name] = edit(blob[name].copy(), header["n_p"], header["n_tot"])
    np.savez(path, **blob)


def test_load_rejects_future_version(sphere40, tmp_path):
    path = tmp_path / "disc.npz"
    dump_discretization(sphere40, path)
    rewrite_header(path, lambda header: header.update(version=999))
    with pytest.raises(VersionError):
        load_discretization(path)


def test_load_rejects_version_2_file(sphere40, tmp_path):
    # version 2 also stored the interpolation rows and Pi
    path = tmp_path / "disc.npz"
    dump_discretization(sphere40, path)
    rewrite_header(path, lambda header: header.update(version=2))
    with pytest.raises(VersionError, match="version 2"):
        load_discretization(path)


def _put(arr, index, value):
    arr[index] = value
    return arr


TAMPERED = {
    "neighbor-past-end": ("chart_neighbors",
                          lambda a, n_p, n_tot: _put(a, (5, 1), n_tot)),
    "neighbor-below-absent": ("chart_neighbors",
                              lambda a, n_p, n_tot: _put(a, (5, 1), -2)),
    "owner-is-secondary": ("associated_primary",
                           lambda a, n_p, n_tot: _put(a, n_p + 3, n_p)),
    "owner-absent": ("associated_primary",
                     lambda a, n_p, n_tot: _put(a, n_tot - 1, -1)),
    "axis-out-of-range": ("axis", lambda a, n_p, n_tot: _put(a, 0, 3)),
    "truncated-theta": ("theta", lambda a, n_p, n_tot: a[:-1]),
    "truncated-neighbors": ("chart_neighbors", lambda a, n_p, n_tot: a[:-2]),
    "float-neighbors": ("chart_neighbors",
                        lambda a, n_p, n_tot: a.astype(float)),
    "nan-normal": ("normals", lambda a, n_p, n_tot: _put(a, (0, 0), np.nan)),
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_tampered_record_names_the_array(sphere40, tmp_path, case):
    name, edit = TAMPERED[case]
    path = tmp_path / "disc.npz"
    dump_discretization(sphere40, path)
    rewrite_array(path, name, edit)
    with pytest.raises(FormatError, match=f"disc.npz: array {name} "):
        load_discretization(path)


def _set(col, value):
    return lambda a, i, ax, base: _put(a, (i, col), value)


# edits (array, i, the point's axis, its base_index) -> array that leave
# the grid or the point's interval: one coordinate set to -5 or 10**6,
# closest_gp two steps up its axis, or one step up another axis; each at
# the first primary and at the first secondary
GRID_PROBES = {
    **{f"{name}-{where}-{col}-{value}": (name, where, _set(col, value))
       for name in ("base_index", "closest_gp")
       for where in ("primary", "secondary")
       for col in range(3) for value in (-5, 10 ** 6)},
    **{f"closest_gp-{where}-two-steps": (
        "closest_gp", where,
        lambda a, i, ax, base: _put(a, (i, ax), base[i, ax] + 2))
       for where in ("primary", "secondary")},
    **{f"closest_gp-{where}-other-axis": (
        "closest_gp", where,
        lambda a, i, ax, base: _put(a, (i, (ax + 1) % 3),
                                    base[i, (ax + 1) % 3] + 1))
       for where in ("primary", "secondary")},
}


@pytest.mark.parametrize("case", sorted(GRID_PROBES))
def test_grid_index_out_of_range_names_the_array(sphere40, tmp_path, case):
    name, where, edit = GRID_PROBES[case]
    d = sphere40
    i = 0 if where == "primary" else d.n_p
    path = tmp_path / "disc.npz"
    dump_discretization(d, path)
    rewrite_array(path, name, lambda a, n_p, n_tot: edit(
        a, i, int(d.axis[i]), d.base_index))
    with pytest.raises(FormatError, match=f"disc.npz: array {name} has 1 "
                       f"points .* first .* at point {i} "):
        load_discretization(path)


def test_grid_ranges_admit_every_built_record(tmp_path):
    # the top interval along an axis and both interval ends as the closest
    # grid point occur in a fresh build, and the checks admit them
    d = discretize(make_surface("sphere"), Grid.cube(-1.05, 1.05, 21))
    ids = np.arange(d.n_tot)
    assert (d.base_index[ids, d.axis] == 20).any()
    step = d.closest_gp[ids, d.axis] - d.base_index[ids, d.axis]
    assert set(step.tolist()) == {0, 1}
    path = tmp_path / "disc.npz"
    dump_discretization(d, path)
    np.testing.assert_array_equal(load_discretization(path).closest_gp,
                                  d.closest_gp)


@functools.lru_cache(maxsize=None)
def small_dump():
    """Bytes of a sphere N = 20 dump (1,062 points) and its record."""
    disc = discretize(make_surface("sphere"), Grid.cube(-1.2, 1.2, 20))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "disc.npz")
        dump_discretization(disc, path)
        with open(path, "rb") as fh:
            return fh.read(), disc


@hypothesis.seed(20191908)
@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupt_or_truncated_dump_is_a_format_error_or_the_same(data,
                                                                tmp_path):
    raw, disc = small_dump()
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        edits = data.draw(st.lists(
            st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
            min_size=1, max_size=4), label="xor at")
        raw = bytearray(raw)
        for at, mask in edits:
            raw[at] ^= mask
    path = tmp_path / "fuzz.npz"
    path.write_bytes(bytes(raw))
    try:
        back = load_discretization(path)
    except FormatError as exc:
        assert str(exc).startswith(f"{path}: ") or \
            str(exc).startswith(f"cannot read discretization file {path}: ")
        return
    for name in RECORD_ARRAYS:
        np.testing.assert_array_equal(getattr(back, name),
                                      getattr(disc, name))
    assert (back.grid, back.n_p, back.eta, back.dropped_cuts,
            back.surface_kind, back.surface_params) == \
        (disc.grid, disc.n_p, disc.eta, disc.dropped_cuts,
         disc.surface_kind, disc.surface_params)


SPHERE_ETA_RULE = re.escape("eta must lie in (0, 1/sqrt(3)) on a 3-D grid")
BAD_HEADERS = {
    "eta-negative": ({"eta": -1.0}, SPHERE_ETA_RULE),
    "eta-zero": ({"eta": 0.0}, SPHERE_ETA_RULE),
    "eta-0.9": ({"eta": 0.9}, SPHERE_ETA_RULE),
    "eta-1e300": ({"eta": 1e300}, SPHERE_ETA_RULE),
    "dropped-negative": ({"dropped_cuts": -3},
                         "dropped_cuts must be >= 0, got -3"),
    "params-not-object": ({"surface_params": [1, 2]},
                          "surface_params must be a JSON object"),
}


@pytest.mark.parametrize("case", sorted(BAD_HEADERS))
def test_bad_header_value_names_the_file_and_field(sphere40, tmp_path,
                                                   case):
    fields, message = BAD_HEADERS[case]
    path = tmp_path / "disc.npz"
    dump_discretization(sphere40, path)
    rewrite_header(path, lambda header: header.update(fields))
    with pytest.raises(FormatError,
                       match=re.escape(f"{path}: header ") + message):
        load_discretization(path)


def test_tampered_record_is_rejected_under_optimize(sphere40, tmp_path,
                                                   subprocess_env):
    path = tmp_path / "disc.npz"
    dump_discretization(sphere40, path)
    rewrite_array(path, "chart_neighbors", TAMPERED["neighbor-past-end"][1])
    script = textwrap.dedent(f"""
        from surfpde.errors import FormatError
        from surfpde.serialization import load_discretization
        try:
            load_discretization({str(path)!r})
        except FormatError as exc:
            print(exc)
        else:
            raise SystemExit("no FormatError")
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=subprocess_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "array chart_neighbors" in proc.stdout


def test_eta_rule_and_header_checks_hold_under_optimize(sphere40, tmp_path,
                                                      subprocess_env):
    # one file per bad header; the checks are no asserts, so -O keeps them
    paths = []
    for case in sorted(BAD_HEADERS):
        paths.append(str(tmp_path / f"{case}.npz"))
        dump_discretization(sphere40, paths[-1])
        rewrite_header(paths[-1],
                       lambda header: header.update(BAD_HEADERS[case][0]))
    script = textwrap.dedent(f"""
        from surfpde.curve1d import circle, discretize_curve
        from surfpde.discretization import Grid, discretize
        from surfpde.errors import FormatError
        from surfpde.geometry import make_surface
        from surfpde.serialization import load_discretization
        builds = [(discretize, make_surface("sphere"), Grid.cube, 0.6),
                  (discretize_curve, circle(), Grid.square, 0.75)]
        for build, surface, box, eta in builds:
            try:
                build(surface, box(-1.2, 1.2, 10), eta=eta)
            except ValueError as exc:
                print(exc)
            else:
                raise SystemExit(f"no ValueError at eta={{eta}}")
        for path in {paths!r}:
            try:
                load_discretization(path)
            except FormatError as exc:
                print(exc)
            else:
                raise SystemExit(f"no FormatError for {{path}}")
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=subprocess_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 + len(paths)
    assert "(0, 1/sqrt(3))" in lines[0] and "(0, 1/sqrt(2))" in lines[1]
    for line, path in zip(lines[2:], paths):
        assert line.startswith(f"{path}: header ")


def test_loaded_record_passes_the_pi_checks(sphere40, tmp_path):
    # a secondary leaning on another secondary, with theta pushed to 3:
    # its Pi_ss row sum exceeds 1/2 and the rebuild on load refuses it
    d = sphere40
    rows = d.pi_ss.tocoo().row
    s = d.n_p + int(rows[0])
    path = tmp_path / "disc.npz"
    dump_discretization(d, path)
    rewrite_array(path, "theta", lambda a, n_p, n_tot: _put(a, s, 3.0))
    with pytest.raises(StencilError, match="> 1/2"):
        load_discretization(path)


@pytest.mark.parametrize("field", ["dropped_cuts", "grid"])
def test_load_rejects_header_without_a_field(sphere40, tmp_path, field):
    path = tmp_path / "disc.npz"
    dump_discretization(sphere40, path)
    rewrite_header(path, lambda header: header.pop(field))
    with pytest.raises(FormatError, match=field):
        load_discretization(path)


@pytest.mark.parametrize("h", [float("inf"), float("nan"), -0.1])
def test_load_rejects_a_bad_header_grid_spacing(sphere40, tmp_path, h):
    path = tmp_path / "disc.npz"
    dump_discretization(sphere40, path)
    rewrite_header(path, lambda header: header["grid"].update(h=h))
    with pytest.raises(FormatError, match=re.escape(str(path)) + ": missing "
                       "or malformed record grid needs a finite origin and a "
                       "finite spacing h > 0"):
        load_discretization(path)
