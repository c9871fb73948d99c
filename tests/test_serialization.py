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

from conftest import rewrite_dump
from surfpde import discretize, make_surface
from surfpde.curve1d import circle, discretize_curve
from surfpde.discretization import RECORD_ARRAYS, Grid, _interval_key
from surfpde.errors import FormatError, VersionError
from surfpde.serialization import (CUT_ARRAYS, dump_discretization,
                                   load_discretization)


def dumped(disc, tmp_path):
    """The path of `disc` dumped to disc.npz in `tmp_path`."""
    path = tmp_path / "disc.npz"
    dump_discretization(disc, path)
    return path


def same_record(back, disc):
    """Assert that `back` is `disc`: header fields, record, Pi and E."""
    for name in RECORD_ARRAYS:
        np.testing.assert_array_equal(getattr(back, name),
                                      getattr(disc, name))
    fields = ("grid", "eta", "n_p", "dropped_cuts", "surface_kind",
              "surface_params")
    assert [getattr(back, f) for f in fields] == \
        [getattr(disc, f) for f in fields]
    for a, b in ((back.pi_sp, disc.pi_sp), (back.pi_ss, disc.pi_ss),
                 (back.extension_matrix(), disc.extension_matrix())):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, part), getattr(b, part))


def test_round_trip(sphere40, tmp_path):
    back = load_discretization(dumped(sphere40, tmp_path))
    assert back.surface_kind == "sphere" and back.dropped_cuts > 0
    same_record(back, sphere40)


def test_curve_round_trip(tmp_path):
    # eta = 0.65 drops crossings and leaves secondaries, so the dropped
    # count and Pi both survive the trip
    disc = discretize_curve(circle(), Grid.square(-1.2, 1.2, 80), eta=0.65)
    assert (disc.n_p, disc.n_tot, disc.dropped_cuts) == (188, 204, 64)
    same_record(load_discretization(dumped(disc, tmp_path)), disc)


@pytest.mark.parametrize("kind", ["ellipsoid", "cassini_oval"])
def test_shifted_round_trip_is_bit_for_bit(kind, tmp_path):
    box = Grid.cube(-1.2, 1.2, 80)
    disc = discretize(make_surface(kind), Grid(
        tuple(np.asarray(box.origin) + 0.0137), box.h, box.n_cells))
    same_record(load_discretization(dumped(disc, tmp_path)), disc)


def test_dump_writes_exactly_the_given_path(sphere40, tmp_path):
    # a path without the .npz suffix gets none appended
    path = tmp_path / "disc"
    dump_discretization(sphere40, path)
    assert [p.name for p in tmp_path.iterdir()] == ["disc"]
    back = load_discretization(path)
    np.testing.assert_array_equal(back.positions, sphere40.positions)


def test_file_holds_only_the_record(sphere40, tmp_path):
    # the header and the cuts, in cut order; nothing derived from them
    path = dumped(sphere40, tmp_path)
    with np.load(path) as blob:
        assert sorted(blob.files) == sorted(CUT_ARRAYS + ("header",))
        header = json.loads(bytes(blob["header"]).decode())
        key = _interval_key(sphere40.grid, blob["axis"], blob["base_index"])
    assert "n_p" not in header
    assert (np.diff(key) > 0).all() and key.size == sphere40.n_tot


def test_reloaded_extension_identical(sphere40, tmp_path):
    back = load_discretization(dumped(sphere40, tmp_path))
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


def test_load_rejects_future_version(sphere40, tmp_path):
    path = dumped(sphere40, tmp_path)
    rewrite_dump(path, lambda blob: blob["header"].update(version=999))
    with pytest.raises(VersionError):
        load_discretization(path)


def test_load_rejects_version_2_file(sphere40, tmp_path):
    # version 2 also stored the interpolation rows and Pi
    path = dumped(sphere40, tmp_path)
    rewrite_dump(path, lambda blob: blob["header"].update(version=2))
    with pytest.raises(VersionError, match="version 2"):
        load_discretization(path)


@pytest.mark.parametrize("version", [1, 3])
def test_load_rejects_an_older_version(sphere40, tmp_path, version):
    path = dumped(sphere40, tmp_path)
    rewrite_dump(path, lambda blob: blob["header"].update(version=version))
    with pytest.raises(VersionError, match=f"version {version} "):
        load_discretization(path)


def _put(arr, index, value):
    arr[index] = value
    return arr


# file point 0 is the first cut in cut order, a cut along axis 0
TAMPERED = {
    "axis-out-of-range": ("axis", lambda a: _put(a, 0, 3)),
    "truncated-positions": ("positions", lambda a: a[:-1]),
    "float-base-index": ("base_index", lambda a: a.astype(float)),
    "nan-normal": ("normals", lambda a: _put(a, (0, 0), np.nan)),
    "zero-normal": ("normals", lambda a: _put(a, 0, 0.0)),
    "long-normal": ("normals", lambda a: _put(a, 0, a[0] * (1 + 1e-9))),
    "inadmissible-normal": ("normals", lambda a: _put(a, 0, [0.0, 1.0, 0.0])),
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_tampered_record_names_the_array(sphere40, tmp_path, case):
    name, edit = TAMPERED[case]
    path = dumped(sphere40, tmp_path)
    rewrite_dump(path, lambda blob: blob.update({name: edit(blob[name])}))
    with pytest.raises(FormatError, match=f"disc.npz: array {name} "):
        load_discretization(path)


def test_swapped_cuts_break_the_cut_order(sphere40, tmp_path):
    path = dumped(sphere40, tmp_path)
    rewrite_dump(path, lambda blob: [
        _put(blob[name], [0, 1], blob[name][[1, 0]]) for name in CUT_ARRAYS])
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: the cuts do not rebuild a discretization: duplicate "
            f"or out-of-order")):
        load_discretization(path)


def test_cut_off_its_interval_is_a_format_error(sphere40, tmp_path):
    # file point 5 moved 7 h along its axis, off its base_index interval;
    # theta's clip to [-1/2, 1/2] would hide the move, so the constructor
    # checks the interval itself
    path = dumped(sphere40, tmp_path)

    def move(blob):
        blob["positions"][5, blob["axis"][5]] += 7 * sphere40.h

    rewrite_dump(path, move)
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: the cuts do not rebuild a discretization: 1 cut points "
            f"lie off their grid intervals; first the cut at ") + ".* steps "
            "along axis 0 from node .*, outside \\[0, 1\\]$"):
        load_discretization(path)


# base_index set to -5 or 10**6 in one coordinate, at the first primary
# and at the first secondary of the build
GRID_PROBES = {f"base_index-{where}-{col}-{value}": (where, col, value)
               for where in ("primary", "secondary")
               for col in range(3) for value in (-5, 10 ** 6)}


@pytest.mark.parametrize("case", sorted(GRID_PROBES))
def test_grid_index_out_of_range_names_the_array(sphere40, tmp_path, case):
    d, (where, col, value) = sphere40, GRID_PROBES[case]
    # the file index of the build's point 0 or n_p: its rank in cut order
    key = _interval_key(d.grid, d.axis, d.base_index)
    i = int((key < key[0 if where == "primary" else d.n_p]).sum())
    path = dumped(d, tmp_path)
    rewrite_dump(path, lambda blob: _put(blob["base_index"], (i, col), value))
    with pytest.raises(FormatError, match=f"disc.npz: array base_index has 1 "
                       f"points .* first .* at point {i}$"):
        load_discretization(path)


def test_grid_ranges_admit_every_built_record(tmp_path):
    # the top interval along an axis and both interval ends as the closest
    # grid point occur in a fresh build, and the checks admit them
    d = discretize(make_surface("sphere"), Grid.cube(-1.05, 1.05, 21))
    ids = np.arange(d.n_tot)
    assert (d.base_index[ids, d.axis] == 20).any()
    step = d.closest_gp[ids, d.axis] - d.base_index[ids, d.axis]
    assert set(step.tolist()) == {0, 1}
    same_record(load_discretization(dumped(d, tmp_path)), d)


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
    same_record(back, disc)


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
    # grids no build has: 1-D, fractional, interval ids past int64
    **{f"grid-{name}": ({"grid": {"origin": [0.0] * len(n), "h": 0.1,
                                  "n_cells": n}}, "grid .* describes no")
       for name, n in (("1d", [20]), ("fractional", [20.5] * 3),
                       ("huge", [3 * 10 ** 6] * 3))},
}


@pytest.mark.parametrize("case", sorted(BAD_HEADERS))
def test_bad_header_value_names_the_file_and_field(sphere40, tmp_path,
                                                   case):
    fields, message = BAD_HEADERS[case]
    path = dumped(sphere40, tmp_path)
    rewrite_dump(path, lambda blob: blob["header"].update(fields))
    with pytest.raises(FormatError,
                       match=re.escape(f"{path}: header ") + message):
        load_discretization(path)


def test_tampered_record_is_rejected_under_optimize(sphere40, tmp_path,
                                                   subprocess_env):
    path = dumped(sphere40, tmp_path)
    rewrite_dump(path, lambda blob: _put(blob["normals"], 0, 0.0))
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
    assert proc.stdout == (f"{path}: array normals has 1 points that are "
                           f"not unit normals admissible at eta=0.45; first "
                           f"[0. 0. 0.] at point 0\n")


def test_eta_rule_and_header_checks_hold_under_optimize(sphere40, tmp_path,
                                                      subprocess_env):
    # one file per bad header; the checks are no asserts, so -O keeps them
    paths = []
    for case in sorted(BAD_HEADERS):
        paths.append(str(tmp_path / f"{case}.npz"))
        dump_discretization(sphere40, paths[-1])
        rewrite_dump(paths[-1],
                lambda blob: blob["header"].update(BAD_HEADERS[case][0]))
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
    # a copy of a primary's cut on the interval below, closest to the same
    # grid point: one of the two becomes a secondary on its primary's axis,
    # and the constructor refuses the rebuild as it refuses such a build
    d = sphere40
    p = int(np.argmax((d.closest_gp == d.base_index)[:d.n_p].all(axis=1)))
    ax = int(d.axis[p])
    cut = dict(positions=d.positions[p].copy(), axis=d.axis[p],
               base_index=d.base_index[p] - np.eye(3, dtype=int)[ax],
               normals=d.normals[p])
    cut["positions"][ax] = d.grid.coords(ax)[d.base_index[p, ax]] - d.h / 4
    at = int((_interval_key(d.grid, d.axis, d.base_index) < _interval_key(
        d.grid, d.axis[[p]], cut["base_index"][None])).sum())

    def insert(blob):
        blob.update({name: np.insert(blob[name], at, cut[name], axis=0)
                     for name in CUT_ARRAYS})
        blob["header"]["n_tot"] += 1

    path = dumped(d, tmp_path)
    rewrite_dump(path, insert)
    with pytest.raises(FormatError, match="disc.npz: the cuts do not rebuild "
                       "a discretization: secondary .* shares its interval"):
        load_discretization(path)


@pytest.mark.parametrize("field", ["dropped_cuts", "grid"])
def test_load_rejects_header_without_a_field(sphere40, tmp_path, field):
    path = dumped(sphere40, tmp_path)
    rewrite_dump(path, lambda blob: blob["header"].pop(field))
    with pytest.raises(FormatError, match=field):
        load_discretization(path)


@pytest.mark.parametrize("h", [float("inf"), float("nan"), -0.1])
def test_load_rejects_a_bad_header_grid_spacing(sphere40, tmp_path, h):
    path = dumped(sphere40, tmp_path)
    rewrite_dump(path, lambda blob: blob["header"]["grid"].update(h=h))
    with pytest.raises(FormatError, match=re.escape(str(path)) + ": missing "
                       "or malformed record grid needs a finite origin and a "
                       "finite spacing h > 0"):
        load_discretization(path)
