"""Portable dump/load of a cut-point discretization (npz container).

Format version 3: a JSON header (format, version, n_tot, n_p, dropped_cuts,
eta, grid, surface kind and parameters) plus the eight record arrays of
`discretization.RECORD_ARRAYS`, nothing derived from them.  The loader
checks the header (eta under the rule of `discretize`, dropped_cuts >= 0,
surface parameters an object) and the arrays against it (shape, kind, axis,
owner and neighbor ranges; each base_index the low node of a grid interval
along its point's axis, each closest_gp that node or the one above it), and
raises FormatError naming the file and the field or array.  A member whose
bytes do not decode (zip, zlib or npy errors) gives a FormatError naming the
file and the member.  The constructor then rebuilds Pi with the checks of
a fresh build.  Surfaces and plane curves share the format.  Versions 1 and
2 (v2 also stored the interpolation rows and Pi) are rejected with
VersionError.
"""

from __future__ import annotations

import json

import numpy as np

from .discretization import (RECORD_ARRAYS, STENCIL_OFFSETS, Grid,
                             SurfaceDiscretization, _check_eta)
from .errors import FormatError, GridError, VersionError

FORMAT_NAME = "surfpde-discretization"
FORMAT_VERSION = 3


def dump_discretization(disc, path):
    """Write a discretization's record to `path` itself (npz container)."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n_tot": disc.n_tot,
        "n_p": disc.n_p,
        "dropped_cuts": disc.dropped_cuts,
        "eta": disc.eta,
        "grid": {"origin": list(disc.grid.origin), "h": disc.grid.h,
                 "n_cells": list(disc.grid.n_cells)},
        "surface_kind": disc.surface_kind,
        "surface_params": disc.surface_params,
    }
    payload = {name: getattr(disc, name) for name in RECORD_ARRAYS}
    payload["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8)
    # through an open file: given a name, numpy would append ".npz"
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **payload)


def _read_member(path, blob, name):
    """The array `name` of the open npz file `blob`, or FormatError naming
    the file and the member when it is missing or its bytes do not decode.
    Damaged bytes surface as whatever the layer that meets them raises:
    zipfile (BadZipFile, EOFError, NotImplementedError, RuntimeError),
    zlib.error, or the npy header parser (ValueError, SyntaxError,
    tokenize.TokenError), so every Exception becomes the FormatError."""
    try:
        return blob[name]
    except Exception as exc:
        raise FormatError(f"{path}: cannot read member {name}: "
                          f"{type(exc).__name__}: {exc}") from exc


def _check_record(path, arrays, n_cells, n_p, n_tot):
    """Raise FormatError naming the first record array that does not fit
    the header in shape, kind (finite floats or integers) or range."""
    dim = len(n_cells)
    point = (n_tot, dim)
    # name: (shape, kind, None or (first point checked, low, high));
    # primaries carry no owner
    spec = {"positions": (point, "f", None),
            "axis": ((n_tot,), "i", (0, 0, dim)),
            "base_index": (point, "i", None), "closest_gp": (point, "i", None),
            "theta": ((n_tot,), "f", None), "normals": (point, "f", None),
            "associated_primary": ((n_tot,), "i", (n_p, 0, n_p)),
            "chart_neighbors": ((n_p, len(STENCIL_OFFSETS[dim])), "i",
                                (0, -1, n_tot))}
    for name in RECORD_ARRAYS:
        arr, (shape, kind, bounds) = arrays[name], spec[name]
        if arr.shape != shape:
            raise FormatError(f"{path}: array {name} has shape {arr.shape}, "
                              f"expected {shape} for n_tot={n_tot}, n_p={n_p}")
        if kind == "f" and not (arr.dtype.kind == "f"
                                and np.isfinite(arr).all()):
            raise FormatError(f"{path}: array {name} must hold finite floats")
        if kind == "i" and arr.dtype.kind not in "iu":
            raise FormatError(f"{path}: array {name} must hold integers, "
                              f"got {arr.dtype}")
        if bounds is not None:
            first, lo, hi = bounds
            bad = np.argwhere((arr[first:] < lo) | (arr[first:] >= hi))
            if bad.size:
                raise FormatError(
                    f"{path}: array {name} has {len(bad)} entries outside "
                    f"[{lo}, {hi}); first {arr[first:][tuple(bad[0])]} at "
                    f"point {first + int(bad[0, 0])}")
    # a cut lies on the grid interval from base_index one step along its
    # axis, and its closest grid point is one of the interval's two ends
    axis = arrays["axis"]
    along = np.eye(dim, dtype=np.int64)[axis]
    base = arrays["base_index"].astype(np.int64)
    step = arrays["closest_gp"].astype(np.int64) - base
    for name, bad, what in (
            ("base_index", ((base < 0) | (base > np.asarray(n_cells) - along)
                            ).any(axis=1),
             "outside the grid or at its top end along the point's axis"),
            ("closest_gp", ((step != 0) & (step != along)).any(axis=1),
             "neither base_index nor the node above it along the point's "
             "axis")):
        if bad.any():
            i = int(np.argmax(bad))
            raise FormatError(
                f"{path}: array {name} has {int(bad.sum())} points {what}; "
                f"first {arrays[name][i]} at point {i} (axis {axis[i]}, "
                f"grid of {tuple(n_cells)} cells)")


def load_discretization(path):
    """Read a discretization written by dump_discretization."""
    try:
        blob = np.load(path, allow_pickle=False)
    except Exception as exc:
        raise FormatError(f"cannot read discretization file {path}: {exc}") \
            from exc
    with blob:
        if "header" not in blob:
            raise FormatError(f"{path}: missing header record")
        try:
            header = json.loads(bytes(blob["header"]).decode("utf-8"))
        except Exception as exc:
            raise FormatError(f"{path}: corrupt header: {exc}") from exc
        if header.get("format") != FORMAT_NAME:
            raise FormatError(
                f"{path}: not a {FORMAT_NAME} file "
                f"(format={header.get('format')!r})")
        if header.get("version") != FORMAT_VERSION:
            raise VersionError(
                f"{path}: unsupported format version "
                f"{header.get('version')!r} (expected {FORMAT_VERSION})")
        arrays = {name: _read_member(path, blob, name)
                  for name in RECORD_ARRAYS}
        try:
            g = header["grid"]
            grid = Grid(tuple(g["origin"]), float(g["h"]), tuple(g["n_cells"]))
            n_p, n_tot = int(header["n_p"]), int(header["n_tot"])
            eta, dropped = float(header["eta"]), int(header["dropped_cuts"])
        except (KeyError, TypeError, ValueError, GridError) as exc:
            raise FormatError(f"{path}: missing or malformed record {exc}") \
                from exc

    dim = len(grid.n_cells)
    if dim not in STENCIL_OFFSETS or not 0 <= n_p <= n_tot:
        raise FormatError(f"{path}: header grid of dimension {dim} with "
                          f"n_p={n_p}, n_tot={n_tot} describes no "
                          f"discretization")
    try:
        _check_eta(eta, dim)
    except ValueError as exc:
        raise FormatError(f"{path}: header {exc}") from exc
    if dropped < 0:
        raise FormatError(f"{path}: header dropped_cuts must be >= 0, "
                          f"got {dropped}")
    params = header.get("surface_params", {})
    if not isinstance(params, dict):
        raise FormatError(f"{path}: header surface_params must be a JSON "
                          f"object, got {params!r}")
    _check_record(path, arrays, grid.n_cells, n_p, n_tot)
    return SurfaceDiscretization(
        grid=grid, eta=eta, n_p=n_p, dropped_cuts=dropped,
        surface_kind=header.get("surface_kind", "user"),
        surface_params=params, **arrays)

