"""Portable dump/load of a cut-point discretization (npz container).

Format version 4: a JSON header (format, version, n_tot, dropped_cuts, eta,
grid, surface kind and parameters) and the cuts, the `CUT_ARRAYS` in cut
order (`SurfaceDiscretization.cuts`).  The loader checks the header and
the cuts against it (shape, kind, range; each normal a unit vector
admissible at eta, as the builder makes them) and raises FormatError
naming the file and the field, the array or the member whose bytes do not
decode.  It then hands the cuts to the `SurfaceDiscretization`
constructor, which derives the record and Pi from them as it does for a
build, so a load equals the fresh build bit for bit; a SurfPDEError there,
such as a repeated or out-of-order cut or one off its grid interval,
becomes a FormatError naming the file.  Surfaces and plane curves share
the format.  VersionError rejects version 1 (no dropped_cuts), 2 (which
also stored the interpolation rows and Pi) and 3 (which also stored
closest_gp, theta, associated_primary, chart_neighbors and n_p, freezing
one version of the builder's rules).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .discretization import (CUT_ARRAYS, Grid, SurfaceDiscretization,
                             _admissible_mask, _check_eta)
from .errors import FormatError, GridError, SurfPDEError, VersionError

FORMAT_NAME = "surfpde-discretization"
FORMAT_VERSION = 4


def dump_discretization(disc, path):
    """Write a discretization's cuts to `path` itself (npz container)."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n_tot": disc.n_tot,
        "dropped_cuts": disc.dropped_cuts,
        "eta": disc.eta,
        "grid": {"origin": list(disc.grid.origin), "h": disc.grid.h,
                 "n_cells": list(disc.grid.n_cells)},
        "surface_kind": disc.surface_kind,
        "surface_params": disc.surface_params,
    }
    payload = disc.cuts()
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


def _check_cuts(path, arrays, grid, eta, n_tot):
    """Raise FormatError naming the first cut array that does not fit the
    header in shape, kind or range, or holds a normal no build makes."""
    dim = len(grid.n_cells)
    for name, shape, kind in (("positions", (n_tot, dim), "f"),
                              ("axis", (n_tot,), "i"),
                              ("base_index", (n_tot, dim), "i"),
                              ("normals", (n_tot, dim), "f")):
        arr = arrays[name]
        if arr.shape != shape:
            raise FormatError(f"{path}: array {name} has shape {arr.shape}, "
                              f"expected {shape} for n_tot={n_tot}")
        if kind == "f" and not (arr.dtype.kind == "f"
                                and np.isfinite(arr).all()):
            raise FormatError(f"{path}: array {name} must hold finite floats")
        if kind == "i" and arr.dtype.kind not in "iu":
            raise FormatError(f"{path}: array {name} must hold integers, "
                              f"got {arr.dtype}")

    def reject(name, bad, what):
        if bad.any():
            i = int(np.argmax(bad))
            raise FormatError(
                f"{path}: array {name} has {int(bad.sum())} points {what}; "
                f"first {arrays[name][i]} at point {i}")

    axis, normals = arrays["axis"], arrays["normals"]
    reject("axis", (axis < 0) | (axis >= dim), f"outside [0, {dim})")
    # a cut lies on the grid interval from base_index one step along its axis
    base = arrays["base_index"]
    top = np.asarray(grid.n_cells) - np.eye(dim, dtype=np.int64)[axis]
    reject("base_index", ((base < 0) | (base > top)).any(axis=1),
           f"outside the grid of {grid.n_cells} cells or at its top end "
           f"along the point's axis")
    reject("normals", (np.abs(np.linalg.norm(normals, axis=1) - 1.0)
                       > 1e-12) | ~_admissible_mask(normals, axis, eta),
           f"that are not unit normals admissible at eta={eta}")


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
                  for name in CUT_ARRAYS}
        try:
            g = header["grid"]
            grid = Grid(tuple(g["origin"]), float(g["h"]), tuple(g["n_cells"]))
            n_tot = int(header["n_tot"])
            eta, dropped = float(header["eta"]), int(header["dropped_cuts"])
        except (KeyError, TypeError, ValueError, GridError) as exc:
            raise FormatError(f"{path}: missing or malformed record {exc}") \
                from exc

    dim = len(grid.n_cells)
    if (dim not in (2, 3) or n_tot < 1
            or dim * math.prod(grid.shape) >= 2 ** 63):
        raise FormatError(f"{path}: header grid {header['grid']} with "
                          f"n_tot={n_tot} describes no discretization")
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
    _check_cuts(path, arrays, grid, eta, n_tot)
    arrays["base_index"] = arrays["base_index"].astype(np.int64, copy=False)
    try:    # the builder's derivation, on the cuts as read
        return SurfaceDiscretization(grid, eta, arrays,
                                     header.get("surface_kind", "user"),
                                     params, dropped)
    except SurfPDEError as exc:
        raise FormatError(f"{path}: the cuts do not rebuild a "
                          f"discretization: {exc}") from exc
