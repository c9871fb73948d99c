"""Portable dump/load of a cut-point discretization (npz container).

The file carries a versioned JSON header plus the per-point record arrays and
the interpolation matrices, so a reloaded discretization is array-for-array
identical to the original.  Surfaces (3-D grids) and plane curves (2-D
grids) share the format.  Version 2 added `dropped_cuts`, the count of cuts
dropped by admissibility, to the header; version 1 files are rejected.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.sparse as sp

from .discretization import Grid, SurfaceDiscretization
from .errors import FormatError, VersionError

FORMAT_NAME = "surfpde-discretization"
FORMAT_VERSION = 2

_ARRAYS = ("positions", "axis", "base_index", "closest_gp", "theta",
           "normals", "associated_primary", "chart_neighbors",
           "interp_points", "interp_coeffs")


def _csr_payload(name, mat):
    return {f"{name}_data": mat.data, f"{name}_indices": mat.indices,
            f"{name}_indptr": mat.indptr,
            f"{name}_shape": np.asarray(mat.shape, dtype=np.int64)}


def _csr_restore(name, blob):
    shape = tuple(int(v) for v in blob[f"{name}_shape"])
    return sp.csr_matrix((blob[f"{name}_data"], blob[f"{name}_indices"],
                          blob[f"{name}_indptr"]), shape=shape)


def dump_discretization(disc, path):
    """Write a discretization to `path` (npz)."""
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
    payload = {name: getattr(disc, name) for name in _ARRAYS}
    payload.update(_csr_payload("pi_sp", disc.pi_sp.tocsr()))
    payload.update(_csr_payload("pi_ss", disc.pi_ss.tocsr()))
    payload["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, **payload)


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
        try:
            arrays = {name: blob[name] for name in _ARRAYS}
            pi_sp = _csr_restore("pi_sp", blob)
            pi_ss = _csr_restore("pi_ss", blob)
            g = header["grid"]
            grid = Grid(tuple(g["origin"]), float(g["h"]), tuple(g["n_cells"]))
            n_p, n_tot = int(header["n_p"]), int(header["n_tot"])
            eta, dropped = float(header["eta"]), int(header["dropped_cuts"])
        except KeyError as exc:
            raise FormatError(f"{path}: missing record {exc}") from exc

    disc = SurfaceDiscretization(
        grid=grid, eta=eta,
        positions=arrays["positions"], axis=arrays["axis"],
        base_index=arrays["base_index"], closest_gp=arrays["closest_gp"],
        theta=arrays["theta"], normals=arrays["normals"],
        n_p=n_p, dropped_cuts=dropped,
        associated_primary=arrays["associated_primary"],
        chart_neighbors=arrays["chart_neighbors"],
        interp_points=arrays["interp_points"],
        interp_coeffs=arrays["interp_coeffs"],
        pi_sp=pi_sp, pi_ss=pi_ss,
        surface_kind=header.get("surface_kind", "user"),
        surface_params=header.get("surface_params", {}))
    if disc.n_tot != n_tot:
        raise FormatError(f"{path}: point count mismatch with header")
    return disc


def save_triplets(mat, path):
    """Export a sparse operator as a coordinate-triplet text file.

    First line: n_rows n_cols nnz.  Then one "row col value" line per entry,
    sorted by (row, col), with full double precision.
    """
    coo = sp.coo_matrix(mat)
    coo.sum_duplicates()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for i in order:
            fh.write(f"{coo.row[i]} {coo.col[i]} {coo.data[i]:.17g}\n")
