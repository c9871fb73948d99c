"""Checks of the benchmark itself, on small grids (seconds, not minutes).

    python3 -m pytest -q surfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMOKE_N = 80  # smallest grid with a reference row for every workload


@pytest.fixture(scope="module")
def smoke_records():
    """One untraced and one traced run of each workload at SMOKE_N."""
    out = {}
    for name, (kind, _) in workloads.WORKLOADS.items():
        out[name] = [dict(workloads.run(kind, SMOKE_N, seed=1, trace=traced),
                          traced=traced)
                     for traced in (False, True)]
    return out


def test_smoke_runs_pass_their_gates(smoke_records):
    for name, records in smoke_records.items():
        for rec in records:
            assert rec["ok"], (name, rec["reason"])
            assert rec["wall_s"] >= rec["solve_s"] > 0.0
            assert len(rec["setup_times"]) == workloads.SETUP_REPS
            assert rec.get("untraced", []) == []


def test_gate_rejects_out_of_band_error():
    with pytest.raises(workloads.GateError):
        workloads._require_band("err", 2.0e-3, 1.0e-3)
    workloads._require_band("err", 1.4e-3, 1.0e-3)


def test_seed_zero_is_centred_and_seeds_repeat():
    surfpde = workloads.load_package()
    grid = workloads.make_grid(surfpde, 40, 0)
    assert grid.origin == (-1.2, -1.2, -1.2)
    a, b = (workloads.make_grid(surfpde, 40, 7) for _ in range(2))
    assert a == b
    shift = [o + 1.2 for o in a.origin]
    assert all(0.0 <= s < a.h for s in shift) and any(shift)


def test_tracing_wrappers_are_removed():
    surfpde = workloads.load_package()
    before = {}
    for mod in tracing.package_modules():
        for key, value in vars(mod).items():
            if callable(value):
                before[mod.__name__, key] = value
    methods = {(owner, attr): vars(tracing.resolve_owner(owner))[attr]
               for owner, attr, _, _ in tracing.TARGETS if ":" in owner}
    workloads.run("bdf2", SMOKE_N, seed=0, trace=True)
    for mod in tracing.package_modules():
        for key, value in vars(mod).items():
            if (mod.__name__, key) in before:
                assert value is before[mod.__name__, key], (mod.__name__, key)
    for (owner, attr), original in methods.items():
        assert vars(tracing.resolve_owner(owner))[attr] is original
    assert surfpde.discretize is surfpde.discretization.discretize


def test_traced_run_sees_each_workload_layers(smoke_records):
    layers = {name: recs[1]["layers"] for name, recs in smoke_records.items()}
    bdf2 = layers["bdf2-sphere-160"]
    assert bdf2["linalg.solve_calls"] == 2 * SMOKE_N
    assert bdf2["linalg.factorize_calls"] == 2
    assert bdf2["maccormack.steps"] == 0
    swe = layers["swe-sphere-160"]
    assert swe["maccormack.steps"] == 2 * SMOKE_N
    assert swe["operators.artificial_viscosity_calls"] == 4 * SMOKE_N
    assert swe["linalg.factorize_calls"] == 0
    poisson = layers["poisson-sphere-320"]
    assert poisson["linalg.factorize_calls"] == 1
    assert poisson["linalg.bordered_solve_s"] > 0.0
    for lay in layers.values():
        assert lay["discretization.n_tot"] > lay["discretization.n_p"] > 0
        assert lay["geometry.phi_points"] > 0


def test_printed_metrics_match_benchmark_json(smoke_records, capsys):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name, records in smoke_records.items():
            assert run.emit(name, 1, trace, records) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            result = json.loads(lines[-1])
            assert result["correct"] and result["failed"] == 0
            assert {k: v["unit"] for k, v in result["metrics"].items()} \
                == want
            shown = {line.split()[0]: line.split()[2] for line in lines[2:-2]}
            assert shown == want
