"""Command-line driver: exit-code contract, config diagnostics, CSV output,
and discretization dump/load."""

import inspect
import os
import subprocess
import sys
import time
from functools import partial

import hypothesis
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import rewrite_dump
from surfpde import experiments as ex
from surfpde.cli import (COMMANDS, FLAGS, OUTDIR_ENV, SINGLE_COMMANDS,
                         TABLE_COMMANDS, main)
from surfpde.errors import StencilError


def test_list_enumerates_every_subcommand(capsys):
    assert main(["--list"]) == 0
    lines = capsys.readouterr().out.split()
    assert lines == list(SINGLE_COMMANDS + TABLE_COMMANDS)


def test_missing_subcommand_exits_one(capsys):
    assert main([]) == 1
    assert "subcommand is required" in capsys.readouterr().err


def test_bad_argument_exits_one(capsys):
    assert main(["discretize", "--N", "0"]) == 1
    assert "grid sizes must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["table-4.1", "--N", "20", "--times", ","], "at least one number"),
    (["table-4.2", "--days", ""], "at least one number"),
    (["curve-resolvent", "--sigma", ",,"], "at least one number"),
    # worker count and diffusion surface are no longer options
    (["quad", "--N", "20", "--jobs", "2"], "unrecognized arguments: --jobs"),
    (["diffuse", "--surface", "sphere"], "unrecognized arguments: --surface"),
    (["curve-resolvent", "--N", "20", "--curve", ","], "at least one name")])
def test_empty_list_or_no_workers_exits_one(argv, message, capsys):
    assert main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag,value", [
    (["table-4.2", "--N", "20", "--days", "inf"], "--days", "inf"),
    (["table-4.1", "--N", "20", "--times", "nan"], "--times", "nan"),
    (["curve-resolvent", "--sigma", "1,-inf"], "--sigma", "-inf")])
def test_non_finite_value_names_the_flag(argv, flag, value, capsys):
    # --days inf used to end in an OverflowError traceback from the march,
    # --times nan in "cannot convert float NaN to integer"
    assert main(argv) == 1
    assert (f"argument {flag}: expected finite numbers, got {value!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("value,code,message", [
    ("nan", 1, "argument --nu: expected finite numbers, got 'nan'"),
    ("inf", 1, "argument --nu: expected finite numbers, got 'inf'"),
    ("-1", 2, "viscosity nu must be finite and >= 0, got -1.0")],
    ids=["nan", "inf", "negative"])
def test_viscosity_outside_its_range_names_nu(value, code, message, capsys):
    # each used to lose finiteness in the march and exit 2 without naming
    # the flag; -1 printed RuntimeWarnings first
    assert main(["swe", "--N", "20", "--nu", value]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"], ids=["zero", "negative"])
def test_sigma_not_positive_exits_two(value, capsys):
    # --sigma 0 used to print a divide-by-zero RuntimeWarning and exit 0
    # with an all-zero M-matrix report
    assert main(["curve-resolvent", "--N", "40", "--sigma", value]) == 2
    assert (f"sigma must be finite and > 0, got {float(value)}"
            in capsys.readouterr().err)


def test_discretize_takes_one_grid_size(capsys):
    # it used to build N=20 and drop 40 without a word
    assert main(["discretize", "--N", "20,40"]) == 1
    assert "one grid; got --N 20,40" in capsys.readouterr().err


def test_config_file_is_closed(tmp_path, subprocess_env):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 20\n")
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m",
         "surfpde.cli", "discretize", "--config", str(cfg)],
        env=subprocess_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr


@pytest.mark.parametrize("field,message", [
    ("times = ,", "at least one number"),
    ("jobs = 2", "unknown field 'jobs'")])
def test_config_rejects_empty_list_or_no_workers(field, message, tmp_path,
                                                 capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"n = 20\n{field}\n")
    assert main(["table-4.1", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2" in err and message in err


def test_unknown_surface_exits_two(capsys):
    assert main(["discretize", "--surface", "banana"]) == 2
    err = capsys.readouterr().err
    assert "banana" in err and "catalog" in err


@pytest.mark.parametrize("argv", [["--N", "6"],
                                  ["--surface", "cassini_oval", "--N", "40"]],
                         ids=["sphere-6", "cassini-40"])
def test_unresolvable_grid_exits_two(argv, capsys):
    # both grids leave admissibility gaps; the error names the point
    assert main(["discretize", *argv]) == 2
    assert "refine the grid or lower eta" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["advect", "--t-end", "-1"], "argument --t-end: expected times >= 0, "
                                  "got '-1'"),
    (["advect", "--t-end", "nan"], "argument --t-end: expected finite "
                                   "numbers, got 'nan'"),
    (["swe", "--t-end", "-0.5"], "argument --t-end: expected times >= 0, "
                                 "got '-0.5'"),
    (["table-4.1", "--times", "-1"], "argument --times: expected times >= 0, "
                                     "got '-1'")],
    ids=["advect-negative", "advect-nan", "swe-negative", "table-4.1-negative"])
def test_time_outside_zero_to_inf_names_the_flag(argv, message, capsys):
    # each used to exit 2 from the march with a message naming no flag,
    # some after the grids were built
    assert main(argv) == 1
    assert message in capsys.readouterr().err


def test_zero_time_is_a_time():
    assert FLAGS["t_end"].parse("0") == 0.0
    assert FLAGS["days"].parse("0,1") == (0.0, 1.0)


def test_bad_nu_or_sigma_fails_before_any_grid(monkeypatch, capsys):
    # both used to build the grids (and invert every resolvent) first
    def built(*args):
        raise AssertionError("a grid was built before the check")

    monkeypatch.setattr(ex, "get_discretization", built)
    monkeypatch.setattr(ex, "discretize_curve", built)
    assert main(["swe", "--N", "160", "--nu", "-1"]) == 2
    assert ("viscosity nu must be finite and >= 0, got -1.0"
            in capsys.readouterr().err)
    assert main(["curve-resolvent", "--N", "640", "--sigma", "1,0"]) == 2
    assert "sigma must be finite and > 0, got 0.0" in capsys.readouterr().err


def test_grid_too_large_for_memory_exits_two(capsys):
    # one plane of 1e16 nodes: the scan stops before its buffers are
    # asked for
    assert main(["discretize", "--N", "100000000"]) == 2
    err = capsys.readouterr().err
    assert ("grid of (100000000, 100000000, 100000000) cells is too large "
            "to scan: one slab of 1 plane(s) needs 320000006400000032 "
            "bytes, more than the ") in err
    assert "bytes of physical memory" in err


def test_end_time_past_two_to_the_53_steps_exits_two(capsys):
    # 1e300 is a whole number of steps of k = 0.025, but 4e301 steps
    # would never end
    assert main(["advect", "--N", "20", "--t-end", "1e300"]) == 2
    err = capsys.readouterr().err
    assert "t = 1e+300 is 4.000e+301 steps of 0.025, more than 2**53" in err


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for a quick run\nn = 20\nsurface = sphere\n")
    assert main(["discretize", "--config", str(cfg)]) == 0
    assert "surface=sphere N=20" in capsys.readouterr().out


def test_config_errors_carry_path_and_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 20\nwibble = 3\n")
    assert main(["discretize", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2" in err and "wibble" in err


def test_config_rejects_fields_no_subcommand_reads(tmp_path, capsys):
    # keys that no subcommand declares are rejected, not silently ignored
    for field in ("alpha = 0.5", "count = 4"):
        cfg = tmp_path / "dead.cfg"
        cfg.write_text(f"n = 20\n{field}\n")
        assert main(["discretize", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err
        assert f"unknown field {field.split()[0]!r}" in err


def test_config_value_is_checked_like_the_flag(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("stepper = banana\n")
    assert main(["diffuse", "--N", "20", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:1" in err and "'banana'" in err


def test_missing_config_exits_two(tmp_path, capsys):
    assert main(["discretize", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_csv_output_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert main(["quad", "--N", "20", "--out", str(p)]) == 0
    capsys.readouterr()
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    header = first.decode().splitlines()[0]
    assert header == "experiment,N,time,metric,value"


def test_worker_pool_output_matches_serial(monkeypatch):
    # a table's tasks run on every CPU; one CPU runs them in turn.  Table
    # 3.2 pairs its tasks' runs itself, the others join their cases' records.
    # These grids are small, so the pool is forced
    monkeypatch.setattr(ex, "_POOL_MIN_CELLS", 0)
    runs = (partial(ex.run_diffusion_pair, (48,), surfaces=("ellipsoid",)),
            partial(ex.run_curve_resolvent, ("circle",), (20, 40), (1.0,)),
            partial(ex.run_quadrature, (20, 40)))
    for run in runs:
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pooled = run()
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert pooled == run(), run.func.__name__


@pytest.mark.parametrize("cpus", [2, 1], ids=["pool", "serial"])
def test_failed_table_task_exits_two(cpus, monkeypatch, capsys):
    # the Cassini oval leaves an admissibility gap at N = 40.  On two CPUs
    # the pool builds the grids, so the error is raised in a worker and
    # this process builds none
    pools = []

    class Pool(ex.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(ex, "_POOL_MIN_CELLS", 0)
    monkeypatch.setattr(ex, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(ex, "_DISC_CACHE", {})
    assert main(["table-3.2", "--N", "40"]) == 2
    err = capsys.readouterr().err
    assert "admissibility gap" in err and "refine the grid" in err
    assert len(pools) == (cpus > 1)
    assert sorted(ex._DISC_CACHE) == ([] if cpus > 1 else
                                      [("ellipsoid", 40), ("ellipsoid", 80)])


def test_table32_builds_every_grid_before_any_march(monkeypatch, capsys):
    # in task order the ellipsoid grids come before the Cassini oval's
    # failing N = 40 grid, yet neither of their marches may start
    marches = []

    def no_march(disc, *args, **kwargs):
        marches.append(disc.n_p)
        raise AssertionError("a march ran")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(ex, "forward_euler_solve", no_march)
    monkeypatch.setattr(ex, "bdf2_solve", no_march)
    assert main(["table-3.2", "--N", "40"]) == 2
    assert "admissibility gap" in capsys.readouterr().err
    assert marches == []


def _no_pool(*args, **kwargs):
    raise AssertionError("a pool was started")


def test_small_tables_run_in_process(monkeypatch):
    # a spawn costs about 1 s; these tables take well under that serially
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(ex, "ProcessPoolExecutor", _no_pool)
    assert len(ex.run_curve_resolvent()) == 36
    assert len(ex.run_quadrature((20, 40))) == 2
    assert len(ex.run_diffusion_sphere((20, 40))) == 16
    with pytest.raises(AssertionError, match="pool was started"):
        ex.run_quadrature((20, 240))


def _sleep_or_fail(task):
    n, log = task
    if log is None:
        raise StencilError(f"task of size {n} failed")
    time.sleep(0.1)
    with open(log, "a") as fh:
        fh.write(f"{n}\n")


def test_failed_task_cancels_the_queued_ones(tmp_path, monkeypatch):
    # the failing task is the largest, so it goes out first; the pool
    # still holds a few tasks in flight when it fails, but not all twenty
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(ex, "_POOL_MIN_CELLS", 0)
    log = tmp_path / "ran.txt"
    log.touch()
    tasks = [(1, str(log))] * 20 + [(2, None)]
    with pytest.raises(StencilError, match="size 2 failed"):
        with ex._task_map(tasks) as run:
            run(_sleep_or_fail, tasks)
    assert len(log.read_text().split()) < 20


def test_diffuse_runs_both_steppers(capsys):
    assert main(["diffuse", "--N", "20", "--stepper", "both"]) == 0
    header = capsys.readouterr().out.splitlines()[1].split()
    for tag in ("fe_nondiv", "bdf2_nondiv"):
        assert f"{tag}_max" in header and f"{tag}_l2" in header
    assert not any(col.startswith("both") for col in header)


def test_outdir_environment_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SURFPDE_OUTDIR", str(tmp_path))
    for argv, name in ((["quad", "--N", "20"], "quad.csv"),
                       (["discretize", "--N", "20"], "sphere-20.npz")):
        assert main(argv) == 0
        assert f"wrote {tmp_path / name}" in capsys.readouterr().out
        assert (tmp_path / name).exists()


def test_dump_and_load_roundtrip(tmp_path, capsys):
    # --out names the file written; no .npz is appended to a bare name
    for path in (tmp_path / "sphere-20.npz", tmp_path / "x"):
        assert main(["discretize", "--N", "20", "--out", str(path)]) == 0
        built = capsys.readouterr().out
        assert f"wrote {path}\n" in built and path.exists()
        assert main(["discretize", "--load", str(path)]) == 0
        loaded = capsys.readouterr().out
        for token in ("n_tot=", "n_p="):
            value = built.split(token)[1].split()[0]
            assert token + value in loaded


def _swap_first_cuts(blob):
    for name in ("positions", "axis", "base_index", "normals"):
        blob[name][[0, 1]] = blob[name][[1, 0]]


def _tilt_first_normal(blob):
    blob["normals"][0] = [0.0, 1.0, 0.0]    # the first cut is along axis 0


# (edit of the npz members, header decoded, and what the error names)
BAD_LOADS = {
    "version-3": (lambda blob: blob["header"].update(version=3),
                  "unsupported format version 3"),
    "swapped-cuts": (_swap_first_cuts, "breaks the cut order"),
    "inadmissible-normal": (_tilt_first_normal, "array normals"),
}


@pytest.mark.parametrize("case", sorted(BAD_LOADS))
def test_load_of_a_bad_file_exits_two_naming_it(case, tmp_path, capsys):
    edit, message = BAD_LOADS[case]
    path = tmp_path / "sphere-20.npz"
    assert main(["discretize", "--N", "20", "--out", str(path)]) == 0
    rewrite_dump(path, edit)
    capsys.readouterr()
    assert main(["discretize", "--load", str(path)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"surfpde: {path}: ") and message in out.err
    assert "Traceback" not in out.err + out.out


@pytest.mark.parametrize("argv", [["--list"], ["discretize", "--N", "20"]])
def test_module_entry_point(argv, subprocess_env):
    proc = subprocess.run([sys.executable, "-m", "surfpde.cli"] + argv,
                          env=subprocess_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_unused_scipy_subpackages_unloaded(subprocess_env):
    # scipy.integrate and scipy.spatial are imported by the one function
    # that uses each, not by every run
    code = ("import sys, surfpde; print(sorted(m for m in ('scipy.integrate',"
            " 'scipy.spatial', 'scipy.sparse.linalg') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "['scipy.sparse.linalg']"


# ---------------------------------------------------------------------------
# the subcommand contract: which runner each subcommand calls, with what

RUNNERS = ("run_diffusion_sphere", "run_diffusion_pair", "run_eigenvalues",
           "run_poisson", "run_advection", "run_swe", "run_quadrature",
           "run_curve_resolvent")

# every config key, each set away from every subcommand's built-in default;
# keys a subcommand does not take are ignored by it
CONTRACT_CONFIG = """\
n = 20,40
surface = sphere
curve = ellipse
form = div
stepper = bdf2
nu = 0.25
eta = 0.4
t_end = 0.5
times = 0.25,0.5
days = 0.5,1
sigma = 1.5
out = {out}
"""

SPHERE = "run_diffusion_sphere"
BOTH_FORMS = ("divergence", "nondivergence")
BOTH_STEPPERS = ("fe", "bdf2")

# (id, argv, runner, arguments the runner is called with after defaults)
CONTRACT = [
    # no flags: the built-in defaults
    ("diffuse", "diffuse", SPHERE,
     dict(n_list=(80,), forms=("nondivergence",), steppers=("fe",))),
    ("poisson", "poisson", "run_poisson", dict(n_list=(80, 160))),
    ("advect", "advect", "run_advection", dict(n_list=(80,), times=(1.0,))),
    ("swe", "swe", "run_swe", dict(nu=1.0, n_list=(80,), days=(1.0,))),
    ("eig", "eig", "run_eigenvalues", dict(n_list=(40,), form="divergence")),
    ("quad", "quad", "run_quadrature", dict(n_list=(40, 80, 160))),
    ("curve-resolvent", "curve-resolvent", "run_curve_resolvent",
     dict(curves=("circle", "ellipse"), n_list=(80, 160),
          sigmas=(0.75, 1.0, 2.0))),
    ("table-3.1", "table-3.1", SPHERE,
     dict(n_list=(80, 160), forms=BOTH_FORMS, steppers=BOTH_STEPPERS)),
    ("table-3.2", "table-3.2", "run_diffusion_pair",
     dict(n_list=(80, 160), surfaces=("ellipsoid", "cassini_oval"))),
    ("table-3.3", "table-3.3", "run_eigenvalues",
     dict(n_list=(40, 80), form="divergence")),
    ("table-4.1", "table-4.1", "run_advection",
     dict(n_list=(80, 160, 320), times=(1.0, 2.0, 5.0))),
    ("table-4.2", "table-4.2", "run_swe",
     dict(nu=1.0, n_list=(80, 160), days=(1.0, 2.0, 5.0))),
    ("table-4.3", "table-4.3", "run_swe",
     dict(nu=0.5, n_list=(80, 160), days=(1.0, 2.0, 5.0))),
    # every flag the subcommand takes
    ("diffuse-flags", "diffuse --N 20,40 --form div --stepper bdf2 "
     "--out {out}", SPHERE,
     dict(n_list=(20, 40), forms=("divergence",), steppers=("bdf2",))),
    ("poisson-flags", "poisson --N 20 --out {out}", "run_poisson",
     dict(n_list=(20,))),
    ("advect-flags", "advect --N 20 --t-end 0.5 --out {out}",
     "run_advection", dict(n_list=(20,), times=(0.5,))),
    ("swe-flags", "swe --N 20 --nu 0.25 --t-end 0.5 --out {out}",
     "run_swe", dict(nu=0.25, n_list=(20,), days=(0.5,))),
    ("eig-flags", "eig --N 20 --form nondiv --out {out}",
     "run_eigenvalues", dict(n_list=(20,), form="nondivergence")),
    ("quad-flags", "quad --N 20 --out {out}", "run_quadrature",
     dict(n_list=(20,))),
    ("curve-resolvent-flags", "curve-resolvent --N 20 --curve ellipse "
     "--sigma 1.5 --out {out}", "run_curve_resolvent",
     dict(curves=("ellipse",), n_list=(20,), sigmas=(1.5,))),
    ("table-3.1-flags", "table-3.1 --N 20 --form nondivergence "
     "--stepper fe --out {out}", SPHERE,
     dict(n_list=(20,), forms=("nondivergence",), steppers=("fe",))),
    ("table-3.2-flags", "table-3.2 --N 20 --out {out}",
     "run_diffusion_pair",
     dict(n_list=(20,), surfaces=("ellipsoid", "cassini_oval"))),
    ("table-3.3-flags", "table-3.3 --N 20 --out {out}",
     "run_eigenvalues", dict(n_list=(20,), form="divergence")),
    ("table-4.1-flags", "table-4.1 --N 20 --times 0.25,0.5 --out {out}",
     "run_advection", dict(n_list=(20,), times=(0.25, 0.5))),
    ("table-4.2-flags", "table-4.2 --N 20 --days 0.5 --out {out}",
     "run_swe", dict(nu=1.0, n_list=(20,), days=(0.5,))),
    ("table-4.3-flags", "table-4.3 --N 20 --days 0.5 --out {out}",
     "run_swe", dict(nu=0.5, n_list=(20,), days=(0.5,))),
    # CONTRACT_CONFIG, with --N overriding its n
    ("diffuse-config", "diffuse --config {cfg} --N 30", SPHERE,
     dict(n_list=(30,), forms=("divergence",), steppers=("bdf2",))),
    ("poisson-config", "poisson --config {cfg} --N 30", "run_poisson",
     dict(n_list=(30,))),
    ("advect-config", "advect --config {cfg} --N 30", "run_advection",
     dict(n_list=(30,), times=(0.5,))),
    ("swe-config", "swe --config {cfg} --N 30", "run_swe",
     dict(nu=0.25, n_list=(30,), days=(0.5,))),
    ("eig-config", "eig --config {cfg} --N 30", "run_eigenvalues",
     dict(n_list=(30,), form="divergence")),
    ("quad-config", "quad --config {cfg} --N 30", "run_quadrature",
     dict(n_list=(30,))),
    ("curve-resolvent-config", "curve-resolvent --config {cfg} --N 30",
     "run_curve_resolvent",
     dict(curves=("ellipse",), n_list=(30,), sigmas=(1.5,))),
    ("table-3.1-config", "table-3.1 --config {cfg} --N 30", SPHERE,
     dict(n_list=(30,), forms=("divergence",), steppers=("bdf2",))),
    ("table-3.2-config", "table-3.2 --config {cfg} --N 30",
     "run_diffusion_pair",
     dict(n_list=(30,), surfaces=("ellipsoid", "cassini_oval"))),
    ("table-3.3-config", "table-3.3 --config {cfg} --N 30",
     "run_eigenvalues", dict(n_list=(30,), form="divergence")),
    ("table-4.1-config", "table-4.1 --config {cfg} --N 30", "run_advection",
     dict(n_list=(30,), times=(0.25, 0.5))),
    ("table-4.2-config", "table-4.2 --config {cfg} --N 30", "run_swe",
     dict(nu=1.0, n_list=(30,), days=(0.5, 1.0))),
    ("table-4.3-config", "table-4.3 --config {cfg} --N 30", "run_swe",
     dict(nu=0.5, n_list=(30,), days=(0.5, 1.0))),
    # `both` expands to every stepper for diffuse as for table-3.1
    ("diffuse-both", "diffuse --stepper both", SPHERE,
     dict(n_list=(80,), forms=("nondivergence",), steppers=BOTH_STEPPERS)),
]


@pytest.fixture
def runner_calls(monkeypatch):
    """Replace every experiment runner by a recorder returning no records."""
    monkeypatch.delenv("SURFPDE_OUTDIR", raising=False)
    calls = []

    def recorder(name):
        signature = inspect.signature(getattr(ex, name))

        def record(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((name, dict(bound.arguments)))
            return []
        return record

    for name in RUNNERS:
        monkeypatch.setattr(ex, name, recorder(name))
    return calls


@pytest.mark.parametrize("argv, runner, expected",
                         [pytest.param(*row[1:], id=row[0])
                          for row in CONTRACT])
def test_subcommand_calls_its_runner(argv, runner, expected, runner_calls,
                                     tmp_path, capsys):
    out = tmp_path / "out.csv"
    cfg = tmp_path / "contract.cfg"
    cfg.write_text(CONTRACT_CONFIG.format(out=out))
    assert main(argv.format(out=out, cfg=cfg).split()) == 0
    capsys.readouterr()
    # --out, or `out` in the config, reaches the CSV writer
    assert out.exists() == ("{out}" in argv or "{cfg}" in argv)
    ((name, arguments),) = runner_calls
    assert name == runner
    assert set(arguments) == set(expected)
    assert {key: arguments[key] for key in expected} == expected


def test_contract_covers_every_runner_backed_subcommand():
    covered = {row[1].split()[0] for row in CONTRACT}
    assert covered == set(SINGLE_COMMANDS + TABLE_COMMANDS) - {"discretize"}


# -- seeded argument fuzz ----------------------------------------------------

def _joined(values, size=1):
    """One to `size` drawn values, comma-joined as a list flag takes them."""
    return st.lists(values, min_size=1, max_size=size).map(
        lambda v: ",".join(map(repr, v)))


# values each flag accepts, all cheap: N <= 24 on at most two grids, times
# and days <= 1.  --N, --times and --days are always given, so no default
# grid or end time runs.  Of N <= 24 only 2, 3, 7, 20, 22 and 23 build the
# sphere at the default eta, so those are drawn half the time.
FUZZ_VALUES = {
    "n": _joined(st.one_of(st.sampled_from([20, 22, 23]),
                           st.integers(1, 24)), 2),
    "surface": st.sampled_from(["sphere", "ellipsoid", "cassini_oval",
                                "torus"]),
    "curve": st.sampled_from(["circle", "ellipse", "circle,ellipse",
                              "square"]),
    "form": st.sampled_from(["div", "nondiv", "both", "curl"]),
    "stepper": st.sampled_from(["fe", "bdf2", "both", "rk4"]),
    "nu": _joined(st.floats(-1.0, 2.0)),
    "eta": _joined(st.floats(0.0, 1.0)),
    "t_end": _joined(st.floats(0.0, 1.0)),
    "times": _joined(st.floats(0.0, 1.0), 2),
    "days": _joined(st.floats(0.0, 1.0), 2),
    "sigma": _joined(st.floats(-1.0, 3.0), 3),
    "out": st.just("out.csv"),
}
ALWAYS_GIVEN = ("n", "times", "days")
# non-numeric, negative, nan and empty values, given to one flag
MALFORMED = st.sampled_from(["", " ", "abc", "-1", "-3,2", "nan", "inf",
                             "-inf", ",", "1e999", "2,,x", "0x10"])
# tokens after the flags: unknown or incomplete flags, help, and the
# config and load files of the fuzz directory
TRAILERS = st.one_of(st.just([]), st.sampled_from([
    ["--bogus"], ["--N"], ["--help"], ["--config", "missing.cfg"],
    ["--config", "bad.cfg"], ["--config", "good.cfg"],
    ["--load", "missing.npz"], ["--load", "disc.npz"]]))


@hypothesis.seed(20191908)
@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_arguments_exit_0_1_or_2_without_a_traceback(
        data, tmp_path, monkeypatch, capsys):
    """200 seeded argument lists, over every subcommand: each flag the
    subcommand takes is given a cheap valid value or left out, at most one
    gets a malformed value, and one trailer may follow.  Every run exits
    0, 1 or 2 and prints no traceback.  Under hypothesis 6.155, 45 runs
    exit 0, 64 exit 1 and 91 exit 2, in about 3 s; 3,500 more examples
    on two other seeds found no other outcome."""
    monkeypatch.delenv(OUTDIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    if not os.path.exists("disc.npz"):
        (tmp_path / "bad.cfg").write_text("N = 20,abc\n")
        (tmp_path / "good.cfg").write_text("# cheap defaults\nnu = 0.5\n")
        assert main(["discretize", "--N", "20", "--out", "disc.npz"]) == 0
    command = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    keys = list(COMMANDS[command].defaults)
    spoiled = data.draw(st.one_of(st.none(), st.sampled_from(keys)),
                        label="malformed")
    argv = [command]
    for key in keys:
        if (key in ALWAYS_GIVEN or key == spoiled
                or data.draw(st.booleans(), label=f"give {key}")):
            values = MALFORMED if key == spoiled else FUZZ_VALUES[key]
            argv += [FLAGS[key].spelling, data.draw(values, label=key)]
    argv += data.draw(TRAILERS, label="trailer")
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:   # --help exits through argparse
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out + err, argv
