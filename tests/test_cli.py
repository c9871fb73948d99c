"""Command-line driver: exit-code contract, config diagnostics, CSV output,
and discretization dump/load."""

import inspect
import subprocess
import sys

import pytest

from surfpde import experiments as ex
from surfpde.cli import SINGLE_COMMANDS, TABLE_COMMANDS, main


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
    (["quad", "--N", "20", "--jobs", "-4"], "at least 1, got -4"),
    (["quad", "--N", "20", "--jobs", "0"], "at least 1, got 0")])
def test_empty_list_or_no_workers_exits_one(argv, message, capsys):
    assert main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field,message", [
    ("times = ,", "at least one number"),
    ("jobs = 0", "at least 1, got 0")])
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


def test_unresolvable_grid_exits_two(capsys):
    # N=6 leaves admissibility gaps on the sphere; the error names the point
    assert main(["discretize", "--N", "6"]) == 2
    assert "refine the grid or lower eta" in capsys.readouterr().err


def test_negative_end_time_exits_two(capsys):
    # a negative time is no whole number of steps; it used to print the
    # errors of the unmarched initial state
    assert main(["advect", "--N", "40", "--t-end", "-0.5"]) == 2
    assert "t = -0.5" in capsys.readouterr().err


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


def test_worker_pool_output_matches_serial(tmp_path, capsys):
    paths = {jobs: tmp_path / f"jobs{jobs}.csv" for jobs in (1, 2)}
    for jobs, path in paths.items():
        assert main(["quad", "--N", "20,40", "--jobs", str(jobs),
                     "--out", str(path)]) == 0
    capsys.readouterr()
    assert paths[1].read_bytes() == paths[2].read_bytes()


def test_diffuse_runs_both_steppers(capsys):
    assert main(["diffuse", "--N", "20", "--stepper", "both"]) == 0
    header = capsys.readouterr().out.splitlines()[1].split()
    for tag in ("fe_nondiv", "bdf2_nondiv"):
        assert f"{tag}_max" in header and f"{tag}_l2" in header
    assert not any(col.startswith("both") for col in header)


def test_outdir_environment_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SURFPDE_OUTDIR", str(tmp_path))
    assert main(["quad", "--N", "20"]) == 0
    assert "wrote" in capsys.readouterr().out
    assert (tmp_path / "quad.csv").exists()


def test_dump_and_load_roundtrip(tmp_path, capsys):
    path = tmp_path / "sphere-20.npz"
    assert main(["discretize", "--N", "20", "--out", str(path)]) == 0
    built = capsys.readouterr().out
    assert path.exists()
    assert main(["discretize", "--load", str(path)]) == 0
    loaded = capsys.readouterr().out
    for token in ("n_tot=", "n_p="):
        value = built.split(token)[1].split()[0]
        assert token + value in loaded


@pytest.mark.parametrize("argv", [["--list"], ["discretize", "--N", "20"]])
def test_module_entry_point(argv):
    proc = subprocess.run([sys.executable, "-m", "surfpde.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
jobs = 3
out = {out}
"""

SPHERE = "run_diffusion_sphere"
BOTH_FORMS = ("divergence", "nondivergence")
BOTH_STEPPERS = ("fe", "bdf2")

# (id, argv, runner, arguments the runner is called with after defaults)
CONTRACT = [
    # no flags: the built-in defaults
    ("diffuse", "diffuse", SPHERE,
     dict(n_list=(80,), jobs=1, forms=("nondivergence",), steppers=("fe",))),
    ("poisson", "poisson", "run_poisson", dict(n_list=(80, 160), jobs=1)),
    ("advect", "advect", "run_advection",
     dict(n_list=(80,), times=(1.0,), jobs=1)),
    ("swe", "swe", "run_swe",
     dict(nu=1.0, n_list=(80,), days=(1.0,), jobs=1)),
    ("eig", "eig", "run_eigenvalues",
     dict(n_list=(40,), jobs=1, form="divergence")),
    ("quad", "quad", "run_quadrature", dict(n_list=(40, 80, 160), jobs=1)),
    ("curve-resolvent", "curve-resolvent", "run_curve_resolvent",
     dict(curves=("circle", "ellipse"), n_list=(80, 160),
          sigmas=(0.75, 1.0, 2.0))),
    ("table-3.1", "table-3.1", SPHERE,
     dict(n_list=(80, 160), jobs=1, forms=BOTH_FORMS,
          steppers=BOTH_STEPPERS)),
    ("table-3.2", "table-3.2", "run_diffusion_pair",
     dict(n_list=(80, 160), jobs=1, surfaces=("ellipsoid", "cassini_oval"))),
    ("table-3.3", "table-3.3", "run_eigenvalues",
     dict(n_list=(40, 80), jobs=1, form="divergence")),
    ("table-4.1", "table-4.1", "run_advection",
     dict(n_list=(80, 160, 320), times=(1.0, 2.0, 5.0), jobs=1)),
    ("table-4.2", "table-4.2", "run_swe",
     dict(nu=1.0, n_list=(80, 160), days=(1.0, 2.0, 5.0), jobs=1)),
    ("table-4.3", "table-4.3", "run_swe",
     dict(nu=0.5, n_list=(80, 160), days=(1.0, 2.0, 5.0), jobs=1)),
    # every flag the subcommand takes
    ("diffuse-flags", "diffuse --N 20,40 --form div --stepper bdf2 "
     "--surface sphere --jobs 2 --out {out}", SPHERE,
     dict(n_list=(20, 40), jobs=2, forms=("divergence",),
          steppers=("bdf2",))),
    ("poisson-flags", "poisson --N 20 --jobs 2 --out {out}", "run_poisson",
     dict(n_list=(20,), jobs=2)),
    ("advect-flags", "advect --N 20 --t-end 0.5 --jobs 2 --out {out}",
     "run_advection", dict(n_list=(20,), times=(0.5,), jobs=2)),
    ("swe-flags", "swe --N 20 --nu 0.25 --t-end 0.5 --jobs 2 --out {out}",
     "run_swe", dict(nu=0.25, n_list=(20,), days=(0.5,), jobs=2)),
    ("eig-flags", "eig --N 20 --form nondiv --jobs 2 --out {out}",
     "run_eigenvalues", dict(n_list=(20,), jobs=2, form="nondivergence")),
    ("quad-flags", "quad --N 20 --jobs 2 --out {out}", "run_quadrature",
     dict(n_list=(20,), jobs=2)),
    ("curve-resolvent-flags", "curve-resolvent --N 20 --curve ellipse "
     "--sigma 1.5 --out {out}", "run_curve_resolvent",
     dict(curves=("ellipse",), n_list=(20,), sigmas=(1.5,))),
    ("table-3.1-flags", "table-3.1 --N 20 --form nondivergence "
     "--stepper fe --jobs 2 --out {out}", SPHERE,
     dict(n_list=(20,), jobs=2, forms=("nondivergence",),
          steppers=("fe",))),
    ("table-3.2-flags", "table-3.2 --N 20 --jobs 2 --out {out}",
     "run_diffusion_pair",
     dict(n_list=(20,), jobs=2, surfaces=("ellipsoid", "cassini_oval"))),
    ("table-3.3-flags", "table-3.3 --N 20 --jobs 2 --out {out}",
     "run_eigenvalues", dict(n_list=(20,), jobs=2, form="divergence")),
    ("table-4.1-flags", "table-4.1 --N 20 --times 0.25,0.5 --jobs 2 "
     "--out {out}", "run_advection",
     dict(n_list=(20,), times=(0.25, 0.5), jobs=2)),
    ("table-4.2-flags", "table-4.2 --N 20 --days 0.5 --jobs 2 --out {out}",
     "run_swe", dict(nu=1.0, n_list=(20,), days=(0.5,), jobs=2)),
    ("table-4.3-flags", "table-4.3 --N 20 --days 0.5 --jobs 2 --out {out}",
     "run_swe", dict(nu=0.5, n_list=(20,), days=(0.5,), jobs=2)),
    # CONTRACT_CONFIG, with --N overriding its n
    ("diffuse-config", "diffuse --config {cfg} --N 30", SPHERE,
     dict(n_list=(30,), jobs=3, forms=("divergence",), steppers=("bdf2",))),
    ("poisson-config", "poisson --config {cfg} --N 30", "run_poisson",
     dict(n_list=(30,), jobs=3)),
    ("advect-config", "advect --config {cfg} --N 30", "run_advection",
     dict(n_list=(30,), times=(0.5,), jobs=3)),
    ("swe-config", "swe --config {cfg} --N 30", "run_swe",
     dict(nu=0.25, n_list=(30,), days=(0.5,), jobs=3)),
    ("eig-config", "eig --config {cfg} --N 30", "run_eigenvalues",
     dict(n_list=(30,), jobs=3, form="divergence")),
    ("quad-config", "quad --config {cfg} --N 30", "run_quadrature",
     dict(n_list=(30,), jobs=3)),
    ("curve-resolvent-config", "curve-resolvent --config {cfg} --N 30",
     "run_curve_resolvent",
     dict(curves=("ellipse",), n_list=(30,), sigmas=(1.5,))),
    ("table-3.1-config", "table-3.1 --config {cfg} --N 30", SPHERE,
     dict(n_list=(30,), jobs=3, forms=("divergence",), steppers=("bdf2",))),
    ("table-3.2-config", "table-3.2 --config {cfg} --N 30",
     "run_diffusion_pair",
     dict(n_list=(30,), jobs=3, surfaces=("ellipsoid", "cassini_oval"))),
    ("table-3.3-config", "table-3.3 --config {cfg} --N 30",
     "run_eigenvalues", dict(n_list=(30,), jobs=3, form="divergence")),
    ("table-4.1-config", "table-4.1 --config {cfg} --N 30", "run_advection",
     dict(n_list=(30,), times=(0.25, 0.5), jobs=3)),
    ("table-4.2-config", "table-4.2 --config {cfg} --N 30", "run_swe",
     dict(nu=1.0, n_list=(30,), days=(0.5, 1.0), jobs=3)),
    ("table-4.3-config", "table-4.3 --config {cfg} --N 30", "run_swe",
     dict(nu=0.5, n_list=(30,), days=(0.5, 1.0), jobs=3)),
    # `both` expands to every stepper for diffuse as for table-3.1
    ("diffuse-both", "diffuse --stepper both", SPHERE,
     dict(n_list=(80,), jobs=1, forms=("nondivergence",),
          steppers=BOTH_STEPPERS)),
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
    # a runner parameter the CLI leaves out may only be an unused `jobs`
    assert set(arguments) - set(expected) <= {"jobs"}
    assert {key: arguments[key] for key in expected} == expected


def test_contract_covers_every_runner_backed_subcommand():
    covered = {row[1].split()[0] for row in CONTRACT}
    assert covered == set(SINGLE_COMMANDS + TABLE_COMMANDS) - {"discretize"}
