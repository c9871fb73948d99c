"""Command-line driver: exit-code contract, config diagnostics, CSV output,
and discretization dump/load."""

import subprocess
import sys

import pytest

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


def test_unknown_surface_exits_two(capsys):
    assert main(["discretize", "--surface", "banana"]) == 2
    err = capsys.readouterr().err
    assert "banana" in err and "catalog" in err


def test_unresolvable_grid_exits_two(capsys):
    # N=6 leaves admissibility gaps on the sphere; the error names the point
    assert main(["discretize", "--N", "6"]) == 2
    assert "refine the grid or lower eta" in capsys.readouterr().err


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
