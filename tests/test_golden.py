"""The table parity set, checked against committed CSVs in `tests/golden/`.

Each case runs one subcommand through `cli.main` in-process, with `--out`
in a temporary directory, and compares the CSV it writes with the golden
file byte for byte.  On a mismatch the failure lists every moved row with
its old value, its new value and the relative move.  A change that moves a
number on purpose regenerates the files with

    python tests/test_golden.py --write

and names each moved metric and the reason in CHANGES.md.  The golden files
are the reference: they are never rewritten to make a defect pass.  Every
row must match exactly, under any BLAS thread count.
"""

from __future__ import annotations

import os
import sys

import pytest

if __name__ == "__main__":   # run as a script: use this checkout's package
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from surfpde import cli  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# (golden file, arguments): the table parity set
CASES = {
    "table-3.1": ["table-3.1", "--N", "20,40"],
    "table-3.2": ["table-3.2", "--N", "48"],
    "table-3.3": ["table-3.3", "--N", "20,40"],
    "table-4.1": ["table-4.1", "--N", "20,40", "--times", "0.5,1"],
    "table-4.2": ["table-4.2", "--N", "20,40", "--days", "0.5"],
    "table-4.3": ["table-4.3", "--N", "20", "--days", "0.5"],
    "quad": ["quad", "--N", "20,40"],
    "poisson": ["poisson", "--N", "20,40"],
    "eig": ["eig", "--N", "20", "--form", "nondiv"],
    "diffuse": ["diffuse", "--N", "20,40", "--form", "both",
                "--stepper", "both"],
    "curve-resolvent": ["curve-resolvent"],
}

def _run(name, directory):
    """Run the case's subcommand and return the path of its CSV."""
    path = os.path.join(directory, f"{name}.csv")
    status = cli.main(CASES[name] + ["--out", path])
    assert status == 0, f"{' '.join(CASES[name])} exited {status}"
    return path


def _rows(text):
    """{(experiment, N, time, metric): value text} of a CSV, in order."""
    lines = text.splitlines()
    assert lines[0] == "experiment,N,time,metric,value"
    return {tuple(line.split(",")[:4]): line.split(",")[4]
            for line in lines[1:]}


def _moves(old_text, new_text):
    """One line per row that moved, appeared or vanished."""
    old, new = _rows(old_text), _rows(new_text)
    out = []
    for key in old.keys() | new.keys():
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        label = ",".join(key)
        if a is None or b is None:
            out.append(f"{label}: {a} -> {b}")
            continue
        x, y = float(a), float(b)
        rel = abs(y - x) / abs(x) if x else float("inf")
        out.append(f"{label}: {a} -> {b} (relative move {rel:.3e})")
    if not out and list(old) != list(new):
        out.append("rows reordered")
    return sorted(out)


@pytest.mark.parametrize("name", list(CASES))
def test_table_parity_set_matches_golden_csv(name, tmp_path):
    with open(os.path.join(GOLDEN, f"{name}.csv")) as fh:
        old = fh.read()
    with open(_run(name, str(tmp_path))) as fh:
        new = fh.read()
    if new == old:
        return
    moves = _moves(old, new)
    assert not moves, (f"{name}: {len(moves)} rows moved from "
                       f"tests/golden/{name}.csv:\n" + "\n".join(moves))


def test_moves_name_each_changed_row():
    old = ("experiment,N,time,metric,value\n"
           "eig,20,0,cluster_n0,1.000000000000e-14\n"
           "quad,20,0,err,2.500000000000e-03\n")
    new = old.replace("2.500000000000e-03", "2.600000000000e-03")
    assert _moves(old, new) == [
        "quad,20,0,err: 2.500000000000e-03 -> 2.600000000000e-03 "
        "(relative move 4.000e-02)"]
    # a move in the last digit of an eigenvalue row is a move too
    last = old.replace("1.000000000000e-14", "1.000000000001e-14")
    assert len(_moves(old, last)) == 1
    gone = old.replace("quad,20,0,err,2.500000000000e-03\n", "")
    assert _moves(old, gone) == [
        "quad,20,0,err: 2.500000000000e-03 -> None"]


def write_golden():
    os.makedirs(GOLDEN, exist_ok=True)
    for name in CASES:
        _run(name, GOLDEN)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_golden()
