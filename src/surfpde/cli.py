"""Command-line entry point for the experiments, defined by two tables.

`FLAGS` gives each key its CLI spelling, one parser, a metavar and help; the
same parser reads the flag and the `--config` file key, so both are checked
alike.  `COMMANDS` gives each subcommand, one per report table (`table-*`)
or solver, its help, its defaults (whose keys are the flags it takes) and the
function it runs.  A value comes from the command line, else the config
file, else the defaults.  Results print as a console table and, with `--out`
or SURFPDE_OUTDIR set, go to a CSV of (experiment, N, time, metric, value).

Exit status: 0 on success, 1 for bad arguments, 2 for semantic or runtime
failures (unknown surface, config errors, solver aborts).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple
from functools import partial

from . import experiments as ex
from .curve1d import make_curve
from .discretization import Grid, discretize
from .errors import SurfPDEError, UsageError
from .geometry import make_surface
from .serialization import dump_discretization, load_discretization

OUTDIR_ENV = "SURFPDE_OUTDIR"

_STEPPERS = ("fe", "bdf2", "both")


class _Parser(argparse.ArgumentParser):
    # report argument problems through the exit-code-1 path instead of
    # argparse's built-in sys.exit(2)
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _list(text, convert, kind):
    """Comma-separated values of one kind; an empty list is an error."""
    try:
        values = tuple(convert(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated {kind}s, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected at least one {kind}, got {text!r}")
    return values


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected finite numbers, got {text.strip()!r}")
    return value


def _time(text):
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(
            f"expected times >= 0, got {text.strip()!r}")
    return value


_float_list = partial(_list, convert=_finite, kind="number")
_time_list = partial(_list, convert=_time, kind="number")
_name_list = partial(_list, convert=str.strip, kind="name")


def _int_list(text):
    values = _list(text, int, "integer")
    if any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError(
            f"grid sizes must be positive, got {text!r}")
    return values


def _stepper(text):
    if text not in _STEPPERS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} "
            f"(choose from {', '.join(map(repr, _STEPPERS))})")
    return text


Flag = namedtuple("Flag", "spelling parse metavar help")

FLAGS = {
    "n": Flag("--N", _int_list, "N[,N...]",
              "grid sizes (cells across the box)"),
    "surface": Flag("--surface", str, None, "catalog surface name"),
    "curve": Flag("--curve", _name_list, "NAME[,NAME...]",
                  "catalog curve names"),
    "form": Flag("--form", str, None, "operator form: div | nondiv"),
    "stepper": Flag("--stepper", _stepper, "{" + ",".join(_STEPPERS) + "}",
                    "time integrator"),
    "nu": Flag("--nu", _finite, None, "artificial viscosity coefficient"),
    "eta": Flag("--eta", float, None, "normal-component admissibility bound"),
    "t_end": Flag("--t-end", _time, None, "final time (days for swe)"),
    "times": Flag("--times", _time_list, "T[,T...]", "snapshot times"),
    "days": Flag("--days", _time_list, "D[,D...]", "snapshot days"),
    "sigma": Flag("--sigma", _float_list, "S[,S...]",
                  "resolvent coefficients k/h^2"),
    "out": Flag("--out", str, None, "output file path"),
}


def read_config(path):
    """Parse a key=value config file into an override dict."""
    overrides = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise SurfPDEError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SurfPDEError(
                f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_").lower()
        if key not in FLAGS:
            raise SurfPDEError(
                f"{path}:{lineno}: unknown field {key!r} "
                f"(known: {', '.join(sorted(FLAGS))})")
        try:
            overrides[key] = FLAGS[key].parse(value.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise SurfPDEError(f"{path}:{lineno}: field {key}: {exc}") \
                from exc
    return overrides


def _merge(args, defaults):
    """Fill unset argparse values from config file, then builtin defaults."""
    config = read_config(args.config) if args.config else {}
    for key, builtin in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, config.get(key, builtin))
    return args


def _resolve_form(name):
    form = ex.FORM_NAMES.get(name, name)
    if form in ex.FORM_NAMES.values():
        return form
    raise SurfPDEError(f"unknown operator form {name!r} (div or nondiv)")


def _out_path(args, name):
    """--out, else `name` in $SURFPDE_OUTDIR when it is set, else None."""
    if args.out is None and os.environ.get(OUTDIR_ENV):
        return os.path.join(os.environ[OUTDIR_ENV], name)
    return args.out


def _emit(args, experiment, records):
    print(ex.render_table(experiment, records))
    out = _out_path(args, f"{experiment}.csv")
    if out:
        ex.write_csv(out, experiment, records)
        print(f"wrote {out}")


# subcommand bodies; runners are looked up in `experiments` at call time

def _discretize(args):
    if args.load:
        disc = load_discretization(args.load)
        print(f"{args.load}: surface={disc.surface_kind} "
              f"n_tot={disc.n_tot} n_p={disc.n_p} h={disc.grid.h:g} "
              f"eta={disc.eta:g}")
        return
    if len(args.n) != 1:
        raise UsageError(f"discretize builds one grid; got --N "
                         f"{','.join(map(str, args.n))}")
    n = args.n[0]
    disc = discretize(make_surface(args.surface),
                      Grid.cube(-ex.BOX_HALF, ex.BOX_HALF, n), eta=args.eta)
    print(f"surface={args.surface} N={n}: n_tot={disc.n_tot} "
          f"n_p={disc.n_p} h={disc.grid.h:g}")
    out = _out_path(args, f"{args.surface}-{n}.npz")
    if out:
        dump_discretization(disc, out)
        print(f"wrote {out}")


def _diffusion(args):
    """diffuse and table-3.1; `both` runs every form or every stepper."""
    forms = (("divergence", "nondivergence") if args.form == "both"
             else (_resolve_form(args.form),))
    steppers = ("fe", "bdf2") if args.stepper == "both" else (args.stepper,)
    return ex.run_diffusion_sphere(args.n, forms=forms, steppers=steppers)


def _swe(args, nu=None):
    """swe runs to one end day at --nu; tables 4.2/4.3 fix nu, take --days."""
    days = args.days if nu is not None else (args.t_end,)
    return ex.run_swe(args.nu if nu is None else nu, args.n, days=days)


def _curve_resolvent(args):
    for kind in args.curve:
        make_curve(kind)
    return ex.run_curve_resolvent(args.curve, args.n, args.sigma)


# `run` takes the merged arguments and returns the records to emit, or None
# when it reports by itself
Command = namedtuple("Command", "help defaults run")

COMMANDS = {
    "discretize": Command("build a discretization, optionally dump to npz",
                          {"n": (40,), "surface": "sphere", "eta": 0.45,
                           "out": None}, _discretize),
    "diffuse": Command("sphere diffusion with exact-solution errors",
                       {"n": (80,), "form": "nondiv", "stepper": "fe",
                        "out": None}, _diffusion),
    "poisson": Command("sphere Poisson test with bordered constant mode",
                       {"n": (80, 160), "out": None},
                       lambda a: ex.run_poisson(a.n)),
    "advect": Command("sphere advection test at one end time",
                      {"n": (80,), "t_end": 1.0, "out": None},
                      lambda a: ex.run_advection(a.n, times=(a.t_end,))),
    "swe": Command("rotated steady shallow water state at one end day",
                   {"n": (80,), "nu": 1.0, "t_end": 1.0, "out": None}, _swe),
    "eig": Command("low eigenvalue clusters of the reduced operator",
                   {"n": (40,), "form": "div", "out": None},
                   lambda a: ex.run_eigenvalues(a.n,
                                                form=_resolve_form(a.form))),
    "quad": Command("sphere area by the partition-of-unity quadrature",
                    {"n": (40, 80, 160), "out": None},
                    lambda a: ex.run_quadrature(a.n)),
    "curve-resolvent": Command("plane-curve resolvent sign reports",
                               {"n": (80, 160), "curve": ("circle", "ellipse"),
                                "sigma": (0.75, 1.0, 2.0), "out": None},
                               _curve_resolvent),
    "table-3.1": Command("diffusion errors on the unit sphere",
                         {"n": (80, 160), "form": "both", "stepper": "both",
                          "out": None}, _diffusion),
    "table-3.2": Command("successive-grid diffusion errors, two surfaces",
                         {"n": (80, 160), "out": None},
                         lambda a: ex.run_diffusion_pair(a.n)),
    "table-3.3": Command("eigenvalue cluster errors on the sphere",
                         {"n": (40, 80), "out": None},
                         lambda a: ex.run_eigenvalues(a.n)),
    "table-4.1": Command("advection errors on the sphere",
                         {"n": (80, 160, 320), "times": (1.0, 2.0, 5.0),
                          "out": None},
                         lambda a: ex.run_advection(a.n, times=a.times)),
    "table-4.2": Command("shallow water errors, viscosity 1",
                         {"n": (80, 160), "days": (1.0, 2.0, 5.0),
                          "out": None}, partial(_swe, nu=1.0)),
    "table-4.3": Command("shallow water errors, viscosity 0.5",
                         {"n": (80, 160), "days": (1.0, 2.0, 5.0),
                          "out": None}, partial(_swe, nu=0.5)),
}

TABLE_COMMANDS = tuple(name for name in COMMANDS if name.startswith("table-"))
SINGLE_COMMANDS = tuple(n for n in COMMANDS if n not in TABLE_COMMANDS)


def build_parser():
    parser = _Parser(prog="surfpde",
                     description="Surface PDE experiments on cut-point "
                                 "discretizations of closed level-set "
                                 "surfaces.")
    parser.add_argument("--list", action="store_true",
                        help="list subcommands and exit")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.help)
        for key in command.defaults:
            flag = FLAGS[key]
            p.add_argument(flag.spelling, dest=key, type=flag.parse,
                           metavar=flag.metavar, help=flag.help)
        p.add_argument("--config", help="key=value file with defaults")
        if name == "discretize":
            p.add_argument("--load", metavar="FILE",
                           help="read a dumped discretization and summarize")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.list:
            print("\n".join(COMMANDS))
            return 0
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("surfpde: a subcommand is required (see --list)",
                  file=sys.stderr)
            return 1
        command = COMMANDS[args.command]
        records = command.run(_merge(args, command.defaults))
        if records is not None:
            _emit(args, args.command, records)
        return 0
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (SurfPDEError, ValueError) as exc:
        print(f"surfpde: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
