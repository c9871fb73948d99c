"""Command-line experiment driver.

Every report table has a named subcommand (`surfpde --list` enumerates them);
single-run subcommands cover the individual solvers.  Output goes to the
console as a small table and, when `--out` or SURFPDE_OUTDIR is set, to a CSV
with schema (experiment, N, time, metric, value).

Exit status: 0 on success, 1 for bad arguments, 2 for semantic or runtime
failures (unknown surface, config errors, solver aborts).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments as ex
from .curve1d import make_curve
from .discretization import Grid3, discretize
from .errors import SurfPDEError, UsageError
from .geometry import make_surface
from .serialization import dump_discretization, load_discretization

OUTDIR_ENV = "SURFPDE_OUTDIR"

TABLE_COMMANDS = ("table-3.1", "table-3.2", "table-3.3",
                  "table-4.1", "table-4.2", "table-4.3")
SINGLE_COMMANDS = ("discretize", "diffuse", "poisson", "advect", "swe",
                   "eig", "quad", "curve-resolvent")

_FORM_NAMES = {"div": "divergence", "nondiv": "nondivergence"}


class _Parser(argparse.ArgumentParser):
    # report argument problems through the exit-code-1 path instead of
    # argparse's built-in sys.exit(2)
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _int_list(text):
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError(
            f"grid sizes must be positive, got {text!r}")
    return values


def _float_list(text):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


_CONFIG_PARSERS = {
    "n": _int_list, "surface": str, "curve": str, "form": str,
    "stepper": str, "nu": float, "eta": float,
    "t_end": float, "times": _float_list, "days": _float_list,
    "sigma": _float_list, "jobs": int, "out": str,
}


def read_config(path):
    """Parse a key=value config file into an override dict."""
    overrides = {}
    try:
        lines = open(path).read().splitlines()
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
        value = value.strip()
        if key not in _CONFIG_PARSERS:
            raise SurfPDEError(
                f"{path}:{lineno}: unknown field {key!r} "
                f"(known: {', '.join(sorted(_CONFIG_PARSERS))})")
        try:
            overrides[key] = _CONFIG_PARSERS[key](value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise SurfPDEError(f"{path}:{lineno}: field {key}: {exc}") \
                from exc
    return overrides


def _merge(args, defaults):
    """Fill unset argparse values from config file, then builtin defaults."""
    config = read_config(args.config) if getattr(args, "config", None) else {}
    for key, builtin in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, config.get(key, builtin))
    return args


def _resolve_form(name):
    if name in _FORM_NAMES:
        return _FORM_NAMES[name]
    if name in _FORM_NAMES.values():
        return name
    raise SurfPDEError(f"unknown operator form {name!r} (div or nondiv)")


def _emit(args, experiment, records):
    print(ex.render_table(experiment, records))
    out = getattr(args, "out", None)
    if out is None and os.environ.get(OUTDIR_ENV):
        out = os.path.join(os.environ[OUTDIR_ENV], f"{experiment}.csv")
    if out:
        ex.write_csv(out, experiment, records)
        print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_discretize(args):
    args = _merge(args, {"n": (40,), "surface": "sphere", "eta": 0.45,
                         "out": None})
    if args.load:
        disc = load_discretization(args.load)
        print(f"{args.load}: surface={disc.surface_kind} "
              f"n_tot={disc.n_tot} n_p={disc.n_p} h={disc.grid.h:g} "
              f"eta={disc.eta:g}")
        return 0
    n = args.n[0]
    disc = discretize(make_surface(args.surface),
                      Grid3.cube(-ex.BOX_HALF, ex.BOX_HALF, n), eta=args.eta)
    print(f"surface={args.surface} N={n}: n_tot={disc.n_tot} "
          f"n_p={disc.n_p} h={disc.grid.h:g}")
    out = args.out
    if out is None and os.environ.get(OUTDIR_ENV):
        out = os.path.join(os.environ[OUTDIR_ENV],
                           f"{args.surface}-{n}.npz")
    if out:
        dump_discretization(disc, out)
        print(f"wrote {out}")
    return 0


def _cmd_diffuse(args):
    args = _merge(args, {"n": (80,), "surface": "sphere", "form": "nondiv",
                         "stepper": "fe", "jobs": 1, "out": None})
    form = _resolve_form(args.form)
    if args.surface != "sphere":
        raise SurfPDEError(
            "diffuse reports exact-solution errors, defined on the sphere "
            "only; use table-3.2 for other surfaces")
    records = ex.run_diffusion_sphere(args.n, jobs=args.jobs,
                                      forms=(form,), steppers=(args.stepper,))
    return _emit(args, "diffuse", records)


def _cmd_poisson(args):
    args = _merge(args, {"n": (80, 160), "jobs": 1, "out": None})
    return _emit(args, "poisson", ex.run_poisson(args.n, jobs=args.jobs))


def _cmd_advect(args):
    args = _merge(args, {"n": (80,), "t_end": 1.0, "jobs": 1, "out": None})
    records = ex.run_advection(args.n, times=(args.t_end,), jobs=args.jobs)
    return _emit(args, "advect", records)


def _cmd_swe(args):
    args = _merge(args, {"n": (80,), "nu": 1.0, "t_end": 1.0, "jobs": 1,
                         "out": None})
    records = ex.run_swe(args.nu, args.n, days=(args.t_end,), jobs=args.jobs)
    return _emit(args, "swe", records)


def _cmd_eig(args):
    args = _merge(args, {"n": (40,), "form": "div", "jobs": 1, "out": None})
    records = ex.run_eigenvalues(args.n, jobs=args.jobs,
                                 form=_resolve_form(args.form))
    return _emit(args, "eig", records)


def _cmd_quad(args):
    args = _merge(args, {"n": (40, 80, 160), "jobs": 1, "out": None})
    return _emit(args, "quad", ex.run_quadrature(args.n, jobs=args.jobs))


def _cmd_curve_resolvent(args):
    args = _merge(args, {"n": (80, 160), "curve": "circle,ellipse",
                         "sigma": (0.75, 1.0, 2.0), "out": None})
    curves = tuple(tok for tok in args.curve.split(",") if tok)
    for kind in curves:
        make_curve(kind)
    records = ex.run_curve_resolvent(curves, args.n, args.sigma)
    return _emit(args, "curve-resolvent", records)


def _cmd_table(args):
    table = args.command
    if table == "table-3.1":
        args = _merge(args, {"n": (80, 160), "form": "both",
                             "stepper": "both", "jobs": 1, "out": None})
        forms = (("divergence", "nondivergence") if args.form == "both"
                 else (_resolve_form(args.form),))
        steppers = (("fe", "bdf2") if args.stepper == "both"
                    else (args.stepper,))
        records = ex.run_diffusion_sphere(args.n, jobs=args.jobs,
                                          forms=forms, steppers=steppers)
    elif table == "table-3.2":
        args = _merge(args, {"n": (80, 160), "jobs": 1, "out": None})
        records = ex.run_diffusion_pair(args.n, jobs=args.jobs)
    elif table == "table-3.3":
        args = _merge(args, {"n": (40, 80), "jobs": 1, "out": None})
        records = ex.run_eigenvalues(args.n, jobs=args.jobs)
    elif table == "table-4.1":
        args = _merge(args, {"n": (80, 160, 320), "times": (1.0, 2.0, 5.0),
                             "jobs": 1, "out": None})
        records = ex.run_advection(args.n, times=args.times, jobs=args.jobs)
    else:
        nu = 1.0 if table == "table-4.2" else 0.5
        args = _merge(args, {"n": (80, 160), "days": (1.0, 2.0, 5.0),
                             "jobs": 1, "out": None})
        records = ex.run_swe(nu, args.n, days=args.days, jobs=args.jobs)
    return _emit(args, table, records)


# ---------------------------------------------------------------------------
# parser assembly

def _add(parser, *flags):
    for flag in flags:
        if flag == "n":
            parser.add_argument("--N", dest="n", type=_int_list,
                                metavar="N[,N...]",
                                help="grid sizes (cells across the box)")
        elif flag == "surface":
            parser.add_argument("--surface", help="catalog surface name")
        elif flag == "curve":
            parser.add_argument("--curve", metavar="NAME[,NAME...]",
                                help="catalog curve names")
        elif flag == "form":
            parser.add_argument("--form", help="operator form: div | nondiv")
        elif flag == "stepper":
            parser.add_argument("--stepper", choices=("fe", "bdf2", "both"),
                                help="time integrator")
        elif flag == "nu":
            parser.add_argument("--nu", type=float,
                                help="artificial viscosity coefficient")
        elif flag == "eta":
            parser.add_argument("--eta", type=float,
                                help="normal-component admissibility bound")
        elif flag == "t_end":
            parser.add_argument("--t-end", dest="t_end", type=float,
                                help="final time (days for swe)")
        elif flag == "times":
            parser.add_argument("--times", type=_float_list,
                                metavar="T[,T...]", help="snapshot times")
        elif flag == "days":
            parser.add_argument("--days", type=_float_list,
                                metavar="D[,D...]", help="snapshot days")
        elif flag == "sigma":
            parser.add_argument("--sigma", type=_float_list,
                                metavar="S[,S...]",
                                help="resolvent coefficients k/h^2")
        elif flag == "out":
            parser.add_argument("--out", help="output file path")
        elif flag == "jobs":
            parser.add_argument("--jobs", type=int,
                                help="worker processes for independent runs")
        elif flag == "config":
            parser.add_argument("--config",
                                help="key=value file with defaults")


def build_parser():
    parser = _Parser(prog="surfpde",
                     description="Surface PDE experiments on cut-point "
                                 "discretizations of closed level-set "
                                 "surfaces.")
    parser.add_argument("--list", action="store_true",
                        help="list subcommands and exit")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    specs = {
        "discretize": ("build a discretization, optionally dump to npz",
                       ("n", "surface", "eta", "out", "config")),
        "diffuse": ("sphere diffusion with exact-solution errors",
                    ("n", "form", "stepper", "surface", "jobs", "out",
                     "config")),
        "poisson": ("sphere Poisson test with bordered constant mode",
                    ("n", "jobs", "out", "config")),
        "advect": ("sphere advection test at one end time",
                   ("n", "t_end", "jobs", "out", "config")),
        "swe": ("rotated steady shallow water state at one end day",
                ("n", "nu", "t_end", "jobs", "out", "config")),
        "eig": ("low eigenvalue clusters of the reduced operator",
                ("n", "form", "jobs", "out", "config")),
        "quad": ("sphere area by the partition-of-unity quadrature",
                 ("n", "jobs", "out", "config")),
        "curve-resolvent": ("plane-curve resolvent sign reports",
                            ("n", "curve", "sigma", "out", "config")),
        "table-3.1": ("diffusion errors on the unit sphere",
                      ("n", "form", "stepper", "jobs", "out", "config")),
        "table-3.2": ("successive-grid diffusion errors, two surfaces",
                      ("n", "jobs", "out", "config")),
        "table-3.3": ("eigenvalue cluster errors on the sphere",
                      ("n", "jobs", "out", "config")),
        "table-4.1": ("advection errors on the sphere",
                      ("n", "times", "jobs", "out", "config")),
        "table-4.2": ("shallow water errors, viscosity 1",
                      ("n", "days", "jobs", "out", "config")),
        "table-4.3": ("shallow water errors, viscosity 0.5",
                      ("n", "days", "jobs", "out", "config")),
    }
    handlers = {
        "discretize": _cmd_discretize, "diffuse": _cmd_diffuse,
        "poisson": _cmd_poisson, "advect": _cmd_advect, "swe": _cmd_swe,
        "eig": _cmd_eig, "quad": _cmd_quad,
        "curve-resolvent": _cmd_curve_resolvent,
    }
    for name, (help_text, flags) in specs.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        _add(p, *flags)
        if name == "discretize":
            p.add_argument("--load", metavar="FILE",
                           help="read a dumped discretization and summarize")
        p.set_defaults(func=handlers.get(name, _cmd_table))
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.list:
            for name in SINGLE_COMMANDS + TABLE_COMMANDS:
                print(name)
            return 0
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("surfpde: a subcommand is required (see --list)",
                  file=sys.stderr)
            return 1
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (SurfPDEError, ValueError) as exc:
        print(f"surfpde: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
