"""Command-line front end emitting figure-ready CSV data and fit reports.

Every command is deterministic and writes to --output or standard output
through ``scalelab._write``; reruns with the same flags produce byte-identical
files.  Exit status: 0 on success, 2 for bad input (as for an argparse usage
error) or a grid too large for memory, 1 for a failed `reproduce` tolerance or a
numerical failure.  A closed standard output is left to ``scalelab.__main__.run``.

The parser takes its defaults and writer from the package, which loads no submodule;
each command imports the modules it calls when it runs, so a process loads nothing
else, and help or a usage error loads no numpy.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import (DEFAULT_BINS, DEFAULT_SAMPLES_PER_CURVE, KAPLAN_GRID_POINTS, KAPLAN_SIZE_RANGE,
               _write)

if TYPE_CHECKING:
    from .frontier import Curves
    from .lossmodel import LossSpec
    from .params import EmbedMap

__all__ = ["main"]

EXPONENT_CURVE_CSV_HEADER = "n_nonembed,c_nonembed,g,k,loss_opt"

# Headline quantities checked by `reproduce`: (spec, quantity) -> (target, tolerance).
# A spec's entries are reported in this order.
HEADLINE_TARGETS = {
    ("epoch", "param_exponent_nonembed"): (0.78, 0.02),
    ("chinchilla", "param_exponent_nonembed"): (0.74, 0.02),
    ("epoch", "loss_exponent_nonembed_kaplan_form"): (-0.069, 0.005),
    ("chinchilla", "loss_exponent_nonembed_kaplan_form"): (-0.066, 0.005),
    ("epoch", "gamma_total_chinchilla_form"): (0.178, 0.005),
    ("chinchilla", "gamma_total_chinchilla_form"): (0.155, 0.005),
}


def _report(payload, output: str | None, echo: bool = False) -> None:
    """Write the JSON report to --output if given, else stdout; echo small reports to stdout too."""
    import json

    text = json.dumps(payload, indent=2) + "\n"
    _write(output or sys.stdout, text)
    if output and echo:
        sys.stdout.write(text)


def _embed_map_from_args(args) -> EmbedMap:
    from .params import DEFAULT_OMEGA, EmbedMap

    return EmbedMap(DEFAULT_OMEGA if args.omega is None else args.omega)


def cmd_fit_embed_map(args) -> int:
    from .params import bundled_config_path, fit_embed_map, load_model_configs

    path = bundled_config_path() if args.config_csv is None else args.config_csv
    _report(vars(fit_embed_map(load_model_configs(path))), args.output, echo=True)
    return 0


def _simulate(args) -> Curves:
    """The curves of the size grid, spec and map that `simulate` and `frontier` share."""
    from .frontier import simulate_curves, size_grid
    from .lossmodel import resolve_spec

    sizes = size_grid(args.sizes_min, args.sizes_max, args.sizes_count)
    return simulate_curves(sizes, resolve_spec(args.spec or "epoch"), _embed_map_from_args(args))


def cmd_simulate(args) -> int:
    from .frontier import write_curves_csv

    write_curves_csv(_simulate(args), args.output or sys.stdout)
    return 0


def cmd_frontier(args) -> int:
    from .frontier import extract_frontier, write_frontier_csv

    frontier = extract_frontier(_simulate(args), n_bins=args.bins, basis=args.basis)
    write_frontier_csv(frontier, args.output or sys.stdout)
    return 0


def cmd_fit(args) -> int:
    from .frontier import fit_loss_scaling, fit_param_scaling, read_frontier_csv

    frontier = read_frontier_csv(args.frontier_csv)
    if args.form == "plain":
        fit = fit_param_scaling(frontier)
    else:
        fit = fit_loss_scaling(frontier, form=args.form)
    report = {"form": args.form, "basis": frontier.basis, **vars(fit)}
    _report(report, args.output, echo=True)
    return 0


def cmd_exponent_curve(args) -> int:
    from .analytic import exponent_curve
    from .lossmodel import resolve_spec

    columns = exponent_curve(resolve_spec(args.spec or "epoch"), _embed_map_from_args(args))
    rows = zip(*(a.tolist() for a in columns))
    _write(args.output or sys.stdout, EXPONENT_CURVE_CSV_HEADER + "\n",
           (",".join(f"{v:.17g}" for v in row) + "\n" for row in rows))
    return 0


def _pipeline_measurements(spec: LossSpec, embed_map: EmbedMap, bins: int,
                           tokens_per_param) -> dict:
    from .frontier import (
        extract_frontier,
        fit_loss_scaling,
        fit_param_scaling,
        kaplan_size_grid,
        simulate_curves,
    )

    curves = simulate_curves(kaplan_size_grid(), spec, embed_map,
                             tokens_per_param=tokens_per_param)
    total = extract_frontier(curves, n_bins=bins, basis="total")
    chin_fit = fit_loss_scaling(total, form="chinchilla")
    out = {
        "param_exponent_total": fit_param_scaling(total).exponent,
        "loss_exponent_total_kaplan_form": fit_loss_scaling(total, form="kaplan").exponent,
        "gamma_total_chinchilla_form": -chin_fit.exponent,
        "offset_total_chinchilla_form": chin_fit.offset,
    }
    if embed_map.omega != 0.0:
        nonembed = extract_frontier(curves, n_bins=bins, basis="nonembed")
        out["param_exponent_nonembed"] = fit_param_scaling(nonembed).exponent
        out["loss_exponent_nonembed_kaplan_form"] = fit_loss_scaling(
            nonembed, form="kaplan"
        ).exponent
    return out


def _print_reproduce_table(entries) -> None:
    print(f"{'spec':<12} {'quantity':<36} {'observed':>10} {'target':>8} {'tol':>7} {'status':>7}")
    for e in entries:
        target = "-" if e["target"] is None else f"{e['target']:.3f}"
        tol = "-" if e["tolerance"] is None else f"{e['tolerance']:.3f}"
        status = "-" if e["pass"] is None else ("pass" if e["pass"] else "FAIL")
        print(f"{e['spec']:<12} {e['quantity']:<36} {e['observed']:>10.4f} "
              f"{target:>8} {tol:>7} {status:>7}")


def cmd_reproduce(args) -> int:
    from .frontier import DEFAULT_TOKENS_PER_PARAM, bracketing_token_schedule, kaplan_size_grid
    from .lossmodel import SPEC_CATALOG, resolve_spec
    from .params import DEFAULT_EMBED_MAP

    # The headline runs report their targeted quantities; a run of a chosen
    # spec or map reports every measurement, on a schedule that brackets it.
    if args.spec is None and args.omega is None:
        targets = HEADLINE_TARGETS
        runs = [(name, SPEC_CATALOG[name], DEFAULT_EMBED_MAP, DEFAULT_TOKENS_PER_PARAM)
                for name in ("epoch", "chinchilla")]
    else:
        targets = {}
        name = args.spec or "epoch"
        spec, embed_map = resolve_spec(name), _embed_map_from_args(args)
        schedule = bracketing_token_schedule(kaplan_size_grid(), spec, embed_map)
        runs = [(name, spec, embed_map, schedule)]

    entries = []
    for name, spec, embed_map, schedule in runs:
        measured = _pipeline_measurements(spec, embed_map, args.bins, schedule)
        if embed_map.omega == 0.0:
            print("omega = 0: nonembed basis identical to total; total-basis results only")
        for key in [q for s, q in targets if s == name] or measured:
            observed = measured[key]
            target, tol = targets.get((name, key), (None, None))
            entries.append({
                "quantity": key,
                "spec": name,
                "observed": observed,
                "target": target,
                "tolerance": tol,
                "pass": None if target is None else abs(observed - target) <= tol,
            })

    _print_reproduce_table(entries)
    _report(entries, args.output)
    return 1 if any(e["pass"] is False for e in entries) else 0


# Arguments as (flag, add_argument keywords), in the order a command adds them; the
# groups that several commands share.
_MAP_OPTIONS = (
    ("--spec", dict(default=None,
                    help="loss constants: 'epoch', 'chinchilla', or path to a JSON file")),
    ("--omega", dict(type=float, default=None,
                     help="parameter-map coefficient (default: scalelab.params.DEFAULT_OMEGA, "
                          "calibrated on the bundled config suite)")),
)
_GRID_OPTIONS = (
    ("--sizes-min", dict(type=float, default=KAPLAN_SIZE_RANGE[0])),
    ("--sizes-max", dict(type=float, default=KAPLAN_SIZE_RANGE[1])),
    ("--sizes-count", dict(type=int, default=KAPLAN_GRID_POINTS)),
)
_BINS = (("--bins", dict(type=int, default=DEFAULT_BINS)),)

# Every command: its help line, its function, and its arguments ahead of --output.  The
# full parser lists the commands in this order.
_COMMANDS = {
    "fit-embed-map": ("fit (omega, delta) from a model-config CSV", cmd_fit_embed_map, (
        ("config_csv", dict(nargs="?", default=None,
                            help="config CSV path (default: bundled suite)")),)),
    "simulate": ("emit synthetic training-curve CSV", cmd_simulate, _MAP_OPTIONS + _GRID_OPTIONS),
    "frontier": ("emit the compute-efficient frontier CSV", cmd_frontier, (
        *_MAP_OPTIONS, *_GRID_OPTIONS,
        ("--basis", dict(choices=("total", "nonembed"), default="nonembed")), *_BINS)),
    "fit": ("fit a power law to a frontier CSV", cmd_fit, (
        ("frontier_csv", {}),
        ("--form", dict(choices=("plain", "kaplan", "chinchilla"), default="plain")))),
    "exponent-curve": ("emit the analytic local-exponent curve CSV", cmd_exponent_curve,
                       _MAP_OPTIONS),
    "reproduce": ("run the default pipeline and check the six headline exponents",
                  cmd_reproduce, _MAP_OPTIONS + _BINS),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with only ``command``'s subparser, or with every command's when
    ``command`` names none; either parses that command's arguments alike."""
    parser = argparse.ArgumentParser(
        prog="scalelab",
        description="Compute-optimal scaling analysis over parametric loss surfaces.",
    )
    one = command in _COMMANDS
    # A parser of one command still lists every command in the usage line of its only
    # reachable top-level error, "unrecognized arguments".  The full parser keeps no
    # metavar, since its errors name the command argument by it.
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if one else None)
    for name in [command] if one else _COMMANDS:
        help_text, func, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.add_argument("--output", default=None)
        p.set_defaults(func=func)
    return parser


# The options that size a command's arrays, and the bytes one unit of each takes: a
# model's row of samples, or a bin.
_SIZING = {"sizes_count": 8 * DEFAULT_SAMPLES_PER_CURVE, "bins": 8}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A command's subparser is the only one its arguments reach, so only it is built.
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    sizing = {name: getattr(args, name) for name in _SIZING if hasattr(args, name)}
    try:
        # NumPy refuses an array beyond the address space with a ValueError that names
        # no option; a count that asks for one fails as one that memory cannot hold.
        if any((count + 1) * _SIZING[name] > sys.maxsize for name, count in sizing.items()):
            raise MemoryError
        return args.func(args)
    except BrokenPipeError:  # a closed reader, not bad input: run() ends the process
        raise
    except MemoryError:
        options = " and ".join(f"--{name.replace('_', '-')} {n}" for name, n in sizing.items())
        print(f"error: not enough memory{' for ' + options if options else ''}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ArithmeticError) else 2
