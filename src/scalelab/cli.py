"""Command-line front end emitting figure-ready CSV data and fit reports.

Every command is deterministic and writes to --output or standard output;
reruns with the same flags produce byte-identical files.  Exit status: 0 on
success, 2 for bad input (as for an argparse usage error), 1 for a failed
`reproduce` tolerance or a numerical failure.

The parser needs only the frontier constants; each command imports the
modules it calls when it runs, so a process loads nothing else.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .frontier import DEFAULT_BINS, KAPLAN_GRID_POINTS, KAPLAN_SIZE_RANGE

if TYPE_CHECKING:
    from .lossmodel import LossSpec
    from .params import EmbedMap

__all__ = ["main"]

EXPONENT_CURVE_CSV_HEADER = "n_nonembed,c_nonembed,g,k,loss_opt"

# Headline quantities checked by `reproduce`: (key, spec, target, tolerance).
HEADLINE_TARGETS = [
    ("param_exponent_nonembed", "epoch", 0.78, 0.02),
    ("param_exponent_nonembed", "chinchilla", 0.74, 0.02),
    ("loss_exponent_nonembed_kaplan_form", "epoch", -0.069, 0.005),
    ("loss_exponent_nonembed_kaplan_form", "chinchilla", -0.066, 0.005),
    ("gamma_total_chinchilla_form", "epoch", 0.178, 0.005),
    ("gamma_total_chinchilla_form", "chinchilla", 0.155, 0.005),
]


def _emit(text: str, output: str | None, echo: bool = False) -> None:
    """Write to --output if given, else stdout; echo small reports to stdout too."""
    if output:
        Path(output).write_text(text)
        if echo:
            sys.stdout.write(text)
    else:
        sys.stdout.write(text)


def _embed_map_from_args(args) -> EmbedMap:
    from .params import DEFAULT_OMEGA, EmbedMap

    return EmbedMap(DEFAULT_OMEGA if args.omega is None else args.omega)


def _sizes_from_args(args):
    from .frontier import size_grid

    return size_grid(args.sizes_min, args.sizes_max, args.sizes_count)


def _json_report(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def cmd_fit_embed_map(args) -> int:
    from .params import bundled_config_path, fit_embed_map, load_model_configs

    path = bundled_config_path() if args.config_csv is None else args.config_csv
    fit = fit_embed_map(load_model_configs(path))
    report = {
        "omega": fit.embed_map.omega,
        "delta": fit.embed_map.delta,
        "r_squared": fit.r_squared,
        "n_points": fit.n_points,
    }
    _emit(_json_report(report), args.output, echo=True)
    return 0


def cmd_simulate(args) -> int:
    from .frontier import simulate_curves, write_curves_csv
    from .lossmodel import resolve_spec

    curves = simulate_curves(_sizes_from_args(args), resolve_spec(args.spec or "epoch"),
                             _embed_map_from_args(args))
    write_curves_csv(curves, args.output or sys.stdout)
    return 0


def _build_frontier(args, basis: str):
    from .frontier import extract_frontier, simulate_curves
    from .lossmodel import resolve_spec

    curves = simulate_curves(_sizes_from_args(args), resolve_spec(args.spec or "epoch"),
                             _embed_map_from_args(args))
    return extract_frontier(curves, n_bins=args.bins, basis=basis)


def cmd_frontier(args) -> int:
    from .frontier import write_frontier_csv

    frontier = _build_frontier(args, args.basis)
    write_frontier_csv(frontier, args.output or sys.stdout)
    return 0


def cmd_fit(args) -> int:
    from .frontier import fit_loss_scaling, fit_param_scaling, read_frontier_csv

    frontier = read_frontier_csv(args.frontier_csv)
    if args.form == "plain":
        fit = fit_param_scaling(frontier)
    else:
        fit = fit_loss_scaling(frontier, form=args.form)
    _emit(_json_report(fit.to_report(args.form, frontier.basis)), args.output, echo=True)
    return 0


def cmd_exponent_curve(args) -> int:
    from .analytic import exponent_curve
    from .lossmodel import resolve_spec

    columns = exponent_curve(resolve_spec(args.spec or "epoch"), _embed_map_from_args(args))
    lines = [EXPONENT_CURVE_CSV_HEADER]
    lines += [",".join(f"{v:.17g}" for v in row) for row in zip(*(a.tolist() for a in columns))]
    _emit("\n".join(lines) + "\n", args.output)
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

    headline = args.spec is None and args.omega is None
    entries = []
    if headline:
        for name in ("epoch", "chinchilla"):
            measured = _pipeline_measurements(
                SPEC_CATALOG[name], DEFAULT_EMBED_MAP, args.bins, DEFAULT_TOKENS_PER_PARAM,
            )
            for key, spec_name, target, tol in HEADLINE_TARGETS:
                if spec_name != name:
                    continue
                observed = measured[key]
                entries.append({
                    "quantity": key,
                    "spec": name,
                    "observed": observed,
                    "target": target,
                    "tolerance": tol,
                    "pass": abs(observed - target) <= tol,
                })
    else:
        spec_name = args.spec or "epoch"
        spec = resolve_spec(spec_name)
        embed_map = _embed_map_from_args(args)
        schedule = bracketing_token_schedule(kaplan_size_grid(), spec, embed_map)
        measured = _pipeline_measurements(spec, embed_map, args.bins, schedule)
        for key, observed in measured.items():
            entries.append({
                "quantity": key,
                "spec": spec_name,
                "observed": observed,
                "target": None,
                "tolerance": None,
                "pass": None,
            })
        if embed_map.omega == 0.0:
            print("omega = 0: nonembed basis identical to total; total-basis results only")

    _print_reproduce_table(entries)
    _emit(_json_report(entries), args.output)
    failed = [e for e in entries if e["pass"] is False]
    return 1 if failed else 0


def _add_map_options(parser) -> None:
    parser.add_argument("--spec", default=None,
                        help="loss constants: 'epoch', 'chinchilla', or path to a JSON file")
    parser.add_argument("--omega", type=float, default=None,
                        help="parameter-map coefficient (default: scalelab.params.DEFAULT_OMEGA, "
                             "calibrated on the bundled config suite)")


def _add_grid_options(parser) -> None:
    parser.add_argument("--sizes-min", type=float, default=KAPLAN_SIZE_RANGE[0])
    parser.add_argument("--sizes-max", type=float, default=KAPLAN_SIZE_RANGE[1])
    parser.add_argument("--sizes-count", type=int, default=KAPLAN_GRID_POINTS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalelab",
        description="Compute-optimal scaling analysis over parametric loss surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-embed-map", help="fit (omega, delta) from a model-config CSV")
    p.add_argument("config_csv", nargs="?", default=None,
                   help="config CSV path (default: bundled suite)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_fit_embed_map)

    p = sub.add_parser("simulate", help="emit synthetic training-curve CSV")
    _add_map_options(p)
    _add_grid_options(p)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("frontier", help="emit the compute-efficient frontier CSV")
    _add_map_options(p)
    _add_grid_options(p)
    p.add_argument("--basis", choices=("total", "nonembed"), default="nonembed")
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("fit", help="fit a power law to a frontier CSV")
    p.add_argument("frontier_csv")
    p.add_argument("--form", choices=("plain", "kaplan", "chinchilla"), default="plain")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("exponent-curve", help="emit the analytic local-exponent curve CSV")
    _add_map_options(p)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_exponent_curve)

    p = sub.add_parser("reproduce",
                       help="run the default pipeline and check the six headline exponents")
    _add_map_options(p)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ArithmeticError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
