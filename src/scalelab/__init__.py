"""Compute-optimal scaling analysis toolkit.

Parameter accounting in total and non-embedding bases, parametric loss
surfaces, closed-form compute-optimal allocation with local scaling
exponents, synthetic training-curve frontiers, and power-law fitting.

The public names below load their submodule on first access, so importing
the package loads none of them and each CLI command loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

# The frontier defaults that the CLI parser needs too, defined here so that it loads
# no submodule: the size grid of Kaplan et al., samples per curve and compute bins.
KAPLAN_SIZE_RANGE = (7.9e2, 1.58e9)
KAPLAN_GRID_POINTS = 20
DEFAULT_SAMPLES_PER_CURVE = 512
DEFAULT_BINS = 200

_SUBMODULES = {
    "analytic": (
        "ce_of_optimal_ne",
        "exponent_curve",
        "local_loss_exponent",
        "local_param_exponent",
        "loss_compute_exponent_total",
        "optimal_nt",
        "param_exponent_large_scale_limit",
        "param_exponent_small_scale_limit",
        "transition_point",
    ),
    "fitting": (
        "PowerLawFit",
        "fit_power_law",
        "fit_power_law_with_offset",
        "sum_squared_error",
    ),
    "frontier": (
        "Curves",
        "Frontier",
        "FrontierPoint",
        "TrainingCurve",
        "bracketing_token_schedule",
        "extract_frontier",
        "fit_loss_scaling",
        "fit_param_scaling",
        "kaplan_size_grid",
        "read_frontier_csv",
        "simulate_curves",
        "size_grid",
        "write_curves_csv",
        "write_frontier_csv",
    ),
    "lossmodel": (
        "CHINCHILLA",
        "EPOCH",
        "SPEC_CATALOG",
        "LossSpec",
        "load_loss_spec",
        "loss_nd",
        "loss_ne_ce",
        "loss_nt_ct",
        "resolve_spec",
    ),
    "params": (
        "DEFAULT_EMBED_MAP",
        "DEFAULT_OMEGA",
        "EmbedMap",
        "EmbedMapFit",
        "ParamSplit",
        "bundled_config_path",
        "count_params",
        "fit_embed_map",
        "load_model_configs",
        "nonembed_from_total",
        "omega_from_shape",
        "total_from_nonembed",
    ),
}

# Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Resolve a public name or a submodule (PEP 562), importing its submodule."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _write(path_or_buf, head: str, lines=()) -> None:
    """Write ``head``, then each string of ``lines``, to an open text buffer, or to the
    file at a path, opened with ``newline=""`` so no newline is translated."""
    if not hasattr(path_or_buf, "write"):
        with open(path_or_buf, "w", newline="") as fh:
            return _write(fh, head, lines)
    path_or_buf.write(head)
    path_or_buf.writelines(lines)


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *__all__})
