"""Transformer parameter accounting and the total/non-embedding map.

Parameters are counted with the standard 12*l*d^2 rule for the transformer
blocks plus (h+v)*d for the embedding matrices.  The two counting bases are
related by the strictly increasing map

    n_total = n_nonembed + omega * n_nonembed**delta

whose coefficients can be fitted from a suite of model configurations or
derived in closed form from a fixed width/depth aspect ratio.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .fitting import _loglog_ols, _match_scalar

__all__ = [
    "DEFAULT_OMEGA",
    "DEFAULT_EMBED_MAP",
    "ModelShape",
    "ParamSplit",
    "EmbedMap",
    "EmbedMapFit",
    "count_params",
    "total_from_nonembed",
    "nonembed_from_total",
    "fit_embed_map",
    "omega_from_shape",
    "load_model_configs",
    "bundled_config_path",
]

THIRD = 1.0 / 3.0

# Calibrated on the bundled model-configuration suite (see data/); downstream
# analytic defaults use this omega together with delta = 1/3.
DEFAULT_OMEGA = 47491.0


def _check_positive(name, value):
    """Raise ValueError unless every entry of ``value`` is finite and > 0."""
    if isinstance(value, float):  # also np.float64; skips building a 0-d array
        ok = math.isfinite(value) and value > 0
    else:  # NaN fails both comparisons; no full-size temporaries
        v = np.asarray(value, dtype=float)
        ok = v.size == 0 or (v.min() > 0 and v.max() < math.inf)
    if not ok:
        raise ValueError(f"{name} must be finite and > 0")


def _check_third(embed_map: EmbedMap):
    if embed_map.delta != THIRD:
        raise ValueError("analytic forms require delta = 1/3")


@dataclass(frozen=True)
class ModelShape:
    """Transformer sizing used for parameter counting.

    ``context_learned`` is the context length and must be 0 unless the
    positional embeddings are learned (fixed encodings carry no parameters).
    """

    d_model: int
    n_layers: int
    vocab: int = 0
    context_learned: int = 0

    def __post_init__(self):
        for name in ("d_model", "n_layers", "vocab", "context_learned"):
            value = getattr(self, name)
            if value != int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.d_model < 1 or self.n_layers < 1:
            raise ValueError("degenerate shape: d_model and n_layers must be >= 1")
        if self.vocab < 0 or self.context_learned < 0:
            raise ValueError("vocab and context_learned must be >= 0")


@dataclass(frozen=True)
class ParamSplit:
    """Embedding / non-embedding parameter counts; total is their exact sum."""

    n_embed: float
    n_nonembed: float

    def __post_init__(self):
        for name in ("n_embed", "n_nonembed"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")

    @property
    def n_total(self) -> float:
        return self.n_embed + self.n_nonembed


@dataclass(frozen=True)
class EmbedMap:
    """Coefficients of n_total = n_nonembed + omega * n_nonembed**delta.

    omega = 0 degenerates to the identity map (the two bases coincide).
    The analytic closed forms elsewhere in the package require delta = 1/3.
    """

    omega: float
    delta: float = THIRD

    def __post_init__(self):
        if not (np.isfinite(self.omega) and self.omega >= 0):
            raise ValueError("omega must be finite and >= 0")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


DEFAULT_EMBED_MAP = EmbedMap(DEFAULT_OMEGA, THIRD)


@dataclass(frozen=True)
class EmbedMapFit:
    """Fitted map plus least-squares diagnostics (log-space residuals)."""

    embed_map: EmbedMap
    r_squared: float
    n_points: int


def count_params(shape: ModelShape) -> ParamSplit:
    """Count parameters: 12*l*d^2 non-embedding, (h+v)*d embedding."""
    n_nonembed = 12 * shape.n_layers * shape.d_model**2
    n_embed = (shape.context_learned + shape.vocab) * shape.d_model
    return ParamSplit(n_embed=n_embed, n_nonembed=n_nonembed)


def total_from_nonembed(n_nonembed, embed_map: EmbedMap):
    """Map a non-embedding count to the total count; strictly increasing.

    Accepts scalars or arrays; all inputs must be finite and > 0.
    """
    n = np.asarray(n_nonembed, dtype=float)
    _check_positive("n_nonembed", n)
    out = n + embed_map.omega * n**embed_map.delta
    return _match_scalar(out, n_nonembed)


def nonembed_from_total(n_total, embed_map: EmbedMap):
    """Invert the parameter map in closed form (requires delta = 1/3).

    With t = n_nonembed**(1/3), n_total = t**3 + omega*t is a depressed cubic
    with one real root.  Cardano's form t = u - v, u*v = omega/3, u**3 - v**3 =
    n_total is evaluated as t = n_total / (u**2 + u*v + v**2), which avoids the
    cancellation in u - v.  Accepts scalars or arrays; a float gives a float.
    """
    _check_third(embed_map)
    # A float is worked in Python floats, whose arithmetic is cheaper than
    # NumPy scalars'.  cbrt and hypot stay NumPy's (math.hypot rounds
    # differently), so the bits equal the array path's.  [()] unwraps other
    # 0-d input to an np.float64.
    scalar = isinstance(n_total, float)
    n = float(n_total) if scalar else np.asarray(n_total, dtype=float)[()]
    _check_positive("n_total", n)
    omega = embed_map.omega
    if omega == 0.0:
        return n
    half = n / 2.0
    u = np.cbrt(half + np.hypot(half, (omega / 3.0) ** 1.5))
    if scalar:
        u = float(u)
    v = omega / (3.0 * u)
    t = n / (u * u + u * v + v * v)
    x = t * t * t
    if (x == 0.0) if scalar else (x == 0.0).any():
        raise ArithmeticError("n_nonembed underflows to 0 for this n_total")
    return x


def fit_embed_map(splits: list[ParamSplit]) -> EmbedMapFit:
    """Fit omega, delta by OLS of log(n_embed) on log(n_nonembed).

    The assumed form n_total = n_nonembed + omega*n_nonembed**delta is linear
    in log space after subtracting the non-embedding count, so the fit is
    exact for noiseless data and fully deterministic.
    """
    if len(splits) < 2:
        raise ValueError("need >=2 configurations to fit the embedding map")
    n_embed = np.array([s.n_embed for s in splits], dtype=float)
    n_nonembed = np.array([s.n_nonembed for s in splits], dtype=float)
    _check_positive("n_embed", n_embed)
    _check_positive("n_nonembed", n_nonembed)
    if not n_nonembed.min() < n_nonembed.max():
        raise ValueError("need >=2 distinct n_nonembed values")
    omega, delta, r_squared = _loglog_ols(n_nonembed, n_embed)
    return EmbedMapFit(EmbedMap(omega, delta), r_squared, len(splits))


def omega_from_shape(vocab: float, context_learned: float, aspect_ratio: float) -> float:
    """Closed-form omega = (v+h) * (A/12)**(1/3) for a fixed aspect ratio."""
    _check_positive("aspect_ratio", aspect_ratio)
    _check_positive("vocab + context_learned", vocab + context_learned)
    return (vocab + context_learned) * (aspect_ratio / 12.0) ** THIRD


def load_model_configs(path) -> list[ParamSplit]:
    """Read model configurations from CSV.

    Expected header: name,d_model,n_layers,vocab,context_learned[,n_nonembed].
    When the optional n_nonembed column is absent or empty it is computed
    from the shape via ``count_params``.
    """
    splits = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = ("name", "d_model", "n_layers", "vocab", "context_learned")
        missing = set(required) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"config CSV missing columns: {sorted(missing)}")
        for k, row in enumerate(reader, 1):
            if None in row:  # the extra fields of a long row
                raise ValueError(f"config CSV row {k} has more than "
                                 f"{len(reader.fieldnames)} fields")
            short = [name for name in required if row[name] is None]
            if short:
                raise ValueError(f"config CSV row {k} has no {', '.join(short)}")
            shape = ModelShape(
                d_model=int(row["d_model"]),
                n_layers=int(row["n_layers"]),
                vocab=int(row["vocab"]),
                context_learned=int(row["context_learned"]),
            )
            counted = count_params(shape)
            explicit = row.get("n_nonembed")
            if explicit is not None and explicit.strip():
                splits.append(ParamSplit(counted.n_embed, float(explicit)))
            else:
                splits.append(counted)
    if not splits:
        raise ValueError("config CSV contains no rows")
    return splits


def bundled_config_path() -> Path:
    """Path of the bundled model-configuration suite."""
    return Path(str(resources.files("scalelab.data") / "chinchilla_models.csv"))
