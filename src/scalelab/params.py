"""Transformer parameter accounting and the total/non-embedding map.

Parameters are counted with the standard 12*l*d^2 rule for the transformer
blocks plus (h+v)*d for the embedding matrices.  The two counting bases are
related by the strictly increasing map

    n_total = n_nonembed + omega * n_nonembed**(1/3)

The exponent 1/3 is the map's form: at a fixed aspect ratio A = d/l the
non-embedding count 12*l*d^2 = 12*d^3/A fixes d = (A*n_nonembed/12)**(1/3),
so the embedding count (v+h)*d is omega * n_nonembed**(1/3) with omega =
(v+h)*(A/12)**(1/3).  Its one coefficient omega comes from that closed form
or from a fit to a suite of model configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _SUBMODULES
from .fitting import _check_count, _check_positive, _loglog_ols, _unwrap, _vector

__all__ = list(_SUBMODULES["params"])

THIRD = 1.0 / 3.0

# Calibrated on the bundled model-configuration suite (see data/).
DEFAULT_OMEGA = 47491.0

# From this omega on, nonembed_from_total works in units of sqrt(omega/3): below it,
# (omega/3)**1.5 < 2**900, so the unscaled form's sums stay far below the largest double.
_OMEGA_SCALED = 3.0 * 2.0**600
# For n_total = 2**-1074, the smallest double, the root is n_total / 2 where omega t and
# t**3 are each n_total / 2, at omega = (n_total / 2)**(2/3); it falls as omega rises, so
# below this omega it rounds to n_total and from it to 0.
_OMEGA_SMALLEST_ROOT = 2.0 ** (-2150 / 3)


@dataclass(frozen=True)
class ParamSplit:
    """Embedding / non-embedding parameter counts; total is their exact sum."""

    n_embed: float
    n_nonembed: float

    def __post_init__(self):
        _check_positive("n_embed", self.n_embed, zero_ok=True)
        _check_positive("n_nonembed", self.n_nonembed, zero_ok=True)

    @property
    def n_total(self) -> float:
        return self.n_embed + self.n_nonembed


@dataclass(frozen=True)
class EmbedMap:
    """Coefficient of n_total = n_nonembed + omega * n_nonembed**(1/3).

    omega = 0 degenerates to the identity map (the two bases coincide).
    """

    omega: float

    def __post_init__(self):
        _check_positive("omega", self.omega, zero_ok=True, scalar=True)


DEFAULT_EMBED_MAP = EmbedMap(DEFAULT_OMEGA)


@dataclass(frozen=True)
class EmbedMapFit:
    """Fitted n_embed = omega * n_nonembed**delta plus least-squares diagnostics
    (log-space residuals)."""

    omega: float
    delta: float
    r_squared: float
    n_points: int


def count_params(d_model, n_layers, vocab=0, context_learned=0) -> ParamSplit:
    """Count parameters: 12*l*d^2 non-embedding, (h+v)*d embedding.

    ``context_learned`` is the context length and must be 0 unless the
    positional embeddings are learned (fixed encodings carry no parameters).
    The counts are exact Python ints, so a NumPy integer cannot wrap.
    """
    d = _check_count("d_model", d_model, 1)
    layers = _check_count("n_layers", n_layers, 1)
    v = _check_count("vocab", vocab, 0)
    h = _check_count("context_learned", context_learned, 0)
    return ParamSplit(n_embed=(h + v) * d, n_nonembed=12 * layers * d**2)


def total_from_nonembed(n_nonembed, embed_map: EmbedMap):
    """Map a non-embedding count to the total count; strictly increasing.

    Accepts scalars or arrays; all inputs must be finite and > 0.
    """
    _check_positive("n_nonembed", n_nonembed)
    n = _vector(n_nonembed)
    with np.errstate(over="ignore"):  # an overflowing total is inf, which callers reject
        return _unwrap(n + embed_map.omega * n**THIRD, n_nonembed)


def nonembed_from_total(n_total, embed_map: EmbedMap):
    """Invert the parameter map in closed form.

    With t = n_nonembed**(1/3), n_total = t**3 + omega*t is a depressed cubic
    with one real root.  Cardano's form t = u - v, u*v = omega/3, u**3 - v**3 =
    n_total is evaluated as t = n_total / (u**2 + u*v + v**2), which avoids the
    cancellation in u - v.  Accepts scalars or arrays; a float gives a float.
    """
    # A float is worked in Python floats, cheaper than NumPy's; cbrt stays NumPy's, and
    # the rest is IEEE basic operations and square roots, so the bits equal the array path's.
    scalar = isinstance(n_total, float)
    _check_positive("n_total", n_total)
    n = float(n_total) if scalar else _vector(n_total)
    omega = embed_map.omega
    if omega != 0.0:
        sqrt, larger, smaller = (math.sqrt, max, min) if scalar else (np.sqrt, np.maximum,
                                                                      np.minimum)
        half = n / 2.0
        if omega < _OMEGA_SCALED:
            # u**3 = half + hypot(half, w), w = (omega/3)**1.5, with the hypot worked as
            # m*sqrt(1 + (r/m)**2), m = max(half, w), r = min(half, w).
            w = (omega / 3.0) ** 1.5
            m = larger(half, w)
            if not scalar and not m.all():  # some n_total is 2**-1074: worked as a float
                rest = m > 0.0
                t = np.full(n.shape, nonembed_from_total(math.ulp(0.0), embed_map))
                t[rest] = nonembed_from_total(n[rest], embed_map)
                return _unwrap(t, n_total)
            try:
                r = smaller(half, w) / m
            except ZeroDivisionError:  # n_total / 2 and w round to 0: n_total is 2**-1074
                if omega < _OMEGA_SMALLEST_ROOT:
                    return n
                raise ArithmeticError("n_nonembed underflows to 0 for this n_total") from None
            u = np.cbrt(half + m * sqrt(1.0 + r * r))
            if scalar:
                u = float(u)
            v = omega / (3.0 * u)
            t = n / (u * u + u * v + v * v)
        else:
            # (omega/3)**1.5 is near or past the largest double (past it from omega of about
            # 1e206): u = s*c and v = s/c in units of s = sqrt(omega/3), where
            # c**3 = q + sqrt(1 + q**2) and q = half/s**3, so nothing overflows.
            s = math.sqrt(omega / 3.0)
            q = half / s / s / s
            c = np.cbrt(q + sqrt(1.0 + q * q))
            if scalar:
                c = float(c)
            c2 = c * c
            t = n / s / s / (c2 + 1.0 + 1.0 / c2)
        n = t * t * t
        if (n == 0.0) if scalar else (n == 0.0).any():
            raise ArithmeticError("n_nonembed underflows to 0 for this n_total")
    return n if scalar else _unwrap(n, n_total)


def fit_embed_map(splits: list[ParamSplit]) -> EmbedMapFit:
    """Fit omega, delta by OLS of log(n_embed) on log(n_nonembed).

    n_embed = omega*n_nonembed**delta is linear in log space, so the fit is
    exact for noiseless data and fully deterministic.  A delta outside (0, 1)
    is refused.
    """
    if len(splits) < 2:
        raise ValueError("need >=2 configurations to fit the embedding map")
    n_embed = np.array([s.n_embed for s in splits], dtype=float)
    n_nonembed = np.array([s.n_nonembed for s in splits], dtype=float)
    _check_positive("n_embed", n_embed)
    lo, hi = _check_positive("n_nonembed", n_nonembed)
    if not lo < hi:
        raise ValueError("need >=2 distinct n_nonembed values")
    omega, delta, r_squared = _loglog_ols(n_nonembed, n_embed)
    _check_positive("delta", delta)
    if not delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return EmbedMapFit(omega, delta, r_squared, len(splits))


def omega_from_shape(vocab: float, context_learned: float, aspect_ratio: float) -> float:
    """Closed-form omega = (v+h) * (A/12)**(1/3) for a fixed aspect ratio."""
    _check_positive("aspect_ratio", aspect_ratio)
    _check_positive("vocab", vocab, zero_ok=True)
    _check_positive("context_learned", context_learned, zero_ok=True)
    _check_positive("vocab + context_learned", vocab + context_learned)
    return (vocab + context_learned) * (aspect_ratio / 12.0) ** THIRD


def load_model_configs(path) -> list[ParamSplit]:
    """Read model configurations from CSV.

    Expected header: name,d_model,n_layers,vocab,context_learned[,n_nonembed].
    When the optional n_nonembed column is absent or empty it is computed
    from the shape via ``count_params``.
    """
    from . import _files

    header, rows = _files.read_csv(path, "config CSV")
    required = ("name", "d_model", "n_layers", "vocab", "context_learned")
    missing = set(required) - set(header or [])
    if missing:
        raise ValueError(f"config CSV missing columns: {sorted(missing)}")
    splits = []
    for k, row in enumerate(rows, 1):
        if None in row:  # the extra fields of a long row
            raise ValueError(f"config CSV row {k} has more than {len(header)} fields")
        short = [name for name in required if row[name] is None]
        if short:
            raise ValueError(f"config CSV row {k} has no {', '.join(short)}")
        shape = [_files.parse_field(row, k, name, int, "config CSV") for name in required[1:]]
        explicit = None
        if (row.get("n_nonembed") or "").strip():
            explicit = _files.parse_field(row, k, "n_nonembed", float, "config CSV")
        try:  # a shape out of range, or a count beyond the range of doubles
            split = count_params(*shape)
            if explicit is not None:
                split = ParamSplit(split.n_embed, explicit)
        except ValueError as exc:
            raise ValueError(f"config CSV row {k}: {exc}") from None
        splits.append(split)
    if not splits:
        raise ValueError("config CSV contains no rows")
    return splits


def bundled_config_path() -> Path:
    """Path of the bundled model-configuration suite."""
    return Path(__file__).with_name("data") / "chinchilla_models.csv"
