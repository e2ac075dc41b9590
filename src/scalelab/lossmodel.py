"""Parametric loss surface in its three coordinate systems.

The surface L(n_total, d) = n_c/n_total**alpha + d_c/d**beta + e_irr is
evaluated directly, or re-expressed through the compute identity c = 6*n*d
in terms of (n_total, c_total), or through the parameter map in terms of
(n_nonembed, c_nonembed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .fitting import _match_scalar
from .params import EmbedMap, _check_positive, _check_third, total_from_nonembed

__all__ = [
    "LossSpec",
    "CHINCHILLA",
    "EPOCH",
    "SPEC_CATALOG",
    "loss_nd",
    "loss_nt_ct",
    "loss_ne_ce",
    "load_loss_spec",
    "resolve_spec",
]


@dataclass(frozen=True)
class LossSpec:
    """Constants (n_c, d_c, alpha, beta, e_irr) of the loss surface."""

    n_c: float
    d_c: float
    alpha: float
    beta: float
    e_irr: float

    def __post_init__(self):
        for name in ("n_c", "d_c", "alpha", "beta"):
            _check_positive(name, getattr(self, name))
        if not (np.isfinite(self.e_irr) and self.e_irr >= 0):
            raise ValueError("e_irr must be finite and >= 0")


# The two compiled-in constant sets: the original total-parameter fit and the
# re-fitted constants from the later re-analysis.
CHINCHILLA = LossSpec(n_c=406.4, d_c=410.7, alpha=0.3392, beta=0.2849, e_irr=1.693)
EPOCH = LossSpec(n_c=482.0, d_c=2085.43, alpha=0.3478, beta=0.3658, e_irr=1.817)

SPEC_CATALOG = {"chinchilla": CHINCHILLA, "epoch": EPOCH}


def _surface(n_total, d, spec: LossSpec):
    """n_c/n_total**alpha + d_c/d**beta + e_irr, built in the float array ``d``, which
    holds the result unless ``n_total`` broadcasts it to a larger shape.

    Checks nothing: callers pass finite, positive ``n_total`` and ``d``.
    """
    d **= spec.beta  # the operator, so the bits are those of d**beta
    np.divide(spec.d_c, d, out=d)
    n_term = spec.n_c / np.asarray(n_total, dtype=float) ** spec.alpha
    full = np.broadcast_shapes(d.shape, np.shape(n_term)) == d.shape
    d = np.add(d, n_term, out=d if full else None)
    d += spec.e_irr
    return d[()]


def loss_nd(n_total, d, spec: LossSpec):
    """Loss at total parameters ``n_total`` and tokens ``d`` (nats)."""
    _check_positive("n_total", n_total)
    _check_positive("d", d)
    return _match_scalar(_surface(n_total, np.array(d, dtype=float), spec), n_total, d)


def loss_nt_ct(n_total, c_total, spec: LossSpec):
    """Loss at total parameters and total compute, via d = c/(6n)."""
    _check_positive("n_total", n_total)
    _check_positive("c_total", c_total)
    with np.errstate(over="ignore"):  # an overflowing d fails the check below instead
        d = np.asarray(c_total, dtype=float) / (6.0 * np.asarray(n_total, dtype=float))
    _check_positive("d", d)
    return _match_scalar(_surface(n_total, np.asarray(d), spec), n_total, c_total)


def loss_ne_ce(n_nonembed, c_nonembed, spec: LossSpec, embed_map: EmbedMap):
    """Loss at non-embedding parameters and non-embedding compute.

    The first term routes through the parameter map; the second uses the
    identity d = c_total/(6 n_total) = c_nonembed/(6 n_nonembed).  Requires
    delta = 1/3 so results stay consistent with the closed forms.
    """
    _check_third(embed_map)
    _check_positive("n_nonembed", n_nonembed)
    _check_positive("c_nonembed", c_nonembed)
    n_total = total_from_nonembed(n_nonembed, embed_map)
    _check_positive("n_total", n_total)
    with np.errstate(over="ignore"):
        d = np.asarray(c_nonembed, dtype=float) / (6.0 * np.asarray(n_nonembed, dtype=float))
    _check_positive("d", d)
    return _match_scalar(_surface(n_total, np.asarray(d), spec), n_nonembed, c_nonembed)


def load_loss_spec(path) -> LossSpec:
    """Read a custom LossSpec from a JSON object file."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"spec file must hold a JSON object, not {type(raw).__name__}")
    values = {}
    for key in ("n_c", "d_c", "alpha", "beta", "e_irr"):
        if key not in raw:
            raise ValueError(f"spec file missing key: {key!r}")
        try:
            values[key] = float(raw[key])
        except (TypeError, ValueError):
            raise ValueError(f"spec file key {key!r} must be a number, got {raw[key]!r}") from None
    return LossSpec(**values)


def resolve_spec(selector: str) -> LossSpec:
    """Map 'epoch'/'chinchilla' to catalog constants, anything else to a JSON path."""
    key = selector.lower()
    if key in SPEC_CATALOG:
        return SPEC_CATALOG[key]
    return load_loss_spec(selector)
