"""Parametric loss surface in its three coordinate systems.

The surface L(n_total, d) = n_c/n_total**alpha + d_c/d**beta + e_irr is
evaluated directly, or re-expressed through the compute identity c = 6*n*d
in terms of (n_total, c_total), or through the parameter map in terms of
(n_nonembed, c_nonembed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _SUBMODULES
from .fitting import _check_positive, _unwrap, _vector
from .params import EmbedMap, total_from_nonembed

__all__ = list(_SUBMODULES["lossmodel"])


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
            _check_positive(name, getattr(self, name), scalar=True)
        _check_positive("e_irr", self.e_irr, zero_ok=True, scalar=True)


# The two compiled-in constant sets: the original total-parameter fit and the
# re-fitted constants from the later re-analysis.
CHINCHILLA = LossSpec(n_c=406.4, d_c=410.7, alpha=0.3392, beta=0.2849, e_irr=1.693)
EPOCH = LossSpec(n_c=482.0, d_c=2085.43, alpha=0.3478, beta=0.3658, e_irr=1.817)

SPEC_CATALOG = {"chinchilla": CHINCHILLA, "epoch": EPOCH}


def _surface(n_total: np.ndarray, d: np.ndarray, spec: LossSpec) -> np.ndarray:
    """n_c/n_total**alpha + d_c/d**beta + e_irr, built in the float array ``d``, which
    holds the result unless ``n_total`` broadcasts it to a larger shape.

    Checks nothing: callers pass finite, positive arrays of at least one dimension.
    """
    d **= spec.beta  # the operator, so the bits are those of d**beta
    np.divide(spec.d_c, d, out=d)
    n_term = spec.n_c / n_total**spec.alpha
    full = np.broadcast_shapes(d.shape, n_term.shape) == d.shape
    d = np.add(d, n_term, out=d if full else None)
    d += spec.e_irr
    return d


def loss_nd(n_total, d, spec: LossSpec):
    """Loss at total parameters ``n_total`` and tokens ``d`` (nats)."""
    _check_positive("n_total", n_total)
    _check_positive("d", d)
    return _unwrap(_surface(_vector(n_total), _vector(d).copy(), spec), n_total, d)


def loss_nt_ct(n_total, c_total, spec: LossSpec):
    """Loss at total parameters and total compute, via d = c/(6n)."""
    _check_positive("n_total", n_total)
    _check_positive("c_total", c_total)
    n = _vector(n_total)
    with np.errstate(over="ignore"):  # an overflowing d fails the check below instead
        d = _vector(c_total) / (6.0 * n)
    _check_positive("d", d)
    return _unwrap(_surface(n, d, spec), n_total, c_total)


def loss_ne_ce(n_nonembed, c_nonembed, spec: LossSpec, embed_map: EmbedMap):
    """Loss at non-embedding parameters and non-embedding compute.

    The first term routes through the parameter map; the second uses the
    identity d = c_total/(6 n_total) = c_nonembed/(6 n_nonembed).
    """
    n_total = _vector(total_from_nonembed(n_nonembed, embed_map))  # checks n_nonembed as given
    n = _vector(n_nonembed)
    _check_positive("c_nonembed", c_nonembed)
    _check_positive("n_total", n_total)
    with np.errstate(over="ignore"):
        d = _vector(c_nonembed) / (6.0 * n)
    _check_positive("d", d)
    return _unwrap(_surface(n_total, d, spec), n_nonembed, c_nonembed)


def load_loss_spec(path) -> LossSpec:
    """Read a custom LossSpec from a JSON object file."""
    import json

    from . import _files

    text, bad = _files.decode(path)
    if bad:
        raise ValueError(f"spec file offset {bad[0]}: {bad[1]}")
    try:
        # An integer of over 400 characters, beyond any double, is cut to 400, which
        # keeps it beyond one: int() refuses a string of over 4,300 digits.
        raw = json.loads(text, parse_int=lambda digits: int(digits[:400]))
    except RecursionError:  # arrays or objects nested deeper than the recursion limit
        raise ValueError("spec file nests too deeply to parse") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec file line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"spec file must hold a JSON object, not {type(raw).__name__}")
    values = {}
    for key in ("n_c", "d_c", "alpha", "beta", "e_irr"):
        if key not in raw:
            raise ValueError(f"spec file missing key: {key!r}")
        value = raw[key]
        if type(value) not in (int, float):  # a JSON number: not a bool, a string or null
            raise ValueError(f"spec file key {key!r} must be a number, got {value!r}")
        try:
            values[key] = float(value)
        except OverflowError:  # an integer beyond the range of doubles
            raise ValueError(f"spec file key {key!r} is too large for a double") from None
    return LossSpec(**values)


def resolve_spec(selector: str) -> LossSpec:
    """Map 'epoch'/'chinchilla' to catalog constants, anything else to a JSON path."""
    key = selector.lower()
    if key in SPEC_CATALOG:
        return SPEC_CATALOG[key]
    return load_loss_spec(selector)
