"""Closed-form compute-optimal allocation and local scaling exponents.

At fixed total compute the loss surface has a unique interior minimizer with
a global power law n_total* ~ c_total**(beta/(alpha+beta)).  In the
non-embedding basis the compute-at-optimum relation

    c = 6n (n + omega/3 n^(1/3))^(-1/beta) (n + omega n^(1/3))^((1+alpha)/beta)
        * (beta d_c / (alpha n_c))^(1/beta)

is not a power law; its local log-log slope g (parameters vs compute) and the
companion slope k (loss vs compute) are evaluated here in closed form so the
simulation pipeline can cross-check them against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitting import _match_scalar
from .lossmodel import LossSpec, loss_ne_ce
from .params import THIRD, EmbedMap, _check_positive, _check_third

__all__ = [
    "ExponentSample",
    "optimal_nt",
    "ce_of_optimal_ne",
    "local_param_exponent",
    "local_loss_exponent",
    "loss_compute_exponent_total",
    "transition_point",
    "param_exponent_small_scale_limit",
    "param_exponent_large_scale_limit",
    "exponent_curve",
]

EXPONENT_CURVE_RANGE = (1e2, 1e13)
EXPONENT_CURVE_POINTS = 400


def optimal_nt(c_total, spec: LossSpec):
    """Unique minimizer of the (n_total, c_total) loss at a fixed budget."""
    _check_positive("c_total", c_total)
    c = np.asarray(c_total, dtype=float)
    share = spec.beta / (spec.alpha + spec.beta)
    prefactor = (spec.alpha * spec.n_c / (spec.beta * spec.d_c)) ** (
        1.0 / (spec.alpha + spec.beta)
    )
    out = prefactor * (c / 6.0) ** share
    return _match_scalar(out, c_total)


def ce_of_optimal_ne(n_nonembed_opt, spec: LossSpec, embed_map: EmbedMap):
    """Non-embedding compute at which ``n_nonembed_opt`` is loss-optimal.

    Strictly increasing in its argument; with omega = 0 it reduces to the
    exact inverse of ``optimal_nt``.
    """
    _check_third(embed_map)
    _check_positive("n_nonembed_opt", n_nonembed_opt)
    n = np.asarray(n_nonembed_opt, dtype=float)
    a, b, om = spec.alpha, spec.beta, embed_map.omega
    cbrt = n**THIRD
    out = (
        6.0
        * n
        * (n + om / 3.0 * cbrt) ** (-1.0 / b)
        * (n + om * cbrt) ** ((1.0 + a) / b)
        * (b * spec.d_c / (a * spec.n_c)) ** (1.0 / b)
    )
    return _match_scalar(out, n_nonembed_opt)


def local_param_exponent(n_nonembed_opt, spec: LossSpec, embed_map: EmbedMap):
    """Local slope g = d log(n*_nonembed) / d log(c_nonembed).

    1/g = 1 - (1/beta)(x + omega/9)/(x + omega/3)
            + ((alpha+1)/beta)(x + omega/3)/(x + omega),   x = n**(2/3).
    """
    _check_third(embed_map)
    _check_positive("n_nonembed_opt", n_nonembed_opt)
    n = np.asarray(n_nonembed_opt, dtype=float)
    a, b, om = spec.alpha, spec.beta, embed_map.omega
    x = n ** (2.0 * THIRD)
    inv_g = (
        1.0
        - (1.0 / b) * (x + om / 9.0) / (x + om / 3.0)
        + ((a + 1.0) / b) * (x + om / 3.0) / (x + om)
    )
    out = 1.0 / inv_g
    return _match_scalar(out, n_nonembed_opt)


def local_loss_exponent(n_nonembed_opt, spec: LossSpec, embed_map: EmbedMap):
    """Local slope k = d log(L*_nonembed) / d log(c_nonembed) at the optimum.

    k = (g/L*) [ -alpha n_c (n + omega/3 n^(1/3)) / (n + omega n^(1/3))**(alpha+1)
                 + beta d_c (c/(6n))**(-beta) (1 - 1/g) ]
    with c and L* taken on the compute-optimal frontier.
    """
    _check_third(embed_map)
    _check_positive("n_nonembed_opt", n_nonembed_opt)
    n = np.asarray(n_nonembed_opt, dtype=float)
    a, b, om = spec.alpha, spec.beta, embed_map.omega
    g = local_param_exponent(n, spec, embed_map)
    c = ce_of_optimal_ne(n, spec, embed_map)
    loss_opt = loss_ne_ce(n, c, spec, embed_map)
    cbrt = n**THIRD
    bracket = (
        -a * spec.n_c * (n + om / 3.0 * cbrt) / (n + om * cbrt) ** (a + 1.0)
        + b * spec.d_c * (c / (6.0 * n)) ** (-b) * (1.0 - 1.0 / g)
    )
    out = g / loss_opt * bracket
    return _match_scalar(out, n_nonembed_opt)


def loss_compute_exponent_total(spec: LossSpec) -> float:
    """Global exponent gamma = alpha*beta/(alpha+beta) of L* - E vs total compute."""
    return spec.alpha * spec.beta / (spec.alpha + spec.beta)


def transition_point(embed_map: EmbedMap) -> float:
    """n_nonembed = omega**(3/2), where embedding and non-embedding counts are equal."""
    _check_third(embed_map)
    return embed_map.omega**1.5


def param_exponent_small_scale_limit(spec: LossSpec) -> float:
    """g as n -> 0: beta / (alpha/3 + beta)."""
    return spec.beta / (spec.alpha / 3.0 + spec.beta)


def param_exponent_large_scale_limit(spec: LossSpec) -> float:
    """g as n -> inf: beta / (alpha + beta), the total-basis exponent."""
    return spec.beta / (spec.alpha + spec.beta)


@dataclass(frozen=True)
class ExponentSample:
    """One point of the frontier: optimum, its compute, local slopes, loss."""

    n_nonembed_opt: float
    c_nonembed: float
    g: float
    k: float
    loss_opt: float


def exponent_curve(
    spec: LossSpec,
    embed_map: EmbedMap,
    n_min: float = EXPONENT_CURVE_RANGE[0],
    n_max: float = EXPONENT_CURVE_RANGE[1],
    count: int = EXPONENT_CURVE_POINTS,
) -> list[ExponentSample]:
    """Sample the frontier on a log-spaced grid of non-embedding optima."""
    _check_positive("n_min", n_min)
    _check_positive("n_max", n_max)
    if not n_min < n_max:
        raise ValueError("need 0 < n_min < n_max")
    if count < 2:
        raise ValueError("need count >= 2")
    n = np.geomspace(n_min, n_max, count)
    c = ce_of_optimal_ne(n, spec, embed_map)
    g = local_param_exponent(n, spec, embed_map)
    k = local_loss_exponent(n, spec, embed_map)
    loss_opt = loss_ne_ce(n, c, spec, embed_map)
    return [
        ExponentSample(float(ni), float(ci), float(gi), float(ki), float(li))
        for ni, ci, gi, ki, li in zip(n, c, g, k, loss_opt)
    ]
