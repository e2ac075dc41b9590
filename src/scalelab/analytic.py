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

import math

import numpy as np

from . import _SUBMODULES
from .fitting import _check_positive, _unwrap, _vector
from .lossmodel import LossSpec, _surface
from .params import THIRD, EmbedMap

__all__ = list(_SUBMODULES["analytic"])

EXPONENT_CURVE_RANGE = (1e2, 1e13)
EXPONENT_CURVE_POINTS = 400


def optimal_nt(c_total, spec: LossSpec):
    """Unique minimizer of the (n_total, c_total) loss at a fixed budget."""
    _check_positive("c_total", c_total)
    c = _vector(c_total)
    share = spec.beta / (spec.alpha + spec.beta)
    prefactor = (spec.alpha * spec.n_c / (spec.beta * spec.d_c)) ** (
        1.0 / (spec.alpha + spec.beta)
    )
    return _unwrap(prefactor * (c / 6.0) ** share, c_total)


def _min_beta(alpha: float) -> float:
    """Bound B(alpha): with omega > 0, ``ce_of_optimal_ne`` is strictly increasing iff beta > B.

    B is the supremum over y = n**(2/3)/omega > 0 of
    f(y) = (y + 1/9)/(y + 1/3) - (1 + alpha)(y + 1/3)/(y + 1), which tends to
    -alpha/3 as y -> 0 and peaks at y* = (1 - s/3)/(s - 1), s = sqrt(3(1 + alpha)),
    when 1 < s < 3.
    """
    bound = -alpha / 3.0
    s = math.sqrt(3.0 * (1.0 + alpha))
    if 1.0 < s < 3.0:
        y = (1.0 - s / 3.0) / (s - 1.0)
        bound = max(bound, (y + 1 / 9) / (y + 1 / 3) - (1.0 + alpha) * (y + 1 / 3) / (y + 1.0))
    return bound


def _checked_optima(n_nonembed_opt, spec: LossSpec, embed_map: EmbedMap) -> np.ndarray:
    """``_vector(n_nonembed_opt)``, once it and the spec's single optimum are checked."""
    bound = _min_beta(spec.alpha)
    if embed_map.omega > 0 and spec.beta <= bound:
        raise ValueError(
            f"beta = {spec.beta!r} must exceed {bound:.6g} at alpha = "
            f"{spec.alpha!r}: below it the non-embedding loss has two minima at some budgets"
        )
    _check_positive("n_nonembed_opt", n_nonembed_opt)
    return _vector(n_nonembed_opt)


def _ce(n, cbrt, spec: LossSpec, omega: float):
    """c at checked optima ``n``, given cbrt = n**(1/3).

    Raises ``ValueError`` naming ``n_nonembed_opt`` where c leaves the range of doubles.
    """
    a, b = spec.alpha, spec.beta
    # An overflowing factor, or one times another that underflows (NaN), fails the
    # check below instead.
    with np.errstate(over="ignore", invalid="ignore"):
        c = (6.0 * n * (n + omega / 3.0 * cbrt) ** (-1.0 / b)
             * (n + omega * cbrt) ** ((1.0 + a) / b) * (b * spec.d_c / (a * spec.n_c)) ** (1.0 / b))
    if c.size and not (c.min() > 0 and c.max() < math.inf):  # NaN fails both
        raise ValueError("n_nonembed_opt takes c_nonembed out of the range of doubles")
    return c


def _param_slope(n, spec: LossSpec, omega: float):
    """g at checked optima ``n``."""
    a, b = spec.alpha, spec.beta
    x = n ** (2.0 * THIRD)
    return 1.0 / (1.0 - (1.0 / b) * (x + omega / 9.0) / (x + omega / 3.0)
                  + ((a + 1.0) / b) * (x + omega / 3.0) / (x + omega))


def _optimum(n, spec: LossSpec, omega: float):
    """(c, g, k, loss) at checked optima ``n``: each closed form once, loss_ne_ce's checks."""
    cbrt = n**THIRD
    c = _ce(n, cbrt, spec, omega)  # finite, so n_total, a factor of c, is too
    g = _param_slope(n, spec, omega)
    n_total = n + omega * cbrt  # total_from_nonembed
    with np.errstate(over="ignore"):  # an overflowing d fails the check below instead
        d = c / (6.0 * n)
    _check_positive("d", d)
    bracket = (-spec.alpha * spec.n_c * (n + omega / 3.0 * cbrt) / n_total ** (spec.alpha + 1.0)
               + spec.beta * spec.d_c * d ** (-spec.beta) * (1.0 - 1.0 / g))
    loss = _surface(n_total, d, spec)  # overwrites d
    return c, g, g / loss * bracket, loss


def ce_of_optimal_ne(n_nonembed_opt, spec: LossSpec, embed_map: EmbedMap):
    """Non-embedding compute at which ``n_nonembed_opt`` is loss-optimal.

    Strictly increasing in its argument, so each budget has one optimum; with
    omega > 0 that holds exactly when beta > B(alpha) (0.179 at alpha = 0,
    0 at alpha = 1/3), and a spec with beta <= B(alpha) raises
    ``ValueError``.  With omega = 0 it reduces to the exact inverse of
    ``optimal_nt``.  An optimum whose compute leaves the range of doubles
    raises ``ValueError`` naming ``n_nonembed_opt``.
    """
    n = _checked_optima(n_nonembed_opt, spec, embed_map)
    return _unwrap(_ce(n, n**THIRD, spec, embed_map.omega), n_nonembed_opt)


def local_param_exponent(n_nonembed_opt, spec: LossSpec, embed_map: EmbedMap):
    """Local slope g = d log(n*_nonembed) / d log(c_nonembed).

    1/g = 1 - (1/beta)(x + omega/9)/(x + omega/3)
            + ((alpha+1)/beta)(x + omega/3)/(x + omega),   x = n**(2/3).

    Raises ``ValueError`` for the specs that ``ce_of_optimal_ne`` rejects.
    """
    n = _checked_optima(n_nonembed_opt, spec, embed_map)
    return _unwrap(_param_slope(n, spec, embed_map.omega), n_nonembed_opt)


def local_loss_exponent(n_nonembed_opt, spec: LossSpec, embed_map: EmbedMap):
    """Local slope k = d log(L*_nonembed) / d log(c_nonembed) at the optimum.

    k = (g/L*) [ -alpha n_c (n + omega/3 n^(1/3)) / (n + omega n^(1/3))**(alpha+1)
                 + beta d_c (c/(6n))**(-beta) (1 - 1/g) ]
    with c and L* taken on the compute-optimal frontier.  Raises ``ValueError``
    where ``ce_of_optimal_ne`` does.
    """
    n = _checked_optima(n_nonembed_opt, spec, embed_map)
    return _unwrap(_optimum(n, spec, embed_map.omega)[2], n_nonembed_opt)


def loss_compute_exponent_total(spec: LossSpec) -> float:
    """Global exponent gamma = alpha*beta/(alpha+beta) of L* - E vs total compute."""
    return spec.alpha * spec.beta / (spec.alpha + spec.beta)


def transition_point(embed_map: EmbedMap) -> float:
    """n_nonembed = omega**(3/2), where embedding and non-embedding counts are equal."""
    try:
        return float(embed_map.omega) ** 1.5
    except OverflowError:
        raise ArithmeticError(
            "omega takes the transition point out of the range of doubles") from None


def param_exponent_small_scale_limit(spec: LossSpec) -> float:
    """g as n -> 0: beta / (alpha/3 + beta)."""
    return spec.beta / (spec.alpha / 3.0 + spec.beta)


def param_exponent_large_scale_limit(spec: LossSpec) -> float:
    """g as n -> inf: beta / (alpha + beta), the total-basis exponent."""
    return spec.beta / (spec.alpha + spec.beta)


def exponent_curve(spec: LossSpec, embed_map: EmbedMap) -> tuple[np.ndarray, ...]:
    """Columns (n_nonembed_opt, c_nonembed, g, k, loss_opt) at ``EXPONENT_CURVE_POINTS``
    log-spaced optima across ``EXPONENT_CURVE_RANGE``: each optimum, its compute, the
    local slopes there and its loss.  On another grid, ``ce_of_optimal_ne``,
    ``local_param_exponent``, ``local_loss_exponent`` and ``loss_ne_ce`` give them bit
    for bit.
    """
    n = _checked_optima(np.geomspace(*EXPONENT_CURVE_RANGE, EXPONENT_CURVE_POINTS), spec, embed_map)
    return (n, *_optimum(n, spec, embed_map.omega))
