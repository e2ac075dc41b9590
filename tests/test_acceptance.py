"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE n [PASS|FAIL]`` line (visible under
``pytest -s`` or on failure) before asserting, so a full run doubles as a
human-readable report.
"""

import dataclasses

import numpy as np
import pytest

from scalelab import (
    CHINCHILLA,
    DEFAULT_EMBED_MAP,
    EPOCH,
    bundled_config_path,
    ce_of_optimal_ne,
    fit_embed_map,
    fit_loss_scaling,
    fit_param_scaling,
    fit_power_law,
    load_model_configs,
    local_loss_exponent,
    local_param_exponent,
    loss_compute_exponent_total,
    loss_ne_ce,
    loss_nt_ct,
    omega_from_shape,
    optimal_nt,
    param_exponent_large_scale_limit,
    param_exponent_small_scale_limit,
    sum_squared_error,
    total_from_nonembed,
    transition_point,
)

FD_LOG_STEP = 1e-4


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:>2} [{'PASS' if ok else 'FAIL'}] {detail}")


def test_criterion_1_param_exponents_nonembed(epoch_frontier_nonembed,
                                              chinchilla_frontier_nonembed):
    epoch = fit_param_scaling(epoch_frontier_nonembed).exponent
    chin = fit_param_scaling(chinchilla_frontier_nonembed).exponent
    ok = abs(epoch - 0.78) <= 0.02 and abs(chin - 0.74) <= 0.02
    _report(1, ok, f"nonembed param exponents: epoch {epoch:.4f} (0.78+-0.02), "
                   f"chinchilla {chin:.4f} (0.74+-0.02)")
    assert abs(epoch - 0.78) <= 0.02
    assert abs(chin - 0.74) <= 0.02


def test_criterion_2_param_exponents_total_large_grid(epoch_large_frontier_total,
                                                      chinchilla_large_frontier_total):
    epoch = fit_param_scaling(epoch_large_frontier_total).exponent
    chin = fit_param_scaling(chinchilla_large_frontier_total).exponent
    ok = abs(epoch - 0.51) <= 0.01 and abs(chin - 0.46) <= 0.01
    _report(2, ok, f"total-basis exponents on 1e8-1e12 grid: epoch {epoch:.4f} "
                   f"(0.51+-0.01), chinchilla {chin:.4f} (0.46+-0.01)")
    assert abs(epoch - 0.51) <= 0.01
    assert abs(chin - 0.46) <= 0.01


def test_criterion_3_compute_loss_exponents_kaplan_form(epoch_frontier_nonembed,
                                                        chinchilla_frontier_nonembed):
    epoch = fit_loss_scaling(epoch_frontier_nonembed, form="kaplan").exponent
    chin = fit_loss_scaling(chinchilla_frontier_nonembed, form="kaplan").exponent
    ok = abs(epoch + 0.069) <= 0.005 and abs(chin + 0.066) <= 0.005
    _report(3, ok, f"offset-free loss exponents: epoch {epoch:.4f} (-0.069+-0.005), "
                   f"chinchilla {chin:.4f} (-0.066+-0.005)")
    assert abs(epoch - (-0.069)) <= 0.005
    assert abs(chin - (-0.066)) <= 0.005


def test_criterion_4_offset_form_recovery(epoch_frontier_total,
                                          chinchilla_frontier_total):
    fit = fit_loss_scaling(epoch_frontier_total, form="chinchilla")
    gamma, offset = -fit.exponent, fit.offset
    gamma_chin = -fit_loss_scaling(chinchilla_frontier_total, form="chinchilla").exponent
    closed_epoch = loss_compute_exponent_total(EPOCH)
    closed_chin = loss_compute_exponent_total(CHINCHILLA)
    ok = (abs(gamma - 0.178) <= 0.005 and abs(offset - 1.817) <= 0.01
          and round(closed_epoch, 3) == 0.178 and round(closed_chin, 3) == 0.155
          and abs(gamma_chin - 0.155) <= 0.005)
    _report(4, ok, f"offset-form fit (total basis): gamma {gamma:.4f} (0.178+-0.005), "
                   f"E {offset:.4f} (1.817+-0.01); closed forms {closed_epoch:.4f}/"
                   f"{closed_chin:.4f} -> 0.178/0.155")
    assert abs(gamma - 0.178) <= 0.005
    assert abs(offset - 1.817) <= 0.01
    assert abs(gamma_chin - 0.155) <= 0.005
    assert round(closed_epoch, 3) == 0.178
    assert round(closed_chin, 3) == 0.155


def test_criterion_5_analytic_vs_numeric_derivatives():
    points = np.geomspace(1e3, 1e12, 12)
    worst_g = worst_k = 0.0
    for spec in (EPOCH, CHINCHILLA):
        for n in points:
            up, down = n * np.exp(FD_LOG_STEP), n * np.exp(-FD_LOG_STEP)
            log_c_up = np.log(ce_of_optimal_ne(up, spec, DEFAULT_EMBED_MAP))
            log_c_down = np.log(ce_of_optimal_ne(down, spec, DEFAULT_EMBED_MAP))
            g_fd = 2 * FD_LOG_STEP / (log_c_up - log_c_down)
            g = local_param_exponent(n, spec, DEFAULT_EMBED_MAP)
            worst_g = max(worst_g, abs(g_fd - g) / abs(g))

            loss_up = np.log(loss_ne_ce(up, ce_of_optimal_ne(up, spec, DEFAULT_EMBED_MAP),
                                        spec, DEFAULT_EMBED_MAP))
            loss_down = np.log(loss_ne_ce(down, ce_of_optimal_ne(down, spec, DEFAULT_EMBED_MAP),
                                          spec, DEFAULT_EMBED_MAP))
            k_fd = (loss_up - loss_down) / (log_c_up - log_c_down)
            k = local_loss_exponent(n, spec, DEFAULT_EMBED_MAP)
            worst_k = max(worst_k, abs(k_fd - k))
    ok = worst_g <= 1e-5 and worst_k <= 1e-5
    _report(5, ok, f"derivative agreement at 12 interior points, both specs: "
                   f"max rel err g {worst_g:.2e} (<=1e-5), max abs err k {worst_k:.2e} (<=1e-5)")
    assert worst_g <= 1e-5
    assert worst_k <= 1e-5


def test_criterion_6_limits_and_transition():
    checks = []
    for spec, small_expected in ((EPOCH, 0.759), (CHINCHILLA, 0.716)):
        small = local_param_exponent(1e0, spec, DEFAULT_EMBED_MAP)
        large = local_param_exponent(1e15, spec, DEFAULT_EMBED_MAP)
        checks.append(abs(small - param_exponent_small_scale_limit(spec)) < 0.01)
        checks.append(abs(small - small_expected) < 0.01)
        checks.append(abs(large - param_exponent_large_scale_limit(spec)) < 0.01)
    tp = transition_point(DEFAULT_EMBED_MAP)
    fifty_fifty = total_from_nonembed(tp, DEFAULT_EMBED_MAP) == pytest.approx(
        2 * tp, rel=1e-14)
    checks.append(bool(fifty_fifty))
    checks.append(abs(tp - 1.035e7) / 1.035e7 < 1e-3)
    ok = all(checks)
    _report(6, ok, f"limit suite: g(1e0)/g(1e15) within 0.01 of closed limits for both "
                   f"specs; transition {tp:.4e} gives an exact 50/50 split")
    assert ok


def test_criterion_7_brute_force_oracles():
    grid = np.geomspace(1e3, 1e13, 100_000)
    log_grid = np.log(grid)
    worst = 0
    for c in np.geomspace(1e15, 1e23, 20):
        i = int(np.argmin(loss_nt_ct(grid, c, EPOCH)))
        j = int(np.argmin(np.abs(log_grid - np.log(optimal_nt(c, EPOCH)))))
        worst = max(worst, abs(i - j))
    for n_star in np.geomspace(1e3, 1e9, 20):
        c = ce_of_optimal_ne(n_star, EPOCH, DEFAULT_EMBED_MAP)
        i = int(np.argmin(loss_ne_ce(grid, c, EPOCH, DEFAULT_EMBED_MAP)))
        j = int(np.argmin(np.abs(log_grid - np.log(n_star))))
        worst = max(worst, abs(i - j))
    ok = worst <= 1
    _report(7, ok, f"grid argmin vs closed forms over 20 budgets each: "
                   f"worst offset {worst} steps of a 1e5-point grid (<=1)")
    assert worst <= 1


def test_criterion_8_embedding_map_fit():
    fit = fit_embed_map(load_model_configs(bundled_config_path()))
    omega, delta = fit.omega, fit.delta
    closed = omega_from_shape(32000, 0, 39.2)
    ok = (abs(omega - 47491.0) / 47491.0 <= 0.02 and abs(delta - 0.34) <= 0.01
          and abs(closed - omega) / omega <= 0.005)
    _report(8, ok, f"bundled-config fit: omega {omega:.1f} (47491 +-2%), delta "
                   f"{delta:.4f} (0.34 +-0.01), closed-form omega {closed:.1f} within 0.5%")
    assert abs(omega - 47491.0) / 47491.0 <= 0.02
    assert abs(delta - 0.34) <= 0.01
    assert abs(closed - omega) / omega <= 0.005


def test_criterion_9_fit_quality_asymmetry(epoch_frontier_nonembed, epoch_frontier_total):
    def residuals(frontier):
        kaplan = fit_loss_scaling(frontier, form="kaplan")
        c, loss = frontier.c, frontier.loss_min
        chin = dataclasses.replace(fit_power_law(c, loss - EPOCH.e_irr), offset=EPOCH.e_irr)
        return sum_squared_error(kaplan, c, loss), sum_squared_error(chin, c, loss)

    kaplan_ne, chin_ne = residuals(epoch_frontier_nonembed)
    kaplan_t, chin_t = residuals(epoch_frontier_total)
    ok = kaplan_ne < chin_ne and kaplan_t > chin_t
    _report(9, ok, f"residual asymmetry: nonembed {kaplan_ne:.3e} < {chin_ne:.3e} "
                   f"(offset-free wins); total {kaplan_t:.3e} > {chin_t:.3e} (offset wins)")
    assert kaplan_ne < chin_ne
    assert kaplan_t > chin_t


def test_criterion_10_basis_switch_covers_trained_model_gap(
        epoch_frontier_nonembed, chinchilla_frontier_nonembed,
        epoch_large_frontier_total, chinchilla_large_frontier_total):
    # Trained-model coefficients need actual LM training and are out of scope;
    # the synthetic pipeline demonstrates the same basis-switch effect instead.
    gaps = {}
    for name, ne, tot in (
        ("epoch", epoch_frontier_nonembed, epoch_large_frontier_total),
        ("chinchilla", chinchilla_frontier_nonembed, chinchilla_large_frontier_total),
    ):
        gaps[name] = (fit_param_scaling(ne).exponent - fit_param_scaling(tot).exponent)
    ok = all(gap > 0.2 for gap in gaps.values())
    _report(10, ok, "basis switch moves the exponent by "
            + ", ".join(f"{k}: +{v:.3f}" for k, v in gaps.items())
            + " (trained-model coefficients not reproducible at desk scale)")
    assert all(gap > 0.2 for gap in gaps.values())
