import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalelab import (
    CHINCHILLA,
    DEFAULT_EMBED_MAP,
    DEFAULT_OMEGA,
    EPOCH,
    SPEC_CATALOG,
    EmbedMap,
    LossSpec,
    bracketing_token_schedule,
    ce_of_optimal_ne,
    exponent_curve,
    kaplan_size_grid,
    local_loss_exponent,
    local_param_exponent,
    loss_compute_exponent_total,
    loss_ne_ce,
    loss_nt_ct,
    optimal_nt,
    param_exponent_large_scale_limit,
    param_exponent_small_scale_limit,
    total_from_nonembed,
    transition_point,
)
from scalelab.analytic import _min_beta

IDENTITY = EmbedMap(0.0)
FD_LOG_STEP = 1e-4


def test_optimal_nt_power_law_scaling():
    rng = np.random.default_rng(3)
    share = EPOCH.beta / (EPOCH.alpha + EPOCH.beta)
    for _ in range(25):
        c = 10.0 ** rng.uniform(12, 24)
        assert optimal_nt(2 * c, EPOCH) / optimal_nt(c, EPOCH) == pytest.approx(
            2.0**share, rel=1e-12)


def test_optimal_nt_catalog_exponents_round_to_reported():
    assert round(EPOCH.beta / (EPOCH.alpha + EPOCH.beta), 2) == 0.51
    assert round(CHINCHILLA.beta / (CHINCHILLA.alpha + CHINCHILLA.beta), 2) == 0.46


def test_optimal_nt_matches_grid_argmin():
    grid = np.geomspace(1e3, 1e13, 100_000)
    losses = loss_nt_ct(grid, 1e18, EPOCH)
    i = int(np.argmin(losses))
    j = int(np.argmin(np.abs(np.log(grid) - np.log(optimal_nt(1e18, EPOCH)))))
    assert abs(i - j) <= 1


def test_optimal_nt_rejects():
    with pytest.raises(ValueError):
        optimal_nt(0.0, EPOCH)


def test_ce_of_optimal_ne_inverts_optimal_nt_at_omega_zero():
    rng = np.random.default_rng(5)
    for _ in range(25):
        c = 10.0 ** rng.uniform(12, 24)
        assert ce_of_optimal_ne(optimal_nt(c, EPOCH), EPOCH, IDENTITY) == pytest.approx(
            c, rel=1e-10)


def test_ce_of_optimal_ne_strictly_increasing():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a, b = sorted(10.0 ** rng.uniform(2, 12, size=2))
        if a == b:
            continue
        assert ce_of_optimal_ne(a, EPOCH, DEFAULT_EMBED_MAP) < ce_of_optimal_ne(
            b, EPOCH, DEFAULT_EMBED_MAP)


def test_ce_of_optimal_ne_matches_grid_argmin():
    grid = np.geomspace(1e3, 1e13, 100_000)
    log_grid = np.log(grid)
    for n_star in np.geomspace(1e3, 1e9, 20):
        c = ce_of_optimal_ne(n_star, EPOCH, DEFAULT_EMBED_MAP)
        losses = loss_ne_ce(grid, c, EPOCH, DEFAULT_EMBED_MAP)
        i = int(np.argmin(losses))
        j = int(np.argmin(np.abs(log_grid - np.log(n_star))))
        assert abs(i - j) <= 1


# Brute-force optima over random exponents in [0.1, 0.6], a range holding both
# catalog specs, on a fixed log grid (step 2.3e-4 in ln) wide enough for every
# optimum drawn; the closed form must sit within one step of the grid argmin.
ALPHA_BETA = st.floats(0.1, 0.6)
WIDE_GRID = np.geomspace(1e-1, 1e21, 220_001)


def _nearest_grid_index(n):
    j = int(np.argmin(np.abs(np.log(WIDE_GRID) - np.log(n))))
    assert 0 < j < WIDE_GRID.size - 1
    return j


def _grid_steps_from_argmin(losses, n_star):
    return abs(int(np.argmin(losses)) - _nearest_grid_index(n_star))


@settings(max_examples=50, deadline=None)
@given(ALPHA_BETA, ALPHA_BETA, st.floats(12.0, 24.0), st.sampled_from(sorted(SPEC_CATALOG)))
def test_optimal_nt_matches_grid_argmin_for_random_exponents(alpha, beta, log_c, name):
    spec = dataclasses.replace(SPEC_CATALOG[name], alpha=alpha, beta=beta)
    c = 10.0**log_c
    losses = loss_nt_ct(WIDE_GRID, c, spec)
    assert _grid_steps_from_argmin(losses, optimal_nt(c, spec)) <= 1


@settings(max_examples=50, deadline=None)
@given(ALPHA_BETA, ALPHA_BETA, st.floats(1.0, 15.0),
       st.sampled_from([0.0, 1e3, DEFAULT_OMEGA, 1e6]), st.sampled_from(sorted(SPEC_CATALOG)))
def test_ce_of_optimal_ne_matches_grid_argmin_for_random_exponents(alpha, beta, log_n, omega,
                                                                   name):
    """The closed form is the grid optimum, and specs with two loss minima are rejected.

    With omega > 0 and beta at or below B(alpha), which falls from 0.122 at
    alpha = 0.1 to 0 at alpha = 1/3, some budgets have two loss minima in
    n_nonembed.
    """
    spec = dataclasses.replace(SPEC_CATALOG[name], alpha=alpha, beta=beta)
    emap = EmbedMap(omega)
    n_star = 10.0**log_n
    if omega > 0 and beta <= _min_beta(alpha):
        with pytest.raises(ValueError, match="beta"):
            ce_of_optimal_ne(n_star, spec, emap)
        return
    losses = loss_ne_ce(WIDE_GRID, ce_of_optimal_ne(n_star, spec, emap), spec, emap)
    assert _grid_steps_from_argmin(losses, n_star) <= 1


@pytest.mark.parametrize("alpha, bound", [(0.0, 0.178633), (0.1, 0.122273),
                                          (0.109375, 0.117123), (0.2, 0.068422),
                                          (0.3392, -0.00293)])
def test_min_beta_matches_brute_force(alpha, bound):
    y = np.geomspace(1e-9, 1e9, 2_000_001)
    f = (y + 1 / 9) / (y + 1 / 3) - (1 + alpha) * (y + 1 / 3) / (y + 1)
    assert _min_beta(alpha) == pytest.approx(max(f.max(), -alpha / 3), abs=1e-9)
    assert _min_beta(alpha) == pytest.approx(bound, abs=5e-6)


def test_ce_of_optimal_ne_rejects_specs_with_two_loss_minima():
    # With these exponents the closed form would fall from n = 1.3e6 to 8.4e6, so
    # at the compute that makes 1e6 stationary the global minimum is near 2.1e7.
    spec = dataclasses.replace(CHINCHILLA, alpha=0.109375, beta=0.1015625)
    for call in (ce_of_optimal_ne, local_param_exponent, local_loss_exponent):
        with pytest.raises(ValueError, match="beta = 0.1015625"):
            call(1e6, spec, DEFAULT_EMBED_MAP)
        call(1e6, spec, IDENTITY)
    with pytest.raises(ValueError, match="beta"):
        exponent_curve(spec, DEFAULT_EMBED_MAP)
    with pytest.raises(ValueError, match="beta"):
        bracketing_token_schedule(kaplan_size_grid(), spec, DEFAULT_EMBED_MAP)
    at_bound = dataclasses.replace(spec, beta=_min_beta(spec.alpha))
    with pytest.raises(ValueError, match="beta"):
        ce_of_optimal_ne(1e6, at_bound, DEFAULT_EMBED_MAP)
    above = dataclasses.replace(spec, beta=np.nextafter(_min_beta(spec.alpha), 1.0))
    assert np.all(np.diff(ce_of_optimal_ne(np.geomspace(1e2, 1e12, 1001), above,
                                           DEFAULT_EMBED_MAP)) > 0)


def _fd_param_exponent(n, spec, emap, h=FD_LOG_STEP):
    up, down = n * np.exp(h), n * np.exp(-h)
    dlog_c = np.log(ce_of_optimal_ne(up, spec, emap)) - np.log(
        ce_of_optimal_ne(down, spec, emap))
    return 2 * h / dlog_c


def _fd_loss_exponent(n, spec, emap, h=FD_LOG_STEP):
    up, down = n * np.exp(h), n * np.exp(-h)

    def log_loss(nn):
        return np.log(loss_ne_ce(nn, ce_of_optimal_ne(nn, spec, emap), spec, emap))

    def log_c(nn):
        return np.log(ce_of_optimal_ne(nn, spec, emap))

    return (log_loss(up) - log_loss(down)) / (log_c(up) - log_c(down))


@pytest.mark.parametrize("n", [1e4, 1e7, 1e10])
def test_param_exponent_matches_finite_differences(n):
    g = local_param_exponent(n, EPOCH, DEFAULT_EMBED_MAP)
    assert g == pytest.approx(_fd_param_exponent(n, EPOCH, DEFAULT_EMBED_MAP), rel=1e-6)


def test_param_exponent_limits():
    assert local_param_exponent(1.0, EPOCH, DEFAULT_EMBED_MAP) == pytest.approx(
        param_exponent_small_scale_limit(EPOCH), abs=1e-3)
    assert local_param_exponent(1e15, EPOCH, DEFAULT_EMBED_MAP) == pytest.approx(
        param_exponent_large_scale_limit(EPOCH), abs=1e-3)
    assert param_exponent_small_scale_limit(EPOCH) == pytest.approx(0.759, abs=5e-4)
    assert param_exponent_small_scale_limit(CHINCHILLA) == pytest.approx(0.716, abs=5e-4)
    assert param_exponent_large_scale_limit(EPOCH) == pytest.approx(0.513, abs=5e-4)


def test_param_exponent_bounded_and_humped():
    n = np.geomspace(1e0, 1e16, 300)
    g = local_param_exponent(n, EPOCH, DEFAULT_EMBED_MAP)
    assert np.all(g > 0) and np.all(g < 1)
    hump = local_param_exponent(np.geomspace(1e5, 1e9, 200), EPOCH, DEFAULT_EMBED_MAP)
    both = max(param_exponent_small_scale_limit(EPOCH),
               param_exponent_large_scale_limit(EPOCH))
    assert hump.max() > both


@pytest.mark.parametrize("n", [1e4, 1e6, 1e8])
def test_loss_exponent_matches_finite_differences(n):
    k = local_loss_exponent(n, EPOCH, DEFAULT_EMBED_MAP)
    assert k == pytest.approx(_fd_loss_exponent(n, EPOCH, DEFAULT_EMBED_MAP), abs=1e-5)


def test_loss_exponent_vanishes_at_scale():
    assert abs(local_loss_exponent(1e16, EPOCH, DEFAULT_EMBED_MAP)) < 1e-2


def test_loss_exponent_negative_at_finite_sizes():
    n = np.geomspace(1e2, 1e12, 50)
    assert np.all(local_loss_exponent(n, EPOCH, DEFAULT_EMBED_MAP) < 0)


def test_loss_exponent_offset_relation_at_omega_zero():
    # with the identity map, L* - E is an exact power law in compute, so
    # k = -gamma * (L* - E) / L* pointwise; at small sizes E is negligible
    gamma = loss_compute_exponent_total(EPOCH)
    for n in np.geomspace(1e1, 1e10, 10):
        c = ce_of_optimal_ne(n, EPOCH, IDENTITY)
        loss = loss_ne_ce(n, c, EPOCH, IDENTITY)
        expected = -gamma * (loss - EPOCH.e_irr) / loss
        assert local_loss_exponent(n, EPOCH, IDENTITY) == pytest.approx(expected, rel=1e-10)
    small = local_loss_exponent(1e1, EPOCH, IDENTITY)
    assert small == pytest.approx(-gamma, rel=1e-2)


def test_loss_compute_exponent_total():
    assert loss_compute_exponent_total(EPOCH) == pytest.approx(0.178, abs=5e-4)
    assert loss_compute_exponent_total(CHINCHILLA) == pytest.approx(0.155, abs=5e-4)
    symmetric = LossSpec(1.0, 1.0, 0.3, 0.3, 0.0)
    assert loss_compute_exponent_total(symmetric) == pytest.approx(0.15, rel=1e-14)


def test_transition_point():
    tp = transition_point(DEFAULT_EMBED_MAP)
    assert tp == pytest.approx(10349442.87349667, rel=1e-12)
    assert transition_point(EmbedMap(1.0)) == 1.0
    assert total_from_nonembed(tp, DEFAULT_EMBED_MAP) == pytest.approx(2 * tp, rel=1e-14)


def test_exponent_curve_contract():
    n, c, g, k, loss_opt = exponent_curve(EPOCH, DEFAULT_EMBED_MAP)
    assert {a.shape for a in (n, c, g, k, loss_opt)} == {(400,)}
    assert n[0] == pytest.approx(1e2) and n[-1] == pytest.approx(1e13)
    np.testing.assert_allclose(c, ce_of_optimal_ne(n, EPOCH, DEFAULT_EMBED_MAP), rtol=1e-10)
    assert np.all((0 < g) & (g < 1))
    assert np.all(k < 0)
    assert np.all(loss_opt > EPOCH.e_irr)


@settings(deadline=None)
@given(st.floats(0.05, 0.8), st.floats(0.05, 1.0), st.sampled_from([0.0, 1.0, DEFAULT_OMEGA, 1e6]),
       st.floats(0.0, 8.0), st.floats(0.5, 5.0))
def test_exponent_curve_columns_equal_the_public_closed_forms(alpha, beta_above, omega,
                                                              log10_n_min, decades):
    spec = LossSpec(406.4, 410.7, alpha, max(_min_beta(alpha), 0.05) + beta_above, 1.693)
    emap = EmbedMap(omega)
    n, c, g, k, loss_opt = exponent_curve(spec, emap, 10.0**log10_n_min,
                                          10.0 ** (log10_n_min + decades), 50)
    np.testing.assert_array_equal(c, ce_of_optimal_ne(n, spec, emap))
    np.testing.assert_array_equal(g, local_param_exponent(n, spec, emap))
    np.testing.assert_array_equal(k, local_loss_exponent(n, spec, emap))
    np.testing.assert_array_equal(loss_opt, loss_ne_ce(n, c, spec, emap))


@settings(deadline=None)
@given(st.floats(0.05, 0.8), st.floats(0.05, 1.0), st.sampled_from([0.0, 1.0, DEFAULT_OMEGA, 1e6]),
       st.floats(-3.0, 15.0), st.floats(0.0, 10.0), st.integers(0, 2**32 - 1))
@example(0.5, 1.05 - max(_min_beta(0.5), 0.05), 0.0, 0.5204, 0.0, 0)
def test_scalar_closed_forms_equal_the_array_element(alpha, beta_above, omega, log10_n, decades,
                                                     seed):
    """A float, a NumPy scalar and a 0-d array give the bits of the same value inside an array."""
    spec = LossSpec(406.4, 410.7, alpha, max(_min_beta(alpha), 0.05) + beta_above, 1.693)
    emap = EmbedMap(omega)
    rng = np.random.default_rng(seed)
    n = 10.0 ** (log10_n + decades * rng.random(37))
    n[0] = 3.3144247494664265
    forms = [lambda x: ce_of_optimal_ne(x, spec, emap),
             lambda x: local_param_exponent(x, spec, emap),
             lambda x: local_loss_exponent(x, spec, emap),
             lambda x: optimal_nt(x, spec)]
    for form in forms:
        column = form(n)
        for i in (0, *rng.integers(0, n.size, 4)):
            got = [form(float(n[i])), form(n[i]), form(np.asarray(n[i]))]
            assert [type(v) for v in got] == [float, float, np.float64]
            assert {np.float64(v).tobytes() for v in got} == {column[i].tobytes()}


def test_exponent_curve_rejects_bad_range():
    with pytest.raises(ValueError):
        exponent_curve(EPOCH, DEFAULT_EMBED_MAP, n_min=10.0, n_max=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["n_min", "n_max"])
def test_exponent_curve_rejects_non_finite_range(name, bad):
    with pytest.raises(ValueError, match=name):
        exponent_curve(EPOCH, DEFAULT_EMBED_MAP, **{name: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_optimal_nt_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="c_total"):
        optimal_nt(bad, EPOCH)
