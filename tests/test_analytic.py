import numpy as np
import pytest

from scalelab import (
    CHINCHILLA,
    DEFAULT_EMBED_MAP,
    EPOCH,
    EmbedMap,
    LossSpec,
    ce_of_optimal_ne,
    exponent_curve,
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
    samples = exponent_curve(EPOCH, DEFAULT_EMBED_MAP)
    assert len(samples) == 400
    n = np.array([s.n_nonembed_opt for s in samples])
    assert n[0] == pytest.approx(1e2) and n[-1] == pytest.approx(1e13)
    for s in samples[::37]:
        assert s.c_nonembed == pytest.approx(
            ce_of_optimal_ne(s.n_nonembed_opt, EPOCH, DEFAULT_EMBED_MAP), rel=1e-10)
        assert 0 < s.g < 1
        assert s.k < 0
        assert s.loss_opt > EPOCH.e_irr


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
