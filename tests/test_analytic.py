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
    PowerLawFit,
    bracketing_token_schedule,
    ce_of_optimal_ne,
    exponent_curve,
    kaplan_size_grid,
    local_loss_exponent,
    local_param_exponent,
    loss_compute_exponent_total,
    loss_nd,
    loss_ne_ce,
    loss_nt_ct,
    optimal_nt,
    param_exponent_large_scale_limit,
    param_exponent_small_scale_limit,
    total_from_nonembed,
    transition_point,
)
from scalelab.analytic import EXPONENT_CURVE_POINTS, EXPONENT_CURVE_RANGE, _min_beta

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


@pytest.mark.parametrize("omega", [1e300, np.float64(1e300)], ids=["float", "float64"])
def test_transition_point_beyond_the_doubles_is_named(omega):
    """A float once ended in a bare OverflowError, a NumPy float in inf and a warning."""
    with pytest.raises(ArithmeticError, match="^omega takes the transition point out of the "
                                              "range of doubles$"):
        transition_point(EmbedMap(omega))


def test_exponent_curve_contract():
    n, c, g, k, loss_opt = exponent_curve(EPOCH, DEFAULT_EMBED_MAP)
    assert {a.shape for a in (n, c, g, k, loss_opt)} == {(400,)}
    assert n[0] == pytest.approx(1e2) and n[-1] == pytest.approx(1e13)
    np.testing.assert_allclose(c, ce_of_optimal_ne(n, EPOCH, DEFAULT_EMBED_MAP), rtol=1e-10)
    assert np.all((0 < g) & (g < 1))
    assert np.all(k < 0)
    assert np.all(loss_opt > EPOCH.e_irr)


@settings(deadline=None)
@given(st.floats(0.05, 0.8), st.floats(0.05, 1.0), st.sampled_from([0.0, 1.0, DEFAULT_OMEGA, 1e6]))
def test_exponent_curve_columns_equal_the_public_closed_forms(alpha, beta_above, omega):
    spec = LossSpec(406.4, 410.7, alpha, max(_min_beta(alpha), 0.05) + beta_above, 1.693)
    emap = EmbedMap(omega)
    n, c, g, k, loss_opt = exponent_curve(spec, emap)
    np.testing.assert_array_equal(n, np.geomspace(*EXPONENT_CURVE_RANGE, EXPONENT_CURVE_POINTS))
    np.testing.assert_array_equal(c, ce_of_optimal_ne(n, spec, emap))
    np.testing.assert_array_equal(g, local_param_exponent(n, spec, emap))
    np.testing.assert_array_equal(k, local_loss_exponent(n, spec, emap))
    np.testing.assert_array_equal(loss_opt, loss_ne_ce(n, c, spec, emap))


def _outcome(call):
    """What ``call()`` gives: its result's type and bits, or its ValueError's message."""
    try:
        value = call()
    except ValueError as exc:
        return str(exc)
    return type(value), np.asarray(value, dtype=float).tobytes()


@settings(deadline=None)
@given(st.floats(0.05, 0.8), st.floats(0.05, 1.0), st.sampled_from([0.0, 1.0, DEFAULT_OMEGA, 1e6]),
       st.floats(-3.0, 15.0), st.floats(0.0, 10.0), st.integers(0, 2**32 - 1))
@example(0.5, 1.05 - max(_min_beta(0.5), 0.05), 0.0, 0.5204, 0.0, 0)
@example(0.5, 0.05078125, 0.0, 11.0, 10.0, 0)  # some optima's compute overflows
def test_scalar_closed_forms_equal_the_array_element(alpha, beta_above, omega, log10_n, decades,
                                                     seed):
    """A float, a NumPy scalar and a 0-d array give the bits of the same value inside an
    array, or raise the same error as that value alone in an array."""
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
        column = _outcome(lambda: form(n))
        for i in (0, *rng.integers(0, n.size, 4)):
            alone = _outcome(lambda: form(n[i:i + 1]))
            if isinstance(alone, str):
                assert column == alone  # the column holds the failing value too
                want = [alone] * 3
            else:
                if not isinstance(column, str):
                    assert alone[1] == column[1][8 * i:8 * i + 8]
                want = [(t, alone[1]) for t in (float, float, np.float64)]
            assert [_outcome(lambda: form(x))
                    for x in (float(n[i]), n[i], np.asarray(n[i]))] == want


@settings(deadline=None)
@given(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.0, 2.0),
       st.sampled_from([0.0, 1.0, DEFAULT_OMEGA, 1e6]), st.floats(-3.0, 3.0), st.floats(-1.0, 1.0), st.one_of(st.none(), st.floats(0.0, 5.0)),
       st.integers(0, 2**32 - 1))
def test_scalar_surface_forms_equal_the_array_element(alpha, beta, e_irr, omega,
                                                      log10_prefactor, exponent, offset, seed):
    """The loss surface, the parameter map and a fit's prediction give a float, a NumPy
    scalar and a 0-d array the bits of the same value inside an array: the loss from 1e-3
    to 1e15 parameters and tokens, the map and the prediction from 1e-300 to 1e300."""
    spec = LossSpec(406.4, 410.7, alpha, beta, 1.693 * e_irr)
    rng = np.random.default_rng(seed)
    n, d = 10.0 ** rng.uniform(-3.0, 15.0, (2, 37))
    wide = 10.0 ** rng.uniform(-300.0, 300.0, 37)
    c = 6.0 * n * d
    fit = PowerLawFit(10.0**log10_prefactor, exponent, offset, 1.0, 3)
    forms = [(lambda n, d: loss_nd(n, d, spec), (n, d)),
             (lambda n, c: loss_nt_ct(n, c, spec), (n, c)),
             (lambda n, c: loss_ne_ce(n, c, spec, EmbedMap(omega)), (n, c)),
             (lambda n: total_from_nonembed(n, EmbedMap(omega)), (wide,)),
             (fit.predict, (wide,))]
    for form, columns in forms:
        whole = _outcome(lambda: form(*columns))
        for i in (0, *rng.integers(0, n.size, 4)):
            alone = _outcome(lambda: form(*(v[i:i + 1] for v in columns)))
            assert alone[1] == whole[1][8 * i:8 * i + 8]
            assert [_outcome(lambda: form(*map(kind, (v[i] for v in columns))))
                    for kind in (float, np.float64, np.asarray)] == [
                (float, alone[1]), (float, alone[1]), (np.float64, alone[1])]


@pytest.mark.parametrize("n", [9.4e20, 1e-100, [1e3, 9.4e20]])
@pytest.mark.parametrize("form", [ce_of_optimal_ne, local_loss_exponent])
def test_optimum_out_of_double_range_names_the_input(form, n):
    """The compute at these optima over- or underflows: no inf, 0 or warning, a named error."""
    spec = LossSpec(406.4, 410.7, 0.5, 0.10078125, 1.693)
    with pytest.raises(ValueError, match="^n_nonembed_opt takes c_nonembed out of the range"):
        form(n, spec, IDENTITY)


def test_exponent_curve_out_of_double_range_names_the_optima():
    """The compute at the grid's largest optima overflows; the error once named n_max."""
    spec = LossSpec(406.4, 410.7, 0.5, 0.01, 1.693)
    with pytest.raises(ValueError, match="^n_nonembed_opt takes c_nonembed out of the range"):
        exponent_curve(spec, IDENTITY)


@pytest.mark.parametrize("bounds, name", [((1e3, 1e25), "n_max"), ((1e-300, 1.0), "n_min")])
def test_exponent_curve_out_of_double_range_names_the_bound(bounds, name):
    """The curve over a range exponent_curve once took, through the closed forms it is
    built from: compute past the bound ``name`` leaves the doubles, the other bound's
    stays in them, and the error names n_nonembed_opt where it once named the bound."""
    spec = LossSpec(406.4, 410.7, 0.5, 0.10078125, 1.693)
    end = dict(zip(("n_min", "n_max"), bounds))
    inside = end["n_max" if name == "n_min" else "n_min"]
    assert 0 < ce_of_optimal_ne(inside, spec, IDENTITY) < np.inf
    for n in (end[name], np.geomspace(*bounds, EXPONENT_CURVE_POINTS)):
        for form in (ce_of_optimal_ne, local_loss_exponent):
            with pytest.raises(ValueError, match="^n_nonembed_opt takes c_nonembed out of the range"):
                form(n, spec, IDENTITY)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_optimal_nt_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="c_total"):
        optimal_nt(bad, EPOCH)
