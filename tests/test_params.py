import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scalelab import (
    DEFAULT_EMBED_MAP,
    DEFAULT_OMEGA,
    EmbedMap,
    ModelShape,
    ParamSplit,
    bundled_config_path,
    count_params,
    fit_embed_map,
    load_model_configs,
    nonembed_from_total,
    omega_from_shape,
    total_from_nonembed,
)
from scalelab.params import _check_positive

THIRD = 1.0 / 3.0


def test_count_params_zero_vocab():
    split = count_params(ModelShape(d_model=100, n_layers=2))
    assert split.n_nonembed == 240_000
    assert split.n_embed == 0
    assert split.n_total == 240_000


def test_count_params_vocab_only():
    split = count_params(ModelShape(d_model=512, n_layers=8, vocab=32000))
    assert split.n_embed == 16_384_000
    assert split.n_nonembed == 25_165_824
    assert split.n_total == split.n_embed + split.n_nonembed


def test_count_params_learned_positional():
    split = count_params(ModelShape(d_model=640, n_layers=16, vocab=32000, context_learned=2048))
    assert split.n_embed == (32000 + 2048) * 640 == 21_790_720


@pytest.mark.parametrize("kwargs", [dict(d_model=0, n_layers=2), dict(d_model=64, n_layers=0)])
def test_degenerate_shape_rejected(kwargs):
    with pytest.raises(ValueError):
        ModelShape(**kwargs)


def test_param_split_rejects_negative():
    with pytest.raises(ValueError):
        ParamSplit(n_embed=-1, n_nonembed=10)


def test_embed_map_validation():
    with pytest.raises(ValueError):
        EmbedMap(omega=-1.0)
    with pytest.raises(ValueError):
        EmbedMap(omega=1.0, delta=1.0)
    EmbedMap(omega=0.0)  # identity boundary is allowed


def test_total_from_nonembed_identity_at_omega_zero():
    assert total_from_nonembed(1e6, EmbedMap(0.0)) == 1e6


def test_total_from_nonembed_fifty_fifty_split():
    n = DEFAULT_OMEGA ** 1.5
    assert total_from_nonembed(n, DEFAULT_EMBED_MAP) == pytest.approx(2 * n, rel=1e-14)


def test_total_from_nonembed_value():
    # frozen from an independent high-precision evaluation of 1e7 + omega*1e7**(1/3)
    got = total_from_nonembed(1e7, DEFAULT_EMBED_MAP)
    assert got == pytest.approx(20231625.786430419, rel=1e-12)


def test_total_from_nonembed_rejects_nonpositive():
    with pytest.raises(ValueError):
        total_from_nonembed(0.0, DEFAULT_EMBED_MAP)
    with pytest.raises(ValueError):
        total_from_nonembed(np.array([1.0, -2.0]), DEFAULT_EMBED_MAP)


def test_total_from_nonembed_strictly_increasing():
    rng = np.random.default_rng(20240811)
    exponents = rng.uniform(2.0, 12.0, size=(200, 2))
    for ex, ey in exponents:
        x, y = sorted((10.0**ex, 10.0**ey))
        if x == y:
            continue
        assert total_from_nonembed(x, DEFAULT_EMBED_MAP) < total_from_nonembed(y, DEFAULT_EMBED_MAP)


def test_total_ratio_approaches_one():
    assert total_from_nonembed(1e13, DEFAULT_EMBED_MAP) / 1e13 < 1.001


@pytest.mark.parametrize("x", [1e3, 1e6, 1e9])
def test_inverse_round_trip(x):
    total = total_from_nonembed(x, DEFAULT_EMBED_MAP)
    assert nonembed_from_total(total, DEFAULT_EMBED_MAP) == pytest.approx(x, rel=1e-8)


def test_inverse_round_trip_small_input():
    # root far below 1: the bracket must expand downward to straddle the root
    total = total_from_nonembed(1e-2, DEFAULT_EMBED_MAP)
    assert nonembed_from_total(total, DEFAULT_EMBED_MAP) == pytest.approx(1e-2, rel=1e-8)


def test_inverse_fifty_fifty_split():
    n = DEFAULT_OMEGA ** 1.5
    got = nonembed_from_total(2 * n, DEFAULT_EMBED_MAP)
    assert got == pytest.approx(n, rel=1e-9)
    assert got == pytest.approx(1.035e7, rel=1e-3)


def test_inverse_value():
    # oracle: bisection at 1e-14 tolerance, frozen
    got = nonembed_from_total(1.58e9, DEFAULT_EMBED_MAP)
    assert got == pytest.approx(1525332051.1019895, rel=1e-9)
    assert got == pytest.approx(1.525e9, rel=2e-3)


def test_inverse_rejects_nonpositive():
    with pytest.raises(ValueError):
        nonembed_from_total(-5.0, DEFAULT_EMBED_MAP)


def test_inverse_identity_at_omega_zero():
    assert nonembed_from_total(123456.0, EmbedMap(0.0)) == 123456.0


def _splits_from_map(omega, delta, n_values):
    emap = EmbedMap(omega, delta)
    return [
        ParamSplit(n_embed=total_from_nonembed(n, emap) - n, n_nonembed=n)
        for n in n_values
    ]


def test_fit_embed_map_exact_recovery():
    splits = _splits_from_map(1000.0, THIRD, np.geomspace(1e4, 1e10, 12))
    fit = fit_embed_map(splits)
    assert fit.embed_map.omega == pytest.approx(1000.0, rel=1e-12)
    assert fit.embed_map.delta == pytest.approx(THIRD, rel=1e-12)
    assert fit.r_squared > 1 - 1e-12
    assert fit.n_points == 12


def test_fit_embed_map_recovers_default_omega():
    splits = _splits_from_map(DEFAULT_OMEGA, THIRD, np.geomspace(1e3, 1e11, 30))
    fit = fit_embed_map(splits)
    assert fit.embed_map.omega == pytest.approx(DEFAULT_OMEGA, rel=1e-12)
    assert fit.embed_map.delta == pytest.approx(THIRD, rel=1e-12)


def test_fit_embed_map_preconditions():
    one = _splits_from_map(1000.0, THIRD, [1e6])
    with pytest.raises(ValueError):
        fit_embed_map(one)
    with pytest.raises(ValueError):
        fit_embed_map([ParamSplit(0.0, 1e6), ParamSplit(0.0, 1e7)])
    with pytest.raises(ValueError):
        fit_embed_map([ParamSplit(1e5, 1e6), ParamSplit(2e5, 1e6)])


def test_fit_embed_map_rejects_all_equal_n_nonembed():
    with pytest.raises(ValueError, match="distinct"):
        fit_embed_map(_splits_from_map(1000.0, THIRD, [1e6, 1e6, 1e6]))


@given(st.lists(st.sampled_from([1e4, 1e6, 1e8]), min_size=2, max_size=8))
def test_fit_embed_map_distinct_check_matches_unique(n_values):
    splits = _splits_from_map(1000.0, THIRD, n_values)
    if np.unique(n_values).size >= 2:
        assert fit_embed_map(splits).embed_map.delta == pytest.approx(THIRD, rel=1e-9)
    else:
        with pytest.raises(ValueError, match="distinct"):
            fit_embed_map(splits)


def test_fit_embed_map_bundled_dataset():
    fit = fit_embed_map(load_model_configs(bundled_config_path()))
    assert fit.embed_map.omega == pytest.approx(47491.0, rel=0.02)
    assert abs(fit.embed_map.delta - 0.34) < 0.01
    assert fit.r_squared > 0.999
    assert fit.n_points == 50


def test_omega_from_shape_unit_case():
    assert omega_from_shape(12, 0, 12.0) == pytest.approx(12.0, rel=1e-14)


def test_omega_from_shape_matches_fitted_value():
    got = omega_from_shape(32000, 0, 39.2)
    assert got == pytest.approx(47480.824516085025, rel=1e-12)
    assert got == pytest.approx(47491.0, rel=5e-3)


def test_omega_from_shape_learned_positional():
    got = omega_from_shape(32000, 2048, 39.2)
    assert got == pytest.approx(50519.597285114467, rel=1e-12)


def test_omega_from_shape_rejects():
    with pytest.raises(ValueError):
        omega_from_shape(32000, 0, 0.0)
    with pytest.raises(ValueError):
        omega_from_shape(0, 0, 40.0)


def test_load_model_configs_explicit_and_computed(tmp_path):
    path = tmp_path / "configs.csv"
    path.write_text(
        "name,d_model,n_layers,vocab,context_learned,n_nonembed\n"
        "a,512,8,32000,0,\n"
        "b,640,10,32000,0,123456789\n"
    )
    splits = load_model_configs(path)
    assert splits[0].n_nonembed == 12 * 8 * 512**2
    assert splits[1].n_nonembed == 123456789.0
    assert splits[1].n_embed == 32000 * 640


def test_load_model_configs_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("name,d_model\nx,512\n")
    with pytest.raises(ValueError, match="missing columns"):
        load_model_configs(path)


# Closed-form inverse over wide magnitudes: n_total in [1e-6, 1e15], omega in [1e-3, 1e8].
LOG_N = st.floats(-6.0, 15.0)
LOG_OMEGA = st.floats(-3.0, 8.0)
NON_FINITE = [np.nan, np.inf, -np.inf]


@given(LOG_N, LOG_OMEGA)
def test_inverse_round_trips_to_machine_precision(log_n, log_omega):
    emap = EmbedMap(10.0**log_omega)
    n = 10.0**log_n
    x = nonembed_from_total(n, emap)
    assert x > 0
    assert total_from_nonembed(x, emap) == pytest.approx(n, rel=1e-13)


@given(st.lists(LOG_N, min_size=1, max_size=16), LOG_OMEGA)
def test_inverse_array_matches_scalar_calls(log_ns, log_omega):
    emap = EmbedMap(10.0**log_omega)
    n = 10.0 ** np.array(log_ns)
    got = nonembed_from_total(n, emap)
    assert got.shape == n.shape
    np.testing.assert_array_equal(got, [nonembed_from_total(float(v), emap) for v in n])


@given(st.lists(st.floats(-6.0, 300.0), min_size=1, max_size=16), LOG_OMEGA)
@example([-3.16], -1.83)  # math.hypot in place of np.hypot changes this root's last bit
def test_inverse_scalar_path_matches_array_bit_for_bit(log_ns, log_omega):
    emap = EmbedMap(10.0**log_omega)
    n = 10.0 ** np.array(log_ns)
    want = nonembed_from_total(n, emap)
    for scalars in (n.tolist(), list(n)):  # Python floats, np.float64
        got = [nonembed_from_total(v, emap) for v in scalars]
        assert all(type(v) is float for v in got)
        np.testing.assert_array_equal(got, want)


@given(LOG_N, st.floats(1e-6, 5.0), LOG_OMEGA)
def test_inverse_strictly_increasing(log_start, log_width, log_omega):
    n = np.geomspace(10.0**log_start, 10.0 ** (log_start + log_width), 50)
    assert np.all(np.diff(nonembed_from_total(n, EmbedMap(10.0**log_omega))) > 0)


def test_inverse_requires_delta_third():
    with pytest.raises(ValueError, match="delta = 1/3"):
        nonembed_from_total(1e6, EmbedMap(100.0, 0.5))


def test_inverse_reports_underflow():
    # root ~ (n/omega)**3 = 1e-624, below the smallest double
    with pytest.raises(ArithmeticError, match="underflows"):
        nonembed_from_total(1e-200, EmbedMap(1e8))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_embed_map_rejects_non_finite_omega(bad):
    with pytest.raises(ValueError, match="omega"):
        EmbedMap(omega=bad)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("fn, name", [(total_from_nonembed, "n_nonembed"),
                                      (nonembed_from_total, "n_total")])
def test_map_rejects_non_finite_input(fn, name, bad):
    with pytest.raises(ValueError, match=name):
        fn(bad, DEFAULT_EMBED_MAP)
    with pytest.raises(ValueError, match=name):
        fn(np.array([1e6, bad]), DEFAULT_EMBED_MAP)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("name", ["n_embed", "n_nonembed"])
def test_param_split_rejects_non_finite(name, bad):
    with pytest.raises(ValueError, match=name):
        ParamSplit(**{"n_embed": 1.0, "n_nonembed": 1.0, name: bad})


@pytest.mark.parametrize("value", [1.0, 5e-324, 1e308, 0.0, -0.0, -1.0, *NON_FINITE])
def test_check_positive_scalar_path_matches_array_path(value):
    def accepts(v):
        try:
            _check_positive("arg", v)
        except ValueError as exc:
            assert "arg" in str(exc)
            return False
        return True

    expected = math.isfinite(value) and value > 0
    assert accepts(value) == accepts(np.float64(value)) == accepts(np.array([value])) == expected
