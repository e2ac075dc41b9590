import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalelab import (
    CHINCHILLA,
    DEFAULT_EMBED_MAP,
    EPOCH,
    EmbedMap,
    LossSpec,
    load_loss_spec,
    loss_nd,
    loss_ne_ce,
    loss_nt_ct,
    resolve_spec,
    total_from_nonembed,
)


def test_catalog_constants_bit_exact():
    assert (CHINCHILLA.n_c, CHINCHILLA.d_c, CHINCHILLA.alpha, CHINCHILLA.beta,
            CHINCHILLA.e_irr) == (406.4, 410.7, 0.3392, 0.2849, 1.693)
    assert (EPOCH.n_c, EPOCH.d_c, EPOCH.alpha, EPOCH.beta, EPOCH.e_irr) == (
        482.0, 2085.43, 0.3478, 0.3658, 1.817)


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec(0.0, 1.0, 0.3, 0.3, 1.0)
    with pytest.raises(ValueError):
        LossSpec(1.0, 1.0, 0.3, 0.3, -0.1)


def test_loss_nd_asymptote():
    assert loss_nd(1e30, 1e30, EPOCH) - EPOCH.e_irr < 1e-3


def test_loss_nd_value():
    # frozen from an independent high-precision evaluation of the three terms
    assert loss_nd(1e9, 1e9, EPOCH) == pytest.approx(3.2382793043652123, rel=1e-12)


def test_loss_nd_monotone_and_above_floor():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = 10.0 ** rng.uniform(2, 12)
        d = 10.0 ** rng.uniform(2, 12)
        base = loss_nd(n, d, EPOCH)
        assert base > EPOCH.e_irr
        assert loss_nd(2 * n, d, EPOCH) < base
        assert loss_nd(n, 2 * d, EPOCH) < base


def test_loss_nd_rejects_nonpositive():
    with pytest.raises(ValueError):
        loss_nd(0.0, 1e9, EPOCH)
    with pytest.raises(ValueError):
        loss_nd(1e9, -1.0, EPOCH)


def test_loss_nt_ct_definitional_consistency():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = 10.0 ** rng.uniform(3, 11)
        d = 10.0 ** rng.uniform(3, 11)
        assert loss_nt_ct(n, 6.0 * n * d, EPOCH) == pytest.approx(
            loss_nd(n, d, EPOCH), rel=1e-14)


def test_loss_nt_ct_blows_up_at_fixed_budget():
    c = 1e19
    losses = [loss_nt_ct(n, c, EPOCH) for n in np.geomspace(1e10, 1e14, 5)]
    assert all(np.diff(losses) > 0)
    assert losses[-1] > 10 * EPOCH.e_irr


def test_loss_ne_ce_reduces_to_total_at_omega_zero():
    identity = EmbedMap(0.0)
    n, c = 1e8, 1e18
    assert loss_ne_ce(n, c, EPOCH, identity) == loss_nt_ct(n, c, EPOCH)


def test_loss_ne_ce_routes_through_map():
    # N_ne=1e7, D=2e8: equals the (n_total, d) form through the map
    d = 2e8
    c_ne = 6.0 * 1e7 * d
    via_map = loss_nd(total_from_nonembed(1e7, DEFAULT_EMBED_MAP), d, EPOCH)
    assert loss_ne_ce(1e7, c_ne, EPOCH, DEFAULT_EMBED_MAP) == pytest.approx(via_map, rel=1e-12)
    assert via_map == pytest.approx(5.1210366976228461, rel=1e-12)


def test_loss_ne_ce_diverges_at_allocation_extremes():
    c = 1e18
    mid = loss_ne_ce(1e8, c, EPOCH, DEFAULT_EMBED_MAP)
    # left edge diverges like n**(-alpha/3) through the embedding term
    small = [loss_ne_ce(n, c, EPOCH, DEFAULT_EMBED_MAP) for n in (1e-12, 1e-6, 1e0)]
    assert small[0] > small[1] > small[2] > mid
    assert small[0] > 10 * mid
    near_token_floor = c / 6.0 * (1 - 1e-9)
    assert loss_ne_ce(near_token_floor, c, EPOCH, DEFAULT_EMBED_MAP) > 100 * mid


def test_coordinate_systems_agree():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n_ne = 10.0 ** rng.uniform(3, 11)
        d = 10.0 ** rng.uniform(3, 11)
        n_t = total_from_nonembed(n_ne, DEFAULT_EMBED_MAP)
        reference = loss_nd(n_t, d, EPOCH)
        assert loss_ne_ce(n_ne, 6.0 * n_ne * d, EPOCH,
                          DEFAULT_EMBED_MAP) == pytest.approx(reference, rel=1e-12)
        assert loss_nt_ct(n_t, 6.0 * n_t * d, EPOCH) == pytest.approx(
            reference, rel=1e-12)


def test_load_loss_spec_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"n_c": 1.5, "d_c": 2.5, "alpha": 0.3, "beta": 0.4, "e_irr": 0.9}))
    spec = load_loss_spec(path)
    assert spec == LossSpec(1.5, 2.5, 0.3, 0.4, 0.9)
    with pytest.raises(ValueError, match="missing key"):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        load_loss_spec(bad)


def test_spec_file_integers_load_as_their_doubles(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"n_c": 406, "d_c": %d, "alpha": 0.3, "beta": 0.4, "e_irr": 2}' % 10**308)
    assert load_loss_spec(path) == LossSpec(406.0, 1e308, 0.3, 0.4, 2.0)


def test_resolve_spec_catalog_and_path(tmp_path):
    assert resolve_spec("epoch") is EPOCH
    assert resolve_spec("CHINCHILLA") is CHINCHILLA
    path = tmp_path / "s.json"
    path.write_text(json.dumps(
        {"n_c": 400.0, "d_c": 400.0, "alpha": 0.3, "beta": 0.3, "e_irr": 0.0}))
    assert resolve_spec(str(path)).alpha == 0.3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["n_c", "d_c", "alpha", "beta", "e_irr"])
def test_loss_spec_rejects_non_finite(field, bad):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(EPOCH, **{field: bad})


@pytest.mark.parametrize("field", ["n_c", "d_c", "alpha", "beta", "e_irr"])
def test_loss_spec_names_an_integer_beyond_the_doubles(field):
    with pytest.raises(ValueError, match=f"^{field} is too large for a double$"):
        dataclasses.replace(EPOCH, **{field: 10**400})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_loss_nd_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="n_total"):
        loss_nd(bad, 1e9, EPOCH)
    with pytest.raises(ValueError, match="^d must"):
        loss_nd(1e6, np.array([1e9, bad]), EPOCH)


@pytest.mark.parametrize("loss", [
    lambda n, c: loss_nt_ct(n, c, EPOCH),
    lambda n, c: loss_ne_ce(n, c, EPOCH, DEFAULT_EMBED_MAP),
], ids=["nt_ct", "ne_ce"])
def test_loss_rejects_derived_tokens_out_of_range(loss):
    # Both inputs are finite, but d = c/(6n) overflows to inf, or 6n does and d is 0.
    for n, c in [(1e-300, 1e300), (1e308, 1e300)]:
        with pytest.raises(ValueError, match="^d must"):
            loss(n, c)


def test_spec_file_rejects_nan(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"n_c": NaN, "d_c": 410.7, "alpha": 0.3, "beta": 0.3, "e_irr": 1.7}')
    with pytest.raises(ValueError, match="n_c"):
        load_loss_spec(path)


def _old_loss_nd(n_total, d, spec):
    """The single expression the loss functions evaluated before they worked in place."""
    n, toks = np.asarray(n_total, dtype=float), np.asarray(d, dtype=float)
    return spec.n_c / n**spec.alpha + spec.d_c / toks**spec.beta + spec.e_irr


@st.composite
def loss_arguments(draw):
    """A spec, a map and two positive arguments as Python floats, 0-d arrays, or arrays
    broadcasting either one to the other's shape."""
    exponent = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 3.0)
    spec = LossSpec(draw(st.floats(1e-3, 1e4)), draw(st.floats(1e-3, 1e4)), draw(exponent),
                    draw(exponent), draw(st.floats(0.0, 10.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["float", "0-d", "first wider", "second wider", "crossed"]))
    shapes = {"float": (None, None), "0-d": ((), ()), "first wider": ((4, 3), (3,)),
              "second wider": ((), (5, 2)), "crossed": ((4, 1), (3,))}[kind]
    args = []
    for shape in shapes:
        value = 10.0 ** rng.uniform(-3.0, 30.0, shape)
        args.append(float(value) if shape is None else value)
    return spec, EmbedMap(draw(st.sampled_from([0.0, 47491.0, 1e8]))), *args


@settings(max_examples=300, deadline=None)
@given(loss_arguments())
def test_loss_functions_match_the_single_expression(case):
    spec, emap, a, b = case
    scalar = isinstance(a, float) and isinstance(b, float)
    n_total = total_from_nonembed(a, emap)
    want = {
        "nd": _old_loss_nd(a, b, spec),
        "nt_ct": _old_loss_nd(a, np.asarray(b) / (6.0 * np.asarray(a)), spec),
        "ne_ce": _old_loss_nd(n_total, np.asarray(b) / (6.0 * np.asarray(a)), spec),
    }
    got = {"nd": loss_nd(a, b, spec), "nt_ct": loss_nt_ct(a, b, spec),
           "ne_ce": loss_ne_ce(a, b, spec, emap)}
    for name, value in got.items():
        assert np.shape(value) == np.broadcast_shapes(np.shape(a), np.shape(b))
        if scalar:
            assert type(value) is float
        assert np.array_equal(value, want[name]), name
