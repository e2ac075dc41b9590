import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scalelab import (
    DEFAULT_EMBED_MAP,
    DEFAULT_OMEGA,
    EmbedMap,
    LossSpec,
    ParamSplit,
    bundled_config_path,
    count_params,
    fit_embed_map,
    load_model_configs,
    nonembed_from_total,
    omega_from_shape,
    total_from_nonembed,
)
from scalelab.fitting import _check_positive

THIRD = 1.0 / 3.0


def test_count_params_zero_vocab():
    split = count_params(d_model=100, n_layers=2)
    assert split.n_nonembed == 240_000
    assert split.n_embed == 0
    assert split.n_total == 240_000


def test_count_params_vocab_only():
    split = count_params(d_model=512, n_layers=8, vocab=32000)
    assert split.n_embed == 16_384_000
    assert split.n_nonembed == 25_165_824
    assert split.n_total == split.n_embed + split.n_nonembed


def test_count_params_learned_positional():
    split = count_params(d_model=640, n_layers=16, vocab=32000, context_learned=2048)
    assert split.n_embed == (32000 + 2048) * 640 == 21_790_720


@pytest.mark.parametrize("kwargs", [dict(d_model=0, n_layers=2), dict(d_model=64, n_layers=0)])
def test_degenerate_shape_rejected(kwargs):
    name = next(name for name, value in kwargs.items() if value == 0)
    with pytest.raises(ValueError, match=f"^need {name} >= 1$"):
        count_params(**kwargs)


@pytest.mark.parametrize("d_model", [math.nan, math.inf, 512.5, 512.0, True])
def test_shape_rejects_a_non_integer_count_by_name(d_model):
    with pytest.raises(ValueError, match="^d_model must be an integer"):
        count_params(d_model=d_model, n_layers=2)


def _fits_a_double(count):
    try:
        float(count)
    except OverflowError:
        return False
    return True


# Each integer type with the largest value drawn for it: Python ints reach counts past
# the largest double, and NumPy's reach products that would wrap in their own width.
_COUNT_TYPES = {int: 2**600, np.int32: 2**31 - 1, np.int64: 2**63 - 1}


@given(st.sampled_from(list(_COUNT_TYPES)).flatmap(lambda kind: st.tuples(
    st.just(kind), *(st.integers(least, _COUNT_TYPES[kind]) for least in (1, 1, 0, 0)))))
@example((np.int32, 1048576, 4, 0, 0))  # 12*l*d^2 wrapped to 0 in int32
@example((np.int64, 3037000500, 1, 0, 0))  # d^2 wrapped past 2**63
@example((int, 2**512, 1, 0, 0))  # 12*2**1024: past the largest double
@example((int, 2**1023, 1, 2, 0))  # both counts past it: n_embed is named first
def test_count_params_counts_exactly_whatever_the_integer_type(shape):
    """Both counts equal Python-int arithmetic on the shape, whatever integer type holds
    it; a count past the largest double is refused by name."""
    kind, d, layers, v, h = shape
    n_embed, n_nonembed = (h + v) * d, 12 * layers * d**2
    args = [kind(x) for x in (d, layers, v, h)]
    past = [name for name, count in (("n_embed", n_embed), ("n_nonembed", n_nonembed))
            if not _fits_a_double(count)]
    if past:
        with pytest.raises(ValueError, match=f"^{past[0]} is too large for a double$"):
            count_params(*args)
    else:
        split = count_params(*args)
        assert (split.n_embed, split.n_nonembed) == (n_embed, n_nonembed)


def test_param_split_rejects_negative():
    with pytest.raises(ValueError):
        ParamSplit(n_embed=-1, n_nonembed=10)


def test_embed_map_validation():
    with pytest.raises(ValueError):
        EmbedMap(omega=-1.0)
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
    return [ParamSplit(n_embed=omega * n**delta, n_nonembed=n) for n in n_values]


def test_fit_embed_map_exact_recovery():
    splits = _splits_from_map(1000.0, THIRD, np.geomspace(1e4, 1e10, 12))
    fit = fit_embed_map(splits)
    assert fit.omega == pytest.approx(1000.0, rel=1e-12)
    assert fit.delta == pytest.approx(THIRD, rel=1e-12)
    assert fit.r_squared > 1 - 1e-12
    assert fit.n_points == 12


def test_fit_embed_map_recovers_default_omega():
    splits = _splits_from_map(DEFAULT_OMEGA, THIRD, np.geomspace(1e3, 1e11, 30))
    fit = fit_embed_map(splits)
    assert fit.omega == pytest.approx(DEFAULT_OMEGA, rel=1e-12)
    assert fit.delta == pytest.approx(THIRD, rel=1e-12)


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
        assert fit_embed_map(splits).delta == pytest.approx(THIRD, rel=1e-9)
    else:
        with pytest.raises(ValueError, match="distinct"):
            fit_embed_map(splits)


@pytest.mark.parametrize("vocabs, message", [
    ((64000, 8000, 1000), "delta must be finite and > 0"),
    ((1, 100, 10000), "delta must lie in (0, 1)"),
], ids=["embedding-falls", "embedding-grows-faster"])
def test_fit_embed_map_refuses_a_delta_outside_0_1(vocabs, message):
    splits = [count_params(d, 8, v) for d, v in zip((512, 1024, 2048), vocabs)]
    with pytest.raises(ValueError) as info:
        fit_embed_map(splits)
    assert str(info.value) == message


def test_fit_embed_map_bundled_dataset():
    fit = fit_embed_map(load_model_configs(bundled_config_path()))
    assert fit.omega == pytest.approx(47491.0, rel=0.02)
    assert abs(fit.delta - 0.34) < 0.01
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


@pytest.mark.parametrize("vocab, context, name", [
    (-1.0, 2.0, "vocab"), (2.0, -1.0, "context_learned"), (np.nan, 2.0, "vocab"),
    (2.0, np.inf, "context_learned"), (np.inf, -np.inf, "vocab"),
])
def test_omega_from_shape_rejects_a_bad_part(vocab, context, name):
    """Each part is finite and >= 0, as in count_params, whatever their sum."""
    with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
        omega_from_shape(vocab, context, 1.0)


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


def _root_40_digits(n_total: float, omega: float) -> Decimal:
    """t**3, where t**3 + omega*t = n_total, to 40 digits.  Newton's method on this convex,
    increasing cubic descends onto t from min(n_total/omega, n_total**(1/3)), which bounds
    it from above."""
    with localcontext() as ctx:
        ctx.prec = 40
        n, w = Decimal(n_total), Decimal(omega)
        t = Decimal(min(n_total / omega, n_total ** THIRD))
        for _ in range(100):
            step = (t * t * t + w * t - n) / (3 * t * t + w)
            t -= step
            if abs(step) <= abs(t) * Decimal("1e-45"):
                break
        return t * t * t


def _ulps_from(root: Decimal, got: float) -> float:
    return float(abs(Decimal(got) - root) / Decimal(math.ulp(float(root))))


# Sweeps of 470,000 draws over the first property's ranges, 430,000 of them where omega*t
# and t**3 are of one size, found at most 13.9 ulp, and 40,000 over the second's at most
# 12.1; 32 leaves a margin.
INVERSE_ULPS = 32.0


@given(st.floats(-6.0, 300.0), LOG_OMEGA)
def test_inverse_is_within_a_few_ulp_of_the_40_digit_root(log_n, log_omega):
    n, omega = 10.0**log_n, 10.0**log_omega
    assert _ulps_from(_root_40_digits(n, omega), nonembed_from_total(n, EmbedMap(omega))) \
        <= INVERSE_ULPS


@given(st.floats(-6.0, 308.25), st.floats(150.0, 308.25))
def test_inverse_with_a_huge_omega_is_the_root_or_names_its_underflow(log_n, log_omega):
    # Through omega = 3*2**600 and past where (omega/3)**1.5 overflows, about 1e206.
    n, omega = 10.0**log_n, 10.0**log_omega
    root = _root_40_digits(n, omega)
    try:
        got = nonembed_from_total(n, EmbedMap(omega))
    except ArithmeticError as exc:
        assert "underflows" in str(exc)
        assert root < Decimal(math.ulp(0.0))
    else:
        assert _ulps_from(root, got) <= INVERSE_ULPS


def test_inverse_of_a_huge_omega_is_finite_where_the_root_is():
    # (omega/3)**1.5 once raised a bare OverflowError here, for a float and an array.
    emap = EmbedMap(1e206)
    got = nonembed_from_total(1e300, emap)
    assert type(got) is float
    assert _ulps_from(_root_40_digits(1e300, 1e206), got) <= INVERSE_ULPS
    assert got == pytest.approx(1e282, rel=1e-9)
    np.testing.assert_array_equal(nonembed_from_total(np.array([1e300, 1e300]), emap),
                                  [got, got])
    for n_total in (1e6, np.array([1e300, 1e6])):  # root ~ (1e6/1e206)**3, below any double
        with pytest.raises(ArithmeticError, match="underflows"):
            nonembed_from_total(n_total, emap)


@given(LOG_N, st.floats(1e-6, 5.0), LOG_OMEGA)
def test_inverse_strictly_increasing(log_start, log_width, log_omega):
    n = np.geomspace(10.0**log_start, 10.0 ** (log_start + log_width), 50)
    assert np.all(np.diff(nonembed_from_total(n, EmbedMap(10.0**log_omega))) > 0)


def test_inverse_reports_underflow():
    # root ~ (n/omega)**3 = 1e-624, below the smallest double
    with pytest.raises(ArithmeticError, match="underflows"):
        nonembed_from_total(1e-200, EmbedMap(1e8))


# The root for n_total = 2**-1074 is n_total / 2 at omega = 2**(-2150/3), about 1.8274e-216.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega", [1e-300, 1.8273e-216, 1.8275e-216, 2.5e-216])
def test_inverse_of_the_smallest_double_is_its_root_or_names_its_underflow(omega):
    """n_total / 2 rounds to 0, and so does (omega/3)**1.5 below omega of about 3e-216: once
    a division by zero for a float and NaN for an array.  The root lies in (0, n_total], so
    it rounds to n_total above n_total / 2 and to 0 below."""
    n, emap = math.ulp(0.0), EmbedMap(omega)
    rounds_up = _root_40_digits(n, omega) > Decimal(n) / 2
    for n_total in (n, np.array([n, 1e-320, n])):
        if rounds_up:
            got = nonembed_from_total(n_total, emap)
            assert type(got) is type(n_total)
            np.testing.assert_array_equal(got, [nonembed_from_total(v, emap)
                                                for v in np.ravel(n_total).tolist()])
            assert np.ravel(got)[0] == n
        else:
            with pytest.raises(ArithmeticError, match="underflows"):
                nonembed_from_total(n_total, emap)
    assert rounds_up == (omega < 1.8274e-216)


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


@pytest.mark.parametrize("name, build", [
    ("n_embed", lambda v: ParamSplit(v, 1)),
    ("n_nonembed", lambda v: ParamSplit(1, v)),
    ("omega", EmbedMap),
    ("n_nonembed", lambda v: total_from_nonembed(v, DEFAULT_EMBED_MAP)),
    ("n_nonembed", lambda v: total_from_nonembed([1, v], DEFAULT_EMBED_MAP)),
    ("n_total", lambda v: nonembed_from_total(v, DEFAULT_EMBED_MAP)),
], ids=["n_embed", "n_nonembed", "omega", "total_from_nonembed", "total_from_nonembed-array",
        "nonembed_from_total"])
def test_an_integer_beyond_the_doubles_is_named(name, build):
    """It once ended in a bare OverflowError: "int too large to convert to float"."""
    with pytest.raises(ValueError, match=f"^{name} is too large for a double$"):
        build(10**400)


def test_load_model_configs_names_the_row_of_a_count_beyond_the_doubles(tmp_path):
    path = tmp_path / "configs.csv"
    path.write_text("name,d_model,n_layers,vocab,context_learned\n"
                    f"a,512,8,32000,0\nb,{10**160},8,32000,0\n")
    with pytest.raises(ValueError, match="^config CSV row 2: n_nonembed is too large"):
        load_model_configs(path)


@pytest.mark.parametrize("bad", [-2.0, *NON_FINITE])
@pytest.mark.parametrize("name, build", [
    ("omega", EmbedMap),
    ("e_irr", lambda v: LossSpec(1.0, 1.0, 0.3, 0.3, v)),
    ("n_embed", lambda v: ParamSplit(n_embed=v, n_nonembed=10.0)),
], ids=["omega", "e_irr", "n_embed"])
def test_nonnegative_fields_check_every_array_entry(name, build, bad):
    """An array once raised NumPy's "truth value ... is ambiguous", naming no field."""
    with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
        build(np.array([1.0, bad]))


_SPEC_FIELDS = ["n_c", "d_c", "alpha", "beta", "e_irr"]


@pytest.mark.parametrize("name", ["omega", *_SPEC_FIELDS])
def test_spec_and_map_constants_must_be_scalars(name):
    """An array of valid entries once built an EmbedMap or LossSpec that failed later without
    naming the field."""
    def build(value):
        if name in _SPEC_FIELDS:
            return LossSpec(**{**dict.fromkeys(_SPEC_FIELDS, 0.5), name: value})
        return EmbedMap(value)

    for bad in (np.array([0.25, 0.5]), [0.25], np.empty(0), np.full((1, 1), 0.25)):
        with pytest.raises(ValueError, match=f"^{name} must be a scalar"):
            build(bad)
    for good in (0.25, np.float64(0.25), np.array(0.25)):
        build(good)


@pytest.mark.parametrize("value", [1.0, 5e-324, 1e308, 0.0, -0.0, -1.0, *NON_FINITE])
def test_check_positive_scalar_path_matches_array_path(value):
    """Both bounds, > 0 and >= 0 (``zero_ok``), take the same path."""
    def accepts(v, zero_ok):
        try:
            _check_positive("arg", v, zero_ok)
        except ValueError as exc:
            assert "arg" in str(exc)
            return False
        return True

    for zero_ok in (False, True):
        expected = math.isfinite(value) and (value >= 0 if zero_ok else value > 0)
        assert (accepts(value, zero_ok) == accepts(np.float64(value), zero_ok)
                == accepts(np.array([value]), zero_ok) == expected)


_ENTRIES = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                            2.2250738585072014e-308, 1.0, 1.7976931348623157e308]) | st.floats()


@given(_ENTRIES.map(np.array)
       | st.lists(_ENTRIES, max_size=6).map(lambda v: np.array(v, dtype=float))
       | st.lists(_ENTRIES, max_size=6).map(lambda v: np.array(v, dtype=float).reshape(-1, 1)),
       st.booleans())
def test_check_positive_array_path_matches_elementwise_test(v, zero_ok):
    """min > 0 (>= 0 with ``zero_ok``) and max < inf accept exactly the arrays whose every
    entry is finite and > 0 (>= 0), 0-d and empty arrays included."""
    expected = bool((np.isfinite(v) & ((v >= 0) if zero_ok else (v > 0))).all())
    try:
        _check_positive("arg", v, zero_ok)
    except ValueError as exc:
        assert "arg" in str(exc)
        assert not expected
    else:
        assert expected
