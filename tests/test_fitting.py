import numpy as np
import pytest

from scalelab import (
    fit_power_law,
    fit_power_law_with_offset,
    sum_squared_error,
)


def test_exact_power_law_recovery():
    x = np.geomspace(1.0, 1e6, 20)
    fit = fit_power_law(x, 3.0 * x**0.5)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-12)
    assert fit.exponent == pytest.approx(0.5, rel=1e-12)
    assert fit.offset is None
    assert fit.r_squared > 1 - 1e-12
    assert fit.n_points == 20


def test_two_point_line():
    fit = fit_power_law([1.0, 10.0], [1.0, 100.0])
    assert fit.exponent == pytest.approx(2.0, rel=1e-14)


def test_fit_power_law_preconditions():
    with pytest.raises(ValueError):
        fit_power_law([1.0], [2.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 1.0], [2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, -2.0], [2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [0.0, 3.0])


def test_scale_equivariance():
    rng = np.random.default_rng(17)
    x = np.geomspace(1.0, 1e4, 15)
    y = 2.0 * x**-0.7 * np.exp(rng.normal(0, 0.05, x.size))
    base = fit_power_law(x, y)
    scaled = fit_power_law(1000.0 * x, y)
    assert scaled.exponent == pytest.approx(base.exponent, rel=1e-10)
    assert scaled.prefactor == pytest.approx(
        base.prefactor * 1000.0**-base.exponent, rel=1e-10)


def test_fit_determinism():
    x = np.geomspace(1.0, 1e5, 11)
    y = 5.0 * x**-0.3 + 0.0
    a = fit_power_law(x, y)
    b = fit_power_law(x, y)
    assert (a.prefactor, a.exponent, a.r_squared) == (b.prefactor, b.exponent, b.r_squared)


def test_offset_fit_exact_recovery():
    c0, gamma, e = 1e9, 0.178, 1.817
    x = np.geomspace(1e12, 1e22, 40)
    y = (x / c0) ** -gamma + e
    fit = fit_power_law_with_offset(x, y)
    assert fit.offset == pytest.approx(e, rel=1e-6)
    assert fit.exponent == pytest.approx(-gamma, rel=1e-6)
    assert fit.prefactor == pytest.approx(c0**gamma, rel=1e-6)
    assert fit.r_squared > 1 - 1e-9


def test_offset_fixed_at_zero_matches_plain_fit():
    x = np.geomspace(1e3, 1e9, 12)
    y = 4.0 * x**-0.25
    plain = fit_power_law(x, y)
    nested = fit_power_law_with_offset(x, y, fixed_offset=0.0)
    assert nested.prefactor == plain.prefactor
    assert nested.exponent == plain.exponent
    assert nested.offset == 0.0


def test_offset_fit_never_worse_than_plain_in_y_space():
    # offset-free synthetic data: profiling must not lose to the nested model
    x = np.geomspace(1e3, 1e9, 25)
    y = 7.0 * x**-0.11
    plain = fit_power_law(x, y)
    offset = fit_power_law_with_offset(x, y)
    assert sum_squared_error(offset, x, y) <= sum_squared_error(plain, x, y) + 1e-18


def test_offset_fit_preconditions():
    x = np.geomspace(1.0, 100.0, 10)
    with pytest.raises(ValueError):
        fit_power_law_with_offset([1.0, 2.0], [3.0, 2.0])
    with pytest.raises(ValueError):  # not strictly decreasing
        fit_power_law_with_offset(x, np.linspace(1.0, 2.0, 10))
    with pytest.raises(ValueError):  # nonpositive floor
        fit_power_law_with_offset(x, np.linspace(1.0, -0.5, 10))
    with pytest.raises(ValueError):  # fixed offset above the data
        fit_power_law_with_offset(x, 2.0 * x**-0.5 + 1.0, fixed_offset=5.0)


def test_kaplan_form_offset_free_recovery():
    x = np.geomspace(1e15, 1e23, 30)
    y = (x / 1e7) ** -0.057
    fit = fit_power_law(x, y)
    assert fit.exponent == pytest.approx(-0.057, rel=1e-12)
    assert fit.offset is None


def test_predict_includes_offset():
    x = np.geomspace(1e12, 1e20, 10)
    y = (x / 1e9) ** -0.2 + 1.5
    fit = fit_power_law_with_offset(x, y)
    np.testing.assert_allclose(fit.predict(x), y, rtol=1e-6)
    assert fit.predict(float(x[0])) == pytest.approx(float(y[0]), rel=1e-6)


def test_to_report_shape():
    fit = fit_power_law([1.0, 10.0, 100.0], [2.0, 20.0, 200.0])
    report = fit.to_report("plain", "nonembed")
    assert report == {
        "form": "plain",
        "basis": "nonembed",
        "prefactor": fit.prefactor,
        "exponent": fit.exponent,
        "offset": None,
        "r_squared": fit.r_squared,
        "n_points": 3,
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fit", [fit_power_law, fit_power_law_with_offset])
def test_fits_reject_non_finite(fit, bad):
    with pytest.raises(ValueError, match="x values"):
        fit([1.0, bad, 3.0], [3.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="y values"):
        fit([1.0, 2.0, 3.0], [3.0, bad, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fixed_offset_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="fixed_offset"):
        fit_power_law_with_offset([1.0, 2.0, 3.0], [3.0, 2.0, 1.5], fixed_offset=bad)
