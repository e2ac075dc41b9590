"""Power-law regression: plain log-log, offset-free, and with fitted offset.

The offset form y = prefactor * x**exponent + offset is fitted by profiling:
for a candidate offset the inner problem is exact log-log least squares on
(x, y - offset), so the outer problem reduces to a one-dimensional
golden-section search minimizing the y-space residual.  The least-squares
design depends only on x, so it is built once per fit.  One profile step costs
one LAPACK solve against it plus passes into two buffers held for the fit: the
log of y - offset in one, the squared residual in the other.  The final fit
takes the coefficients the search solved for the offset it chose.  The solve
calls NumPy's least-squares gufunc, the one ``np.linalg.lstsq`` calls, with
the same driver, inputs, ``rcond`` and error state, so its bits are that
function's; it skips the wrapper's input coercion and output copies, and enters
the error state through one decorated function, not a ``with`` per call, since
on a frontier's hundred points each of those costs a sizeable share of the
solve itself.

It also holds the package's argument checks, which name the bad argument, and its
scalar shaping, since every other module imports it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from . import _SUBMODULES

__all__ = list(_SUBMODULES["fitting"])

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def _check_positive(name, value, zero_ok=False, scalar=False):
    """The smallest and largest entry of ``value`` ((1.0, 1.0) for no entry), once it is
    no boolean or string, every entry is finite and > 0 (>= 0 if ``zero_ok``, of any sign if
    ``zero_ok`` is None) and, if ``scalar``, ``value`` is one number; else a ValueError
    naming ``name``."""
    if isinstance(value, float):  # also np.float64; skips building a 0-d array
        lo = hi = value
    else:  # NaN fails both comparisons; no full-size temporaries
        v = _float_array(name, value)
        lo, hi = (v.min(), v.max()) if v.size else (1.0, 1.0)  # no entry to fail
    if not ((lo > -math.inf if zero_ok is None else lo >= 0 if zero_ok else lo > 0)
            and hi < math.inf):
        sign = "" if zero_ok is None else f" and {'>=' if zero_ok else '>'} 0"
        raise ValueError(f"{name} must be finite{sign}")
    if scalar and np.ndim(value):
        raise ValueError(f"{name} must be a scalar, got an array of shape {np.shape(value)}")
    return lo, hi


def _float_array(name, value) -> np.ndarray:
    """``value`` as a float array, once it holds no booleans, strings or integers beyond
    the range of doubles; else a ValueError naming ``name``."""
    v = np.asarray(value)
    if v.dtype.kind in "bSU":  # True would pass as 1.0, "5" as 5.0; [True, 2.0] is floats
        what = "a boolean" if v.dtype.kind == "b" else "a string"
        raise ValueError(f"{name} must be a number, got {what}")
    try:
        return v.astype(float, copy=False)
    except OverflowError:  # an int past the largest double, held in an object array
        raise ValueError(f"{name} is too large for a double") from None


def _check_count(name, value, least):
    """``value`` as an int, once it is an integer (an int or a NumPy integer, not a bool)
    >= ``least``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise ValueError(f"need {name} >= {least}")
    return count


def _check_integers(name, value):
    """``value`` as an int array, once every entry is an integer, not a boolean or a
    string, that fits one; else a ValueError naming ``name``."""
    v = np.asarray(value)
    if v.dtype.kind not in "iu":  # NaN and inf fail the bound
        f = _float_array(name, v)
        if not ((np.trunc(f) == f) & (abs(f) < 2.0**63)).all():
            raise ValueError(f"{name} must hold finite integers")
    return v.astype(int, copy=False)


def _vector(x) -> np.ndarray:
    """``x`` as a float array of at least one dimension, so that a scalar gets the
    array loops' bits: NumPy's scalar math on a 0-d array can differ by an ulp."""
    v = np.asarray(x, dtype=float)
    return v.reshape(1) if v.ndim == 0 else v


def _unwrap(out: np.ndarray, *inputs):
    """``out``, computed on the ``_vector`` of each input, as is if an input has a dimension,
    else its one entry: a float when every input is a number, not a 0-d array."""
    if any(map(np.ndim, inputs)):
        return out
    return float(out[0]) if all(map(np.isscalar, inputs)) else out[0]


@dataclass(frozen=True)
class PowerLawFit:
    """y = prefactor * x**exponent (+ offset); r_squared from log-space residuals."""

    prefactor: float
    exponent: float
    offset: float | None
    r_squared: float
    n_points: int

    def predict(self, x):
        _check_positive("x", x)
        with np.errstate(over="ignore", invalid="ignore"):  # inf, or 0 * inf: refused below
            y = self.prefactor * _vector(x) ** self.exponent + (self.offset or 0.0)
        if not np.isfinite(y).all():
            raise ArithmeticError("the prediction at x overflows a double")
        return _unwrap(y, x)


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


@np.errstate(call=_raise_lstsq_error, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _lstsq(lhs: np.ndarray, rhs: np.ndarray, rcond: float):
    """``_umath_linalg.lstsq`` under ``np.linalg.lstsq``'s error state, looked up per call."""
    return _umath_linalg.lstsq(lhs, rhs, rcond, signature="ddd->ddid")


def _loglog_design(log_x: np.ndarray):
    """Column-scaled degree-1 least-squares design on ln x, built once per x.

    Returns ``solve(log_y) -> (exponent, intercept)`` as Python floats, for ln y
    given as an (n, 1) column, which a caller can view once per buffer.  The
    column scaling, ``rcond`` and LAPACK solve are those of NumPy's degree-1
    polynomial fit, whose coefficients it reproduces bit for bit; only the
    solve depends on y.  ``solve`` calls ``_umath_linalg.lstsq``, the gufunc
    behind ``np.linalg.lstsq``, with that function's signature and, around the
    call alone, its error state: a LAPACK failure raises ``LinAlgError`` and
    no floating-point flag of the solve reaches the caller's ``np.errstate``.
    """
    lhs = np.vander(log_x, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    scale_exponent, scale_intercept = scale.tolist()
    rcond = log_x.size * np.finfo(float).eps

    def solve(log_y: np.ndarray) -> tuple[float, float]:
        coef, _, rank, _ = _lstsq(lhs, log_y, rcond)
        if rank < 2:  # where np.polyfit warns, the fit is refused
            raise ArithmeticError("log-log fit is rank-deficient: the x values are too close")
        (exponent,), (intercept,) = coef.tolist()
        return exponent / scale_exponent, intercept / scale_intercept

    return solve


def _loglog_ols(x: np.ndarray, y: np.ndarray, coef=None) -> tuple[float, float, float]:
    """OLS on (ln x, ln y); returns (prefactor, exponent, r_squared).

    ``coef`` is the (exponent, intercept) that ``_loglog_design(ln x)`` solved for ln y,
    when the caller already has it.  Raises ArithmeticError when exp(intercept) overflows
    a double.
    """
    log_x, log_y = np.log(x), np.log(y)
    exponent, intercept = coef or _loglog_design(log_x)(log_y[:, None])
    with np.errstate(over="ignore"):
        prefactor = float(np.exp(intercept))
    if not math.isfinite(prefactor):
        raise ArithmeticError("prefactor overflows")
    # In place, in the operation order of log_y - (intercept + exponent*log_x),
    # (log_y - mean)**2 and resid**2, so the bits are theirs.
    resid = exponent * log_x
    resid += intercept
    np.subtract(log_y, resid, out=resid)
    resid *= resid
    dev = log_y - log_y.sum() / log_y.size
    dev *= dev
    ss_tot = dev.sum()
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - resid.sum() / ss_tot
    return prefactor, exponent, float(r_squared)


def _paired_xy(x, y) -> tuple[np.ndarray, np.ndarray]:
    x, y = np.asarray(x), np.asarray(y)  # checked as given, so a boolean or string is named
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    return x, y


def _validated_xy(x, y, min_points: int) -> tuple[np.ndarray, np.ndarray]:
    x, y = _paired_xy(x, y)
    if x.size < min_points:
        raise ValueError(f"need >={min_points} points, got {x.size}")
    # Reductions, not np.unique, which imports numpy.ma on first use (~15 ms).
    x_min, x_max = _check_positive("x values", x)
    _check_positive("y values", y)
    if not x_min < x_max:
        raise ValueError("need >=2 distinct x values")
    return x.astype(float, copy=False), y.astype(float, copy=False)


def fit_power_law(x, y) -> PowerLawFit:
    """Plain log-log least squares; requires strictly positive data."""
    x, y = _validated_xy(x, y, min_points=2)
    prefactor, exponent, r_squared = _loglog_ols(x, y)
    return PowerLawFit(prefactor, exponent, None, r_squared, int(x.size))


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    h = hi - lo
    c = lo + _INV_PHI_SQ * h
    d = lo + _INV_PHI * h
    fc, fd = f(c), f(d)
    for _ in range(200):
        if h <= tol:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            h *= _INV_PHI
            c = lo + _INV_PHI_SQ * h
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            h *= _INV_PHI
            d = lo + _INV_PHI * h
            fd = f(d)
    return 0.5 * (lo + hi)


def fit_power_law_with_offset(x, y) -> PowerLawFit:
    """Fit y = prefactor * x**exponent + offset on decreasing frontier data.

    The offset is profiled over [0, min(y)) by golden-section search on the
    y-space sum of squared residuals, stopping once the bracket is narrower
    than 1e-10*min(y) (about 50 evaluations; 200 iterations is only a cap).
    Each candidate offset is scored with the exact inner log-log fit, solved
    against a design built once from x; one whose law leaves the doubles scores
    +inf, and the fit is refused with an ArithmeticError only when offset 0 does
    too.  For a known floor ``e``, ``fit_power_law(x, y - e)`` gives the law and
    ``dataclasses.replace(fit, offset=e)`` its predictions.
    """
    x, y = _validated_xy(x, y, min_points=3)
    order = np.argsort(x)
    x, y = x[order], y[order]

    if (y[1:] >= y[:-1]).any():
        raise ValueError(
            "y must be strictly decreasing in x to profile an offset; on a binned frontier, "
            "the compute bins are finer than the token schedule's sample spacing: use "
            "fewer bins"
        )
    y_min = float(y.min())
    solve = _loglog_design(np.log(x))
    log_y, r = np.empty_like(y), np.empty_like(x)
    log_y_column = log_y[:, None]
    # Bound once and given their output positionally: on a hundred points, attribute
    # lookups and keyword parsing are a measurable share of each pass.
    subtract, log, exp, power, multiply, add = (np.subtract, np.log, np.exp, np.power,
                                                np.multiply, np.add)

    def profile(offset: float) -> tuple[float, tuple[float, float]]:
        """The y-space SSE at ``offset`` and the (exponent, intercept) it was scored with."""
        subtract(y, offset, log_y)
        log(log_y, log_y)
        coef = exponent, intercept = solve(log_y_column)
        prefactor = float(exp(intercept))
        # (offset + prefactor * x**exponent - y)**2 in one buffer, same operation order.
        power(x, exponent, r)
        multiply(r, prefactor, r)
        add(r, offset, r)
        subtract(r, y, r)
        multiply(r, r, r)
        sse = float(add.reduce(r))
        return (math.inf if sse != sse else sse), coef  # NaN: 0 * inf, an overflowed law

    hi = y_min * (1.0 - 1e-12)
    # Near y_min the law can leave the doubles; such an offset scores +inf, silently.
    with np.errstate(over="ignore", invalid="ignore"):
        candidate = _golden_section(lambda offset: profile(offset)[0], 0.0, hi,
                                    tol=1e-10 * y_min)
        sse, coef = profile(candidate)
        sse_0, coef_0 = profile(0.0)
    if sse == sse_0 == math.inf:
        raise ArithmeticError("the power law overflows a double at the searched offset "
                              "and at offset 0")
    # Never do worse than the offset-free nested model.
    offset, coef = (candidate, coef) if sse <= sse_0 else (0.0, coef_0)
    prefactor, exponent, r_squared = _loglog_ols(x, y - offset, coef)
    return PowerLawFit(prefactor, exponent, offset, r_squared, int(x.size))


def sum_squared_error(fit: PowerLawFit, x, y) -> float:
    """y-space residual of a fit against data; used for form comparisons."""
    x, y = _paired_xy(x, y)
    _check_positive("y", y, zero_ok=None)
    with np.errstate(over="ignore"):
        sse = float(np.sum((fit.predict(x) - y.astype(float, copy=False)) ** 2))
    if not math.isfinite(sse):
        raise ArithmeticError("the squared residuals overflow a double")
    return sse
