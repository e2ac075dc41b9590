"""Power-law regression: plain log-log, offset-free, and with fitted offset.

The offset form y = prefactor * x**exponent + offset is fitted by profiling:
for a candidate offset the inner problem is exact log-log least squares on
(x, y - offset), so the outer problem reduces to a one-dimensional
golden-section search minimizing the y-space residual.  The least-squares
design depends only on x, so it is built once per fit, and the final fit
reuses it.  One profile step costs one LAPACK solve against it plus in-place
passes: the log of y - offset, and the squared residual built in one buffer.

It also holds the package's argument checks, which name the bad argument or
file field, and its scalar shaping, since every other module imports it.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import _SUBMODULES

__all__ = list(_SUBMODULES["fitting"])

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def _check_positive(name, value, zero_ok=False, scalar=False):
    """The smallest and largest entry of ``value`` ((1.0, 1.0) for no entry), once every
    entry is finite and > 0 (>= 0 if ``zero_ok``, of any sign if ``zero_ok`` is None) and,
    if ``scalar``, ``value`` is one number; else a ValueError naming ``name``."""
    if isinstance(value, float):  # also np.float64; skips building a 0-d array
        lo = hi = value
    else:  # NaN fails both comparisons; no full-size temporaries
        v = np.asarray(value, dtype=float)
        lo, hi = (v.min(), v.max()) if v.size else (1.0, 1.0)  # no entry to fail
    if not ((lo > -math.inf if zero_ok is None else lo >= 0 if zero_ok else lo > 0)
            and hi < math.inf):
        sign = "" if zero_ok is None else f" and {'>=' if zero_ok else '>'} 0"
        raise ValueError(f"{name} must be finite{sign}")
    if scalar and np.ndim(value):
        raise ValueError(f"{name} must be a scalar, got an array of shape {np.shape(value)}")
    return lo, hi


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
    """``value`` as an int array, once every entry is an integer that fits one; else a
    ValueError naming ``name``."""
    v = np.asarray(value)
    if v.dtype.kind not in "biu":  # NaN and inf fail the bound
        f = v.astype(float)
        if not ((np.trunc(f) == f) & (abs(f) < 2.0**63)).all():
            raise ValueError(f"{name} must hold finite integers")
    return v.astype(int, copy=False)


def _parse_field(row: dict, k: int, name: str, kind, source: str):
    """``kind(row[name])``, or a ValueError naming the file ``source``, row ``k`` and column."""
    text = row[name]
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{source} row {k} column {name!r} must be {noun}, got {text!r}") from None


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
        return _unwrap(self.prefactor * _vector(x) ** self.exponent + (self.offset or 0.0), x)


def _loglog_design(log_x: np.ndarray):
    """Column-scaled degree-1 least-squares design on ln x, built once per x.

    Returns ``solve(log_y) -> (exponent, intercept)`` as Python floats.  The
    column scaling, ``rcond`` and LAPACK solve are those of NumPy's degree-1
    polynomial fit, whose coefficients it reproduces bit for bit; only the
    solve depends on y.
    """
    lhs = np.vander(log_x, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    scale_exponent, scale_intercept = scale.tolist()
    rcond = log_x.size * np.finfo(float).eps

    def solve(log_y: np.ndarray) -> tuple[float, float]:
        coef, _, rank, _ = np.linalg.lstsq(lhs, log_y, rcond)
        if rank < 2:
            warnings.warn("log-log fit is poorly conditioned", np.exceptions.RankWarning,
                          stacklevel=2)
        exponent, intercept = coef.tolist()
        return exponent / scale_exponent, intercept / scale_intercept

    return solve


def _loglog_ols(x: np.ndarray, y: np.ndarray, solve=None) -> tuple[float, float, float]:
    """OLS on (ln x, ln y); returns (prefactor, exponent, r_squared).

    ``solve`` is ``_loglog_design(ln x)`` when the caller has already built it.
    Raises ArithmeticError when exp(intercept) overflows a double.
    """
    log_x, log_y = np.log(x), np.log(y)
    exponent, intercept = (solve or _loglog_design(log_x))(log_y)
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


def _validated_xy(x, y, min_points: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < min_points:
        raise ValueError(f"need >={min_points} points, got {x.size}")
    # Reductions, not np.unique, which imports numpy.ma on first use (~15 ms).
    x_min, x_max = _check_positive("x values", x)
    _check_positive("y values", y, zero_ok=None)
    if not x_min < x_max:
        raise ValueError("need >=2 distinct x values")
    return x, y


def fit_power_law(x, y) -> PowerLawFit:
    """Plain log-log least squares; requires strictly positive data."""
    x, y = _validated_xy(x, y, min_points=2)
    if not y.min() > 0:
        raise ValueError("y values must be > 0")
    prefactor, exponent, r_squared = _loglog_ols(x, y)
    return PowerLawFit(prefactor, exponent, None, r_squared, int(x.size))


def _golden_section(f, lo: float, hi: float, tol: float, max_iter: int = 200) -> float:
    h = hi - lo
    c = lo + _INV_PHI_SQ * h
    d = lo + _INV_PHI * h
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
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


def fit_power_law_with_offset(x, y, fixed_offset: float | None = None) -> PowerLawFit:
    """Fit y = prefactor * x**exponent + offset on decreasing frontier data.

    The offset is profiled over [0, min(y)) by golden-section search on the
    y-space sum of squared residuals, stopping once the bracket is narrower
    than 1e-10*min(y) (about 50 evaluations; 200 iterations is only a cap).
    Each candidate offset is scored with the exact inner log-log fit, solved
    against a design built once from x.  Passing ``fixed_offset`` skips the
    search, which with ``fixed_offset=0`` reproduces ``fit_power_law`` exactly.
    """
    x, y = _validated_xy(x, y, min_points=3)
    order = np.argsort(x)
    x, y = x[order], y[order]

    solve = None
    if fixed_offset is not None:
        _check_positive("fixed_offset", fixed_offset, zero_ok=True)
        if not y.min() > fixed_offset:  # y - fixed_offset > 0, without overflow
            raise ValueError("y - fixed_offset must be > 0")
        offset = float(fixed_offset)
    else:
        if (y[1:] >= y[:-1]).any():
            raise ValueError(
                "y must be strictly decreasing in x to profile an offset "
                "(non-power-law data)"
            )
        y_min = float(y.min())
        if y_min <= 0:
            raise ValueError("min(y) must be > 0 when fitting a positive offset")
        solve = _loglog_design(np.log(x))

        def y_space_sse(offset: float) -> float:
            log_y = y - offset
            np.log(log_y, out=log_y)
            exponent, intercept = solve(log_y)
            prefactor = float(np.exp(intercept))
            # (offset + prefactor * x**exponent - y)**2 in one buffer, same operation order.
            r = x**exponent
            r *= prefactor
            r += offset
            r -= y
            r *= r
            return float(r.sum())

        hi = y_min * (1.0 - 1e-12)
        candidate = _golden_section(y_space_sse, 0.0, hi, tol=1e-10 * y_min)
        sse = y_space_sse(candidate)
        if not math.isfinite(sse):
            raise ArithmeticError("offset search failed to bracket a minimum")
        # Never do worse than the offset-free nested model.
        offset = candidate if sse <= y_space_sse(0.0) else 0.0

    prefactor, exponent, r_squared = _loglog_ols(x, y - offset, solve)
    return PowerLawFit(prefactor, exponent, offset, r_squared, int(x.size))


def sum_squared_error(fit: PowerLawFit, x, y) -> float:
    """y-space residual of a fit against data; used for form comparisons."""
    return float(np.sum((fit.predict(x) - np.asarray(y, dtype=float)) ** 2))
