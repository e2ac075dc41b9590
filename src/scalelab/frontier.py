"""Synthetic training curves and the compute-efficient frontier.

Each model on a size grid is swept over a log-spaced token schedule; the
pooled samples are binned by compute and the minimum-loss sample per bin
forms the frontier, from which the headline power laws are fitted.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import (DEFAULT_BINS, DEFAULT_SAMPLES_PER_CURVE, KAPLAN_GRID_POINTS, KAPLAN_SIZE_RANGE,
               _SUBMODULES, _write)
from .fitting import (
    PowerLawFit,
    _check_count,
    _check_integers,
    _check_positive,
    _float_array,
    fit_power_law,
    fit_power_law_with_offset,
)

# analytic, lossmodel and params load inside the functions that call them,
# so commands that only read and fit a frontier never import them.
if TYPE_CHECKING:
    from .lossmodel import LossSpec
    from .params import EmbedMap

__all__ = list(_SUBMODULES["frontier"])

# Token schedule: per model, log-spaced token counts between these multiples
# of its non-embedding size.  The upper multiple must exceed the largest
# tokens-per-parameter ratio reached at any interior model's optimum, else
# the envelope is truncated and the fitted exponents biased; 3e5 covers both
# catalog specs with margin (max interior requirement is ~2.2e5).
DEFAULT_TOKENS_PER_PARAM = (10.0, 3e5)
# Factor by which `bracketing_token_schedule` widens the optimal ratios' range.
TOKEN_MARGIN = 3.0

CURVES_CSV_HEADER = "model_index,n_nonembed,n_total,tokens,c_total,c_nonembed,loss"
FRONTIER_CSV_HEADER = "basis,c,loss_min,n_opt,d_opt,model_index"


def kaplan_size_grid() -> np.ndarray:
    """The 20 log-spaced non-embedding sizes from 7.9e2 to 1.58e9."""
    return np.geomspace(*KAPLAN_SIZE_RANGE, KAPLAN_GRID_POINTS)


def size_grid(n_min: float, n_max: float, count: int) -> np.ndarray:
    """Log-spaced model size grid."""
    _check_positive("n_min", n_min)
    _check_positive("n_max", n_max)
    if not n_min < n_max:
        raise ValueError("need 0 < n_min < n_max")
    return np.geomspace(n_min, n_max, _check_count("count", count, 2))


@dataclass(frozen=True)
class TrainingCurve:
    """One model's sweep, as a ``Curves`` table yields it; perfbench still reads these rows."""

    model_index: int
    n_nonembed: float
    n_total: float
    tokens: np.ndarray
    loss: np.ndarray

    # As ``Curves`` computes them, so each has the bits of the column's row.
    c_total = property(lambda self: np.multiply(6.0 * self.n_total, self.tokens))
    c_nonembed = property(lambda self: np.multiply(6.0 * self.n_nonembed, self.tokens))


_CURVE_FIELDS = ("model_index", "n_nonembed", "n_total")
_SAMPLE_FIELDS = ("tokens", "loss")


@dataclass(frozen=True, init=False, eq=False)
class Curves:
    """Training curves as one read-only rectangular table.

    ``model_index``, ``n_nonembed`` and ``n_total`` hold one entry per curve;
    ``tokens`` and ``loss`` are (curves, samples) arrays whose row ``k`` holds curve
    ``k``'s samples, so every curve has the same number of samples, possibly none.
    ``c_total`` and ``c_nonembed`` are 6 n tokens in each basis, a fresh array on each
    access.  ``len`` counts curves; an integer index or iteration yields one
    ``TrainingCurve`` per curve, whose arrays are those rows.
    """

    model_index: np.ndarray
    n_nonembed: np.ndarray
    n_total: np.ndarray
    tokens: np.ndarray
    loss: np.ndarray

    def __init__(self, model_index, n_nonembed, n_total, tokens, loss):
        # Views, so freezing them leaves the caller's arrays writeable.
        per_curve = [a.view() for a in (
            _check_integers("model_index", model_index), _float_array("n_nonembed", n_nonembed),
            _float_array("n_total", n_total))]
        samples = [_float_array(name, v).view() for name, v in zip(_SAMPLE_FIELDS, (tokens, loss))]
        if per_curve[0].ndim != 1 or any(a.shape != per_curve[0].shape for a in per_curve):
            raise ValueError("per-curve columns must be 1-d and of equal length")
        shape = per_curve[0].shape + samples[0].shape[1:]
        if samples[0].ndim != 2 or any(a.shape != shape for a in samples):
            raise ValueError("sample columns must be (curves, samples) arrays of one shape")
        for a in per_curve + samples:
            a.flags.writeable = False
        vars(self).update(zip(_CURVE_FIELDS + _SAMPLE_FIELDS, per_curve + samples))

    c_total = property(lambda self: np.multiply(6.0 * self.n_total[:, None], self.tokens))
    c_nonembed = property(lambda self: np.multiply(6.0 * self.n_nonembed[:, None], self.tokens))

    def __len__(self) -> int:
        return self.model_index.size

    def __getitem__(self, k) -> TrainingCurve:
        if isinstance(k, bool):  # operator.index takes True for 1
            raise TypeError("curve index must be an integer, got a boolean")
        k = operator.index(k)
        return TrainingCurve(*(getattr(self, name)[k].item() for name in _CURVE_FIELDS),
                             self.tokens[k], self.loss[k])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass(frozen=True)
class FrontierPoint:
    """Per-bin winner: representative compute, its loss, size and tokens (read by perfbench)."""

    c: float
    loss_min: float
    n_opt: float
    d_opt: float
    model_index: int


_POINT_FIELDS = ("c", "loss_min", "n_opt", "d_opt", "model_index")


def _check_basis(basis):
    if basis not in ("total", "nonembed"):
        raise ValueError(f"basis must be 'total' or 'nonembed', got {basis!r}")


@dataclass(frozen=True, init=False, eq=False)
class Frontier:
    """The frontier as read-only columns, one entry per kept bin in increasing compute.

    ``Frontier(basis, points)`` builds the columns from records instead.
    ``n_empty`` and ``n_dropped`` count the bins left empty and those lost to
    the edge-model guard; None when unknown, as for a frontier read from CSV.
    """

    basis: str
    c: np.ndarray
    loss_min: np.ndarray
    n_opt: np.ndarray
    d_opt: np.ndarray
    model_index: np.ndarray
    n_empty: int | None
    n_dropped: int | None

    def __init__(self, basis, points=None, *, c=(), loss_min=(), n_opt=(), d_opt=(),
                 model_index=(), n_empty=None, n_dropped=None):
        _check_basis(basis)
        columns = (c, loss_min, n_opt, d_opt, model_index)
        if points is not None:
            columns = [[getattr(p, name) for p in points] for name in _POINT_FIELDS]
        arrays = {name: np.array(check(name, v)) for name, check, v in
                  zip(_POINT_FIELDS, (_float_array,) * 4 + (_check_integers,), columns)}
        if {a.shape for a in arrays.values()} != {(len(columns[0]),)}:
            raise ValueError("frontier columns must be 1-d and of equal length")
        for a in arrays.values():
            a.flags.writeable = False
        vars(self).update(basis=basis, **arrays, n_empty=n_empty, n_dropped=n_dropped)

    @property
    def points(self) -> list[FrontierPoint]:
        """One record per kept bin, rebuilt from the columns on each access."""
        columns = (getattr(self, name).tolist() for name in _POINT_FIELDS)
        return [FrontierPoint(*row) for row in zip(*columns)]


def bracketing_token_schedule(sizes, spec: LossSpec,
                              embed_map: EmbedMap) -> tuple[float, float]:
    """Token-multiple range bracketing every grid model's optimal allocation.

    The optimal ratios' range widened by ``TOKEN_MARGIN`` at each end; used
    when a custom spec or map makes the fixed default range unsuitable.
    """
    from .analytic import ce_of_optimal_ne

    sizes = _check_sizes(sizes)
    ratios = ce_of_optimal_ne(sizes, spec, embed_map) / (6.0 * sizes**2)
    return float(ratios.min() / TOKEN_MARGIN), float(ratios.max() * TOKEN_MARGIN)


def _check_sizes(sizes) -> np.ndarray:
    """``sizes`` as a float array, once it is non-empty, 1-d, finite, > 0 and increasing."""
    sizes = _float_array("sizes", sizes)
    if sizes.ndim != 1 or sizes.size < 1:
        raise ValueError("sizes must be a non-empty 1-d sequence")
    _check_positive("sizes", sizes)
    if not (np.diff(sizes) > 0).all():
        raise ValueError("sizes must be finite, positive and strictly increasing")
    return sizes


def simulate_curves(
    sizes,
    spec: LossSpec,
    embed_map: EmbedMap,
    tokens_per_param: tuple[float, float] = DEFAULT_TOKENS_PER_PARAM,
    samples_per_curve: int = DEFAULT_SAMPLES_PER_CURVE,
) -> Curves:
    """Evaluate the loss surface along each model's token schedule.

    ``_sample_rows`` fills two C-ordered (models, samples) arrays, tokens and loss,
    which are the table's sample columns and the only full-size arrays it makes.  It
    fills them in blocks of whole rows of about ``_BIN_BLOCK`` samples; with more than
    one block, a thread per CPU this process may run on takes them one at a time.  A
    sample's bits do not depend on the block or worker count, and a block's exception,
    NumPy's under the caller's ``np.errstate`` included, is raised here.  The loss is
    the surface itself: the checks here bound every sample, so none is re-checked.
    """
    from .params import total_from_nonembed

    sizes = _check_sizes(sizes)
    tokens_per_param = _float_array("tokens_per_param", tokens_per_param)
    if tokens_per_param.shape != (2,):
        raise ValueError("tokens_per_param must be a pair (lo, hi)")
    lo, hi = tokens_per_param
    if not 0 < lo < hi < math.inf:
        raise ValueError("tokens_per_param must be finite and satisfy 0 < lo < hi")
    samples_per_curve = _check_count("samples_per_curve", samples_per_curve, 2)
    n_total = total_from_nonembed(sizes, embed_map)
    # Extreme compute as associated below, in floats that overflow without warning.
    n0, n1, t1 = float(sizes[0]), float(sizes[-1]), float(n_total[-1])
    if not (6.0 * n0 * (float(lo) * n0) > 0 and 6.0 * t1 * (float(hi) * n1) < math.inf):
        raise ValueError(
            "sizes, omega and tokens_per_param take compute out of the range of doubles")

    m, s = sizes.size, samples_per_curve
    columns = [np.empty((m, s)) for _ in _SAMPLE_FIELDS]
    args = (sizes, n_total, tokens_per_param, spec, columns)
    rows = max(1, _BIN_BLOCK // s)
    blocks = [slice(a, a + rows) for a in range(0, m, rows)]
    workers = min(len(blocks), _usable_cpus())
    if workers < 2:
        _sample_rows(slice(None), *args)
    else:
        import contextvars
        from concurrent.futures import ThreadPoolExecutor

        # Each block runs in its own copy of the caller's context, which holds np.errstate.
        contexts = [contextvars.copy_context() for _ in blocks]
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(lambda ctx, block: ctx.run(_sample_rows, block, *args), contexts, blocks))
    return Curves(np.arange(m), sizes, n_total, *columns)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    import os

    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _sample_rows(rows, sizes, n_total, tokens_per_param, spec, columns):
    """Fill the model rows ``rows`` of the (models, samples) ``columns`` (tokens, loss),
    from a ``slice`` of ``sizes`` and ``n_total``."""
    from .lossmodel import _surface

    tokens, loss = (a[rows] for a in columns)
    n, n_t = sizes[rows], n_total[rows, None]
    lo, hi = tokens_per_param
    _token_grid(lo * n, hi * n, tokens)
    six_n = 6.0 * n[:, None]
    # d = c_nonembed / (6 n_nonembed), as loss_ne_ce computes it, built in the loss
    # buffer; _surface turns it into the loss in place.
    np.multiply(six_n, tokens, out=loss)
    np.divide(loss, six_n, out=loss)
    _surface(n_t, loss, spec)


def _token_grid(start, stop, out):
    """Write each row's ``np.geomspace(start[k], stop[k], num)`` bit for bit into the
    C-ordered (rows, num) ``out``."""
    num = out.shape[1]
    log_start, log_stop = np.log10(start), np.log10(stop)
    delta = log_stop - log_start
    j = np.arange(num, dtype=float)
    np.multiply(j, (delta / (num - 1))[:, None], out=out)
    out += log_start[:, None]
    # The base is a contiguous row, not the scalar 10.0: NumPy's AVX-512 `pow` loop reads
    # a stride-0 operand through gathers, at about twice the time; the bits are the same.
    np.power(np.full(num, 10.0), out, out=out)
    out[:, 0], out[:, -1] = start, stop


# Samples per block: the block size np.histogram uses for uniform bins, so
# extract_frontier's scratch stays at about 1 MiB for any sample count;
# simulate_curves fills its rows in blocks of about as many samples.
_BIN_BLOCK = 65536


def _block_scratch(size):
    """Buffers for blocks of up to ``size`` samples: bins, two of floats and one mask."""
    return (np.empty(size, dtype=np.intp), np.empty(size), np.empty(size),
            np.empty(size, dtype=bool))


def _geometric_bin_of(t, six_n, edges, scratch):
    """Bin of each sample of the C-ordered (rows, samples) block of tokens ``t``, whose
    rows' 6 n are ``six_n``, in C order: a view of ``scratch[0]`` equal to
    ``np.searchsorted(edges[1:-1], six_n[:, None] * t, side="right").ravel()``.

    ``edges`` are geometric, so the bin is the integer part of the sample's position
    ``(ln t + ln six_n - ln e0) * n / (ln e_n - ln e0)``, one offset per row.  Rounding in
    ``np.log``, ``math.log``, the edges, the compute and that map moves a position by far
    less than ``eps``, so only positions within ``eps`` of an integer are searched for, by
    their exact compute, and binning is exact within that budget.  A position's distance
    from the nearest integer is ``|p - rint(p)|``, exact in floats, taken in a float
    buffer of its own, so the bins are never read as floats.  ``scratch`` is a
    ``_block_scratch`` of at least ``t.size`` samples; the call overwrites all of its buffers.
    """
    # e0 is a Python float, so 2**-1022 / e0 underflows without a NumPy flag.
    n, e0 = edges.size - 1, float(edges[0])
    log_lo, log_hi = math.log(e0), math.log(edges[-1])
    # A collapsed range puts every sample at position 0, inside the band.
    scale = n / (log_hi - log_lo) if log_hi > log_lo else 0.0
    log_six_n = np.log(six_n)
    # About 4096 times the rounding above, which grows with |ln c|, |ln six_n| and
    # |ln t| <= |ln c| + |ln six_n|; a subnormal edge or compute is rounded to a
    # multiple of 2**-1074, a relative error of up to 2**-1075 / e0.
    magnitude = max(-log_lo, log_hi) + 2.0 * np.abs(log_six_n).max()
    eps = 2.0**-40 * (scale * (max(1.0, 2.0**-1022 / e0) + magnitude) + n)
    k, f, near, missed = (a[:t.size].reshape(t.shape) for a in scratch)
    np.log(t, out=f)
    f += (log_six_n - log_lo)[:, None]
    f *= scale
    # Positions lie within eps of [0, n]: one that truncates to n (the largest compute)
    # or one below 0 (truncated toward 0) lies in the band, so no bin left is out of range.
    np.copyto(k, f, casting="unsafe")
    # Distance from the nearest edge, in its own buffer: f - k would convert k to floats.
    np.subtract(f, np.rint(f, out=near), out=near)
    np.absolute(near, out=near)
    # A band of 1/2 or more searches every sample.
    miss = np.divmod(np.flatnonzero(np.less_equal(near, eps, out=missed)), t.shape[1])
    k[miss] = np.searchsorted(edges[1:-1], six_n[miss[0]] * t[miss], side="right")
    return k.reshape(-1)


def extract_frontier(curves: Curves, n_bins: int = DEFAULT_BINS,
                     basis: str = "nonembed") -> Frontier:
    """Bin pooled samples by compute and keep the minimum-loss sample per bin.

    ``curves`` is a ``Curves`` table of at least three curves and one sample, with
    finite losses and finite positive tokens, sizes in ``basis`` and compute 6 n
    tokens, which is never built as a column.  The ``n_bins`` bins are geometric
    between the smallest and largest compute; a sample's bin is the number of
    interior edges at or below its compute, the integer part of its position among
    the edges, with a binary search only for positions within rounding of an edge.
    Samples go through in blocks of at most ``_BIN_BLOCK``, so no scratch array grows
    with the sample count.
    A bin's winner is its first minimum-loss sample in pooled (curve, then
    sample) order.  Bins whose winner has the table's smallest or largest ``model_index``
    are discarded: at the extremes those models win only because nothing smaller or
    larger exists, which truncates the envelope and biases fitted exponents.  So a table
    of fewer than three distinct labels, which gives no point, is refused before any pass,
    as is a bad basis.
    """
    if not isinstance(curves, Curves):
        raise TypeError(f"curves must be a Curves table, got {type(curves).__name__}")
    labels = curves.model_index
    if labels.size < 3 or not ((labels > labels.min()) & (labels < labels.max())).any():
        raise ValueError("need >=3 distinct model_index labels: bins won by the smallest or "
                         "largest model are dropped")
    n_bins = _check_count("n_bins", n_bins, 10)
    _check_basis(basis)

    tokens, losses = curves.tokens, curves.loss
    if losses.size == 0:
        raise ValueError("curves hold no samples")
    # A row's extremes bound it, and a NaN in a row is NaN in both.
    t_lo, t_hi = tokens.min(axis=1), tokens.max(axis=1)
    _check_positive("tokens", (t_lo, t_hi))
    n = getattr(curves, f"n_{basis}")
    _check_positive(f"n_{basis}", n)
    # Rounding a product by a positive factor is monotone, so the compute extremes are
    # those of the products of each row's token extremes, bit for bit.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        six_n = 6.0 * n
        c_lo, c_hi = _check_positive(f"c_{basis}", (np.min(six_n * t_lo), np.max(six_n * t_hi)))
        # The sum is finite only if every loss is (inf - inf is NaN), so only a sum that
        # is not, an overflow of finite losses included, checks them one by one.
        if not math.isfinite(losses.sum()):
            _check_positive("loss", losses, zero_ok=None)
        # The last edge is 10**log10(c_hi) before geomspace puts c_hi there; it may overflow.
        edges = np.geomspace(c_lo, c_hi, n_bins + 1)

    # One pass over blocks, last to first, each binned into the same scratch.  A
    # block lowers ``best``, each bin's running minimum, in place, and its samples
    # that equal it (a zero tie included, as ``==`` holds -0.0 equal to 0.0) are the
    # earliest in pooled order to attain it.  So the smallest such index replaces the
    # bin's held winner (``first``, or size for no sample), which lies in a later
    # block.  A block updates only the bins it touches: O(block) work.  It is whole
    # rows or part of one, so its samples follow each other in pooled order.
    (m, samples), size = losses.shape, losses.size
    rows, width = max(1, _BIN_BLOCK // samples), min(samples, _BIN_BLOCK)
    scratch = _block_scratch(min(size, _BIN_BLOCK))
    best, first = np.full(n_bins, np.inf), np.full(n_bins, size)
    for r, j in reversed([(r, j) for r in range(0, m, rows) for j in range(0, samples, width)]):
        block = np.s_[r:r + rows, j:j + width]
        loss = losses[block].reshape(-1)
        k = _geometric_bin_of(tokens[block], six_n[r:r + rows], edges, scratch)
        np.minimum.at(best, k, loss)
        at_min, is_tie = scratch[1][:k.size], scratch[3][:k.size]
        np.take(best, k, out=at_min, mode="clip")
        np.equal(loss, at_min, out=is_tie)
        ties = np.flatnonzero(is_tie)
        np.minimum.at(first, k[ties], ties + (r * samples + j))

    filled = np.flatnonzero(first < size)
    n_empty = n_bins - filled.size
    if n_empty > 0.5 * n_bins:
        raise ValueError(f"{n_empty}/{n_bins} compute bins are empty; token schedules too sparse")
    curve = first[filled] // samples
    winner = labels[curve]
    keep = (winner != labels.min()) & (winner != labels.max())
    if not keep.any():
        raise ValueError("no frontier points survive the boundary guard")
    filled, curve = filled[keep], curve[keep]
    won = first[filled]
    # sqrt(e0*e1) with both edges scaled by a power of two near e0, which is
    # exact: the same bits wherever e0*e1 is a normal double, and no overflow
    # or underflow outside that range.
    e0, e1 = edges[filled], edges[filled + 1]
    s = np.ldexp(1.0, np.frexp(e0)[1])
    return Frontier(basis, c=s * np.sqrt((e0 / s) * (e1 / s)), loss_min=losses.flat[won],
                    n_opt=n[curve], d_opt=tokens.flat[won], model_index=winner[keep],
                    n_empty=n_empty, n_dropped=keep.size - filled.size)


def fit_param_scaling(frontier: Frontier) -> PowerLawFit:
    """Power law of optimal size vs compute along the frontier."""
    if frontier.c.size < 3:
        raise ValueError("need >=3 frontier points")
    return fit_power_law(frontier.c, frontier.n_opt)


def fit_loss_scaling(frontier: Frontier, form: str = "kaplan") -> PowerLawFit:
    """Compute-loss fit along the frontier: offset-free or with offset.

    Profiling the offset needs ``loss_min`` to fall strictly with compute, which
    ``fit_power_law_with_offset`` checks.  A binned frontier does so while its bins
    are coarser than the spacing of the token schedules: a finer bin can miss every
    sample of the locally best model, and its minimum can then exceed the previous bin's.
    """
    if frontier.c.size < 3:
        raise ValueError("need >=3 frontier points")
    if form == "kaplan":
        return fit_power_law(frontier.c, frontier.loss_min)
    if form == "chinchilla":
        return fit_power_law_with_offset(frontier.c, frontier.loss_min)
    raise ValueError("form must be 'kaplan' or 'chinchilla'")


def write_curves_csv(curves: Curves, path_or_buf) -> None:
    """Curves CSV; full double precision so reruns are byte-identical.

    Each curve's head is formatted once, into one ``%`` template for its samples, which
    come from its row of each sample column, so no row record is built.
    """
    heads = (f"{k},{n_nonembed:.17g},{n_total:.17g}," for k, n_nonembed, n_total in
             zip(*(getattr(curves, name).tolist() for name in _CURVE_FIELDS)))
    rows = (zip(*(a.tolist() for a in row))
            for row in zip(curves.tokens, curves.c_total, curves.c_nonembed, curves.loss))
    _write(path_or_buf, CURVES_CSV_HEADER + "\n",
           ("".join(map((head + "%.17g,%.17g,%.17g,%.17g\n").__mod__, samples))
            for head, samples in zip(heads, rows)))


def write_frontier_csv(frontier: Frontier, path_or_buf) -> None:
    columns = (getattr(frontier, name).tolist() for name in _POINT_FIELDS)
    _write(path_or_buf, FRONTIER_CSV_HEADER + "\n",
           (f"{frontier.basis},{c:.17g},{loss_min:.17g},{n_opt:.17g},{d_opt:.17g},{k}\n"
            for c, loss_min, n_opt, d_opt, k in zip(*columns)))


def read_frontier_csv(path) -> Frontier:
    from . import _files

    header, rows = _files.read_csv(path, "frontier CSV")
    expected = FRONTIER_CSV_HEADER.split(",")
    if header != expected:
        raise ValueError(f"frontier CSV must have header {FRONTIER_CSV_HEADER!r}")
    for k, row in enumerate(rows, 1):
        if None in row:  # csv.DictReader files the extra fields of a long row under None
            raise ValueError(f"frontier CSV row {k} has more than {len(expected)} fields")
        if None in row.values():
            raise ValueError(f"frontier CSV row {k} has fewer than {len(expected)} fields")
    bases = {row["basis"] for row in rows}
    if len(bases) > 1:
        raise ValueError("frontier CSV mixes bases")
    basis = bases.pop() if bases else "nonembed"
    return Frontier(basis, **{name: [_files.parse_field(row, k, name, kind, "frontier CSV")
                                     for k, row in enumerate(rows, 1)]
                              for name, kind in zip(_POINT_FIELDS, (float,) * 4 + (int,))})
