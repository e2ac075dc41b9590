"""Synthetic training curves and the compute-efficient frontier.

Each model on a size grid is swept over a log-spaced token schedule; the
pooled samples are binned by compute and the minimum-loss sample per bin
forms the frontier, from which the headline power laws are fitted.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .fitting import PowerLawFit, fit_power_law, fit_power_law_with_offset

# analytic, lossmodel and params load inside the functions that call them,
# so commands that only read and fit a frontier never import them.
if TYPE_CHECKING:
    from .lossmodel import LossSpec
    from .params import EmbedMap

__all__ = [
    "KAPLAN_SIZE_RANGE",
    "KAPLAN_GRID_POINTS",
    "DEFAULT_TOKENS_PER_PARAM",
    "DEFAULT_SAMPLES_PER_CURVE",
    "DEFAULT_BINS",
    "TrainingCurve",
    "Curves",
    "FrontierPoint",
    "Frontier",
    "kaplan_size_grid",
    "size_grid",
    "bracketing_token_schedule",
    "simulate_curves",
    "extract_frontier",
    "fit_param_scaling",
    "fit_loss_scaling",
    "write_curves_csv",
    "write_frontier_csv",
    "read_frontier_csv",
]

KAPLAN_SIZE_RANGE = (7.9e2, 1.58e9)
KAPLAN_GRID_POINTS = 20

# Token schedule: per model, log-spaced token counts between these multiples
# of its non-embedding size.  The upper multiple must exceed the largest
# tokens-per-parameter ratio reached at any interior model's optimum, else
# the envelope is truncated and the fitted exponents biased; 3e5 covers both
# catalog specs with margin (max interior requirement is ~2.2e5).
DEFAULT_TOKENS_PER_PARAM = (10.0, 3e5)
DEFAULT_SAMPLES_PER_CURVE = 512
DEFAULT_BINS = 200

CURVES_CSV_HEADER = "model_index,n_nonembed,n_total,tokens,c_total,c_nonembed,loss"
FRONTIER_CSV_HEADER = "basis,c,loss_min,n_opt,d_opt,model_index"


def kaplan_size_grid() -> np.ndarray:
    """The 20 log-spaced non-embedding sizes from 7.9e2 to 1.58e9."""
    return np.geomspace(*KAPLAN_SIZE_RANGE, KAPLAN_GRID_POINTS)


def size_grid(n_min: float, n_max: float, count: int) -> np.ndarray:
    """Log-spaced model size grid."""
    from .params import _check_positive

    _check_positive("n_min", n_min)
    _check_positive("n_max", n_max)
    if not n_min < n_max:
        raise ValueError("need 0 < n_min < n_max")
    if count < 2:
        raise ValueError("need count >= 2")
    return np.geomspace(n_min, n_max, count)


@dataclass(frozen=True)
class TrainingCurve:
    """One model's sweep, as a ``Curves`` table yields it; perfbench still reads these rows."""

    model_index: int
    n_nonembed: float
    n_total: float
    tokens: np.ndarray
    c_total: np.ndarray
    c_nonembed: np.ndarray
    loss: np.ndarray


_CURVE_FIELDS = ("model_index", "n_nonembed", "n_total")
_SAMPLE_FIELDS = ("tokens", "c_total", "c_nonembed", "loss")


@dataclass(frozen=True, init=False, eq=False)
class Curves:
    """Training curves as one read-only columnar table.

    ``model_index``, ``n_nonembed`` and ``n_total`` hold one entry per curve;
    ``tokens``, ``c_total``, ``c_nonembed`` and ``loss`` hold every sample in
    curve-then-sample order, curve ``k``'s from ``starts[k]`` up to the next
    curve's start.  ``len`` counts curves; an integer index or iteration yields
    one ``TrainingCurve`` per curve, whose arrays are views of the sample columns.
    """

    model_index: np.ndarray
    n_nonembed: np.ndarray
    n_total: np.ndarray
    tokens: np.ndarray
    c_total: np.ndarray
    c_nonembed: np.ndarray
    loss: np.ndarray
    starts: np.ndarray

    def __init__(self, model_index, n_nonembed, n_total, tokens, c_total, c_nonembed, loss,
                 starts):
        # Views, so freezing them leaves the caller's arrays writeable.
        per_curve = [np.asarray(v, dtype=t).view() for v, t in
                     zip((model_index, n_nonembed, n_total, starts), (int, float, float, int))]
        samples = [np.asarray(v, dtype=float).view() for v in (tokens, c_total, c_nonembed, loss)]
        if per_curve[0].ndim != 1 or any(a.shape != per_curve[0].shape for a in per_curve):
            raise ValueError("per-curve columns and starts must be 1-d and of equal length")
        if any(a.shape != (samples[0].size,) for a in samples):
            raise ValueError("sample columns must be 1-d and of equal length")
        bounds = np.append(per_curve[3], samples[0].size)
        if bounds[0] != 0 or np.any(np.diff(bounds) < 0):
            raise ValueError("starts must rise from 0 to at most the sample count")
        for a in per_curve + samples:
            a.flags.writeable = False
        vars(self).update(zip(_CURVE_FIELDS + ("starts",), per_curve))
        vars(self).update(zip(_SAMPLE_FIELDS, samples), _bounds=bounds.tolist())

    def __len__(self) -> int:
        return self.model_index.size

    def __getitem__(self, k) -> TrainingCurve:
        k = operator.index(k)
        if not -len(self) <= k < len(self):
            raise IndexError("curve index out of range")
        return self._row(k % len(self))

    def __iter__(self):
        return map(self._row, range(len(self)))

    def _row(self, k: int) -> TrainingCurve:
        a, b = self._bounds[k], self._bounds[k + 1]
        return TrainingCurve(int(self.model_index[k]), float(self.n_nonembed[k]),
                             float(self.n_total[k]), self.tokens[a:b], self.c_total[a:b],
                             self.c_nonembed[a:b], self.loss[a:b])


@dataclass(frozen=True)
class FrontierPoint:
    """Per-bin winner: representative compute, its loss, size and tokens (read by perfbench)."""

    c: float
    loss_min: float
    n_opt: float
    d_opt: float
    model_index: int


_POINT_FIELDS = ("c", "loss_min", "n_opt", "d_opt", "model_index")
_BASES = ("total", "nonembed")


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
        if basis not in _BASES:
            raise ValueError(f"basis must be 'total' or 'nonembed', got {basis!r}")
        columns = (c, loss_min, n_opt, d_opt, model_index)
        if points is not None:
            columns = [[getattr(p, name) for p in points] for name in _POINT_FIELDS]
        arrays = dict(zip(_POINT_FIELDS, map(np.array, columns, (float,) * 4 + (int,))))
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


def bracketing_token_schedule(
    sizes, spec: LossSpec, embed_map: EmbedMap, margin: float = 3.0
) -> tuple[float, float]:
    """Token-multiple range bracketing every grid model's optimal allocation.

    Used when a custom spec or map makes the fixed default range unsuitable.
    """
    from .analytic import ce_of_optimal_ne

    if not (np.isfinite(margin) and margin >= 1):
        raise ValueError("margin must be finite and >= 1")
    sizes = np.asarray(sizes, dtype=float)
    ratios = ce_of_optimal_ne(sizes, spec, embed_map) / (6.0 * sizes**2)
    return float(ratios.min() / margin), float(ratios.max() * margin)


def simulate_curves(
    sizes,
    spec: LossSpec,
    embed_map: EmbedMap,
    tokens_per_param: tuple[float, float] = DEFAULT_TOKENS_PER_PARAM,
    samples_per_curve: int = DEFAULT_SAMPLES_PER_CURVE,
) -> Curves:
    """Evaluate the loss surface along each model's token schedule.

    Every sample is computed at once on C-ordered (models, samples) arrays,
    whose flattened rows are the table's sample columns; these four columns
    are the only full-size arrays it makes.  The loss is the surface itself:
    the checks here bound every sample, so none is repeated on the grid.
    """
    from .lossmodel import _surface
    from .params import _check_third, total_from_nonembed

    sizes = np.asarray(sizes, dtype=float)
    if sizes.ndim != 1 or sizes.size < 1:
        raise ValueError("sizes must be a non-empty 1-d sequence")
    if not (sizes[0] > 0 and sizes[-1] < math.inf and (np.diff(sizes) > 0).all()):
        raise ValueError("sizes must be finite, positive and strictly increasing")
    lo, hi = tokens_per_param
    if not 0 < lo < hi < math.inf:
        raise ValueError("tokens_per_param must be finite and satisfy 0 < lo < hi")
    if samples_per_curve < 2:
        raise ValueError("need samples_per_curve >= 2")
    _check_third(embed_map)
    n_total = total_from_nonembed(sizes, embed_map)
    # Extreme compute as associated below, in floats that overflow without warning.
    n0, n1, t1 = float(sizes[0]), float(sizes[-1]), float(n_total[-1])
    if not (6.0 * n0 * (float(lo) * n0) > 0 and 6.0 * t1 * (float(hi) * n1) < math.inf):
        raise ValueError("tokens_per_param takes compute out of the range of doubles")

    tokens = _token_grid(lo * sizes, hi * sizes, samples_per_curve)
    c_nonembed = 6.0 * sizes[:, None] * tokens
    c_total = 6.0 * n_total[:, None] * tokens
    # d = c_nonembed / (6 n_nonembed), as loss_ne_ce computes it; _surface
    # turns it into the loss in place.
    loss = _surface(n_total[:, None], c_nonembed / (6.0 * sizes[:, None]), spec)
    return Curves(np.arange(sizes.size), sizes, n_total, tokens.ravel(), c_total.ravel(),
                  c_nonembed.ravel(), loss.ravel(), np.arange(sizes.size) * samples_per_curve)


def _token_grid(start, stop, num):
    """``np.geomspace(start, stop, num, axis=1)`` bit for bit, built C-ordered in place;
    as in linspace, every row takes the zero-step branch once any row needs it."""
    log_start, log_stop = np.log10(start), np.log10(stop)
    delta = log_stop - log_start
    step = delta / (num - 1)
    j = np.arange(num, dtype=float)
    y = (j / (num - 1)) * delta[:, None] if (step == 0).any() else j * step[:, None]
    y += log_start[:, None]
    y[:, -1] = log_stop
    np.power(10.0, y, out=y)
    y[:, 0], y[:, -1] = start, stop
    return y


# Samples per block: the block size np.histogram uses for uniform bins, so
# extract_frontier's scratch stays at about 1 MiB for any sample count.
_BIN_BLOCK = 65536


def _block_scratch(size):
    """Buffers for blocks of up to ``size`` samples: bins, floats and two masks."""
    return (np.empty(size, dtype=np.intp), np.empty(size), np.empty(size, dtype=bool),
            np.empty(size, dtype=bool))


def _geometric_bin_of(c, edges, scratch):
    """Bin of each sample of the block ``c``, equal to
    ``np.searchsorted(edges[1:-1], c, side="right")``, as a view of ``scratch[0]``.

    ``edges`` are geometric, so a sample's bin is estimated from its logarithm
    in O(1), checked against the edges, and searched for only where the check
    fails; the result never depends on the accuracy of ``np.log``.  ``scratch``
    is a ``_block_scratch`` of at least ``c.size`` samples; the call overwrites
    all of its buffers.
    """
    n = edges.size - 1
    log_lo = math.log(edges[0])
    span = math.log(edges[-1]) - log_lo
    # A collapsed range estimates bin 0 everywhere and the check resolves it.
    scale = n / span if span > 0 else 0.0
    k, f, missed, above = (a[:c.size] for a in scratch)
    np.log(c, out=f)
    f -= log_lo
    f *= scale
    np.clip(f, 0, n - 1, out=f)
    np.copyto(k, f, casting="unsafe")
    # mode="clip" writes straight into f; the default mode buffers the output.
    np.take(edges, k, out=f, mode="clip")
    np.greater(f, c, out=missed)
    # The last bin's upper edge is the largest edge, so samples on it are searched.
    np.take(edges[1:], k, out=f, mode="clip")
    np.greater_equal(c, f, out=above)
    missed |= above
    miss = np.flatnonzero(missed)
    if miss.size:
        k[miss] = np.searchsorted(edges[1:-1], c[miss], side="right")
    return k


def extract_frontier(
    curves: Curves,
    n_bins: int = DEFAULT_BINS,
    basis: str = "nonembed",
    drop_edge_models: bool = True,
) -> Frontier:
    """Bin pooled samples by compute and keep the minimum-loss sample per bin.

    ``curves`` is a ``Curves`` table of at least two curves and one sample,
    with finite losses and finite positive compute, checked by the minima and
    maxima the edges need.  The ``n_bins`` bins are geometric between the
    smallest and largest compute; a sample's bin is the number of interior
    edges at or below its compute, estimated from its logarithm and checked
    against the edges, with a binary search only for samples the estimate
    misses.  Samples go through in blocks of ``_BIN_BLOCK``, so no scratch
    array grows with the sample count.
    A bin's winner is its first minimum-loss sample in pooled (curve, then
    sample) order.  Bins whose winner has the table's smallest or largest
    ``model_index`` are discarded by default: at the extremes those models win
    only because nothing smaller or larger exists, which truncates the
    envelope and biases fitted exponents.
    """
    if not isinstance(curves, Curves):
        raise TypeError(f"curves must be a Curves table, got {type(curves).__name__}")
    if len(curves) < 2:
        raise ValueError("need >=2 curves")
    if n_bins < 10:
        raise ValueError("need n_bins >= 10")
    if basis not in _BASES:
        raise ValueError("basis must be 'total' or 'nonembed'")

    c_all = curves.c_nonembed if basis == "nonembed" else curves.c_total
    loss_all = curves.loss
    if loss_all.size == 0:
        raise ValueError("curves hold no samples")
    c_lo, c_hi = c_all.min(), c_all.max()
    if not 0 < c_lo <= c_hi < math.inf:
        raise ValueError(f"c_{basis} must be finite and > 0")
    if not -math.inf < loss_all.min() <= loss_all.max() < math.inf:
        raise ValueError("loss must be finite")

    edges = np.geomspace(c_lo, c_hi, n_bins + 1)
    # sqrt(e0*e1) with both edges scaled by a power of two near e0, which is
    # exact: the same bits wherever e0*e1 is a normal double, and no overflow
    # or underflow outside that range.
    e0, e1 = edges[:-1], edges[1:]
    s = np.ldexp(1.0, np.frexp(e0)[1])
    centers = s * np.sqrt((e0 / s) * (e1 / s))

    # One pass over blocks, each binned into the same scratch: the block's
    # per-bin minimum and the first pooled index attaining it, found while the
    # block is in cache, replace the running ones only where that minimum is
    # strictly lower.  Ties keep the earlier block, so a bin's winner is its
    # first minimum-loss sample in pooled order; a bin without samples keeps
    # the index size.  Only the bins a block touches are merged and reset, so
    # a block costs O(block) whatever n_bins is.
    size = loss_all.size
    scratch = _block_scratch(min(size, _BIN_BLOCK))
    best, block_min = np.full(n_bins, np.inf), np.full(n_bins, np.inf)
    first, block_first = np.full(n_bins, size), np.full(n_bins, size)
    for a in range(0, size, _BIN_BLOCK):
        loss = loss_all[a:a + _BIN_BLOCK]
        k = _geometric_bin_of(c_all[a:a + _BIN_BLOCK], edges, scratch)
        np.minimum.at(block_min, k, loss)
        at_min, is_tie = scratch[1][:k.size], scratch[2][:k.size]
        np.take(block_min, k, out=at_min, mode="clip")
        np.equal(loss, at_min, out=is_tie)
        ties = np.flatnonzero(is_tie)
        touched = k[ties]  # each bin the block touched, at least once
        ties += a
        np.minimum.at(block_first, touched, ties)
        won = touched[block_min[touched] < best[touched]]
        best[won] = block_min[won]
        first[won] = block_first[won]
        block_min[touched] = np.inf
        block_first[touched] = size

    filled = np.flatnonzero(first < size)
    n_empty = n_bins - filled.size
    if n_empty > 0.5 * n_bins:
        raise ValueError(
            f"{n_empty}/{n_bins} compute bins are empty; token schedules too sparse"
        )
    curve = np.searchsorted(curves.starts, first[filled], side="right") - 1
    winner = curves.model_index[curve]
    edge = (winner == curves.model_index.min()) | (winner == curves.model_index.max())
    keep = ~edge if drop_edge_models else np.ones_like(edge)
    if not keep.any():
        raise ValueError("no frontier points survive the boundary guard")
    filled, curve = filled[keep], curve[keep]
    n_of = curves.n_nonembed if basis == "nonembed" else curves.n_total
    return Frontier(
        basis,
        c=centers[filled],
        loss_min=best[filled],
        n_opt=n_of[curve],
        d_opt=curves.tokens[first[filled]],
        model_index=winner[keep],
        n_empty=n_empty,
        n_dropped=keep.size - filled.size,
    )


def fit_param_scaling(frontier: Frontier) -> PowerLawFit:
    """Power law of optimal size vs compute along the frontier."""
    if frontier.c.size < 3:
        raise ValueError("need >=3 frontier points")
    return fit_power_law(frontier.c, frontier.n_opt)


def fit_loss_scaling(
    frontier: Frontier, form: str = "kaplan", fixed_offset: float | None = None
) -> PowerLawFit:
    """Compute-loss fit along the frontier: offset-free or with offset.

    Profiling the offset needs ``loss_min`` to fall strictly with compute.  A
    binned frontier does so while its bins are coarser than the spacing of the
    token schedules: a finer bin can miss every sample of the locally best
    model, and its minimum can then exceed the previous bin's.
    """
    if frontier.c.size < 3:
        raise ValueError("need >=3 frontier points")
    if form == "kaplan":
        return fit_power_law(frontier.c, frontier.loss_min)
    if form == "chinchilla":
        by_c = frontier.loss_min[np.argsort(frontier.c)]
        if fixed_offset is None and (np.diff(by_c) >= 0).any():
            raise ValueError(
                "frontier loss_min does not fall strictly with compute, so no offset can "
                "be profiled: the compute bins are finer than the token schedule's "
                "sample spacing; use fewer bins"
            )
        return fit_power_law_with_offset(frontier.c, frontier.loss_min, fixed_offset)
    raise ValueError("form must be 'kaplan' or 'chinchilla'")


def _open_out(path_or_buf):
    if hasattr(path_or_buf, "write"):
        return path_or_buf, False
    return open(path_or_buf, "w", newline=""), True


def write_curves_csv(curves: Curves, path_or_buf) -> None:
    """Curves CSV; full double precision so reruns are byte-identical."""
    fh, should_close = _open_out(path_or_buf)
    try:
        fh.write(CURVES_CSV_HEADER + "\n")
        for cv in curves:
            head = f"{cv.model_index},{cv.n_nonembed:.17g},{cv.n_total:.17g},"
            columns = (getattr(cv, name).tolist() for name in _SAMPLE_FIELDS)
            fh.write("".join(f"{head}{d:.17g},{ct:.17g},{ce:.17g},{ls:.17g}\n"
                             for d, ct, ce, ls in zip(*columns)))
    finally:
        if should_close:
            fh.close()


def write_frontier_csv(frontier: Frontier, path_or_buf) -> None:
    fh, should_close = _open_out(path_or_buf)
    try:
        fh.write(FRONTIER_CSV_HEADER + "\n")
        columns = (getattr(frontier, name).tolist() for name in _POINT_FIELDS)
        for c, loss_min, n_opt, d_opt, model_index in zip(*columns):
            fh.write(
                f"{frontier.basis},{c:.17g},{loss_min:.17g},"
                f"{n_opt:.17g},{d_opt:.17g},{model_index}\n"
            )
    finally:
        if should_close:
            fh.close()


def read_frontier_csv(path) -> Frontier:
    with open(Path(path), newline="") as fh:
        reader = csv.DictReader(fh)
        expected = FRONTIER_CSV_HEADER.split(",")
        if reader.fieldnames != expected:
            raise ValueError(f"frontier CSV must have header {FRONTIER_CSV_HEADER!r}")
        rows = list(reader)
    for k, row in enumerate(rows, 1):
        if None in row:  # csv.DictReader files the extra fields of a long row under None
            raise ValueError(f"frontier CSV row {k} has more than {len(expected)} fields")
        if None in row.values():
            raise ValueError(f"frontier CSV row {k} has fewer than {len(expected)} fields")
    bases = {row["basis"] for row in rows}
    if len(bases) > 1:
        raise ValueError("frontier CSV mixes bases")
    basis = bases.pop() if bases else "nonembed"
    columns = {name: [float(row[name]) for row in rows] for name in _POINT_FIELDS[:4]}
    return Frontier(basis, **columns, model_index=[int(row["model_index"]) for row in rows])
