"""Synthetic training curves and the compute-efficient frontier.

Each model on a size grid is swept over a log-spaced token schedule; the
pooled samples are binned by compute and the minimum-loss sample per bin
forms the frontier, from which the headline power laws are fitted.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import ce_of_optimal_ne
from .fitting import PowerLawFit, fit_power_law, fit_power_law_with_offset
from .lossmodel import LossSpec, loss_ne_ce
from .params import EmbedMap, _check_positive, total_from_nonembed

__all__ = [
    "KAPLAN_SIZE_RANGE",
    "KAPLAN_GRID_POINTS",
    "DEFAULT_TOKENS_PER_PARAM",
    "DEFAULT_SAMPLES_PER_CURVE",
    "DEFAULT_BINS",
    "TrainingCurve",
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
    _check_positive("n_min", n_min)
    _check_positive("n_max", n_max)
    if not n_min < n_max:
        raise ValueError("need 0 < n_min < n_max")
    if count < 2:
        raise ValueError("need count >= 2")
    return np.geomspace(n_min, n_max, count)


@dataclass(frozen=True)
class TrainingCurve:
    """One model's sweep over its token schedule."""

    model_index: int
    n_nonembed: float
    n_total: float
    tokens: np.ndarray
    c_total: np.ndarray
    c_nonembed: np.ndarray
    loss: np.ndarray


@dataclass(frozen=True)
class FrontierPoint:
    """Per-bin winner: representative compute, its loss, size and tokens."""

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
) -> list[TrainingCurve]:
    """Evaluate the loss surface along each model's token schedule.

    Each curve's arrays are one row of (models, samples) arrays computed at once.
    """
    sizes = np.asarray(sizes, dtype=float)
    if sizes.ndim != 1 or sizes.size < 1:
        raise ValueError("sizes must be a non-empty 1-d sequence")
    if not np.isfinite(sizes).all():
        raise ValueError("sizes must be finite")
    if np.any(sizes <= 0) or np.any(np.diff(sizes) <= 0):
        raise ValueError("sizes must be positive and strictly increasing")
    lo, hi = tokens_per_param
    if not 0 < lo < hi < math.inf:
        raise ValueError("tokens_per_param must be finite and satisfy 0 < lo < hi")
    if samples_per_curve < 2:
        raise ValueError("need samples_per_curve >= 2")

    tokens = np.geomspace(lo * sizes, hi * sizes, samples_per_curve, axis=1)
    n_total = total_from_nonembed(sizes, embed_map)
    c_nonembed = 6.0 * sizes[:, None] * tokens
    c_total = 6.0 * n_total[:, None] * tokens
    loss = loss_ne_ce(sizes[:, None], c_nonembed, spec, embed_map)
    rows = zip(sizes.tolist(), n_total.tolist(), tokens, c_total, c_nonembed, loss)
    return [TrainingCurve(index, *row) for index, row in enumerate(rows)]


def extract_frontier(
    curves: list[TrainingCurve],
    n_bins: int = DEFAULT_BINS,
    basis: str = "nonembed",
    drop_edge_models: bool = True,
) -> Frontier:
    """Bin pooled samples by compute and keep the minimum-loss sample per bin.

    A bin's winner is its first minimum-loss sample in pooled (curve, then
    sample) order.  Bins whose winner is the smallest or largest grid model
    are discarded by default: at the extremes those models win only because
    nothing smaller or larger exists, which truncates the envelope and biases
    fitted exponents.
    """
    if len(curves) < 2:
        raise ValueError("need >=2 curves")
    if n_bins < 10:
        raise ValueError("need n_bins >= 10")
    if basis not in _BASES:
        raise ValueError("basis must be 'total' or 'nonembed'")

    c_all = np.concatenate([cv.c_nonembed if basis == "nonembed" else cv.c_total for cv in curves])
    loss_all = np.concatenate([cv.loss for cv in curves])
    _check_positive(f"c_{basis}", c_all)
    if not np.isfinite(loss_all).all():
        raise ValueError("loss must be finite")

    edges = np.geomspace(c_all.min(), c_all.max(), n_bins + 1)
    centers = np.sqrt(edges[:-1] * edges[1:])
    bin_of = np.clip(np.searchsorted(edges, c_all, side="right") - 1, 0, n_bins - 1)

    # One pass for each bin's minimum, one for the lowest pooled index attaining
    # it; a bin without samples keeps the index loss_all.size.
    best = np.full(n_bins, np.inf)
    np.minimum.at(best, bin_of, loss_all)
    ties = np.flatnonzero(loss_all == best[bin_of])
    first = np.full(n_bins, loss_all.size)
    np.minimum.at(first, bin_of[ties], ties)

    filled = np.flatnonzero(first < loss_all.size)
    n_empty = n_bins - filled.size
    if n_empty > 0.5 * n_bins:
        raise ValueError(
            f"{n_empty}/{n_bins} compute bins are empty; token schedules too sparse"
        )
    starts = np.cumsum([0] + [cv.loss.size for cv in curves[:-1]])
    curve = np.searchsorted(starts, first[filled], side="right") - 1
    sample = first[filled] - starts[curve]
    winner = np.array([cv.model_index for cv in curves])[curve]
    edge = (winner == 0) | (winner == len(curves) - 1)
    keep = ~edge if drop_edge_models else np.ones_like(edge)
    if not keep.any():
        raise ValueError("no frontier points survive the boundary guard")
    filled, curve, sample = filled[keep], curve[keep], sample[keep]
    n_of = np.array([cv.n_nonembed if basis == "nonembed" else cv.n_total for cv in curves])
    return Frontier(
        basis,
        c=centers[filled],
        loss_min=best[filled],
        n_opt=n_of[curve],
        d_opt=[curves[k].tokens[j] for k, j in zip(curve.tolist(), sample.tolist())],
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
    """Compute-loss fit along the frontier: offset-free or with offset."""
    if frontier.c.size < 3:
        raise ValueError("need >=3 frontier points")
    if form == "kaplan":
        return fit_power_law(frontier.c, frontier.loss_min)
    if form == "chinchilla":
        return fit_power_law_with_offset(frontier.c, frontier.loss_min, fixed_offset)
    raise ValueError("form must be 'kaplan' or 'chinchilla'")


def _open_out(path_or_buf):
    if hasattr(path_or_buf, "write"):
        return path_or_buf, False
    return open(path_or_buf, "w", newline=""), True


def write_curves_csv(curves: list[TrainingCurve], path_or_buf) -> None:
    """Curves CSV; full double precision so reruns are byte-identical."""
    fh, should_close = _open_out(path_or_buf)
    try:
        fh.write(CURVES_CSV_HEADER + "\n")
        for cv in curves:
            for d, ct, ce, ls in zip(cv.tokens, cv.c_total, cv.c_nonembed, cv.loss):
                fh.write(
                    f"{cv.model_index},{cv.n_nonembed:.17g},{cv.n_total:.17g},"
                    f"{d:.17g},{ct:.17g},{ce:.17g},{ls:.17g}\n"
                )
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
    bases = {row["basis"] for row in rows}
    if len(bases) > 1:
        raise ValueError("frontier CSV mixes bases")
    basis = bases.pop() if bases else "nonembed"
    columns = {name: [float(row[name]) for row in rows] for name in _POINT_FIELDS[:4]}
    return Frontier(basis, **columns, model_index=[int(row["model_index"]) for row in rows])
