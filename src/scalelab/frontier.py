"""Synthetic training curves and the compute-efficient frontier.

Each model on a size grid is swept over a log-spaced token schedule; the
pooled samples are binned by compute and the minimum-loss sample per bin
forms the frontier, from which the headline power laws are fitted.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import ce_of_optimal_ne
from .fitting import PowerLawFit, fit_power_law, fit_power_law_with_offset
from .lossmodel import LossSpec, loss_ne_ce
from .params import EmbedMap, total_from_nonembed

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
    if not 0 < n_min < n_max:
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


@dataclass(frozen=True)
class Frontier:
    basis: str
    points: list[FrontierPoint]

    @property
    def c(self) -> np.ndarray:
        return np.array([p.c for p in self.points])

    @property
    def loss_min(self) -> np.ndarray:
        return np.array([p.loss_min for p in self.points])

    @property
    def n_opt(self) -> np.ndarray:
        return np.array([p.n_opt for p in self.points])

    @property
    def d_opt(self) -> np.ndarray:
        return np.array([p.d_opt for p in self.points])


def bracketing_token_schedule(
    sizes, spec: LossSpec, embed_map: EmbedMap, margin: float = 3.0
) -> tuple[float, float]:
    """Token-multiple range bracketing every grid model's optimal allocation.

    Used when a custom spec or map makes the fixed default range unsuitable.
    """
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
    """Evaluate the loss surface along each model's token schedule."""
    sizes = np.asarray(sizes, dtype=float)
    if sizes.ndim != 1 or sizes.size < 1:
        raise ValueError("sizes must be a non-empty 1-d sequence")
    if np.any(sizes <= 0) or np.any(np.diff(sizes) <= 0):
        raise ValueError("sizes must be positive and strictly increasing")
    lo, hi = tokens_per_param
    if not 0 < lo < hi:
        raise ValueError("tokens_per_param must satisfy 0 < lo < hi")
    if samples_per_curve < 2:
        raise ValueError("need samples_per_curve >= 2")

    curves = []
    for index, n in enumerate(sizes):
        tokens = np.geomspace(lo * n, hi * n, samples_per_curve)
        n_total = total_from_nonembed(float(n), embed_map)
        c_nonembed = 6.0 * n * tokens
        c_total = 6.0 * n_total * tokens
        loss = loss_ne_ce(n, c_nonembed, spec, embed_map)
        curves.append(
            TrainingCurve(
                model_index=index,
                n_nonembed=float(n),
                n_total=n_total,
                tokens=tokens,
                c_total=c_total,
                c_nonembed=c_nonembed,
                loss=loss,
            )
        )
    return curves


def extract_frontier(
    curves: list[TrainingCurve],
    n_bins: int = DEFAULT_BINS,
    basis: str = "nonembed",
    drop_edge_models: bool = True,
) -> Frontier:
    """Bin pooled samples by compute and keep the minimum-loss sample per bin.

    Bins whose winner is the smallest or largest grid model are discarded by
    default: at the extremes those models win only because nothing smaller or
    larger exists, which truncates the envelope and biases fitted exponents.
    """
    if len(curves) < 2:
        raise ValueError("need >=2 curves")
    if n_bins < 10:
        raise ValueError("need n_bins >= 10")
    if basis not in ("total", "nonembed"):
        raise ValueError("basis must be 'total' or 'nonembed'")

    c_all = np.concatenate([cv.c_nonembed if basis == "nonembed" else cv.c_total for cv in curves])
    n_all = np.concatenate(
        [np.full(cv.tokens.size, cv.n_nonembed if basis == "nonembed" else cv.n_total) for cv in curves]
    )
    loss_all = np.concatenate([cv.loss for cv in curves])
    d_all = np.concatenate([cv.tokens for cv in curves])
    index_all = np.concatenate([np.full(cv.tokens.size, cv.model_index) for cv in curves])

    edges = np.geomspace(c_all.min(), c_all.max(), n_bins + 1)
    centers = np.sqrt(edges[:-1] * edges[1:])
    bin_of = np.clip(np.searchsorted(edges, c_all, side="right") - 1, 0, n_bins - 1)

    last_model = len(curves) - 1
    points = []
    n_empty = 0
    for b in range(n_bins):
        mask = bin_of == b
        if not mask.any():
            n_empty += 1
            continue
        j = np.argmin(loss_all[mask])
        winner = int(index_all[mask][j])
        if drop_edge_models and winner in (0, last_model):
            continue
        points.append(
            FrontierPoint(
                c=float(centers[b]),
                loss_min=float(loss_all[mask][j]),
                n_opt=float(n_all[mask][j]),
                d_opt=float(d_all[mask][j]),
                model_index=winner,
            )
        )
    if n_empty > 0.5 * n_bins:
        raise ValueError(
            f"{n_empty}/{n_bins} compute bins are empty; token schedules too sparse"
        )
    if not points:
        raise ValueError("no frontier points survive the boundary guard")
    return Frontier(basis=basis, points=points)


def fit_param_scaling(frontier: Frontier) -> PowerLawFit:
    """Power law of optimal size vs compute along the frontier."""
    if len(frontier.points) < 3:
        raise ValueError("need >=3 frontier points")
    return fit_power_law(frontier.c, frontier.n_opt)


def fit_loss_scaling(
    frontier: Frontier, form: str = "kaplan", fixed_offset: float | None = None
) -> PowerLawFit:
    """Compute-loss fit along the frontier: offset-free or with offset."""
    if len(frontier.points) < 3:
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
        for p in frontier.points:
            fh.write(
                f"{frontier.basis},{p.c:.17g},{p.loss_min:.17g},"
                f"{p.n_opt:.17g},{p.d_opt:.17g},{p.model_index}\n"
            )
    finally:
        if should_close:
            fh.close()


def read_frontier_csv(path) -> Frontier:
    points = []
    bases = set()
    with open(Path(path), newline="") as fh:
        reader = csv.DictReader(fh)
        expected = FRONTIER_CSV_HEADER.split(",")
        if reader.fieldnames != expected:
            raise ValueError(f"frontier CSV must have header {FRONTIER_CSV_HEADER!r}")
        for row in reader:
            bases.add(row["basis"])
            points.append(
                FrontierPoint(
                    c=float(row["c"]),
                    loss_min=float(row["loss_min"]),
                    n_opt=float(row["n_opt"]),
                    d_opt=float(row["d_opt"]),
                    model_index=int(row["model_index"]),
                )
            )
    if len(bases) > 1:
        raise ValueError("frontier CSV mixes bases")
    basis = bases.pop() if bases else "nonembed"
    return Frontier(basis=basis, points=points)
