import dataclasses
import io
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalelab import (
    DEFAULT_EMBED_MAP,
    EPOCH,
    SPEC_CATALOG,
    Curves,
    EmbedMap,
    Frontier,
    FrontierPoint,
    LossSpec,
    bracketing_token_schedule,
    ce_of_optimal_ne,
    exponent_curve,
    extract_frontier,
    fit_loss_scaling,
    fit_param_scaling,
    kaplan_size_grid,
    loss_ne_ce,
    read_frontier_csv,
    simulate_curves,
    size_grid,
    total_from_nonembed,
    write_curves_csv,
    write_frontier_csv,
)
from scalelab import frontier as frontier_module
from scalelab import lossmodel
from scalelab.analytic import _min_beta

IDENTITY = EmbedMap(0.0)
POINT_COLUMNS = ("c", "loss_min", "n_opt", "d_opt", "model_index")
SAMPLE_COLUMNS = ("tokens", "loss")
COMPUTE_COLUMNS = ("c_total", "c_nonembed")
CURVE_COLUMNS = ("model_index", "n_nonembed", "n_total", *SAMPLE_COLUMNS)
# A size at which 6 n is exactly 1.0, so a table's compute is its tokens.
UNIT = 1.0 / 6.0


def _invert_ce(c, spec, emap, lo=1e-6, hi=1e18):
    """Test-local bisection inverse of the compute-at-optimum relation."""
    for _ in range(300):
        mid = np.sqrt(lo * hi)
        if ce_of_optimal_ne(mid, spec, emap) < c:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1 + 1e-13:
            break
    return np.sqrt(lo * hi)


def test_kaplan_size_grid_contract():
    grid = kaplan_size_grid()
    assert grid.size == 20
    assert grid[0] == pytest.approx(790.0, rel=1e-14)
    assert grid[-1] == pytest.approx(1.58e9, rel=1e-14)
    ratios = grid[1:] / grid[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)


def test_curve_invariants(epoch_curves):
    curves = epoch_curves
    assert curves.model_index.size == 20
    for k in range(len(curves)):
        assert np.all(np.diff(curves.loss[k]) < 0)
        assert np.all(np.diff(curves.c_total[k]) > 0)
        assert np.all(np.diff(curves.c_nonembed[k]) > 0)
        np.testing.assert_allclose(curves.c_total[k] / curves.c_nonembed[k],
                                   curves.n_total[k] / curves.n_nonembed[k], rtol=1e-12)


def test_larger_models_have_lower_asymptotic_loss(epoch_curves):
    floors = [
        loss_ne_ce(n, 6.0 * n * 1e30, EPOCH, DEFAULT_EMBED_MAP)
        for n in epoch_curves.n_nonembed.tolist()
    ]
    assert np.all(np.diff(floors) < 0)


def test_frontier_points_hug_analytic_envelope(epoch_frontier_nonembed):
    front = epoch_frontier_nonembed
    for n_opt, d_opt, loss_min in zip(front.n_opt[::7].tolist(), front.d_opt[::7].tolist(),
                                      front.loss_min[::7].tolist()):
        c_won = 6.0 * n_opt * d_opt
        n_star = _invert_ce(c_won, EPOCH, DEFAULT_EMBED_MAP)
        envelope = loss_ne_ce(n_star, c_won, EPOCH, DEFAULT_EMBED_MAP)
        assert loss_min >= envelope - 1e-9
        assert loss_min <= 1.01 * envelope


def test_frontier_tracks_analytic_optimum_within_grid_spacing(epoch_frontier_nonembed):
    grid = kaplan_size_grid()
    step = np.log(grid[1] / grid[0])
    worst = 0.0
    front = epoch_frontier_nonembed
    for c, n_opt in zip(front.c.tolist(), front.n_opt.tolist()):
        n_star = _invert_ce(c, EPOCH, DEFAULT_EMBED_MAP)
        worst = max(worst, abs(np.log(n_opt / n_star)))
    assert worst <= step


def test_frontier_monotonicity(epoch_frontier_nonembed, epoch_frontier_total):
    for frontier in (epoch_frontier_nonembed, epoch_frontier_total):
        assert np.all(np.diff(frontier.loss_min) <= 0)
        assert np.all(np.diff(frontier.n_opt) >= 0)
        assert np.all(np.diff(frontier.c) > 0)


@pytest.mark.parametrize("basis", ["total", "nonembed"])
@pytest.mark.parametrize("spec_name", ["epoch", "chinchilla"])
@pytest.mark.parametrize("n_bins", [50, 100, 150, 200, 250, 300])
def test_headline_envelope_loss_strictly_decreases(request, n_bins, spec_name, basis):
    """What the offset fit needs holds at the headline scale.  The winning
    model_index need not rise: at 200 bins the chinchilla total-basis
    frontier steps back twice."""
    frontier = extract_frontier(request.getfixturevalue(f"{spec_name}_curves"),
                                n_bins=n_bins, basis=basis)
    assert (np.diff(frontier.loss_min) < 0).all()


def test_offset_fit_names_bins_finer_than_the_schedule():
    flat = Frontier("total", c=[1e10, 1e11, 1e12, 1e13], loss_min=[3.0, 2.5, 2.5, 2.2],
                    n_opt=[1e3, 1e4, 1e5, 1e6], d_opt=[1e6] * 4, model_index=[1, 2, 3, 4])
    with pytest.raises(ValueError, match="bins are finer than the token schedule"):
        fit_loss_scaling(flat, form="chinchilla")
    assert fit_loss_scaling(flat, form="chinchilla", fixed_offset=1.0).offset == 1.0
    assert fit_loss_scaling(flat, form="kaplan").exponent < 0


@pytest.mark.parametrize("column, bad, message", [
    ("c", 0.0, "x values must be finite and > 0"),
    ("c", np.nan, "x values must be finite and > 0"),
    ("c", -1e11, "x values must be finite and > 0"),
    ("loss_min", np.inf, "y values must be finite and > 0"),
])
def test_offset_fit_names_a_bad_value_not_the_bins(column, bad, message):
    """The offset fit checks values before the falling loss, as the plain fits do."""
    columns = dict(c=[1e10, 1e11, 1e12, 1e13], loss_min=[3.0, 2.5, 2.3, 2.2])
    columns[column][1] = bad
    front = Frontier("total", **columns, n_opt=[1e3, 1e4, 1e5, 1e6], d_opt=[1e6] * 4,
                     model_index=[1, 2, 3, 4])
    for form in ("kaplan", "chinchilla"):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit_loss_scaling(front, form=form)


def test_frontier_bases_select_same_models(epoch_frontier_nonembed, epoch_frontier_total):
    ne_winners = set(epoch_frontier_nonembed.model_index.tolist())
    t_winners = set(epoch_frontier_total.model_index.tolist())
    assert ne_winners == t_winners


def test_two_model_toy_switches_at_curve_crossing():
    spec = LossSpec(400.0, 400.0, 0.3, 0.3, 1.0)
    sizes = np.array([1e6, 1e8])
    curves = simulate_curves(sizes, spec, IDENTITY, tokens_per_param=(1e-3, 1e6),
                             samples_per_curve=2048)
    n_bins = 200
    frontier = extract_frontier(curves, n_bins=n_bins, basis="nonembed",
                                drop_edge_models=False)

    # analytic crossing of the two continuous loss curves
    lo, hi = 1e14, 1e18
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if loss_ne_ce(sizes[0], mid, spec, IDENTITY) < loss_ne_ce(sizes[1], mid, spec, IDENTITY):
            lo = mid
        else:
            hi = mid
    crossing = np.sqrt(lo * hi)

    c0 = frontier.c[frontier.model_index == 0]
    c1 = frontier.c[frontier.model_index == 1]
    assert c0.size and c1.size
    assert max(c0) < min(c1)
    pooled = curves.c_nonembed
    bin_ratio = (pooled.max() / pooled.min()) ** (1.0 / n_bins)
    assert max(c0) <= crossing * bin_ratio
    assert min(c1) >= crossing / bin_ratio


def test_omega_zero_total_basis_recovers_global_exponent():
    curves = simulate_curves(kaplan_size_grid(), EPOCH, IDENTITY)
    frontier = extract_frontier(curves, basis="total")
    fit = fit_param_scaling(frontier)
    expected = EPOCH.beta / (EPOCH.alpha + EPOCH.beta)
    assert fit.exponent == pytest.approx(expected, abs=0.01)


def test_extract_frontier_preconditions(epoch_curves):
    one = Curves(*(getattr(epoch_curves, name)[:1] for name in CURVE_COLUMNS))
    with pytest.raises(ValueError):
        extract_frontier(one)
    with pytest.raises(TypeError, match="curves"):
        extract_frontier(list(epoch_curves))
    with pytest.raises(ValueError):
        extract_frontier(epoch_curves, n_bins=5)
    with pytest.raises(ValueError):
        extract_frontier(epoch_curves, basis="flops")


def test_extract_frontier_rejects_sparse_schedules():
    curves = simulate_curves(np.array([1e4, 1e5, 1e6]), EPOCH, DEFAULT_EMBED_MAP,
                             tokens_per_param=(10.0, 20.0), samples_per_curve=2)
    with pytest.raises(ValueError, match="too sparse"):
        extract_frontier(curves, n_bins=200)


def test_simulate_curves_preconditions():
    with pytest.raises(ValueError):
        simulate_curves(np.array([1e6, 1e5]), EPOCH, DEFAULT_EMBED_MAP)
    with pytest.raises(ValueError):
        simulate_curves(np.array([1e5, 1e6]), EPOCH, DEFAULT_EMBED_MAP,
                        tokens_per_param=(100.0, 10.0))
    with pytest.raises(ValueError):
        simulate_curves(np.array([1e5, 1e6]), EPOCH, DEFAULT_EMBED_MAP,
                        samples_per_curve=1)


def test_csv_output_deterministic_and_round_trips(tmp_path, epoch_frontier_nonembed,
                                                  epoch_curves):
    a, b = io.StringIO(), io.StringIO()
    write_frontier_csv(epoch_frontier_nonembed, a)
    write_frontier_csv(epoch_frontier_nonembed, b)
    assert a.getvalue() == b.getvalue()
    assert a.getvalue().splitlines()[0] == "basis,c,loss_min,n_opt,d_opt,model_index"

    path = tmp_path / "frontier.csv"
    write_frontier_csv(epoch_frontier_nonembed, path)
    again = read_frontier_csv(path)
    assert again.basis == epoch_frontier_nonembed.basis
    for name in POINT_COLUMNS:
        assert np.array_equal(getattr(again, name), getattr(epoch_frontier_nonembed, name))

    small = simulate_curves(np.array([1e4, 1e6]), EPOCH, DEFAULT_EMBED_MAP,
                            samples_per_curve=4)
    buf = io.StringIO()
    write_curves_csv(small, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "model_index,n_nonembed,n_total,tokens,c_total,c_nonembed,loss"
    assert len(lines) == 1 + 2 * 4


def test_pipeline_rerun_identical(epoch_curves):
    rerun = simulate_curves(kaplan_size_grid(), EPOCH, DEFAULT_EMBED_MAP)
    assert np.array_equal(epoch_curves.loss, rerun.loss)
    assert np.array_equal(epoch_curves.c_nonembed, rerun.c_nonembed)
    f1 = extract_frontier(epoch_curves, basis="nonembed")
    f2 = extract_frontier(rerun, basis="nonembed")
    for name in POINT_COLUMNS:
        assert np.array_equal(getattr(f1, name), getattr(f2, name))


def _masked_argmin_frontier(curves, n_bins, basis, drop_edge_models):
    """Reference: each bin's winner by a boolean mask and argmin over all pooled samples.

    Returns the frontier's columns by name, each kept bin's lower and upper edges, n_empty
    and n_dropped.  A kept bin's c is sqrt(lo*hi) where that product is a normal double,
    else NaN.
    """
    c_all, loss, tokens = (getattr(curves, name).ravel()
                           for name in (f"c_{basis}", "loss", "tokens"))
    samples = curves.loss.shape[1]
    n_all = np.repeat(getattr(curves, f"n_{basis}"), samples)
    index_all = np.repeat(curves.model_index, samples)
    labels = curves.model_index.tolist()
    edges = np.geomspace(c_all.min(), c_all.max(), n_bins + 1)
    with np.errstate(over="ignore", under="ignore"):
        product = edges[:-1] * edges[1:]
    normal = (product >= np.finfo(float).tiny) & (product < np.inf)
    centers = np.where(normal, np.sqrt(np.where(normal, product, 1.0)), np.nan)
    bin_of = np.clip(np.searchsorted(edges, c_all, side="right") - 1, 0, n_bins - 1)
    kept, won, n_empty, n_dropped = [], [], 0, 0
    for b in range(n_bins):
        mask = bin_of == b
        if not mask.any():
            n_empty += 1
            continue
        j = np.flatnonzero(mask)[np.argmin(loss[mask])]
        if drop_edge_models and index_all[j] in (min(labels), max(labels)):
            n_dropped += 1
            continue
        kept.append(b)
        won.append(j)
    kept, won = np.array(kept, dtype=int), np.array(won, dtype=int)
    columns = dict(c=centers[kept], loss_min=loss[won], n_opt=n_all[won],
                   d_opt=tokens[won], model_index=index_all[won])
    return columns, edges[kept], edges[kept + 1], n_empty, n_dropped


def _assert_columns_match(frontier, want, lo, hi):
    """Column for column; where the reference c is NaN, c need only lie within its bin."""
    assert frontier.c.shape == want["c"].shape
    unknown = np.isnan(want["c"])
    assert ((lo <= frontier.c) & (frontier.c <= hi))[unknown].all()
    for name in POINT_COLUMNS:
        expected = np.where(unknown, frontier.c, want["c"]) if name == "c" else want[name]
        assert np.array_equal(getattr(frontier, name), expected), name


@st.composite
def curve_sets(draw):
    """Hand-built tables of 2-6 curves of 1-40 samples each, labelled by a shuffled range
    that need not start at 0, whose losses take few values, both signed zeros among them,
    so bins tie."""
    shape = draw(st.integers(2, 6)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = [*rng.uniform(0.5, 5.0, draw(st.integers(1, 3))), 0.0, -0.0]
    model_index = rng.permutation(shape[0]) + draw(st.sampled_from([0, 3]))

    def positive(size):
        return 10.0 ** rng.uniform(-3.0, 9.0, size)

    return Curves(model_index, positive(shape[0]), positive(shape[0]), positive(shape),
                  rng.choice(levels, shape))


@settings(max_examples=300, deadline=None)
@given(curve_sets(), st.integers(10, 24), st.sampled_from(["nonembed", "total"]), st.booleans(),
       st.sampled_from([1, 3, 64, 65536]))
def test_extract_frontier_matches_masked_argmin(curves, n_bins, basis, drop_edge_models, block):
    """Any block size, so that ties and signed zeros also meet across blocks."""
    want, lo, hi, n_empty, n_dropped = _masked_argmin_frontier(curves, n_bins, basis,
                                                               drop_edge_models)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontier_module, "_BIN_BLOCK", block)
        if n_empty > 0.5 * n_bins or not want["c"].size:
            error = "too sparse" if n_empty > 0.5 * n_bins else "no frontier points"
            with pytest.raises(ValueError, match=error):
                extract_frontier(curves, n_bins, basis, drop_edge_models)
            return
        frontier = extract_frontier(curves, n_bins, basis, drop_edge_models)
    _assert_columns_match(frontier, want, lo, hi)
    assert np.array_equal(np.signbit(frontier.loss_min), np.signbit(want["loss_min"]))
    assert (frontier.n_empty, frontier.n_dropped) == (n_empty, n_dropped)


def test_loss_min_is_the_winners_own_loss():
    """A bin holding 0.0 from model 0 and then -0.0 from model 1 goes to model 0, and
    reports model 0's own +0.0."""
    c = np.tile(np.geomspace(1.0, 1e4, 20), (2, 1))
    loss = np.array([np.linspace(3.0, 1.0, 20), np.linspace(3.5, 1.5, 20)])
    loss[:, 7] = 0.0, -0.0
    curves = Curves([0, 1], [UNIT] * 2, [UNIT] * 2, c, loss)
    for basis in ("nonembed", "total"):
        front = extract_frontier(curves, 10, basis, drop_edge_models=False)
        # A sample is named by its curve and its tokens, which rise along the curve.
        won = front.model_index * 20 + np.searchsorted(c[0], front.d_opt)
        assert front.loss_min.tobytes() == curves.loss.ravel()[won].tobytes()
        assert front.model_index[3] == 0 and front.loss_min[3].tobytes() == b"\0" * 8


def test_extract_frontier_edges_do_not_overflow():
    """Compute up to the largest double: the last edge is computed as 10**log10(c_hi),
    which rounds past it, but neither an overflow warning nor, under
    ``np.errstate(over="raise")``, an error escapes, and every centre is finite."""
    c = 10.0 ** np.linspace(0.0, 308.0, 40).reshape(4, 10)
    c[-1, -1] = np.finfo(float).max
    loss = np.random.default_rng(3).uniform(1.0, 2.0, (4, 10))
    curves = Curves(range(4), np.full(4, UNIT), np.full(4, UNIT), c, loss)
    for over in ("warn", "raise"):
        with np.errstate(over=over):
            front = extract_frontier(curves, 10, "total", drop_edge_models=False)
        assert front.c.size == 10 and np.isfinite(front.c).all()


@settings(deadline=None)
@given(st.floats(-3.0, 9.0), st.lists(st.floats(0.01, 2.0), max_size=7),
       st.sampled_from([0.0, 1e-3, 47491.0, 1e8]), st.sampled_from(sorted(SPEC_CATALOG)),
       st.floats(-2.0, 3.0), st.floats(0.01, 6.0), st.integers(2, 64))
def test_simulate_curves_matches_per_model_evaluation(log_first, log_steps, omega, spec_name,
                                                      log_lo, log_span, samples):
    sizes = 10.0 ** (log_first + np.cumsum([0.0, *log_steps]))
    emap, spec = EmbedMap(omega), SPEC_CATALOG[spec_name]
    lo, hi = 10.0**log_lo, 10.0 ** (log_lo + log_span)
    curves = simulate_curves(sizes, spec, emap, (lo, hi), samples)
    assert curves.model_index.size == sizes.size
    for index, n in enumerate(sizes):
        tokens = np.geomspace(lo * n, hi * n, samples)
        n_total = total_from_nonembed(float(n), emap)
        c_nonembed = 6.0 * n * tokens
        assert (curves.model_index[index], curves.n_nonembed[index],
                curves.n_total[index]) == (index, float(n), n_total)
        np.testing.assert_array_equal(curves.tokens[index], tokens)
        np.testing.assert_array_equal(curves.c_nonembed[index], c_nonembed)
        np.testing.assert_array_equal(curves.c_total[index], 6.0 * n_total * tokens)
        np.testing.assert_array_equal(curves.loss[index], loss_ne_ce(n, c_nonembed, spec, emap))


@st.composite
def token_grid_ends(draw):
    """Rows of (start, stop) from 1e-3 to 1e300, some a few ulps apart, where the
    log step can be 0."""
    rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = 10.0 ** rng.uniform(-3.0, 300.0, rows)
    stop = start * 10.0 ** rng.uniform(0.0, 5.0, rows)
    close = rng.random(rows) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    for k in np.flatnonzero(close):
        stop[k] = start[k]
        for _ in range(rng.integers(0, 4)):
            stop[k] = np.nextafter(stop[k], np.inf)
    return start, stop


@settings(max_examples=200, deadline=None)
@given(token_grid_ends(), st.integers(2, 1000))
def test_token_grid_matches_geomspace(ends, num):
    """Each row is the geomspace of its own ends, whatever the other rows' log steps."""
    start, stop = ends
    grid = np.empty((start.size, num))
    frontier_module._token_grid(start, stop, grid)
    want = np.array([np.geomspace(start[k], stop[k], num) for k in range(start.size)])
    np.testing.assert_array_equal(grid, want, strict=True)


def _whole_array_curves(sizes, spec, embed_map, tokens_per_param, samples):
    """The sample columns as one broadcast expression each over the whole grid, from
    each model's own token geomspace."""
    lo, hi = tokens_per_param
    n_total = total_from_nonembed(sizes, embed_map)
    tokens = np.array([np.geomspace(lo * n, hi * n, samples) for n in sizes])
    c_nonembed = 6.0 * sizes[:, None] * tokens
    c_total = 6.0 * n_total[:, None] * tokens
    d = c_nonembed / (6.0 * sizes[:, None])
    loss = spec.d_c / d**spec.beta + spec.n_c / n_total[:, None] ** spec.alpha + spec.e_irr
    return tokens, c_total, c_nonembed, loss


@st.composite
def row_block_grids(draw):
    """(sizes, tokens_per_param, samples, spec name, workers): 1-600 increasing sizes
    from 1e-2 to at most 1e66, 2-1500 samples, and a token window that is one ulp wide
    a tenth of the time, where a row's log step can be 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    models = draw(st.integers(1, 600))
    sizes = 10.0 ** (rng.uniform(-2.0, 6.0) + np.cumsum(rng.uniform(1e-3, 0.1, models)))
    lo = 10.0 ** rng.uniform(-2.0, 3.0)
    hi = np.nextafter(lo, np.inf) if rng.random() < 0.1 else lo * 10.0 ** rng.uniform(1e-3, 6.0)
    return (sizes, (lo, float(hi)), draw(st.integers(2, 1500)),
            draw(st.sampled_from(sorted(SPEC_CATALOG))), draw(st.sampled_from([1, 2, 3])))


def _zero_step_grid():
    """Three models whose token window is one ulp wide: at least one row's log step is 0."""
    sizes, window = np.array([1e3, 1e4, 1e5]), (10.0, float(np.nextafter(10.0, np.inf)))
    assert (np.log10(window[1] * sizes) == np.log10(window[0] * sizes)).any()
    return sizes, window


@settings(max_examples=40, deadline=None)
@given(row_block_grids())
@example((np.geomspace(1e3, 1e9, 3), (10.0, 3e5), frontier_module._BIN_BLOCK + 1, "epoch", 2))
@example((np.geomspace(1e3, 1e9, frontier_module._BIN_BLOCK // 512 + 1), (10.0, 3e5), 512,
          "chinchilla", 2))
@example((*_zero_step_grid(), 70000, "epoch", 3))
def test_row_block_simulation_matches_the_whole_array_reference(case):
    """simulate_curves equals the whole-array formulas bit for bit on 1, 2 or 3 workers:
    with rows longer than a block, a block holding one row, and a zero log step."""
    sizes, window, samples, spec_name, workers = case
    spec = SPEC_CATALOG[spec_name]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontier_module, "_usable_cpus", lambda: workers)
        curves = simulate_curves(sizes, spec, DEFAULT_EMBED_MAP, window, samples)
    want = _whole_array_curves(sizes, spec, DEFAULT_EMBED_MAP, window, samples)
    for name, column in zip(("tokens", "c_total", "c_nonembed", "loss"), want):
        np.testing.assert_array_equal(getattr(curves, name), column, strict=True, err_msg=name)


@st.composite
def model_grids(draw):
    """(sizes, tokens_per_param, samples, spec name): 1-40 increasing sizes from 1e-2 to at
    most 1e10, 2-600 samples, and a token window that is one ulp wide a third of the time."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    models = draw(st.integers(1, 40))
    sizes = 10.0 ** (rng.uniform(-2.0, 6.0) + np.cumsum(rng.uniform(1e-3, 0.1, models)))
    lo = 10.0 ** rng.uniform(-2.0, 3.0)
    hi = np.nextafter(lo, np.inf) if rng.random() < 1 / 3 else lo * 10.0 ** rng.uniform(1e-3, 6.0)
    return (sizes, (lo, float(hi)), draw(st.integers(2, 600)),
            draw(st.sampled_from(sorted(SPEC_CATALOG))))


def _mixed_step_grid(sizes, lo):
    """Models under the one-ulp window from ``lo``, where some rows' log step can be 0 and
    others' not; which ones, depends on the host's log10 kernel."""
    return np.array(sizes), (lo, float(np.nextafter(lo, np.inf)))


@settings(max_examples=60, deadline=None)
@given(model_grids())
@example((*_zero_step_grid(), 512, "epoch"))
@example((*_mixed_step_grid([1.0, 1e3], 1.0), 512, "chinchilla"))
# Under AVX-512 kernels, taking linspace's zero-step branch for every row once any row
# needs it, as a whole-grid geomspace does, moves one of row 0's tokens here.
@example((*_mixed_step_grid([20.0, 899.0], 2.0), 207, "epoch"))
def test_each_curve_is_its_model_simulated_alone(case):
    """A curve's samples are the bits its model gets when simulated alone: no row depends
    on another, also where some rows have a zero log step and others do not."""
    sizes, window, samples, spec_name = case
    spec = SPEC_CATALOG[spec_name]
    curves = simulate_curves(sizes, spec, DEFAULT_EMBED_MAP, window, samples)
    for k in range(sizes.size):
        alone = simulate_curves(sizes[k:k + 1], spec, DEFAULT_EMBED_MAP, window, samples)
        for name in ("n_nonembed", "n_total"):
            assert getattr(curves, name)[k] == getattr(alone, name)[0], name
        for name in ("tokens", "c_total", "c_nonembed", "loss"):
            np.testing.assert_array_equal(getattr(curves, name)[k], getattr(alone, name)[0],
                                          strict=True, err_msg=name)


def test_row_block_failure_is_the_callers(monkeypatch):
    """A block that raises stops the call with its exception, and no worker outlives it."""
    real, calls = lossmodel._surface, []

    def fail_second(*args):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("second block")
        return real(*args)

    monkeypatch.setattr(lossmodel, "_surface", fail_second)
    monkeypatch.setattr(frontier_module, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="second block"):
        simulate_curves(size_grid(1e3, 1e9, 300), EPOCH, DEFAULT_EMBED_MAP)
    assert threading.active_count() == before


@pytest.mark.parametrize("models, workers", [(300, 2), (300, 1), (3, 2)])
def test_row_block_overflow_raises_under_the_callers_errstate(monkeypatch, models, workers):
    """d**beta overflows at beta = 3 and 1e200 tokens per parameter, inside the compute
    guard; np.errstate(over="raise") reaches every block on every worker."""
    steep = LossSpec(n_c=406.4, d_c=410.7, alpha=0.3392, beta=3.0, e_irr=1.693)
    monkeypatch.setattr(frontier_module, "_usable_cpus", lambda: workers)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        simulate_curves(size_grid(1e3, 1e4, models), steep, DEFAULT_EMBED_MAP, (10.0, 1e200))


def test_frontier_points_round_trip_the_columns(epoch_frontier_total):
    front = epoch_frontier_total
    points = front.points
    assert [dataclasses.astuple(p) for p in points] == list(zip(
        front.c.tolist(), front.loss_min.tolist(), front.n_opt.tolist(),
        front.d_opt.tolist(), front.model_index.tolist()))
    again = Frontier(front.basis, points)
    for name in ("c", "loss_min", "n_opt", "d_opt", "model_index"):
        np.testing.assert_array_equal(getattr(again, name), getattr(front, name))
    assert again.model_index.dtype.kind == "i"
    assert dataclasses.replace(front, points=points[:3]).points == points[:3]
    with pytest.raises(ValueError):
        front.c[0] = 1.0
    with pytest.raises(ValueError, match="equal length"):
        Frontier("total", c=[1.0, 2.0], loss_min=[1.0], n_opt=[1.0], d_opt=[1.0],
                 model_index=[1])


@pytest.mark.parametrize("bad", [[0.5, 1.9], [0, np.nan], [np.inf, 1]])
def test_frontier_rejects_non_integral_model_index(bad):
    """On both the column and the record path, as ``Curves`` rejects them."""
    columns = dict(c=[1.0, 2.0], loss_min=[1.0, 1.0], n_opt=[1.0, 1.0], d_opt=[1.0, 1.0])
    with pytest.raises(ValueError, match="model_index must hold finite integers"):
        Frontier("total", **columns, model_index=bad)
    points = [FrontierPoint(*row) for row in zip(*columns.values(), bad)]
    with pytest.raises(ValueError, match="model_index must hold finite integers"):
        Frontier("total", points)


def test_frontier_takes_integral_floats_as_model_index():
    columns = dict(c=[1.0, 2.0], loss_min=[1.0, 1.0], n_opt=[1.0, 1.0], d_opt=[1.0, 1.0])
    front = Frontier("total", **columns, model_index=[3.0, -1.0])
    assert front.model_index.tolist() == [3, -1] and front.model_index.dtype == int
    points = [FrontierPoint(*row) for row in zip(*columns.values(), [3.0, -1.0])]
    assert Frontier("total", points).model_index.tolist() == [3, -1]


def test_frontier_counts_empty_and_dropped_bins(epoch_curves, epoch_frontier_nonembed,
                                                tmp_path):
    front = epoch_frontier_nonembed
    assert front.n_dropped > 0
    assert front.n_empty + front.n_dropped + front.c.size == 200
    kept_all = extract_frontier(epoch_curves, basis="nonembed", drop_edge_models=False)
    assert kept_all.n_dropped == 0
    assert kept_all.n_empty == front.n_empty
    assert kept_all.c.size == front.c.size + front.n_dropped
    path = tmp_path / "frontier.csv"
    write_frontier_csv(front, path)
    again = read_frontier_csv(path)
    assert (again.n_empty, again.n_dropped) == (None, None)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_extract_frontier_rejects_non_finite_samples(epoch_curves, bad):
    def spoil(field):
        values = getattr(epoch_curves, field).copy()
        values[3, 7] = bad
        return dataclasses.replace(epoch_curves, **{field: values})

    with pytest.raises(ValueError, match="loss"):
        extract_frontier(spoil("loss"))
    with pytest.raises(ValueError, match="tokens"):
        extract_frontier(spoil("tokens"), basis="total")


def _four_by_twenty():
    """A hand-built table of 4 curves of 20 samples, with its non-embedding frontier."""
    tokens = np.geomspace(1e3, 1e6, 20) * np.array([[1.0], [2.0], [4.0], [8.0]])
    n = np.array([1e2, 1e3, 1e4, 1e5])
    loss = 1.0 + 100.0 / n[:, None] ** 0.3 + 300.0 / tokens**0.3
    curves = Curves(range(4), n, 2.0 * n, tokens, loss)
    return curves, extract_frontier(curves, 10, drop_edge_models=False)


@pytest.mark.parametrize("basis", ["nonembed", "total"])
@pytest.mark.parametrize("column, bad", [
    ("tokens", np.nan), ("tokens", np.inf), ("tokens", -1.0), ("tokens", 0.0),
    ("n_total", np.nan), ("n_total", -2.0), ("n_nonembed", np.nan), ("n_nonembed", -2.0),
])
def test_extract_frontier_refuses_bad_tokens_and_sizes(column, bad, basis):
    """A bad token at a winner once came out as its d_opt, and a bad size as its n_opt;
    each is refused, naming its column.  A size counts only in its own basis."""
    curves, front = _four_by_twenty()
    winner = int(front.model_index[3])
    values = getattr(curves, column).copy()
    if column == "tokens":
        values[winner, np.flatnonzero(curves.tokens[winner] == front.d_opt[3])] = bad
    else:
        values[winner] = bad
    spoilt = dataclasses.replace(curves, **{column: values})
    if column in ("tokens", f"n_{basis}"):
        with pytest.raises(ValueError, match=f"^{column} must be finite and > 0$"):
            extract_frontier(spoilt, 10, basis)
    else:
        extract_frontier(spoilt, 10, basis)


@pytest.mark.parametrize("basis", ["nonembed", "total"])
@pytest.mark.parametrize("token, size", [(1e300, 1e10), (1e-300, 1e-30), (1.0, 1e308)])
def test_extract_frontier_refuses_compute_outside_doubles(token, size, basis):
    """Tokens and sizes that are each finite and > 0, whose compute 6 n tokens overflows
    or rounds to 0, are refused naming the compute of the basis, without a warning."""
    curves, _ = _four_by_twenty()
    tokens, n = curves.tokens.copy(), getattr(curves, f"n_{basis}").copy()
    tokens[2, 5], n[2] = token, size
    spoilt = dataclasses.replace(curves, tokens=tokens, **{f"n_{basis}": n})
    with np.errstate(all="raise"), pytest.raises(
            ValueError, match=f"^c_{basis} must be finite and > 0$"):
        extract_frontier(spoilt, 10, basis)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
@pytest.mark.parametrize("name", ["n_min", "n_max"])
def test_size_grid_rejects_non_finite_range(name, bad):
    with pytest.raises(ValueError, match=name):
        size_grid(**{"n_min": 1e6, "n_max": 1e9, name: bad}, count=5)


_SIZES = np.array([1e4, 1e5, 1e6])

# Each entry point that takes a count, with the name of the count.
_COUNTED = {
    "simulate_curves": ("samples_per_curve", lambda k: simulate_curves(
        _SIZES, EPOCH, DEFAULT_EMBED_MAP, samples_per_curve=k)),
    "extract_frontier": ("n_bins", lambda k: extract_frontier(
        simulate_curves(_SIZES, EPOCH, DEFAULT_EMBED_MAP, samples_per_curve=64), n_bins=k)),
    "size_grid": ("count", lambda k: size_grid(1e6, 1e9, k)),
    "exponent_curve": ("count", lambda k: exponent_curve(EPOCH, DEFAULT_EMBED_MAP, count=k)),
}


@pytest.mark.parametrize("bad", [2.5, 200.5, np.nan, 20.0, np.float64(20.0), "3", True, False])
@pytest.mark.parametrize("entry", sorted(_COUNTED))
def test_counts_must_be_integers(entry, bad):
    """A float count once built a misaligned table (2.5 samples per curve put curve 0's
    last sample in curve 1's row) or failed inside NumPy without naming the argument."""
    name, call = _COUNTED[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(bad)


@pytest.mark.parametrize("entry", sorted(_COUNTED))
def test_counts_accept_numpy_integers(entry):
    assert _COUNTED[entry][1](np.int64(20)) is not None


def test_samples_per_curve_sets_the_table_layout():
    curves = simulate_curves(_SIZES, EPOCH, DEFAULT_EMBED_MAP, samples_per_curve=np.int32(3))
    assert all(getattr(curves, name).shape == (3, 3) for name in SAMPLE_COLUMNS + COMPUTE_COLUMNS)


def test_bracketing_token_schedule_widens_the_optimal_ratios_threefold():
    sizes = kaplan_size_grid()
    ratios = ce_of_optimal_ne(sizes, EPOCH, DEFAULT_EMBED_MAP) / (6.0 * sizes**2)
    assert bracketing_token_schedule(sizes, EPOCH, DEFAULT_EMBED_MAP) == (
        ratios.min() / 3.0, ratios.max() * 3.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_simulate_curves_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="sizes"):
        simulate_curves([1e6, bad], EPOCH, DEFAULT_EMBED_MAP)
    for schedule in [(10.0, bad), (bad, 10.0)]:
        with pytest.raises(ValueError, match="tokens_per_param"):
            simulate_curves([1e5, 1e6], EPOCH, DEFAULT_EMBED_MAP, tokens_per_param=schedule)


# Each entry point that takes a size grid.
_SIZED = {
    "simulate_curves": lambda sizes: simulate_curves(sizes, EPOCH, DEFAULT_EMBED_MAP),
    "bracketing_token_schedule": lambda sizes: bracketing_token_schedule(
        sizes, EPOCH, DEFAULT_EMBED_MAP),
}


@pytest.mark.parametrize("sizes, message", [
    ([1e6, np.nan], "sizes must be finite and > 0"),
    ([1e6, -1e7], "sizes must be finite and > 0"),
    ([], "sizes must be a non-empty 1-d sequence"),
    ([[1e5, 1e6]], "sizes must be a non-empty 1-d sequence"),
    ([1e5, 1e5], "sizes must be finite, positive and strictly increasing"),
    ([1e6, 1e5], "sizes must be finite, positive and strictly increasing"),
])
@pytest.mark.parametrize("entry", sorted(_SIZED))
def test_size_grids_are_checked_alike(entry, sizes, message):
    """bracketing_token_schedule once named n_nonembed_opt for a NaN size, failed inside
    NumPy on no size, and returned a schedule for a 2-d grid or a repeated size."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _SIZED[entry](sizes)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sizes, schedule", [
    ([1e290, 1e291], frontier_module.DEFAULT_TOKENS_PER_PARAM),
    ([1e-3, 1e-2], (1e-320, 1e-310)),
])
def test_simulate_curves_rejects_compute_outside_doubles(sizes, schedule):
    with pytest.raises(ValueError, match="tokens_per_param"):
        simulate_curves(sizes, EPOCH, DEFAULT_EMBED_MAP, tokens_per_param=schedule)


def test_extract_frontier_rejects_curves_without_samples():
    empty = np.empty((2, 0))
    table = Curves([0, 1], [1e6, 1e7], [2e6, 2e7], empty, empty)
    with pytest.raises(ValueError, match="curves"):
        extract_frontier(table)


def test_frontier_rejects_unknown_basis(tmp_path, epoch_frontier_total):
    with pytest.raises(ValueError, match="basis"):
        Frontier("tot", c=[1.0], loss_min=[1.0], n_opt=[1.0], d_opt=[1.0], model_index=[1])
    path = tmp_path / "frontier.csv"
    write_frontier_csv(epoch_frontier_total, path)
    path.write_text(path.read_text().replace("\ntotal,", "\ntot,"))
    with pytest.raises(ValueError, match="basis"):
        read_frontier_csv(path)


def test_extract_frontier_rejects_an_unknown_basis_before_any_pass(epoch_curves, monkeypatch):
    """A misspelt basis is named as such, not binned through another basis's compute."""
    def no_pass(*args):
        raise AssertionError("binned before the basis was checked")

    monkeypatch.setattr(frontier_module, "_geometric_bin_of", no_pass)
    tokens = epoch_curves.tokens.copy()
    tokens[5] = np.inf
    for table in (epoch_curves, dataclasses.replace(epoch_curves, tokens=tokens)):
        for basis in ("Total", "c_total", "", None):
            with pytest.raises(ValueError, match="basis must be 'total' or 'nonembed'"):
                extract_frontier(table, basis=basis)


def test_curves_sequence_contract(epoch_curves):
    curves = epoch_curves
    assert isinstance(curves, Curves) and len(curves) == 20
    assert curves[-1].model_index == 19 and curves[np.int64(-20)].model_index == 0
    assert curves[np.int64(7)].n_nonembed == curves.n_nonembed[7]
    for bad in (20, -21, np.int64(20)):
        with pytest.raises(IndexError):
            curves[bad]
    for bad in (1.0, True, np.True_):  # True is no curve 1
        with pytest.raises(TypeError):
            curves[bad]
    rows = list(curves)
    assert [cv.model_index for cv in rows] == list(range(20))
    assert {type(v) for cv in rows for v in (cv.n_nonembed, cv.n_total)} == {float}
    assert {type(cv.model_index) for cv in rows} == {int}
    for k, cv in enumerate(rows):
        for name in SAMPLE_COLUMNS + COMPUTE_COLUMNS:
            column = getattr(curves, name)
            # The stored columns are shared; compute is a row's own, with the column's bits.
            assert np.shares_memory(getattr(cv, name), column) == (name in SAMPLE_COLUMNS)
            np.testing.assert_array_equal(getattr(cv, name), column[k], strict=True)
        assert (cv.n_nonembed, cv.n_total) == (curves.n_nonembed[k], curves.n_total[k])
        np.testing.assert_array_equal(curves[k - 20].tokens, cv.tokens)
    with pytest.raises(TypeError):
        curves[3:9]


def test_curves_columns_are_read_only_and_checked(epoch_curves):
    for name in CURVE_COLUMNS:
        with pytest.raises(ValueError):
            getattr(epoch_curves, name)[0] = 1
    with pytest.raises(ValueError):
        epoch_curves[2].loss[0] = 1.0
    for name in COMPUTE_COLUMNS:  # a fresh array on each access: spoiling one spoils no other
        spoilt = getattr(epoch_curves, name)
        spoilt[0] = np.nan
        assert np.isfinite(getattr(epoch_curves, name)).all()
    loss = np.ones((2, 3))
    table = Curves([0, 1], [1.0, 2.0], [2.0, 3.0], loss, loss)
    assert loss.flags.writeable and [len(cv.loss) for cv in table] == [3, 3]
    with pytest.raises(ValueError, match="equal length"):
        Curves([0, 1], [1.0, 2.0], [2.0], loss, loss)


@pytest.mark.parametrize("columns", [
    [np.ones(2)] * 2,  # the flat layout, one sample per curve: as long as the curve columns
    [np.ones((3, 2))] * 2,  # three rows for two curves
    [np.ones((2, 3)), np.ones((2, 4))],  # one column wider than the other
])
def test_curves_reject_sample_columns_of_another_shape(columns):
    with pytest.raises(ValueError, match=r"^sample columns must be \(curves, samples\)"):
        Curves([0, 1], [1.0, 2.0], [2.0, 3.0], *columns)


@pytest.mark.parametrize("name, bad", [
    ("model_index", [0.5, 1.7]), ("model_index", [0, np.nan]), ("model_index", [np.inf, 1]),
    ("model_index", [0, 1e300]),
])
def test_curves_reject_non_integral_indices(name, bad):
    """A fractional or non-finite index is an error naming its column, not truncated
    onto another curve's label."""
    loss = np.ones((2, 3))
    with pytest.raises(ValueError, match=f"{name} must hold finite integers"):
        Curves(bad, [1.0, 2.0], [2.0, 3.0], loss, loss)


def test_curves_take_integral_floats_as_integers():
    loss = np.ones((2, 3))
    table = Curves(np.array([3.0, -1.0]), [1.0, 2.0], [2.0, 3.0], loss, loss)
    assert table.model_index.tolist() == [3, -1] and table.model_index.dtype == int


def test_simulate_curves_columns_are_c_contiguous(epoch_curves):
    """The (curves, samples) columns are C-ordered, so extract_frontier pools them as views."""
    for name in CURVE_COLUMNS:
        assert getattr(epoch_curves, name).flags.c_contiguous
    assert all(getattr(epoch_curves, name).shape == (20, 512)
               for name in SAMPLE_COLUMNS + COMPUTE_COLUMNS)


def test_edge_guard_drops_the_tables_own_extreme_models(epoch_curves):
    """A sub-grid labelled 3..8 loses the bins won by models 3 and 8, as the same
    sub-grid labelled 0..5 loses those won by 0 and 5."""
    sub = Curves(*(getattr(epoch_curves, name)[3:9] for name in CURVE_COLUMNS))
    kept = extract_frontier(sub, n_bins=10, drop_edge_models=False)
    assert {3, 8} <= set(kept.model_index.tolist())
    front = extract_frontier(sub, n_bins=10)
    want = extract_frontier(dataclasses.replace(sub, model_index=sub.model_index - 3), n_bins=10)
    np.testing.assert_array_equal(front.model_index, want.model_index + 3)
    for name in ("c", "loss_min", "n_opt", "d_opt"):
        np.testing.assert_array_equal(getattr(front, name), getattr(want, name))
    assert front.n_dropped == np.isin(kept.model_index, [3, 8]).sum() > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(10, 40),
       st.sampled_from([(1.0, 1e6), (1e-150, 1e150), (1e-300, 1e250), (7.0, 7.0 * (1 + 1e-9)),
                        (0.5, 2.0)]))
def test_extract_frontier_bins_samples_on_and_beside_edges(seed, n_bins, c_range):
    """Compute exactly on each bin edge and one ulp either side lands as in the reference."""
    edges = np.geomspace(*c_range, n_bins + 1)
    c = np.concatenate([edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges[:-1], np.inf)])
    rng = np.random.default_rng(seed)
    c = c[rng.permutation(c.size)]
    # Repeats of drawn samples pad four equal curves, moving neither the range nor the edges.
    c = np.concatenate([c, rng.choice(c, -c.size % 4)]).reshape(4, -1)
    loss = rng.choice(rng.uniform(1.0, 2.0, 4), c.shape)
    # 6 n = 1, 2, 4 and 8: the tokens are the compute scaled exactly by a power of two.
    six_n = np.array([1.0, 2.0, 4.0, 8.0])
    n = six_n * UNIT
    curves = Curves(range(4), n, n, c / six_n[:, None], loss)
    assert np.array_equal(curves.c_total, c)
    for basis in ("nonembed", "total"):
        want, lo, hi, n_empty, n_dropped = _masked_argmin_frontier(curves, n_bins, basis, False)
        frontier = extract_frontier(curves, n_bins, basis, drop_edge_models=False)
        _assert_columns_match(frontier, want, lo, hi)
        assert (frontier.n_empty, frontier.n_dropped) == (n_empty, n_dropped)


@st.composite
def binning_cases(draw, max_bins):
    """Compute on every edge of a geometric range and one ulp either side, plus
    random samples inside it, with the bin count and the edges the pooled
    samples give."""
    n_bins = draw(st.integers(10, max_bins))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = draw(st.sampled_from([(1e-300, 1e250), (7.0, 7.0 * (1 + 1e-9)), (3.0, 3.0)])
                  | st.tuples(st.floats(-300.0, 300.0), st.floats(0.0, 300.0)).map(
                      lambda t: (10.0 ** t[0], 10.0 ** min(t[0] + t[1], 307.0))))
    edges = np.geomspace(lo, hi, n_bins + 1)
    inside = np.exp(rng.uniform(np.log(lo), np.log(hi), draw(st.integers(0, 200))))
    c = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf), inside])
    c = c[rng.permutation(c.size)]
    if draw(st.booleans()):
        c = np.full(c.size, c[0])
    return c, np.geomspace(c.min(), c.max(), n_bins + 1)


def _bin_by_blocks(c, edges, block):
    """``_geometric_bin_of`` over ``c`` in blocks of ``block`` samples, all sharing one
    scratch, as ``extract_frontier`` calls it: each block one row of tokens at 6 n = 1."""
    scratch = frontier_module._block_scratch(min(c.size, block))
    return np.concatenate([frontier_module._geometric_bin_of(c[None, a:a + block], np.ones(1),
                                                             edges, scratch).copy()
                           for a in range(0, c.size, block)])


def _few_ulps_case():
    """2**20 bins over five adjacent doubles: the rounding budget exceeds a bin, so the
    band is 1/2 or more and every sample is searched."""
    c = 3.0 + np.arange(5.0) * np.spacing(3.0)
    return c[::-1], np.geomspace(c[0], c[-1], 2**20 + 1)


def _full_range_case(lo):
    """10**6 bins from ``lo`` to the largest double: 20,000 edges, each with its
    neighbours one ulp either side, and 20,000 samples between them."""
    rng = np.random.default_rng(3)
    hi = np.finfo(float).max
    with np.errstate(over="ignore"):  # the last power overflows, and geomspace replaces it
        edges = np.geomspace(lo, hi, 10**6 + 1)
    some = rng.choice(edges, 20000)
    inside = np.exp(rng.uniform(np.log(lo), np.log(hi), 20000))
    c = np.concatenate([[lo, hi], some, np.nextafter(some, 0.0), np.nextafter(some, np.inf),
                        inside])
    return rng.permutation(np.clip(c, lo, hi)), edges


@settings(max_examples=300, deadline=None)
@given(binning_cases(5000))
@example(_few_ulps_case())
@example(_full_range_case(np.finfo(float).tiny))
@example(_full_range_case(np.finfo(float).smallest_subnormal))
@example(_full_range_case(1e-310))
def test_geometric_bin_of_matches_searchsorted(case):
    c, edges = case
    want = np.searchsorted(edges[1:-1], c, side="right")
    np.testing.assert_array_equal(_bin_by_blocks(c, edges, frontier_module._BIN_BLOCK), want)


@settings(max_examples=60, deadline=None)
@given(binning_cases(300), st.sampled_from([1, 7, 64]))
def test_geometric_bin_of_matches_searchsorted_across_blocks(case, block):
    c, edges = case
    want = np.searchsorted(edges[1:-1], c, side="right")
    np.testing.assert_array_equal(_bin_by_blocks(c, edges, block), want)


def test_geometric_bin_of_spans_real_blocks():
    rng = np.random.default_rng(11)
    n_bins = 1999
    edges = np.geomspace(1e10, 1e25, n_bins + 1)
    c = np.concatenate([edges, np.nextafter(edges, 0.0)[1:], np.nextafter(edges, np.inf)[:-1]])
    size = 3 * 65536 + 5
    c = rng.permutation(np.concatenate([c, 10.0 ** rng.uniform(10, 25, size - c.size)]))
    edges = np.geomspace(c.min(), c.max(), n_bins + 1)
    np.testing.assert_array_equal(_bin_by_blocks(c, edges, frontier_module._BIN_BLOCK),
                                  np.searchsorted(edges[1:-1], c, side="right"))


@st.composite
def split_magnitude_tables(draw):
    """(curves, n_bins, basis): 2-6 curves whose compute 6 n t lies on every edge of a
    geometric range and one ulp either side, and at random inside it; within rounding of
    there where 6 n is no power of two or the tokens are subnormal.  Each curve's 6 n lies
    1e210-1e300 times above or below 1, and its tokens as far the other way.  The other
    basis's sizes are 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_bins, rows = draw(st.integers(10, 100)), draw(st.integers(2, 6))
    ranges = [(0.5, 2.0), (7.0, 7.0 * (1 + 1e-9)), (1e-20, 1e-12), (1e-20, 1e8)]
    lo, hi = draw(st.sampled_from(ranges)
                  | st.tuples(st.floats(-20.0, 8.0), st.floats(0.0, 28.0)).map(
                      lambda t: (10.0 ** t[0], 10.0 ** min(t[0] + t[1], 8.0))))
    edges = np.geomspace(lo, hi, n_bins + 1)
    inside = np.exp(rng.uniform(np.log(lo), np.log(hi), draw(st.integers(0, 200))))
    c = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf), inside])
    c = rng.permutation(np.concatenate([c, rng.choice(c, -c.size % rows)])).reshape(rows, -1)
    # Half the curves' 6 n lie 1e286 or more from 1, which takes small compute's tokens
    # subnormal.
    exponent = rng.integers(rng.choice([700, 950], rows), 997) * rng.choice([-1, 1], rows)
    six_n = np.ldexp(np.where(rng.random(rows) < 0.5, 1.0, rng.uniform(1.0, 2.0, rows)), exponent)
    n = six_n / 6.0
    basis = draw(st.sampled_from(["nonembed", "total"]))
    sizes = {"n_nonembed": np.ones(rows), "n_total": np.ones(rows), f"n_{basis}": n}
    curves = Curves(range(rows), sizes["n_nonembed"], sizes["n_total"],
                    c / (6.0 * n)[:, None], rng.choice(rng.uniform(1.0, 2.0, 3), c.shape))
    return curves, n_bins, basis


@settings(max_examples=100, deadline=None)
@given(split_magnitude_tables(), st.sampled_from([1, 3, 64, 65536]))
def test_guard_band_holds_for_split_magnitudes(case, block):
    """Each block's bins are the binary search of its compute 6 n t, also where ln t and
    ln 6 n are hundreds of times ln c and cancel in the position, and the frontier is the
    reference's."""
    curves, n_bins, basis = case
    real, binned = frontier_module._geometric_bin_of, []

    def checked(t, six_n, edges, scratch):
        k = real(t, six_n, edges, scratch)
        want = np.searchsorted(edges[1:-1], (six_n[:, None] * t).ravel(), side="right")
        np.testing.assert_array_equal(k, want)
        binned.append(k.size)
        return k

    want, lo, hi, n_empty, n_dropped = _masked_argmin_frontier(curves, n_bins, basis, False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontier_module, "_BIN_BLOCK", block)
        mp.setattr(frontier_module, "_geometric_bin_of", checked)
        if n_empty > 0.5 * n_bins:
            with pytest.raises(ValueError, match="too sparse"):
                extract_frontier(curves, n_bins, basis, drop_edge_models=False)
        else:
            frontier = extract_frontier(curves, n_bins, basis, drop_edge_models=False)
            _assert_columns_match(frontier, want, lo, hi)
            assert (frontier.n_empty, frontier.n_dropped) == (n_empty, n_dropped)
    assert sum(binned) == curves.loss.size


@pytest.mark.parametrize("spec", sorted(SPEC_CATALOG))
def test_binary_search_sees_almost_no_simulated_sample(spec, monkeypatch):
    """At 2000 x 512 samples and 2000 bins, fewer than 0.1% of the samples lie within the
    rounding band of an edge and reach the binary search."""
    curves = simulate_curves(size_grid(*frontier_module.KAPLAN_SIZE_RANGE, 2000),
                             SPEC_CATALOG[spec], DEFAULT_EMBED_MAP)
    searched, search = [], np.searchsorted

    def counting(a, v, *args, **kwargs):
        searched.append(np.size(v))
        return search(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    for basis in ("nonembed", "total"):
        searched.clear()
        extract_frontier(curves, n_bins=2000, basis=basis)
        # The smallest and largest compute sit on the outer edges, inside the band.
        assert 0 < sum(searched) < 1e-3 * curves.loss.size, (basis, sum(searched))


@pytest.mark.parametrize("block", [1, 3, 64])
def test_extract_frontier_keeps_the_first_tie_across_blocks(block):
    """Equal bin minima in different blocks: the earlier sample wins, and a later block
    takes a bin only with a strictly lower loss, as with one block."""
    rng = np.random.default_rng(5)
    size, n_bins = 200, 10
    edges = np.geomspace(1.0, 1e4, n_bins + 1)
    c = np.exp(rng.uniform(0.0, np.log(1e4), size))
    c[[0, 1]] = edges[0], edges[-1]
    loss = rng.choice([1.0, 1.5, 2.0], size)
    c[[5, 130]], loss[[5, 130]] = np.sqrt(edges[3] * edges[4]), 0.5  # a tie in bin 3
    c[[10, 150]], loss[[10, 150]] = np.sqrt(edges[6] * edges[7]), (0.75, 0.6)  # 150 wins bin 6
    curves = Curves(range(4), np.full(4, UNIT), np.full(4, UNIT), c.reshape(4, 50),
                    loss.reshape(4, 50))
    bin_of = np.searchsorted(edges[1:-1], c, side="right")
    first_min = np.array([idx[np.argmin(loss[idx])] for idx in
                          (np.flatnonzero(bin_of == b) for b in range(n_bins))])
    for basis in ("nonembed", "total"):
        want = extract_frontier(curves, n_bins, basis, drop_edge_models=False)
        # A sample is named by its curve and its tokens, which are its compute.
        np.testing.assert_array_equal(want.model_index, first_min // 50)
        np.testing.assert_array_equal(want.d_opt, c[first_min])
        assert (want.model_index[3], want.model_index[6]) == (0, 3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(frontier_module, "_BIN_BLOCK", block)
            got = extract_frontier(curves, n_bins, basis, drop_edge_models=False)
        for name in ("c", "loss_min", "n_opt", "d_opt", "model_index", "n_empty",
                     "n_dropped"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def _extraction_peak(curves, basis):
    tracemalloc.start()
    try:
        extract_frontier(curves, n_bins=2000, basis=basis)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extract_frontier_memory_stays_flat_at_stress_scale():
    """Extraction streams the samples through fixed block scratch: 1,024,000 samples
    allocate about 1.3 MiB, no more than 256,000 do."""
    curves = simulate_curves(size_grid(1e3, 1e9, 2000), EPOCH, DEFAULT_EMBED_MAP)
    smaller = simulate_curves(size_grid(1e3, 1e9, 500), EPOCH, DEFAULT_EMBED_MAP)
    assert curves.loss.size == 2000 * 512
    for basis in ("nonembed", "total"):
        peak = _extraction_peak(curves, basis)
        assert peak <= 2.5 * 2**20, f"{basis}: {peak / 2**20:.2f} MiB"
        growth = peak - _extraction_peak(smaller, basis)
        assert abs(growth) < 0.25 * 2**20, f"{basis}: {growth / 2**20:+.2f} MiB"


def test_simulate_curves_memory_is_its_output():
    """2000 x 512 samples allocate the two 8 MB sample columns and no full-size temporary."""
    sizes = size_grid(1e3, 1e9, 2000)
    tracemalloc.start()
    try:
        simulate_curves(sizes, EPOCH, DEFAULT_EMBED_MAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * 2**20, f"{peak / 2**20:.2f} MiB"


@st.composite
def loss_specs(draw):
    """A catalog spec, or one drawn far from it with beta above analytic._min_beta(alpha),
    where the non-embedding loss has one minimum per budget."""
    if draw(st.booleans()):
        return SPEC_CATALOG[draw(st.sampled_from(sorted(SPEC_CATALOG)))]
    alpha = draw(st.floats(0.02, 1.5))
    beta = max(_min_beta(alpha), 0.0) + draw(st.floats(0.02, 1.5))
    return LossSpec(draw(st.floats(1.0, 1e4)), draw(st.floats(1.0, 1e4)), alpha, beta,
                    draw(st.floats(0.0, 10.0)))


@pytest.mark.filterwarnings("error")
@settings(max_examples=80, deadline=None)
@given(st.just(0.0) | st.floats(1.0, 1e6), st.floats(-3.0, 22.9), st.floats(0.1, 26.0),
       st.integers(3, 40), st.integers(16, 128), st.integers(10, 200), loss_specs())
def test_pipeline_sweep(omega, log_lo, log_span, count, samples, n_bins, spec):
    """Simulate, extract in both bases and fit, over wide grids and specs, without a warning."""
    sizes = size_grid(10.0**log_lo, 10.0 ** min(log_lo + log_span, 23.0), count)
    curves = simulate_curves(sizes, spec, EmbedMap(omega), samples_per_curve=samples)
    for basis in ("nonembed", "total"):
        want, lo, hi, n_empty, n_dropped = _masked_argmin_frontier(curves, n_bins, basis, True)
        if n_empty > 0.5 * n_bins or not want["c"].size:
            error = "too sparse" if n_empty > 0.5 * n_bins else "no frontier points"
            with pytest.raises(ValueError, match=error):
                extract_frontier(curves, n_bins, basis)
            continue
        front = extract_frontier(curves, n_bins, basis)
        _assert_columns_match(front, want, lo, hi)
        assert (front.n_empty, front.n_dropped) == (n_empty, n_dropped)
        for fit in (lambda: fit_param_scaling(front), lambda: fit_loss_scaling(front),
                    lambda: fit_loss_scaling(front, "chinchilla")):
            try:
                result = fit()
            except (ValueError, ArithmeticError):
                continue
            values = (result.prefactor, result.exponent, result.r_squared, result.offset or 0.0)
            assert np.all(np.isfinite(values))
