"""The loss E + A/N^alpha + B/D^beta has two exact symmetries, and the fitted exponents,
which carry no units, must keep them through simulate, both extractions and the fits.

Unlike the digests these hold on any NumPy kernel.  Each bound is about ten times the
largest deviation met by a sweep of 1,200 random specs and of the 96 corners of the ranges
drawn from here, each at both ends of k or of the shift.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalelab import (
    EmbedMap,
    LossSpec,
    bracketing_token_schedule,
    extract_frontier,
    fit_loss_scaling,
    fit_param_scaling,
    kaplan_size_grid,
    simulate_curves,
)


def _fits(sizes, spec, embed_map):
    """(parameter exponents, Kaplan-form loss exponents), each (total, nonembed), gamma,
    the chinchilla-form offset and the least loss on the total-basis frontier."""
    schedule = bracketing_token_schedule(sizes, spec, embed_map)
    curves = simulate_curves(sizes, spec, embed_map, tokens_per_param=schedule)
    frontiers = [extract_frontier(curves, basis=basis) for basis in ("total", "nonembed")]
    chinchilla = fit_loss_scaling(frontiers[0], form="chinchilla")
    return (np.array([fit_param_scaling(f).exponent for f in frontiers]),
            np.array([fit_loss_scaling(f).exponent for f in frontiers]),
            -chinchilla.exponent, chinchilla.offset, frontiers[0].loss_min.min())


# alpha >= 0.25 puts B(alpha) below 0.05, so every beta drawn lies above it.  The
# constants keep the frontier's reducible loss small enough that the offset fit lands
# inside its bracket [0, least loss): where the frontier ends far above its floor, the
# fitted offset can fall back to 0, which no shift of the floor moves.
_SPECS = st.builds(LossSpec, n_c=st.floats(2.0, 3.3).map(lambda e: 10.0**e),
                   d_c=st.floats(2.0, 3.3).map(lambda e: 10.0**e), alpha=st.floats(0.25, 0.6),
                   beta=st.floats(0.2, 0.6), e_irr=st.floats(0.5, 3.0))
_OMEGAS = st.one_of(st.just(0.0), st.floats(2.0, 6.0).map(lambda e: 10.0**e))


@settings(deadline=None, max_examples=60)
@given(_SPECS, _OMEGAS, st.floats(-6.0, 12.0))
def test_a_change_of_units_changes_no_exponent(spec, omega, log10_k):
    """Sizes times k, n_c times k**alpha, d_c times k**beta and omega times k**(2/3) scale
    n_total and tokens by k and compute by k**2, and leave every loss as it was.  Sweep:
    at most 4.1e-15 for the exponents of plain power laws, 2.5e-9 for gamma."""
    k = 10.0**log10_k
    scaled = dataclasses.replace(spec, n_c=spec.n_c * k**spec.alpha,
                                 d_c=spec.d_c * k**spec.beta)
    param, kaplan, gamma, _, _ = _fits(kaplan_size_grid(), spec, EmbedMap(omega))
    param_k, kaplan_k, gamma_k, _, _ = _fits(kaplan_size_grid() * k, scaled,
                                             EmbedMap(omega * k ** (2.0 / 3.0)))
    assert np.abs(param_k - param).max() <= 4e-14
    assert np.abs(kaplan_k - kaplan).max() <= 4e-14
    assert abs(gamma_k - gamma) <= 3e-8


@settings(deadline=None, max_examples=60)
@given(_SPECS, _OMEGAS, st.floats(0.0, 1.0))
def test_a_shift_of_the_floor_moves_only_the_offset(spec, omega, where):
    """e_irr + shift adds the shift to every loss: each bin keeps its winner, so the
    parameter exponents keep their bits, gamma holds and the fitted offset moves by the
    shift.  The shift runs from 0.25 - e_irr to 100.  Sweep: at most 2.2e-7 for gamma, on
    a frontier that ends 5e-4 above a floor of 103, and 9.2e-9 of the larger least loss
    for the offset's move."""
    shift = 0.25 - spec.e_irr + where * (99.75 + spec.e_irr)
    embed_map = EmbedMap(omega)
    param, _, gamma, offset, least = _fits(kaplan_size_grid(), spec, embed_map)
    param_s, _, gamma_s, offset_s, least_s = _fits(
        kaplan_size_grid(), dataclasses.replace(spec, e_irr=spec.e_irr + shift), embed_map)
    assert np.array_equal(param_s, param)
    assert abs(gamma_s - gamma) <= 2e-6
    assert abs(offset_s - offset - shift) <= 1e-7 * max(least, least_s)


@pytest.mark.xfail(strict=True, reason="far above its floor the offset fit falls back to 0, "
                   "which no shift of the floor moves (ROADMAP item 4)")
def test_a_shift_of_the_floor_moves_the_offset_of_a_frontier_far_above_it():
    """The floor-shift property on a spec outside ``_SPECS``, whose total-basis frontier
    ends 138 above its floor: the fitted offset reads 0.0 at e_irr = 0.5 and at 1.0, and
    1.518 at 3.0, so a shift of 0.5 moves it by 0."""
    spec, embed_map = LossSpec(2000.0, 2800.0, 0.14, 0.54, 0.5), EmbedMap(1e4)
    _, _, _, offset, least = _fits(kaplan_size_grid(), spec, embed_map)
    _, _, _, offset_s, least_s = _fits(kaplan_size_grid(), dataclasses.replace(spec, e_irr=1.0),
                                       embed_map)
    assert abs(offset_s - offset - 0.5) <= 1e-7 * max(least, least_s)
