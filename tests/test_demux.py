"""Tests for branch demultiplexing with ideal and MZM-based sampling."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from nyquist_otdm import ChannelPlan, Signal, TimeGrid
from nyquist_otdm.core import constant, spectrum
from nyquist_otdm.demux import _sampling_lines, demultiplex
from nyquist_otdm.link import (
    FiberSpec,
    compensate_dispersion,
    propagate,
)
from nyquist_otdm.mzm import (
    MzmParams,
    calibrate_flat_comb,
    modulate,
    push_pull_plan,
)
from nyquist_otdm.nyquist import (
    multiplex_branch_signals,
    nyquist_interpolate,
    otdm_multiplex,
    raised_cosine_shape,
    sample_symbols,
)

from helpers import (
    branch_drive,
    delay_signal,
    demultiplex_directly,
    filter_directly,
    gate_directly,
    grid_for,
    propagate_directly,
    random_symbols,
    sampler_of,
)

PARAMS = MzmParams(v_pi=0.42, eo_3db_bandwidth=16e9)


def _assert_close(got, want, rtol=1e-10):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n_branches=st.sampled_from([3, 5, 7]),
       oversampling=st.sampled_from([4, 5, 8]),
       n_periods=st.integers(1, 4), n_tones=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16))
def test_mzm_rows_are_the_phase_shifted_drive_lines(
        n_branches, oversampling, n_periods, n_tones, seed):
    """Row l-1 of the MZM sampler's lines equals the one-period lines of the
    drive whose harmonic-k tones are turned by -k*2*pi*(l-1)/N, to 1e-12;
    that drive's transfer is branch 1's delayed by the slot (l-1)/B."""
    rng = np.random.default_rng(seed)
    plan = ChannelPlan(n_branches, 6e9 * n_branches)
    grid = grid_for(plan, n_periods, oversampling)
    drive = push_pull_plan(plan.symbol_rate * np.arange(1, n_tones + 1),
                           rng.uniform(0.05, 0.3, n_tones),
                           bias_difference=float(rng.uniform(0.5, 2.5)))
    sampler = sampler_of(drive, PARAMS, gain=complex(rng.uniform(1.0, 4.0),
                                                     rng.uniform(-1.0, 1.0)))
    shifts, rows = _sampling_lines(plan, sampler, grid)
    period = oversampling * n_branches
    assert rows.shape == (n_branches, period)
    assert_array_equal(shifts, np.arange(period) * n_periods)
    one_period = constant(TimeGrid(grid.sample_rate, period))
    first = modulate(one_period, drive, PARAMS).samples
    for l in range(1, n_branches + 1):
        transfer = modulate(one_period, branch_drive(drive, plan, l),
                            PARAMS).samples
        assert_allclose(transfer, np.roll(first, (l - 1) * oversampling),
                        atol=1e-12)
        _assert_close(rows[l - 1], np.fft.fft(transfer) * sampler.gain / period,
                      rtol=1e-12)


def test_off_harmonic_drive_tone_rejected_on_every_branch():
    """A 7 GHz tone is no harmonic of the 8 GHz branch rate, so its
    transfer is not periodic in a branch period: the sampler is refused for
    every branch, branch 1 included."""
    plan = ChannelPlan(3, 24e9)
    sampler = sampler_of(push_pull_plan([7e9], [0.2], bias_difference=1.0), PARAMS)
    sig = constant(grid_for(plan, 9))
    with pytest.raises(ValueError, match="not a harmonic"):
        demultiplex(sig, plan, sampler)


def test_mzm_sampler_needs_whole_sample_slots():
    """At 8/3 samples per slot the branch delays are no whole sample
    shifts, and the MZM sampler refuses the grid."""
    plan = ChannelPlan(3, 24e9)
    sampler = sampler_of(push_pull_plan([8e9], [0.2], bias_difference=1.0), PARAMS)
    sig = constant(TimeGrid(64e9, 8 * 9))
    with pytest.raises(ValueError, match="samples per branch slot"):
        demultiplex(sig, plan, sampler)


def test_ideal_round_trip_multiple_seeds():
    plan = ChannelPlan(3, 24e9)
    n_symbols = 17  # odd count per branch: exact recovery
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        grid = grid_for(plan, n_symbols)
        blocks = random_symbols(plan, n_symbols, rng)
        agg = otdm_multiplex(blocks, plan.symbol_rate, plan, grid)
        for l, (sent, y) in enumerate(zip(blocks, demultiplex(agg, plan)),
                                      start=1):
            got = sample_symbols(y, plan.symbol_rate, t_offset=plan.slot(l))
            assert_allclose(got, sent, atol=1e-9)


def _crosstalk_db(plan, sampler, n_symbols=15, seed=5):
    """Drive only branch 2; return worst leakage into branches 1 and 3."""
    rng = np.random.default_rng(seed)
    grid = grid_for(plan, n_symbols)
    blocks = random_symbols(plan, n_symbols, rng)
    quiet = np.zeros(n_symbols, dtype=complex)
    driven = [quiet, blocks[1], quiet]
    agg = otdm_multiplex(driven, plan.symbol_rate, plan, grid)
    ref_power = np.mean(np.abs(blocks[1]) ** 2)
    worst = -math.inf
    branches = demultiplex(agg, plan, sampler=sampler)
    for l in (1, 3):
        got = sample_symbols(branches[l - 1], plan.symbol_rate,
                             t_offset=plan.slot(l))
        leak = np.mean(np.abs(got) ** 2)
        if leak > 0:
            worst = max(worst, 10 * math.log10(leak / ref_power))
    return worst


def test_ideal_crosstalk_is_negligible():
    plan = ChannelPlan(3, 24e9)
    for seed in (5, 6, 7):
        assert _crosstalk_db(plan, None, seed=seed) < -60.0


def test_mzm_sampler_crosstalk_better_than_40_db():
    plan = ChannelPlan(3, 24e9)
    cal = calibrate_flat_comb(3, plan.symbol_rate, PARAMS)
    for seed in (5, 6):
        assert _crosstalk_db(plan, cal, seed=seed) < -40.0


def test_mzm_sampler_recovers_symbols_to_percent_level():
    plan = ChannelPlan(3, 24e9)
    cal = calibrate_flat_comb(3, plan.symbol_rate, PARAMS)
    rng = np.random.default_rng(9)
    n_symbols = 15
    grid = grid_for(plan, n_symbols)
    blocks = random_symbols(plan, n_symbols, rng)
    agg = otdm_multiplex(blocks, plan.symbol_rate, plan, grid)
    branches = demultiplex(agg, plan, sampler=cal)
    for l, (sent, y) in enumerate(zip(blocks, branches), start=1):
        got = sample_symbols(y, plan.symbol_rate, t_offset=plan.slot(l))
        err = np.sqrt(np.mean(np.abs(got - sent) ** 2)
                      / np.mean(np.abs(sent) ** 2))
        assert err < 0.05


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n_branches=st.sampled_from([3, 5, 7]), n_symbols=st.integers(4, 11),
       oversampling=st.sampled_from([4, 5, 8]),
       delay_samples=st.sampled_from([0.0, 1.5, -0.63]),
       band_limited=st.booleans(), seed=st.integers(0, 2 ** 16))
# a whole-grid multiplex whose first bin is no multiple of the 5 symbols
@example(n_branches=3, n_symbols=5, oversampling=5, delay_samples=0.0,
         band_limited=False, seed=0)
def test_spectral_layers_match_time_domain_oracles(
        n_branches, n_symbols, oversampling, delay_samples, band_limited, seed):
    """Multiplexing, ideal and MZM demultiplexing of every branch,
    dispersion and symbol read-out, all computed on DFT bins, equal the
    time-domain products with a direct-DFT lowpass, to 1e-10 relative."""
    rng = np.random.default_rng(seed)
    plan = ChannelPlan(n_branches, 6e9 * n_branches)
    grid = grid_for(plan, n_symbols, oversampling)

    def noise():
        return rng.standard_normal(grid.n_samples) + 1j * rng.standard_normal(
            grid.n_samples)

    if band_limited:
        branches = [nyquist_interpolate(block, plan.symbol_rate, grid,
                                        t_offset=plan.slot(l))
                    for l, block in enumerate(
                        random_symbols(plan, n_symbols, rng), start=1)]
    else:
        branches = [Signal(grid, noise()) for _ in range(n_branches)]
    mux = multiplex_branch_signals(branches, plan)
    _assert_close(mux.samples, sum(gate_directly(b, plan, l)
                                   for l, b in enumerate(branches, start=1)))

    fiber = FiberSpec(length_km=float(rng.uniform(1.0, 80.0)))
    loss = 10.0 ** (-fiber.attenuation_db_km * fiber.length_km / 20.0)
    aggregate = Signal(grid, noise())
    _assert_close(propagate(aggregate, fiber).samples,
                  propagate_directly(aggregate, fiber, amplitude=loss))
    _assert_close(compensate_dispersion(aggregate, fiber).samples,
                  propagate_directly(aggregate, fiber, sign=-1.0))

    tones = [plan.symbol_rate, 2 * plan.symbol_rate]
    drive = push_pull_plan(tones, rng.uniform(0.05, 0.3, 2),
                           bias_difference=float(rng.uniform(0.5, 2.5)))
    mzm = sampler_of(drive, PARAMS,
                     gain=complex(rng.uniform(1.0, 4.0), rng.uniform(-1.0, 1.0)))
    # a known receiver delay is removed before demultiplexing
    delay = delay_samples * grid.dt
    advanced = Signal(grid, filter_directly(
        aggregate.samples, grid, lambda f: np.exp(2j * np.pi * f * delay)))
    for sampler in (None, mzm):
        got = demultiplex(delay_signal(aggregate, -delay), plan, sampler)
        assert len(got) == n_branches
        for l, y in enumerate(got, start=1):
            _assert_close(y.samples,
                          demultiplex_directly(advanced, plan, l, sampler))

    start = int(rng.integers(0, grid.n_samples))
    instants = (start + np.arange(n_symbols) * oversampling * n_branches
                ) % grid.n_samples
    for sig in (Signal._of_bins(grid, np.fft.fft(noise())), mux):
        got = sample_symbols(sig, plan.symbol_rate, t_offset=start * grid.dt)
        _assert_close(got, sig.samples[instants])


def _whole_grid(sig: Signal) -> Signal:
    """The same bins, held with the whole grid as their band."""
    return Signal._of_bins(sig.grid, _all_bins(sig))


def _all_bins(sig: Signal) -> np.ndarray:
    """The unshifted DFT bins of the whole grid, ``np.fft.fft(samples)``."""
    return sig._take(np.arange(sig.grid.n_samples))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n_branches=st.sampled_from([3, 5, 7]), n_symbols=st.integers(2, 7),
       oversampling=st.sampled_from([4, 5, 8]), rolloff=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 16))
# a grid past 256 KiB, where numpy may reuse a temporary operand as the output
@example(n_branches=7, n_symbols=150, oversampling=8, rolloff=0.0, seed=1)
def test_band_and_whole_grid_agree_bitwise(n_branches, n_symbols, oversampling,
                                           rolloff, seed):
    """Every per-bin layer gives the same bins, bit for bit, on a signal
    that holds only its occupied band and on the same bins held with the
    whole grid as their band."""
    rng = np.random.default_rng(seed)
    plan = ChannelPlan(n_branches, 6e9 * n_branches)
    grid = grid_for(plan, 2 * n_symbols, oversampling)
    # a roll-off at half the branch rate keeps the shaped band within B/(2N)
    rate = plan.symbol_rate / 2 if rolloff else plan.symbol_rate
    count = n_symbols if rolloff else 2 * n_symbols
    shaped = [raised_cosine_shape(
        rng.standard_normal(count) + 1j * rng.standard_normal(count), rate,
        rolloff, grid, t_offset=plan.slot(l))
        for l in range(1, n_branches + 1)]
    whole = [_whole_grid(sig) for sig in shaped]

    sig, full = shaped[0], whole[0]
    first, values = sig._spectrum()
    assert values.size < grid.n_samples
    filled = np.zeros(grid.n_samples, dtype=complex)
    filled[(first + np.arange(values.size)) % grid.n_samples] = values
    assert_array_equal(_all_bins(sig), filled)
    assert abs(sig.power - full.power) <= 1e-15 * full.power
    for view in (spectrum(sig), sig.samples):
        with pytest.raises(ValueError):
            view[0] = 1.0
    with pytest.raises(AttributeError):
        sig._band = None

    fiber = FiberSpec(length_km=float(rng.uniform(1.0, 80.0)))
    delay = float(rng.uniform(-0.5, 0.5)) * grid.duration
    for layer in (lambda s: propagate(s, fiber),
                  lambda s: compensate_dispersion(s, fiber),
                  lambda s: delay_signal(s, delay)):
        assert_array_equal(_all_bins(layer(sig)), _all_bins(layer(full)))

    mux = multiplex_branch_signals(shaped, plan)
    assert_array_equal(_all_bins(mux), _all_bins(multiplex_branch_signals(whole, plan)))
    branches = demultiplex(mux, plan)
    assert len(branches) == n_branches
    for l, (y, y_whole) in enumerate(zip(
            branches, demultiplex(_whole_grid(mux), plan), strict=True), start=1):
        assert_array_equal(_all_bins(y), _all_bins(y_whole))
        assert_array_equal(
            sample_symbols(y, plan.symbol_rate, t_offset=plan.slot(l)),
            sample_symbols(_whole_grid(y), plan.symbol_rate, t_offset=plan.slot(l)))
