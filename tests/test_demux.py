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
    NoiseSpec,
    add_noise,
    compensate_dispersion,
    propagate,
)
from nyquist_otdm.mzm import MzmParams, calibrate_flat_comb
from nyquist_otdm.nyquist import (
    _sequence_lines,
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
    modulate_directly,
    propagate_directly,
    random_symbols,
    sampler_of,
    take_bins,
)

PARAMS = MzmParams(v_pi=0.42, eo_3db_bandwidth=16e9)


def _assert_close(got, want, rtol=1e-10):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def _random_sampler(rng, plan: ChannelPlan, n_tones: int):
    """A sampler of a random push-pull drive of ``n_tones`` harmonics of the
    branch rate: bias difference, arm-2 ratio, the higher harmonics' scales
    and the fundamental's index, with a random complex gain."""
    point = (rng.uniform(0.5, 2.5), rng.uniform(0.5, 1.25), *rng.uniform(0.4, 1.6, n_tones - 1))
    return sampler_of(point, float(rng.uniform(0.1, 1.0)), PARAMS, plan.symbol_rate,
                      gain=complex(rng.uniform(1.0, 4.0), rng.uniform(-1.0, 1.0)),
                      n_lines=plan.n_branches)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n_branches=st.sampled_from([3, 5, 7]),
       oversampling=st.sampled_from([4, 5, 8]),
       n_periods=st.integers(1, 4), n_tones=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16))
def test_mzm_rows_are_the_phase_shifted_drive_lines(
        n_branches, oversampling, n_periods, n_tones, seed):
    """Row l-1 of the MZM sampler's lines equals, to 1e-12, the one-period
    lines in volts and seconds of the sampler's drive plan with its
    harmonic-k tones turned by -k*2*pi*(l-1)/N; that drive's transfer is
    branch 1's delayed by the slot (l-1)/B."""
    rng = np.random.default_rng(seed)
    plan = ChannelPlan(n_branches, 6e9 * n_branches)
    grid = grid_for(plan, n_periods, oversampling)
    sampler = _random_sampler(rng, plan, n_tones)
    shifts, rows = _sampling_lines(plan, sampler, grid)
    period = oversampling * n_branches
    assert rows.shape == (n_branches, period)
    assert_array_equal(shifts, np.arange(period) * n_periods)
    one_period = constant(TimeGrid(grid.sample_rate, period))
    drive = sampler.plan
    first = modulate_directly(one_period, drive, PARAMS).samples
    for l in range(1, n_branches + 1):
        transfer = modulate_directly(one_period, branch_drive(drive, plan, l),
                                     PARAMS).samples
        assert_allclose(transfer, np.roll(first, (l - 1) * oversampling),
                        atol=1e-12)
        _assert_close(rows[l - 1], np.fft.fft(transfer) * sampler.gain / period,
                      rtol=1e-12)


def test_mzm_sampler_needs_whole_sample_slots():
    """At 8/3 samples per slot the branch delays are no whole sample
    shifts, and the MZM sampler refuses the grid."""
    plan = ChannelPlan(3, 24e9)
    sampler = sampler_of((1.0, 1.0), 0.3, PARAMS, 8e9)
    sig = constant(TimeGrid(64e9, 8 * 9))
    with pytest.raises(ValueError, match="samples per branch slot"):
        demultiplex(sig, plan, sampler)


def test_detection_band_must_lie_below_the_grid_nyquist_limit():
    """At a sample rate of one line spacing or less (8 GHz for 3 branches in
    24 GHz) the line spacing holds every bin of the grid."""
    plan = ChannelPlan(3, 24e9)
    for sample_rate in (8e9, 4e9):
        sig = constant(TimeGrid(sample_rate, round(sample_rate * 9 / 8e9)))
        with pytest.raises(ValueError, match="B/\\(2N\\) must lie below the grid's"):
            demultiplex(sig, plan)


def test_sampler_of_another_line_count_is_refused():
    """A comb calibrated for 5 lines samples no 3-branch plan: demultiplex
    names both counts instead of returning branches read with the wrong
    pulse trains."""
    plan = ChannelPlan(3, 24e9)
    cal = calibrate_flat_comb(5, 8e9, PARAMS)
    sig = constant(TimeGrid(8 * 24e9, 8 * 3 * 9))
    with pytest.raises(ValueError, match="5-line sampler cannot read 3 branches"):
        demultiplex(sig, plan, cal)


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


@pytest.mark.parametrize("n_branches, n_symbols, mzm", [
    (3, 17, False), (5, 16, False), (7, 9, False), (3, 15, True), (5, 10, True)])
def test_branches_read_together_as_each_alone(n_branches, n_symbols, mzm):
    """All branches read as one (N, M) array, with one batched inverse FFT,
    give each branch's 1-D read bit for bit, noise and an MZM sampler
    included; a read with an offset too few or a signal on another grid is
    refused."""
    plan = ChannelPlan(n_branches, 8e9 * n_branches)
    grid = grid_for(plan, n_symbols)
    blocks = random_symbols(plan, n_symbols, np.random.default_rng(n_symbols))
    agg = add_noise(otdm_multiplex(blocks, plan.symbol_rate, plan, grid), NoiseSpec(15.0))
    sampler = calibrate_flat_comb(n_branches, plan.symbol_rate, PARAMS) if mzm else None
    branches = demultiplex(agg, plan, sampler)
    slots = [plan.slot(l) for l in range(1, n_branches + 1)]
    together = sample_symbols(branches, plan.symbol_rate, t_offset=slots)
    assert together.shape == (n_branches, n_symbols)
    for l, y in enumerate(branches, start=1):
        alone = sample_symbols(y, plan.symbol_rate, t_offset=plan.slot(l))
        assert_array_equal(together[l - 1], alone)
    with pytest.raises(ValueError, match="one offset per signal"):
        sample_symbols(branches, plan.symbol_rate, t_offset=slots[1:])
    other = constant(TimeGrid(grid.sample_rate, 2 * grid.n_samples))
    with pytest.raises(ValueError, match="one grid"):
        sample_symbols([branches[0], other], plan.symbol_rate, t_offset=slots[:2])


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

    mzm = _random_sampler(rng, plan, 2)
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
    return take_bins(sig, np.arange(sig.grid.n_samples))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_branches=st.sampled_from([3, 5, 7]), n_symbols=st.integers(1, 7),
       oversampling=st.sampled_from([2, 3, 4]), sizes=st.lists(st.integers(1, 600),
                                                               min_size=7, max_size=7),
       firsts=st.lists(st.integers(-600, 600), min_size=7, max_size=7),
       mzm=st.booleans(), seed=st.integers(0, 2 ** 16))
# every branch's band the whole grid, from its first bin on: 2 * reach >= n
@example(n_branches=3, n_symbols=2, oversampling=2, sizes=[600] * 7, firsts=[5] * 7,
         mzm=False, seed=0)
def test_slice_reads_and_scatters_are_the_modular_ones(n_branches, n_symbols, oversampling,
                                                       sizes, firsts, mzm, seed):
    """The multiplexer's read of every branch's band and its scatter of each
    sequence line, and the demultiplexer's (P, B) read of the aggregate,
    all by slices, give the bits of a modular index gather and scatter:
    for bands of any width from any first bin, wrapping past n // 2, up to
    the whole grid (2 * reach >= n), with the ideal or an MZM sampler."""
    rng = np.random.default_rng(seed)
    plan = ChannelPlan(n_branches, 6e9 * n_branches)
    grid = grid_for(plan, n_symbols, oversampling)
    n = grid.n_samples
    branches = []
    for size, first in zip(sizes, firsts[:n_branches]):
        size = min(size, n)
        branches.append(Signal._of_bins(
            grid, rng.standard_normal(size) + 1j * rng.standard_normal(size), first))
    mux = multiplex_branch_signals(branches, plan)

    shifts, rows = _sequence_lines(plan, grid)
    k = np.concatenate([(first + np.flatnonzero(values) + n // 2) % n - n // 2
                        for first, values in (sig._band for sig in branches)])
    reach = int(np.max(np.abs(k), initial=0))
    band = np.arange(-reach, reach + 1) if 2 * reach < n else np.arange(n)
    weighted = rows.T @ np.stack([take_bins(sig, band) for sig in branches])
    width = min(n, band.size + int(shifts[-1] - shifts[0]))
    acc = np.zeros(width, dtype=complex)
    for shift, row in zip(shifts, weighted):
        acc[(band - band[0] + shift - shifts[0]) % width] += row
    first, values = mux._band
    assert first == band[0] + shifts[0]
    assert values.tobytes() == acc.tobytes()

    sampler = _random_sampler(rng, plan, 2) if mzm else None
    line_shifts, line_rows = _sampling_lines(plan, sampler, grid)
    spacing = int(line_shifts[1] - line_shifts[0])
    detection = np.arange(-(spacing // 2), spacing // 2 + 1)
    weight = np.where(2 * np.abs(detection) == spacing, 0.5, 1.0)
    taken = take_bins(mux, (detection[0] - line_shifts)[:, None] + np.arange(detection.size))
    for y, row in zip(demultiplex(mux, plan, sampler), line_rows, strict=True):
        first, values = y._band
        assert first == detection[0]
        assert values.tobytes() == (plan.n_branches * weight * (row @ taken)).tobytes()


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
    first, values = sig._band
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
