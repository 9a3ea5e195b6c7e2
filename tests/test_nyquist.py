"""Tests for sinc sequences, Nyquist interpolation, shaping, and muxing."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nyquist_otdm import ChannelPlan, Signal, TimeGrid, spectrum
from nyquist_otdm.demux import demultiplex
from nyquist_otdm.nyquist import (
    _sequence_lines,
    multiplex_branch_signals,
    nyquist_interpolate,
    otdm_multiplex,
    raised_cosine_shape,
    sample_symbols,
)

from helpers import (
    delay_signal,
    freqs,
    grid_for,
    interpolate_directly,
    random_symbols,
    sequence_directly,
    times,
)


def sequence_from_lines(plan: ChannelPlan, grid: TimeGrid, branch: int = 1):
    """The branch's sinc sequence on ``grid``, summed from its spectral
    lines: the construction multiplexing and ideal sampling use."""
    shifts, rows = _sequence_lines(plan, grid)
    j = np.arange(grid.n_samples)
    return Signal(grid, rows[branch - 1] @ np.exp(
        2j * np.pi * np.outer(shifts, j) / grid.n_samples))


class TestSincSequence:
    def test_matches_cosine_sum_oracle(self):
        for n_lines in (3, 5, 7):
            grid = TimeGrid(8 * 24e9, 8 * n_lines * 4)  # 4 periods
            plan = ChannelPlan(n_lines, 24e9)
            for branch in range(1, n_lines + 1):
                seq = sequence_from_lines(plan, grid, branch)
                oracle = sequence_directly(n_lines, 24e9, times(grid), plan.slot(branch))
                assert_allclose(seq.samples, oracle, atol=1e-12)

    def test_peak_and_zero_crossings(self):
        """Unit peaks every N/B; zeros at the other multiples of 1/B."""
        n, b = 3, 24e9
        grid = TimeGrid(8 * b, int(8 * n) * 4)  # 4 periods
        seq = sequence_from_lines(ChannelPlan(n, b), grid)
        step = round(grid.sample_rate / b)
        vals = seq.samples[::step]  # samples at k/B
        expect = np.where(np.arange(len(vals)) % n == 0, 1.0, 0.0)
        assert_allclose(vals.real, expect, atol=1e-12)
        assert_allclose(vals.imag, 0.0, atol=1e-12)

    def test_periodicity(self):
        n, b = 5, 10e9
        grid = TimeGrid(16 * b, 16 * n * 3)
        seq = sequence_from_lines(ChannelPlan(n, b), grid)
        period_samples = round(n / b * grid.sample_rate)
        assert_allclose(seq.samples, np.roll(seq.samples, period_samples),
                        atol=1e-12)

    def test_spectrum_is_flat_comb(self):
        """N lines of amplitude 1/N at multiples of B/N, nothing else."""
        n, b = 3, 24e9
        grid = TimeGrid(8 * b, 8 * n * 2)
        spec = spectrum(sequence_from_lines(ChannelPlan(n, b), grid))
        spacing = b / n
        for k in range(-(n // 2), n // 2 + 1):
            idx = np.argmin(np.abs(freqs(grid) - k * spacing))
            assert spec[idx] == pytest.approx(1 / n, abs=1e-12)
        line_idx = [np.argmin(np.abs(freqs(grid) - k * spacing))
                    for k in range(-(n // 2), n // 2 + 1)]
        rest = np.delete(spec, line_idx)
        assert np.max(np.abs(rest)) < 1e-12

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            ChannelPlan(4, 24e9)
        with pytest.raises(ValueError):
            ChannelPlan(1, 24e9)
        with pytest.raises(ValueError):
            ChannelPlan(3, 0.0)
        grid = TimeGrid(96e9, 100)  # not an integer number of periods
        with pytest.raises(ValueError):
            _sequence_lines(ChannelPlan(3, 24e9), grid)


class TestNyquistInterpolate:
    def test_matches_direct_kernel_sum(self):
        plan = ChannelPlan(3, 24e9)
        rng = np.random.default_rng(7)
        for n_symbols in (8, 9, 16, 17):
            grid = grid_for(plan, n_symbols)
            syms = rng.standard_normal(n_symbols) + 1j * rng.standard_normal(n_symbols)
            # a branch slot on the grid, and an instant between samples
            for offset in (plan.slot(2), 0.37 * grid.dt):
                fast = nyquist_interpolate(syms, plan.symbol_rate, grid, t_offset=offset)
                direct = interpolate_directly(syms, plan.symbol_rate, grid,
                                              t_offset=offset)
                assert_allclose(fast.samples, direct, atol=1e-12)

    def test_sample_back_is_exact(self):
        plan = ChannelPlan(5, 40e9)
        rng = np.random.default_rng(3)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n_symbols = int(rng.integers(6, 40))
            grid = grid_for(plan, n_symbols)
            syms = rng.standard_normal(n_symbols) + 1j * rng.standard_normal(n_symbols)
            sig = nyquist_interpolate(syms, plan.symbol_rate, grid)
            back = sample_symbols(sig, plan.symbol_rate)
            assert_allclose(back, syms, atol=1e-10)

    def test_linearity(self):
        plan = ChannelPlan(3, 24e9)
        grid = grid_for(plan, 12)
        rng = np.random.default_rng(8)
        a = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        rate = plan.symbol_rate
        combined = nyquist_interpolate(a + 2j * b, rate, grid)
        parts = (nyquist_interpolate(a, rate, grid).samples
                 + 2j * nyquist_interpolate(b, rate, grid).samples)
        assert_allclose(combined.samples, parts, atol=1e-12)

    def test_band_limited_to_half_symbol_rate(self):
        plan = ChannelPlan(3, 24e9)
        grid = grid_for(plan, 9)
        rng = np.random.default_rng(1)
        syms = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        spec = spectrum(nyquist_interpolate(syms, plan.symbol_rate, grid))
        outside = np.abs(freqs(grid)) > plan.symbol_rate / 2 + 1e-3
        assert np.max(np.abs(spec[outside])) < 1e-12


class TestRaisedCosine:
    def test_isi_free_at_symbol_instants(self):
        grid = TimeGrid(192e9, 192 * 4)
        rng = np.random.default_rng(4)
        for rolloff in (0.0, 0.35, 1.0):
            syms = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            sig = raised_cosine_shape(syms, 4e9, rolloff, grid)
            back = sample_symbols(sig, 4e9)
            assert_allclose(back, syms, atol=1e-9)

    def test_spectrum_matches_closed_form(self):
        """Bins follow the flat/cosine-squared split of the pulse response."""
        grid = TimeGrid(64e9, 64 * 8)
        rolloff = 0.5
        rate = 4e9
        impulse = np.array([1.0 + 0j] + [0.0j] * 31)
        spec = spectrum(raised_cosine_shape(impulse, rate, rolloff, grid))
        n_syms = 32

        def rc(f):
            f = abs(f)
            lo = (1 - rolloff) * rate / 2
            hi = (1 + rolloff) * rate / 2
            if f <= lo:
                return 1.0
            if f >= hi:
                return 0.0
            return 0.5 * (1 + np.cos(np.pi / (rolloff * rate) * (f - lo)))

        for f in (0.0, 1e9, 2e9, 2.5e9, 3e9, 4e9):
            idx = np.argmin(np.abs(freqs(grid) - f))
            assert spec[idx] == pytest.approx(rc(f) / n_syms, abs=1e-12)

    def test_offset_is_a_delay(self):
        """Shaping at any offset, on the grid or between samples, is the
        shape at offset 0 delayed by it."""
        grid = TimeGrid(192e9, 192 * 4)
        rng = np.random.default_rng(5)
        syms = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        at_zero = raised_cosine_shape(syms, 4e9, 0.35, grid)
        for offset in (3 * grid.dt, 2.6 * grid.dt, 1 / 4e9):
            shaped = raised_cosine_shape(syms, 4e9, 0.35, grid, t_offset=offset)
            assert_allclose(shaped.samples, delay_signal(at_zero, offset).samples,
                            atol=1e-12)

    def test_rolloff_validation(self):
        grid = TimeGrid(64e9, 64)
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError):
                raised_cosine_shape(np.ones(4, dtype=complex), 4e9, bad, grid)

    def test_symbol_rate_must_be_positive(self):
        """A rate at or below zero, or NaN, is named, not met as a window
        that holds a negative or NaN count of symbols."""
        grid = TimeGrid(64e9, 64)
        for bad in (0.0, -4e9, float("nan")):
            with pytest.raises(ValueError, match="symbol_rate must be positive"):
                raised_cosine_shape(np.ones(4, dtype=complex), bad, 0.0, grid)

    def test_block_must_fill_the_window_below_the_sample_rate(self):
        """The block holds one symbol per symbol period of the window, and
        the symbol rate lies below the grid's sample rate."""
        with pytest.raises(ValueError, match="window holds 4 symbol periods but the block has 5"):
            raised_cosine_shape(np.ones(5, dtype=complex), 4e9, 0.0, TimeGrid(64e9, 64))
        for rate in (8e9, 16e9):
            grid = TimeGrid(8e9, 8)
            with pytest.raises(ValueError, match="below the grid sample rate"):
                raised_cosine_shape(np.ones(round(rate * grid.duration), dtype=complex),
                                    rate, 0.0, grid)

    def test_symbol_block_validation(self):
        """A symbol block must be a non-empty 1-D array."""
        grid = TimeGrid(64e9, 64)
        for bad in (np.ones(0, dtype=complex), np.ones((2, 2), dtype=complex),
                    np.complex128(1.0)):
            with pytest.raises(ValueError, match="non-empty 1-D"):
                raised_cosine_shape(bad, 4e9, 0.0, grid)


class TestMultiplex:
    def test_equals_manual_gated_sum(self):
        plan = ChannelPlan(3, 24e9)
        rng = np.random.default_rng(17)
        grid = grid_for(plan, 11)
        blocks = random_symbols(plan, 11, rng)
        mux = otdm_multiplex(blocks, plan.symbol_rate, plan, grid)
        parts = []
        for l, block in enumerate(blocks, start=1):
            parts.append(nyquist_interpolate(block, plan.symbol_rate, grid,
                                             t_offset=plan.slot(l)))
        manual = multiplex_branch_signals(parts, plan)
        assert_allclose(mux.samples, manual.samples, atol=1e-12)

    def test_aggregate_construction_equivalence(self):
        """Branch-gated sum equals one aggregate-rate interpolation of the
        interleaved symbols, for both symbol-count parities."""
        plan = ChannelPlan(3, 24e9)
        rng = np.random.default_rng(23)
        for n_symbols in (10, 11):
            grid = grid_for(plan, n_symbols)
            blocks = random_symbols(plan, n_symbols, rng)
            mux = otdm_multiplex(blocks, plan.symbol_rate, plan, grid)
            interleaved = np.empty(plan.n_branches * n_symbols, dtype=complex)
            for l, block in enumerate(blocks, start=1):
                interleaved[l - 1::plan.n_branches] = block
            aggregate = nyquist_interpolate(interleaved, plan.aggregate_bandwidth, grid)
            assert_allclose(mux.samples, aggregate.samples, atol=1e-9)

    def test_symbol_instants_carry_the_symbols(self):
        plan = ChannelPlan(3, 24e9)
        rng = np.random.default_rng(29)
        n_symbols = 9
        grid = grid_for(plan, n_symbols)
        blocks = random_symbols(plan, n_symbols, rng)
        mux = otdm_multiplex(blocks, plan.symbol_rate, plan, grid)
        for l, block in enumerate(blocks, start=1):
            got = sample_symbols(mux, plan.symbol_rate,
                                 t_offset=plan.slot(l))
            assert_allclose(got, block, atol=1e-10)

    def test_raised_cosine_shaping_round_trip(self):
        """Raised-cosine branches at half the branch rate, multiplexed and
        ideally demultiplexed back to back, give their symbols back."""
        plan = ChannelPlan(5, 24e9)
        rng = np.random.default_rng(37)
        n_symbols = 13
        rate = plan.symbol_rate / 2
        grid = grid_for(plan, 2 * n_symbols)
        blocks = [rng.standard_normal(n_symbols) + 1j * rng.standard_normal(n_symbols)
                  for _ in range(plan.n_branches)]
        mux = otdm_multiplex(blocks, rate, plan, grid, rolloff=0.6)
        for l, (block, y) in enumerate(zip(blocks, demultiplex(mux, plan)),
                                       start=1):
            got = sample_symbols(y, rate, t_offset=plan.slot(l))
            assert_allclose(got, block, atol=1e-10)

    def test_branches_on_different_grids_rejected(self):
        """Branch signals on grids of another rate or length are refused,
        wherever the odd one sits."""
        plan = ChannelPlan(3, 24e9)
        grid = grid_for(plan, 9)
        blocks = random_symbols(plan, 9, np.random.default_rng(0))
        parts = [nyquist_interpolate(block, plan.symbol_rate, grid, t_offset=plan.slot(l))
                 for l, block in enumerate(blocks, start=1)]
        for odd in (TimeGrid(2 * grid.sample_rate, 2 * grid.n_samples),
                    TimeGrid(grid.sample_rate, 2 * grid.n_samples)):
            other = Signal(odd, np.ones(odd.n_samples))
            for l in range(plan.n_branches):
                with pytest.raises(ValueError, match="same grid"):
                    multiplex_branch_signals(parts[:l] + [other] + parts[l + 1:], plan)

    def test_wrong_stream_count_rejected(self):
        plan = ChannelPlan(3, 24e9)
        grid = grid_for(plan, 9)
        blocks = random_symbols(plan, 9, np.random.default_rng(0))
        with pytest.raises(ValueError):
            otdm_multiplex(blocks[:2], plan.symbol_rate, plan, grid)
        parts = [nyquist_interpolate(block, plan.symbol_rate, grid) for block in blocks]
        for wrong in (parts[:2], parts + parts[:1]):
            with pytest.raises(ValueError, match=f"expected 3 branch signals, got {len(wrong)}"):
                multiplex_branch_signals(wrong, plan)

    def test_window_must_hold_a_sequence_period(self):
        """A window of 8e-10 sequence periods snaps to 0 whole ones, which
        hold no sequence line."""
        plan = ChannelPlan(3, 24e9)
        sig = Signal(TimeGrid(1e19, 1), np.ones(1))
        with pytest.raises(ValueError, match="at least one sequence period"):
            multiplex_branch_signals([sig] * 3, plan)


def test_sample_symbols_requires_on_grid_instants():
    grid = TimeGrid(10e9, 100)
    sig = nyquist_interpolate(np.ones(5, dtype=complex), 0.5e9, grid)
    with pytest.raises(ValueError):
        sample_symbols(sig, 0.5e9, t_offset=0.3 * grid.dt)


def test_sample_symbols_requires_a_signal():
    """An empty list of signals is refused like any list of signals that
    does not match its offsets."""
    with pytest.raises(ValueError, match="one or more signals"):
        sample_symbols([], 0.5e9, [])


def test_sample_symbols_refuses_a_scalar_offset_or_numbers_for_signals():
    """A list of signals with one scalar offset, and an array of numbers
    in place of signals, raise the function's ValueError."""
    sig = nyquist_interpolate(np.ones(5, dtype=complex), 0.5e9, TimeGrid(10e9, 100))
    with pytest.raises(ValueError, match="one offset per signal"):
        sample_symbols([sig], 0.5e9, 0.0)
    with pytest.raises(ValueError, match="one offset per signal"):
        sample_symbols([sig, sig], 0.5e9, [[0.0], [0.0]])
    with pytest.raises(ValueError, match="one or more signals"):
        sample_symbols(np.array([1, 2]), 0.5e9, [0.0, 0.0])
    with pytest.raises(ValueError, match="one or more signals"):
        sample_symbols([sig, 1.0], 0.5e9, [0.0, 0.0])


def test_sample_symbols_requires_a_positive_rate():
    """A rate at or below zero is refused, not read as a negative step in
    samples."""
    sig = nyquist_interpolate(np.ones(5, dtype=complex), 0.5e9, TimeGrid(10e9, 100))
    for bad in (0.0, -0.5e9, float("nan")):
        with pytest.raises(ValueError, match="symbol_rate must be positive"):
            sample_symbols(sig, bad)
