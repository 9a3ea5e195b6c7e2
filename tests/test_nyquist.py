"""Tests for sinc sequences, Nyquist interpolation, shaping, and muxing."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nyquist_otdm import ChannelPlan, Signal, TimeGrid, delay_signal, spectrum
from nyquist_otdm.demux import demultiplex
from nyquist_otdm.nyquist import (
    SymbolStream,
    _sequence_lines,
    multiplex_branch_signals,
    nyquist_interpolate,
    otdm_multiplex,
    raised_cosine_shape,
    sample_symbols,
)

from helpers import (
    freqs,
    grid_for,
    interpolate_directly,
    random_streams,
    sequence_directly,
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
            grid = TimeGrid(8 * 24e9, 8 * n_lines * 4, t0=0.7e-10)  # 4 periods
            plan = ChannelPlan(n_lines, 24e9)
            for branch in range(1, n_lines + 1):
                seq = sequence_from_lines(plan, grid, branch)
                oracle = sequence_directly(n_lines, 24e9, grid.t, plan.slot(branch))
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
            stream = SymbolStream(
                rng.standard_normal(n_symbols) + 1j * rng.standard_normal(n_symbols),
                plan.symbol_rate)
            # a branch slot on the grid, and an instant between samples
            for offset in (plan.slot(2), 0.37 * grid.dt):
                fast = nyquist_interpolate(stream, grid, t_offset=offset)
                direct = interpolate_directly(stream, grid, t_offset=offset)
                assert_allclose(fast.samples, direct, atol=1e-12)

    def test_sample_back_is_exact(self):
        plan = ChannelPlan(5, 40e9)
        rng = np.random.default_rng(3)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n_symbols = int(rng.integers(6, 40))
            grid = grid_for(plan, n_symbols)
            stream = SymbolStream(
                rng.standard_normal(n_symbols) + 1j * rng.standard_normal(n_symbols),
                plan.symbol_rate)
            sig = nyquist_interpolate(stream, grid)
            back = sample_symbols(sig, plan.symbol_rate, n_symbols=n_symbols)
            assert_allclose(back.symbols, stream.symbols, atol=1e-10)

    def test_linearity(self):
        plan = ChannelPlan(3, 24e9)
        grid = grid_for(plan, 12)
        rng = np.random.default_rng(8)
        a = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        rate = plan.symbol_rate
        combined = nyquist_interpolate(SymbolStream(a + 2j * b, rate), grid)
        parts = (nyquist_interpolate(SymbolStream(a, rate), grid).samples
                 + 2j * nyquist_interpolate(SymbolStream(b, rate), grid).samples)
        assert_allclose(combined.samples, parts, atol=1e-12)

    def test_band_limited_to_half_symbol_rate(self):
        plan = ChannelPlan(3, 24e9)
        grid = grid_for(plan, 9)
        rng = np.random.default_rng(1)
        stream = SymbolStream(rng.standard_normal(9) + 1j * rng.standard_normal(9),
                              plan.symbol_rate)
        spec = spectrum(nyquist_interpolate(stream, grid))
        outside = np.abs(freqs(grid)) > plan.symbol_rate / 2 + 1e-3
        assert np.max(np.abs(spec[outside])) < 1e-12


class TestRaisedCosine:
    def test_isi_free_at_symbol_instants(self):
        grid = TimeGrid(192e9, 192 * 4)
        rng = np.random.default_rng(4)
        for rolloff in (0.0, 0.35, 1.0):
            syms = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            stream = SymbolStream(syms, 4e9)
            sig = raised_cosine_shape(stream, rolloff, grid)
            back = sample_symbols(sig, 4e9, n_symbols=16)
            assert_allclose(back.symbols, syms, atol=1e-9)

    def test_spectrum_matches_closed_form(self):
        """Bins follow the flat/cosine-squared split of the pulse response."""
        grid = TimeGrid(64e9, 64 * 8)
        rolloff = 0.5
        rate = 4e9
        stream = SymbolStream(np.array([1.0 + 0j] + [0.0j] * 31), rate)
        spec = spectrum(raised_cosine_shape(stream, rolloff, grid))
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
        stream = SymbolStream(rng.standard_normal(16) + 1j * rng.standard_normal(16),
                              4e9)
        at_zero = raised_cosine_shape(stream, 0.35, grid)
        for offset in (3 * grid.dt, 2.6 * grid.dt, 1 / 4e9):
            shaped = raised_cosine_shape(stream, 0.35, grid, t_offset=offset)
            assert_allclose(shaped.samples, delay_signal(at_zero, offset).samples,
                            atol=1e-12)

    def test_rolloff_validation(self):
        grid = TimeGrid(64e9, 64)
        stream = SymbolStream(np.ones(4, dtype=complex), 4e9)
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError):
                raised_cosine_shape(stream, bad, grid)


class TestMultiplex:
    def test_equals_manual_gated_sum(self):
        plan = ChannelPlan(3, 24e9)
        rng = np.random.default_rng(17)
        grid = grid_for(plan, 11)
        streams = random_streams(plan, 11, rng)
        mux = otdm_multiplex(streams, plan, grid)
        parts = []
        for l, stream in enumerate(streams, start=1):
            parts.append(nyquist_interpolate(stream, grid, t_offset=plan.slot(l)))
        manual = multiplex_branch_signals(parts, plan)
        assert_allclose(mux.samples, manual.samples, atol=1e-12)

    def test_aggregate_construction_equivalence(self):
        """Branch-gated sum equals one aggregate-rate interpolation of the
        interleaved symbols, for both symbol-count parities."""
        plan = ChannelPlan(3, 24e9)
        rng = np.random.default_rng(23)
        for n_symbols in (10, 11):
            grid = grid_for(plan, n_symbols)
            streams = random_streams(plan, n_symbols, rng)
            mux = otdm_multiplex(streams, plan, grid)
            interleaved = np.empty(plan.n_branches * n_symbols, dtype=complex)
            for l, stream in enumerate(streams, start=1):
                interleaved[l - 1::plan.n_branches] = stream.symbols
            aggregate = nyquist_interpolate(
                SymbolStream(interleaved, plan.aggregate_bandwidth), grid)
            assert_allclose(mux.samples, aggregate.samples, atol=1e-9)

    def test_symbol_instants_carry_the_symbols(self):
        plan = ChannelPlan(3, 24e9)
        rng = np.random.default_rng(29)
        n_symbols = 9
        grid = grid_for(plan, n_symbols)
        streams = random_streams(plan, n_symbols, rng)
        mux = otdm_multiplex(streams, plan, grid)
        for l, stream in enumerate(streams, start=1):
            got = sample_symbols(mux, plan.symbol_rate,
                                 t_offset=plan.slot(l), n_symbols=n_symbols)
            assert_allclose(got.symbols, stream.symbols, atol=1e-10)

    def test_raised_cosine_shaping_round_trip(self):
        """Raised-cosine branches at half the branch rate, multiplexed and
        ideally demultiplexed back to back, give their symbols back."""
        plan = ChannelPlan(5, 24e9)
        rng = np.random.default_rng(37)
        n_symbols = 13
        rate = plan.symbol_rate / 2
        grid = grid_for(plan, 2 * n_symbols)
        streams = [SymbolStream(rng.standard_normal(n_symbols)
                                + 1j * rng.standard_normal(n_symbols), rate)
                   for _ in range(plan.n_branches)]
        mux = otdm_multiplex(streams, plan, grid, rolloff=0.6)
        for l, (stream, y) in enumerate(zip(streams, demultiplex(mux, plan)),
                                        start=1):
            got = sample_symbols(y, rate, t_offset=plan.slot(l))
            assert_allclose(got.symbols, stream.symbols, atol=1e-10)

    def test_wrong_stream_count_rejected(self):
        plan = ChannelPlan(3, 24e9)
        grid = grid_for(plan, 9)
        streams = random_streams(plan, 9, np.random.default_rng(0))
        with pytest.raises(ValueError):
            otdm_multiplex(streams[:2], plan, grid)
        wrong_rate = SymbolStream(streams[0].symbols, 2 * plan.symbol_rate)
        with pytest.raises(ValueError):
            otdm_multiplex([streams[0], streams[1], wrong_rate], plan, grid)


def test_sample_symbols_requires_on_grid_instants():
    grid = TimeGrid(10e9, 100)
    sig = nyquist_interpolate(
        SymbolStream(np.ones(5, dtype=complex), 0.5e9), grid)
    with pytest.raises(ValueError):
        sample_symbols(sig, 0.5e9, t_offset=0.3 * grid.dt)
