"""Tests for grids, signals, spectra, and the filtering/IO primitives."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import freqs, rmse_percent, tone
from nyquist_otdm import ChannelPlan, Signal, TimeGrid, delay_signal, spectrum
from nyquist_otdm.core import _CSV_BLOCK_ROWS, _write_csv, constant, require_same_grid


def test_time_grid_derived_quantities():
    grid = TimeGrid(sample_rate=192e9, n_samples=768)
    assert grid.dt == pytest.approx(1 / 192e9)
    assert grid.duration == pytest.approx(4e-9)
    assert grid.freq_resolution == pytest.approx(0.25e9)
    assert grid.nyquist == pytest.approx(96e9)
    t = grid.t
    assert t.shape == (768,)
    assert t[0] == 0.0
    assert t[1] == pytest.approx(grid.dt)


def test_time_grid_validation():
    """A grid holds a finite positive rate and a whole positive count; an
    integral float or a bool is no count."""
    for rate, n in ((0.0, 16), (-1e9, 16), (math.inf, 8), (math.nan, 8),
                    (1e9, 0), (1e9, -8), (1e9, 8.0), (1e9, 8.5), (1e9, True)):
        with pytest.raises(ValueError):
            TimeGrid(sample_rate=rate, n_samples=n)
    grid = TimeGrid(1e9, np.int64(8))
    assert constant(grid).samples.shape == (8,)


def test_signal_rejects_non_finite_and_locks_samples():
    grid = TimeGrid(1e9, 8)
    with pytest.raises(ValueError):
        Signal(grid, np.array([0, 1, np.nan, 0, 0, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError):
        Signal(grid, np.full(8, np.inf, dtype=complex))
    sig = Signal(grid, np.ones(8, dtype=complex))
    with pytest.raises(ValueError):
        sig.samples[0] = 5.0


def test_signal_power():
    grid = TimeGrid(1e9, 4)
    sig = Signal(grid, np.array([1, 1j, -1, -1j], dtype=complex) * 2.0)
    assert sig.power == pytest.approx(4.0)


def test_spectrum_inverse_round_trip():
    """A signal made from the bins of another has its samples back, and its
    power from the bins alone."""
    rng = np.random.default_rng(11)
    grid = TimeGrid(10e9, 250)
    sig = Signal(grid, rng.standard_normal(250) + 1j * rng.standard_normal(250))
    back = Signal._of_bins(grid, np.fft.ifftshift(spectrum(sig)) * grid.n_samples)
    assert back.power == pytest.approx(sig.power, rel=1e-12)
    assert_allclose(back.samples, sig.samples, atol=1e-12)
    with pytest.raises(ValueError):
        back.bins[0] = 0.0


def test_spectrum_of_constant_is_dc_bin():
    """A unit constant appears as amplitude 1 in the DC bin alone."""
    grid = TimeGrid(8e9, 64)
    spec = spectrum(constant(grid))
    dc = np.argmin(np.abs(freqs(grid)))
    assert freqs(grid)[dc] == 0.0
    assert dc == grid.n_samples // 2
    assert spec[dc] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        spec[dc] = 0.0
    others = np.delete(spec, dc)
    assert np.max(np.abs(others)) < 1e-12


def test_spectrum_tone_lands_on_bin_with_unit_amplitude():
    grid = TimeGrid(16e9, 128)
    f = 4 * grid.freq_resolution
    spec = spectrum(tone(grid, f))
    k = np.argmin(np.abs(freqs(grid) - f))
    assert spec[k] == pytest.approx(1.0, abs=1e-12)


def test_spectrum_power_identity():
    """Mean-square time power equals the sum of squared bin magnitudes."""
    rng = np.random.default_rng(5)
    grid = TimeGrid(20e9, 100)
    sig = Signal(grid, rng.standard_normal(100) + 1j * rng.standard_normal(100))
    spec = spectrum(sig)
    assert np.sum(np.abs(spec) ** 2) == pytest.approx(sig.power)


def test_delay_signal_integer_samples_is_circular_roll():
    rng = np.random.default_rng(2)
    grid = TimeGrid(10e9, 50)
    sig = Signal(grid, rng.standard_normal(50) + 1j * rng.standard_normal(50))
    shifted = delay_signal(sig, 3 * grid.dt)
    assert_allclose(shifted.samples, np.roll(sig.samples, 3), atol=1e-12)


def test_delay_signal_fractional_on_tone():
    grid = TimeGrid(10e9, 40)
    f = 3 * grid.freq_resolution
    tau = 0.37 * grid.dt
    shifted = delay_signal(tone(grid, f), tau)
    expected = np.exp(2j * np.pi * f * (grid.t - tau))
    assert_allclose(shifted.samples, expected, atol=1e-12)


def test_rmse_percent_known_value():
    """The waveform-error oracle in ``helpers``."""
    grid = TimeGrid(1e9, 4)
    ref = Signal(grid, np.array([2, 0, 0, 0], dtype=complex))
    meas = Signal(grid, np.array([2, 0.2, 0, 0], dtype=complex))
    # error rms = 0.1, peak 2 -> 5 %
    assert rmse_percent(meas, ref) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        rmse_percent(meas, Signal(grid, np.zeros(4, dtype=complex)))


def test_require_same_grid():
    a = constant(TimeGrid(1e9, 8))
    b = constant(TimeGrid(2e9, 8))
    with pytest.raises(ValueError):
        require_same_grid(a, b)


_B = _CSV_BLOCK_ROWS
_SPECIAL = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                     -1.5e-310, 2.2250738585072014e-308, 1e300, -1e300,
                     1e-300, -1e-300, 1.7976931348623157e308])


@st.composite
def _tables(draw):
    """(fmt, rows): a random float table with special values sprinkled in,
    row counts below, at and across block boundaries, and an optional
    ``%d`` column of finite values."""
    n_rows = draw(st.sampled_from([1, 2, _B - 1, _B, _B + 1, 2 * _B, 2 * _B + 1])
                  | st.integers(1, 3 * _B))
    n_cols = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(
        -320, 300, (n_rows, n_cols))
    special = rng.random((n_rows, n_cols)) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    rows[special] = rng.choice(_SPECIAL, int(special.sum()))
    fmt = "%.17g"
    if n_cols > 1 and draw(st.booleans()):
        col = draw(st.integers(0, n_cols - 1))
        rows[:, col] = rng.choice([0.0, -0.0, 3.0, 15.0, -7.9, 1e300], n_rows)
        fmt = ["%.17g"] * n_cols
        fmt[col] = "%d"
    return fmt, rows


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_tables())
def test_write_csv_matches_savetxt(table):
    fmt, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp) / "ours.csv", Path(tmp) / "ref.csv"
        _write_csv(ours, "a,b", fmt, rows)
        np.savetxt(ref, rows, fmt=fmt, delimiter=",", header="a,b", comments="")
        assert ours.read_bytes() == ref.read_bytes()


class TestChannelPlan:
    def test_derived_rates(self):
        plan = ChannelPlan(3, 24e9)
        assert plan.symbol_rate == pytest.approx(8e9)
        assert plan.detection_half_width == pytest.approx(4e9)

    def test_branch_offsets(self):
        plan = ChannelPlan(3, 24e9)
        offs = [plan.slot(l) for l in (1, 2, 3)]
        assert_allclose(offs, [0.0, 1 / 24e9, 2 / 24e9])

    def test_validation(self):
        """The count is an odd integer >= 3 (an integral float, a fraction or
        a bool is none; a numpy integer is one), the bandwidth finite and
        positive."""
        for n, bandwidth in ((4, 24e9), (1, 24e9), (3, -1.0), (3.0, 24e9),
                             (3.5, 24e9), (5.0, 24e9), (True, 24e9),
                             (3, math.inf), (3, math.nan)):
            with pytest.raises(ValueError):
                ChannelPlan(n, bandwidth)
        assert ChannelPlan(np.int64(3), 24e9).symbol_rate == 8e9
