"""Tests for grids, signals, spectra, and the filtering/IO primitives."""

import math
import tempfile
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helpers import delay_signal, freqs, rmse_percent, tone
from nyquist_otdm import ChannelPlan, Signal, TimeGrid, core, scenario, spectrum
from nyquist_otdm.core import _CSV_BLOCK_ROWS, _g17, _write_csv, constant


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
    for view in (spectrum(back), back.samples):
        with pytest.raises(ValueError):
            view[0] = 0.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(3, 80), size=st.integers(1, 80), first=st.integers(-240, 240),
       reach=st.integers(0, 39), sample_rate=st.floats(1e3, 1e13))
@example(n=8, size=5, first=2, reach=3, sample_rate=192e9)  # bins 2..6: 5 and 6 are -3, -2
def test_band_readers_read_the_zero_filled_bins(n, size, first, reach, sample_rate):
    """``spectrum``, ``samples`` and the bundle's spectrum crop read a band
    of bins, from any first bin and wrapping past n // 2, as the zero-filled
    whole-grid bins, bit for bit; the crop's frequencies, and
    ``freq_resolution``, are ``np.fft.fftfreq``'s."""
    size, reach = min(size, n), min(reach, (n - 1) // 2)
    rng = np.random.default_rng(n * size)
    grid = TimeGrid(sample_rate, n)
    sig = Signal._of_bins(grid, rng.standard_normal(size) + 1j * rng.standard_normal(size),
                          first)
    band_first, band = sig._spectrum()
    filled = np.zeros(n, dtype=complex)
    filled[(band_first + np.arange(band.size)) % n] = band
    spec = spectrum(sig)
    assert_array_equal(spec, np.fft.fftshift(filled) / n)
    assert_array_equal(sig.samples, np.fft.ifft(filled))

    f = np.fft.fftshift(np.fft.fftfreq(n, grid.dt))
    assert grid.freq_resolution == np.fft.fftfreq(n, grid.dt)[1]
    # a crop out to |k| <= reach, below n / 2 as the bundle's sample rate keeps it
    edge = (reach + 0.5) * grid.freq_resolution
    _, rows = scenario._spectrum_rows(sig, edge / scenario._BAND_MARGIN)
    inside = np.abs(f) <= edge
    power = 10.0 * np.log10(np.maximum(np.abs(spec[inside]) ** 2, 1e-30))
    assert_array_equal(rows, np.column_stack([f[inside], power]))


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


# the write block the table tests patch in: small and odd, so that each
# example crosses many block boundaries and a block holds few values
_B = 7
_SPECIAL = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                     -1.5e-310, 2.2250738585072014e-308, 1e300, -1e300,
                     1e-300, -1e-300, 1.7976931348623157e308])


def _column(kind: str, rng, n_rows: int) -> np.ndarray:
    """Values of one kind: any magnitude, or those of the bundles' columns
    (eye amplitudes, spectrum powers in dBm, frequencies k * step up to 1e11,
    and decided symbol indices 0-15)."""
    if kind == "symbol":
        return rng.integers(0, 16, n_rows).astype(float)
    if kind == "eye":
        return rng.normal(0.0, 0.3, n_rows)
    if kind == "dbm":
        return rng.uniform(-300.0, 10.0, n_rows)
    if kind == "frequency":
        k = np.arange(n_rows) - n_rows // 2
        return k * (1e11 / max(1, n_rows // 2) * rng.uniform(0.01, 1.0))
    return rng.standard_normal(n_rows) * 10.0 ** rng.integers(-320, 300, n_rows)


def _table(rng, n_rows, kinds, special_share):
    """Columns of the given kinds with special values sprinkled in."""
    rows = np.column_stack([_column(kind, rng, n_rows) for kind in kinds])
    special = rng.random(rows.shape) < special_share
    rows[special] = rng.choice(_SPECIAL, int(special.sum()))
    return rows


@st.composite
def _tables(draw):
    """A random float table with row counts below, at and across block
    boundaries.  Each column holds any magnitude or one kind of the bundles'
    values."""
    n_rows = draw(st.sampled_from([1, 2, _B - 1, _B, _B + 1, 2 * _B, 2 * _B + 1])
                  | st.integers(1, 60 * _B))
    n_cols = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(["any", "eye", "dbm", "frequency", "symbol"]),
                          min_size=n_cols, max_size=n_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return _table(rng, n_rows, kinds, draw(st.sampled_from([0.0, 0.05, 0.5])))


# values that == merges (0.0 and -0.0) or that print specially (nan, +-inf,
# a subnormal, 1e300), among a few plain ones
_POOL = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, -2.5, 0.1])
_INT_POOL = np.array([0.0, -0.0, 3.0, 15.0, -7.0, 1e300])
# the pooled tables' write block: its first block, by which the writer
# judges a column, holds at least twice as many rows as a pool has values
_PB = 4 * _POOL.size + 1


@st.composite
def _pooled_tables(draw):
    """A column drawn from a small pool, so that at most half of its values
    are distinct and the writer formats each once, next to an all-distinct
    column, in either order.  The pool is ``_POOL``, or ``_INT_POOL``'s
    integer values with a second ``_POOL`` column beside it.  Row counts run
    at and across block boundaries."""
    n_rows = draw(st.sampled_from([3 * _PB, 3 * _PB + 1, 4 * _PB])
                  | st.integers(2 * _POOL.size, 20 * _PB))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    distinct = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    if draw(st.booleans()):
        cols = [rng.choice(_POOL, n_rows), distinct]
    else:
        cols = [rng.choice(_INT_POOL, n_rows), distinct, rng.choice(_POOL, n_rows)]
    return np.column_stack(cols[::-1] if draw(st.booleans()) else cols)


def _assert_writes_as_savetxt(rows):
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp) / "ours.csv", Path(tmp) / "ref.csv"
        _write_csv(ours, "a,b", rows)
        np.savetxt(ref, rows, fmt="%.17g", delimiter=",", header="a,b", comments="")
        assert ours.read_bytes() == ref.read_bytes()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_tables())
def test_write_csv_matches_savetxt(table):
    # a patch, not a fixture: hypothesis runs every example in one function call
    with mock.patch.object(core, "_CSV_BLOCK_ROWS", _B):
        _assert_writes_as_savetxt(table)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_pooled_tables())
def test_write_csv_matches_savetxt_on_pooled_columns(table):
    """The columns that the writer formats once per distinct value."""
    with mock.patch.object(core, "_CSV_BLOCK_ROWS", _PB):
        _assert_writes_as_savetxt(table)


def test_write_csv_matches_savetxt_at_the_block_size():
    """Two whole blocks and one row at the size the writer runs with: the
    bundles' kinds of column and special values."""
    rng = np.random.default_rng(24)
    kinds = ["frequency", "dbm", "symbol", "any", "eye"]
    _assert_writes_as_savetxt(_table(rng, 2 * _CSV_BLOCK_ROWS + 1, kinds, 0.05))


# the longest %.17g strings: 24 bytes, so a field ends with the separator
_LONGEST = [-2.2250738585072014e-308, -1.7976931348623157e308, -4.9406564584124654e-324]


def test_write_csv_matches_savetxt_on_the_longest_strings():
    """The 24-byte strings in the last column, before its newline: formatted
    once each as a pooled column, and by ``%`` among all-distinct values."""
    assert {len("%.17g" % v) for v in _LONGEST} == {24}
    x = np.arange(12.0)
    _assert_writes_as_savetxt(np.column_stack([x, np.resize(_LONGEST, x.size)]))
    _assert_writes_as_savetxt(np.column_stack([x, np.r_[_LONGEST, x[3:] + 0.5]]))


def _text(words) -> str:
    return words.astype("<u8").tobytes().translate(None, b"\0").decode("ascii")


def _assert_formats_as_percent(values):
    """``_g17`` writes each value as ``'%.17g,' % v``: in numpy in its range,
    by ``%`` outside it; and as a two-column table, with each column's
    separator."""
    x = np.array(values, dtype=float)[:, None]
    out = np.zeros(x.shape + (4,), np.uint64)
    _g17(x, out, np.array([ord(",")], np.uint64) << 56)
    assert _text(out) == "".join("%.17g," % v for v in values)
    pairs = x[:x.size // 2 * 2].reshape(-1, 2)
    out = np.zeros(pairs.shape + (4,), np.uint64)
    _g17(pairs, out, np.array([ord(";"), ord("\n")], np.uint64) << 56)
    assert _text(out) == "".join("%.17g;%.17g\n" % (a, b) for a, b in pairs.tolist())


# each power of ten from 1e-7 to 1e17 and its neighbours, so the kernel's
# range edges (1e-6 and 1e17 are outside it) and the doubles whose log10
# misses; zeros and the least subnormal; and exact ties at the 17th digit,
# which % rounds half to even
_POWERS = np.array([float(f"1e{k}") for k in range(-7, 18)])
_EDGES = np.concatenate([
    _POWERS, np.nextafter(_POWERS, 0.0), np.nextafter(_POWERS, math.inf),
    [0.0, -0.0, 5e-324, 123456789012345.625, 123456789012345.875,
     100000000000000.125, 100000000000000.375, 999999999999999.875,
     0.0625, 1.5, 2.5e-5]])


def test_g17_on_edges_and_ties():
    assert "%.17g" % 123456789012345.625 == "123456789012345.62"
    _assert_formats_as_percent(np.concatenate([_EDGES, -_EDGES]).tolist())


def _layout_class(v: float) -> tuple:
    """(X, i, sign) of ``'%.17g' % v``: the decimal exponent, the index of
    the last nonzero digit of the 17, and whether it starts with "-"."""
    text = Decimal("%.17g" % v)
    return text.adjusted(), len(text.normalize().as_tuple().digits) - 1, text.is_signed()


def _one_value_per_layout_class() -> dict:
    """A value for each of the kernel's 23 * 17 * 2 field layouts, found by
    scanning decimals of i + 1 digits at each exponent X: about half of them
    are the double nearest to them to 17 digits, so a few tries hit (X, i)."""
    found = {}
    for x in range(-6, 17):
        for i in range(17):
            for m in range(10 ** i + 1, 10 ** i + 100):
                v = float(f"{m}e{x - i}")
                found.setdefault(_layout_class(v), v)
                found.setdefault(_layout_class(-v), -v)
                if (x, i, False) in found and (x, i, True) in found:
                    break
    return found


def test_g17_writes_every_layout_class():
    """Every (X, i, sign) the field tables hold that a double can print
    prints as % prints it.  One digit in e-notation, "de-06" or "de-05", is
    none: only the double nearest to d * 10**X could print so, and each of
    those prints more digits."""
    found = _one_value_per_layout_class()
    unreachable = {(x, 0, neg) for x in (-6, -5) for neg in (False, True)}
    assert all(len(Decimal("%.17g" % float(f"{d}e{x}")).normalize().as_tuple().digits) > 1
               for d in range(1, 10) for x in (-6, -5))
    wanted = {(x, i, neg) for x in range(-6, 17) for i in range(17) for neg in (False, True)}
    assert len(wanted) == 782
    assert wanted - unreachable <= set(found), sorted(wanted - unreachable - set(found))
    values = [found[c] for c in sorted(wanted - unreachable)]
    assert all(1e-6 < abs(v) < 1e17 for v in values)
    _assert_formats_as_percent(values)


_IN_RANGE = st.floats(1e-6, 1e17, exclude_min=True, exclude_max=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats() | _IN_RANGE | _IN_RANGE.map(lambda v: -v), max_size=40))
def test_g17_matches_percent(values):
    """Every double, finite or not: the kernel in its range, % outside it."""
    _assert_formats_as_percent(values)


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
