"""Tests for fiber propagation, noise loading, and laser phase noise."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from nyquist_otdm import ChannelPlan, Signal, TimeGrid
from nyquist_otdm.core import constant
from nyquist_otdm.demux import demultiplex
from nyquist_otdm.link import (
    FiberSpec,
    NoiseSpec,
    add_noise,
    compensate_dispersion,
    dispersion_phase,
    phase_noise,
    propagate,
)
from nyquist_otdm.nyquist import otdm_multiplex, sample_symbols

from helpers import grid_for, random_symbols, tone

# pi * (1550 nm)^2 / c * 17 ps/(nm km) * 30 km * (10 GHz)^2, checked against
# an independent hand evaluation of the closed form
DISPERSION_30KM_10GHZ = 1.2839932546359234


def test_dispersion_phase_reference_value():
    fiber = FiberSpec(length_km=30.0)
    assert float(dispersion_phase(fiber, 10e9)) == pytest.approx(
        DISPERSION_30KM_10GHZ, rel=1e-12)


def test_dispersion_phase_shape():
    fiber = FiberSpec(length_km=10.0)
    f = np.array([-5e9, 0.0, 5e9])
    ph = dispersion_phase(fiber, f)
    assert ph[0] == ph[2]  # even in frequency
    assert ph[1] == 0.0
    # quadratic: quadruples when frequency doubles
    assert float(dispersion_phase(fiber, 10e9)) == pytest.approx(
        4 * float(dispersion_phase(fiber, 5e9)), rel=1e-12)
    # linear in length
    assert float(dispersion_phase(FiberSpec(20.0), 5e9)) == pytest.approx(
        2 * float(dispersion_phase(FiberSpec(10.0), 5e9)), rel=1e-12)


def test_propagate_tone_gets_analytic_phase_and_loss():
    grid = TimeGrid(64e9, 256)
    fiber = FiberSpec(length_km=30.0, attenuation_db_km=0.2)
    sig = tone(grid, 8e9)
    out = propagate(sig, fiber)
    expect = (10 ** (-0.2 * 30 / 20)
              * np.exp(1j * float(dispersion_phase(fiber, 8e9)))
              * sig.samples)
    assert_allclose(out.samples, expect, atol=1e-12)


def test_compensate_inverts_dispersion_exactly():
    plan = ChannelPlan(3, 24e9)
    rng = np.random.default_rng(21)
    grid = grid_for(plan, 11)
    agg = otdm_multiplex(random_symbols(plan, 11, rng), plan.symbol_rate, plan, grid)
    lossless = FiberSpec(length_km=30.0, attenuation_db_km=0.0)
    back = compensate_dispersion(propagate(agg, lossless), lossless)
    assert_allclose(back.samples, agg.samples, atol=1e-10)


def test_attenuation_is_scalar_power_loss():
    grid = TimeGrid(64e9, 128)
    fiber = FiberSpec(length_km=10.0, dispersion_ps_nm_km=0.0,
                      attenuation_db_km=0.2)
    out = propagate(constant(grid), fiber)
    assert out.power == pytest.approx(10 ** (-2.0 / 10), rel=1e-12)


def test_fiber_spec_validation():
    with pytest.raises(ValueError):
        FiberSpec(length_km=-1.0)
    with pytest.raises(ValueError):
        FiberSpec(length_km=1.0, attenuation_db_km=-0.1)
    with pytest.raises(ValueError):
        FiberSpec(length_km=1.0, reference_wavelength_nm=0.0)


@pytest.mark.parametrize("field", ["length_km", "dispersion_ps_nm_km",
                                   "attenuation_db_km", "reference_wavelength_nm"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_fiber_spec_must_be_finite(field, value):
    """Refused at construction, naming the field, not later inside a
    transform as bins that are not finite."""
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        FiberSpec(**{"length_km": 10.0, field: value})


class TestNoise:
    def test_variance_matches_osnr_target(self):
        grid = TimeGrid(100e9, 1 << 16)
        sig = constant(grid)
        osnr_db = 20.0
        out = add_noise(sig, NoiseSpec(osnr_db, seed=3))
        noise_power = np.mean(np.abs(out.samples - sig.samples) ** 2)
        expect = 1.0 * grid.sample_rate / (12.5e9 * 10 ** (osnr_db / 10))
        assert noise_power == pytest.approx(expect, rel=0.02)

    def test_seed_reproducibility(self):
        grid = TimeGrid(50e9, 1024)
        sig = constant(grid)
        a = add_noise(sig, NoiseSpec(25.0, seed=7))
        b = add_noise(sig, NoiseSpec(25.0, seed=7))
        c = add_noise(sig, NoiseSpec(25.0, seed=8))
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_infinite_osnr_is_a_passthrough(self):
        grid = TimeGrid(50e9, 64)
        sig = constant(grid)
        out = add_noise(sig, NoiseSpec(math.inf))
        assert np.array_equal(out.samples, sig.samples)

    @pytest.mark.parametrize("kwargs, field", [
        ({"osnr_db": math.nan}, "osnr_db"),
        ({"osnr_db": -math.inf}, "osnr_db"),
        ({"osnr_db": 20.0, "reference_bandwidth_hz": math.inf}, "reference_bandwidth_hz"),
        ({"osnr_db": 20.0, "reference_bandwidth_hz": math.nan}, "reference_bandwidth_hz"),
    ])
    def test_spec_must_be_finite(self, kwargs, field):
        """Only +inf, no noise, is legal past the finite values: before, an
        infinite reference bandwidth loaded no noise at all and -inf dB
        divided by zero."""
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            NoiseSpec(**kwargs)

    @pytest.mark.parametrize("osnr_db", [4000.0, -4000.0, 300.5, -300.5])
    def test_osnr_beyond_300_db_is_refused(self, osnr_db):
        """The config row's bounds: before, 4000 dB overflowed 10**(osnr/10)
        and -4000 dB divided by its zero."""
        with pytest.raises(ValueError, match="^osnr_db must be finite and within"):
            NoiseSpec(osnr_db)

    @pytest.mark.parametrize("osnr_db", [300.0, -300.0])
    def test_osnr_at_300_db_loads_finite_noise(self, osnr_db):
        sig = constant(TimeGrid(50e9, 64))
        with np.errstate(all="raise"):
            out = add_noise(sig, NoiseSpec(osnr_db, seed=1))
        assert np.isfinite(out.power) and out.power > 0

    def test_zero_signal_rejected(self):
        grid = TimeGrid(50e9, 64)
        with pytest.raises(ValueError):
            add_noise(constant(grid, 0.0), NoiseSpec(20.0))

    @pytest.mark.parametrize("reach", [-1, 3.0, True])
    def test_reach_must_be_none_or_a_count(self, reach):
        """Before, -1 failed in numpy ("negative dimensions are not allowed")
        and 3.0 with a TypeError about '14.0'; True ran as reach 1."""
        sig = constant(TimeGrid(50e9, 64))
        with pytest.raises(ValueError, match="^reach must be None or an integer >= 0"):
            add_noise(sig, NoiseSpec(20.0), reach)

    @pytest.mark.parametrize("n", [64, 65])
    def test_each_bin_carries_n_sigma2(self, n):
        """The noise of every bin is CN(0, n sigma^2), the DFT of n samples
        of CN(0, sigma^2).  Over 400 seeds a bin's mean |noise|^2 is a mean
        of 400 unit-mean exponentials, standard deviation 1/20: every bin is
        within 5 of them of n sigma^2, and the real and imaginary parts each
        carry half, within 5 standard deviations of the mean of 400 n values."""
        grid = TimeGrid(50e9, n)
        sig = constant(grid)
        sigma2 = grid.sample_rate / (12.5e9 * 10 ** (20.0 / 10))
        k = np.arange(n)
        noise = np.array([add_noise(sig, NoiseSpec(20.0, seed=s))._take(k) - sig._take(k)
                          for s in range(400)]) / math.sqrt(n * sigma2)
        per_bin = np.mean(np.abs(noise) ** 2, axis=0)
        assert np.all(np.abs(per_bin - 1.0) < 5 / math.sqrt(400))
        for part in (noise.real, noise.imag):
            assert abs(np.mean(part ** 2) - 0.5) < 5 * 0.5 * math.sqrt(2 / noise.size)

    @pytest.mark.parametrize("n", [64, 65, 1000, 1001])
    def test_reach_draw_is_the_whole_grid_draw_cut(self, n):
        """Bin k's noise depends on the seed and k alone: a draw up to reach
        r holds the whole-grid draw's bins |k| <= r bit for bit, and nothing
        past them; at r >= n // 2 it is the whole grid."""
        grid = TimeGrid(50e9, n)
        rng = np.random.default_rng(n)
        band = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        sig = Signal._of_bins(grid, band, -7)
        noise = NoiseSpec(15.0, seed=5)
        whole = add_noise(sig, noise)
        k = np.arange(-(n // 2), (n + 1) // 2)
        for reach in (0, 1, 6, 12, n // 2 - 1, n // 2, n):
            cut = add_noise(sig, noise, reach)
            inside = np.abs(k) <= reach
            assert_array_equal(cut._take(k[inside]), whole._take(k[inside]))
            assert not np.any(cut._take(k[~inside]))
        assert_array_equal(add_noise(sig, noise, n // 2)._take(k), whole._take(k))


class TestPhaseNoise:
    def test_zero_linewidth_passthrough(self):
        grid = TimeGrid(50e9, 64)
        sig = constant(grid)
        out = phase_noise(sig, 0.0)
        assert np.array_equal(out.samples, sig.samples)

    def test_wiener_variance_growth(self):
        """Phase variance after time T approaches 2*pi*linewidth*T."""
        grid = TimeGrid(10e9, 2000)
        lw = 1e6
        finals = []
        for seed in range(400):
            out = phase_noise(constant(grid), lw, seed=seed)
            finals.append(np.angle(out.samples[-1]))
        t_final = (grid.n_samples - 1) * grid.dt
        assert np.var(finals) == pytest.approx(2 * math.pi * lw * t_final,
                                               rel=0.15)

    def test_magnitude_preserved(self):
        grid = TimeGrid(10e9, 256)
        out = phase_noise(constant(grid, 2.0), 1e6, seed=1)
        assert_allclose(np.abs(out.samples), 2.0, atol=1e-12)

    def test_negative_linewidth_rejected(self):
        grid = TimeGrid(10e9, 16)
        with pytest.raises(ValueError):
            phase_noise(constant(grid), -1.0)

    @pytest.mark.parametrize("lw", [math.inf, math.nan, 1.01e300])
    def test_linewidth_past_1e300_is_refused_before_any_draw(self, lw):
        """Before, inf and nan warned three times in the arithmetic and then
        failed on the non-finite samples; the error is now the argument's."""
        with np.errstate(all="raise"), pytest.raises(ValueError, match="^linewidth_hz"):
            phase_noise(constant(TimeGrid(10e9, 16)), lw)

    def test_linewidth_at_1e300_gives_finite_samples(self):
        with np.errstate(all="raise"):
            out = phase_noise(constant(TimeGrid(10e9, 16)), 1e300, seed=1)
        assert np.all(np.isfinite(out.samples))


def _mean_branch_error(agg, plan, blocks, n_symbols):
    errs = []
    branches = demultiplex(agg, plan)
    for l, (sent, y) in enumerate(zip(blocks, branches), start=1):
        got = sample_symbols(y, plan.symbol_rate, t_offset=plan.slot(l))
        # data-aided one-tap equalizer, as a coherent receiver would apply
        g = np.vdot(got, sent) / np.vdot(got, got)
        errs.append(np.sqrt(np.mean(np.abs(g * got - sent) ** 2)))
    return float(np.mean(errs))


def test_dispersion_hurts_and_compensation_restores():
    plan = ChannelPlan(3, 24e9)
    rng = np.random.default_rng(33)
    n_symbols = 33
    grid = grid_for(plan, n_symbols)
    blocks = random_symbols(plan, n_symbols, rng)
    agg = otdm_multiplex(blocks, plan.symbol_rate, plan, grid)
    fiber = FiberSpec(length_km=30.0, attenuation_db_km=0.0)

    one_span = propagate(agg, fiber)
    two_spans = propagate(one_span, fiber)
    fixed = compensate_dispersion(one_span, fiber)

    e_fixed = _mean_branch_error(fixed, plan, blocks, n_symbols)
    e_one = _mean_branch_error(one_span, plan, blocks, n_symbols)
    e_two = _mean_branch_error(two_spans, plan, blocks, n_symbols)
    assert e_fixed < 1e-9
    assert e_fixed < e_one < e_two
