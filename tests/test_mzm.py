"""Tests for the dual-drive MZM model and flat-comb calibration."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import jv

from helpers import (
    align_delay_gain,
    arm_field,
    comb_lines_directly,
    delay_signal,
    modulate_directly,
    rmse_percent,
    sampler_of,
    sequence_directly,
    times,
)
from nyquist_otdm import Signal, TimeGrid, spectrum
from nyquist_otdm.core import constant
from nyquist_otdm.mzm import (
    MzmParams,
    _arms,
    _OnePeriodComb,
    calibrate_flat_comb,
    eo_response,
    format_comb_table,
    modulate,
)

PARAMS = MzmParams(v_pi=0.42, eo_3db_bandwidth=16e9)
ARMS = _arms(PARAMS)  # 40 and 37 dB


class TestDeviceBasics:
    def test_arm_amplitude_values(self):
        """``_arms`` weighs each arm by half its field.  The closed form is
        exactly 1.0 from about 331 dB on, so an extinction far past it, up
        to the config's 1e300 dB, is a perfect arm, not an overflow."""
        assert [2.0 * a for a in ARMS] == pytest.approx(
            [0.9801980198019802, 0.9721427433170929], rel=1e-15)
        for extinction_db in (math.inf, 331.0, 400.0, 400.5, 6166.0, 7000.0, 1e300):
            params = MzmParams(v_pi=0.42, eo_3db_bandwidth=16e9,
                               dc_extinction_arm1_db=extinction_db)
            assert _arms(params) == (0.5, ARMS[1])

    def test_eo_response_reference_points(self):
        for model in ("single_pole", "gaussian"):
            p = MzmParams(v_pi=0.42, eo_3db_bandwidth=16e9, eo_model=model)
            assert eo_response(0.0, p) == pytest.approx(1.0)
            assert eo_response(16e9, p) == pytest.approx(1 / math.sqrt(2), rel=1e-12)
            assert eo_response(-16e9, p) == eo_response(16e9, p)
        flat = MzmParams(v_pi=0.42, eo_3db_bandwidth=16e9, eo_model="flat")
        assert eo_response(100e9, flat) == 1.0
        arr = eo_response(np.array([0.0, 16e9]), PARAMS)
        assert_allclose(arr, [1.0, 1 / math.sqrt(2)])

    def test_params_validation(self):
        with pytest.raises(ValueError):
            MzmParams(v_pi=0.0, eo_3db_bandwidth=16e9)
        with pytest.raises(ValueError):
            MzmParams(v_pi=0.42, eo_3db_bandwidth=16e9, eo_model="brickwall")
        with pytest.raises(ValueError):
            MzmParams(v_pi=0.42, eo_3db_bandwidth=16e9, insertion_loss_db=-1)
        for field in ("dc_extinction_arm1_db", "dc_extinction_arm2_db"):
            for extinction_db in (0.0, -3.0, math.nan):
                with pytest.raises(ValueError, match="DC extinction ratios must be positive"):
                    MzmParams(**{"v_pi": 0.42, "eo_3db_bandwidth": 16e9,
                                 field: extinction_db})

    @pytest.mark.parametrize("field", ["v_pi", "eo_3db_bandwidth", "insertion_loss_db"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_params_must_be_finite(self, field, value):
        """Refused at construction, naming the field: before, an infinite
        v_pi failed inside the calibration and an infinite insertion loss
        calibrated to a nan gain."""
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            MzmParams(**{"v_pi": 0.42, "eo_3db_bandwidth": 16e9, field: value})

    def test_push_pull_plan_structure(self):
        """A calibration's volts plan is its point's push-pull drive: biases
        of half the bias difference either way, harmonic k of the spacing
        at ``m_k * v_pi / (pi * |H_EO|)`` on arm 1, arm 2 at the ratio times
        that, and anti-phase arms."""
        plan = sampler_of((1.1, 0.9, 0.25), 0.3, PARAMS, 10e9).plan
        assert plan.bias_arm1 - plan.bias_arm2 == pytest.approx(1.1)
        assert plan.bias_arm1 == pytest.approx(0.55)
        for t, (f, m) in zip(plan.tones, [(10e9, 0.3), (20e9, 0.075)], strict=True):
            assert t.frequency == f
            assert t.amplitude_arm1 == pytest.approx(
                m * PARAMS.v_pi / (math.pi * eo_response(f, PARAMS)), rel=1e-15)
            assert t.amplitude_arm2 == pytest.approx(0.9 * t.amplitude_arm1)
            assert t.phase_arm2 - t.phase_arm1 == pytest.approx(math.pi)


class TestModulate:
    def test_zero_drive_closed_form(self):
        """At modulation index 0 the output is the static two-arm
        interference at the bias difference."""
        grid = TimeGrid(64e9, 64)
        params = MzmParams(v_pi=0.42, eo_3db_bandwidth=16e9,
                           insertion_loss_db=3.0)
        out = modulate(constant(grid), (1.0, 0.8), 0.0, params)
        a1, a2 = arm_field(params.dc_extinction_arm1_db), arm_field(params.dc_extinction_arm2_db)
        expect = 10 ** (-3.0 / 20) * 0.5 * (a1 * np.exp(0.5j) + a2 * np.exp(-0.5j))
        assert_allclose(out.samples, np.full(64, expect), atol=1e-15)

    def test_single_tone_lines_match_bessel_series(self):
        """Each harmonic of a one-tone drive is the Bessel-weighted sum of
        the two arms: arm 1 at ``b/2 - m cos``, arm 2 at ``r m cos - b/2``."""
        grid = TimeGrid(128 * 10e9, 128)
        params = MzmParams(v_pi=0.42, eo_3db_bandwidth=16e9,
                           dc_extinction_arm1_db=40.0,
                           dc_extinction_arm2_db=37.0,
                           insertion_loss_db=2.0)
        bias, ratio, m = 1.3, 0.8, 1.7
        spec = spectrum(modulate(constant(grid), (bias, ratio), m, params))
        a = (arm_field(40.0), arm_field(37.0))
        loss = 10 ** (-2.0 / 20)
        for k in range(-6, 7):
            expect = loss * 0.5 * (a[0] * np.exp(0.5j * bias) * (-1j) ** k * jv(k, m)
                                   + a[1] * np.exp(-0.5j * bias) * 1j ** k * jv(k, ratio * m))
            assert spec[64 + k] == pytest.approx(expect, abs=1e-12)

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(n_lines=st.sampled_from([3, 5, 7]),
           eo_model=st.sampled_from(["single_pole", "gaussian", "flat"]),
           extinctions=st.lists(st.floats(15.0, 60.0), min_size=2, max_size=2),
           insertion_loss_db=st.floats(0.5, 10.0), v_pi=st.floats(0.3, 5.0),
           eo_3db_bandwidth=st.floats(5e9, 40e9), spacing=st.floats(1e9, 40e9),
           modulation_index=st.floats(0.1, 0.6), n_samples=st.integers(16, 48))
    def test_a_calibration_is_its_volts_plan(self, n_lines, eo_model, extinctions,
                                             insertion_loss_db, v_pi, eo_3db_bandwidth,
                                             spacing, modulation_index, n_samples):
        """The index-space transfer of a calibration's point, on one period,
        is the volts-and-seconds transfer of its drive plan to 1e-12: the
        plan's map to volts and back through |H_EO| holds for every EO
        model, unequal arms and any insertion loss."""
        params = MzmParams(v_pi=v_pi, eo_3db_bandwidth=eo_3db_bandwidth,
                           dc_extinction_arm1_db=extinctions[0],
                           dc_extinction_arm2_db=extinctions[1],
                           insertion_loss_db=insertion_loss_db, eo_model=eo_model)
        cal = calibrate_flat_comb(n_lines, spacing, params,
                                  modulation_index=modulation_index)
        one_period = constant(TimeGrid(n_samples * spacing, n_samples))
        got = modulate(one_period, cal.point, cal.modulation_index, cal.params).samples
        want = modulate_directly(one_period, cal.plan, cal.params).samples
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestCombReport:
    def test_calibration_reports_its_one_period_spectrum(self):
        """A calibration's report is read off one period of its modulator
        output, where line k sits at bin ``mult // 2 + k``: each line's
        power, their flatness as a power ratio, and the suppression against
        the orders +/-(h+1) and +/-(h+2), bit for bit."""
        spacing = 8e9
        for n_lines in (3, 5, 7):
            cal = calibrate_flat_comb(n_lines, spacing, PARAMS)
            mult = _OnePeriodComb(n_lines, cal.modulation_index, ARMS).mult
            spec = spectrum(modulate(constant(TimeGrid(mult * spacing, mult)), cal.point,
                                     cal.modulation_index, cal.params))
            h = n_lines // 2
            power = {k: abs(spec[mult // 2 + k]) ** 2 for k in range(-h - 2, h + 3)}
            dbm = {k: float(10.0 * np.log10(p)) for k, p in power.items()}
            lines = range(-h, h + 1)
            report = cal.report
            assert (report.n_lines, report.spacing_hz) == (n_lines, spacing)
            assert report.line_frequencies_hz == tuple(k * spacing for k in lines)
            assert report.line_powers_dbm == tuple(dbm[k] for k in lines)
            assert report.flatness_db == float(10.0 * np.log10(
                max(power[k] for k in lines) / min(power[k] for k in lines)))
            assert report.sideband_suppression_db == min(dbm[k] for k in lines) - max(
                dbm[k] for k in (-h - 2, -h - 1, h + 1, h + 2))


class TestAlignDelayGain:
    """The time-domain alignment oracle in ``helpers``."""

    def test_recovers_known_delay_and_gain(self):
        # aperiodic reference so the delay estimate is unambiguous
        from nyquist_otdm.nyquist import nyquist_interpolate

        rng = np.random.default_rng(11)
        grid = TimeGrid(32 * 10e9, 32 * 9)
        syms = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        ref = nyquist_interpolate(syms, 10e9, grid)
        applied_delay = 2.35 * grid.dt
        applied_gain = 0.8 * np.exp(0.5j)
        delayed = delay_signal(ref, applied_delay)
        measured = Signal(grid, applied_gain * delayed.samples)
        tau, gain, aligned = align_delay_gain(measured, ref)
        assert tau == pytest.approx(-applied_delay, abs=grid.dt * 1e-6)
        assert gain == pytest.approx(1 / applied_gain, rel=1e-6)
        assert_allclose(aligned.samples, ref.samples, atol=1e-6)

    def test_zero_signal_rejected(self):
        grid = TimeGrid(10e9, 20)
        z = Signal(grid, np.zeros(20))
        with pytest.raises(ValueError):
            align_delay_gain(z, constant(grid))


class TestOnePeriodComb:
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(n_lines=st.sampled_from([3, 5, 7]),
           bias=st.floats(0.15 * math.pi, 0.97 * math.pi),
           ratio=st.floats(0.5, 1.25),
           scales=st.lists(st.floats(0.4, 1.6), min_size=2, max_size=2))
    def test_figures_match_time_domain_oracle(self, n_lines, bias, ratio, scales):
        """Flatness and zero-delay RMSE from one period's harmonic lines, in
        modulation-index units, equal the full 16-period waveform's spectrum
        and time-domain least-squares gain fit, at zero delay, of the drive
        in volts.  Some of these drives correlate best off zero delay, so a
        best-delay fit would not state the figure."""
        spacing = 10e9
        comb = _OnePeriodComb(n_lines, 0.3, ARMS)
        x = np.array([bias, ratio] + scales[:(n_lines - 3) // 2])
        lines, transfer = comb.lines(x)

        plan = sampler_of(x, 0.3, PARAMS, spacing).plan
        grid = TimeGrid(32 * spacing, 32 * 16)
        out = modulate_directly(constant(grid), plan, PARAMS)
        ideal = Signal(grid, sequence_directly(n_lines, n_lines * spacing, times(grid))
                       .astype(complex))
        gain = np.vdot(out.samples, ideal.samples) / np.vdot(out.samples, out.samples)
        h = n_lines // 2
        power = np.abs(spectrum(out)[16 * (16 + np.arange(-h, h + 1))]) ** 2  # 16 periods
        assert comb.flatness_db(lines) == pytest.approx(
            10.0 * np.log10(power.max() / power.min()), rel=1e-9)
        assert comb.rmse_percent(lines, transfer) == pytest.approx(
            rmse_percent(Signal(grid, gain * out.samples), ideal), rel=1e-9)

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(n_lines=st.sampled_from([3, 5, 7]),
           bias=st.floats(0.15 * math.pi, 0.97 * math.pi),
           ratio=st.floats(0.5, 1.25),
           scales=st.lists(st.floats(0.4, 1.6), min_size=2, max_size=2))
    def test_half_period_is_the_full_period_dft(self, n_lines, bias, ratio, scales):
        """The drive is even, so the half-period cosine sums are the full
        period's FFT: lines 0..h equal the bins +k and -k, the half period's
        weighted power is the mean power, and so the RMSE is the one from it."""
        comb = _OnePeriodComb(n_lines, 0.3, ARMS)
        x = np.array([bias, ratio] + scales[:(n_lines - 3) // 2])
        lines, transfer = comb.lines(x)
        full, full_power = comb_lines_directly(n_lines, 0.3, ARMS, x, comb.mult)
        h = (n_lines - 1) // 2
        assert_allclose(lines, full[h:], rtol=0, atol=1e-14)  # orders 0..h
        assert_allclose(lines, full[h::-1], rtol=0, atol=1e-14)  # orders 0..-h
        power = ((transfer.real ** 2 + transfer.imag ** 2) * comb._weights).sum(axis=-1)
        assert power == pytest.approx(full_power, rel=1e-14, abs=0)
        corr2 = abs(full.sum() / n_lines) ** 2
        assert comb.rmse_percent(lines, transfer) == pytest.approx(
            100.0 * math.sqrt(max(1.0 / n_lines - corr2 / full_power, 0.0)), rel=1e-11)

    @pytest.mark.parametrize("n_lines", [3, 5, 7])
    def test_a_drive_scores_the_same_bits_in_any_batch(self, n_lines):
        """Alone, as a 1-row batch, or as row j of a 17-row batch (also the
        (1, 17) batch a line search passes), a drive's lines, transfer,
        flatness and RMSE are the same to the bit.  A matrix product's last
        bits depended on the batch shape, so a start point could score lower
        inside a batch than alone."""
        comb = _OnePeriodComb(n_lines, 0.3, ARMS)
        rng = np.random.default_rng(n_lines)
        batch = np.column_stack(
            [rng.uniform(0.15 * math.pi, 0.97 * math.pi, 17), rng.uniform(0.5, 1.25, 17)]
            + [rng.uniform(0.4, 1.6, 17) for _ in range((n_lines - 3) // 2)])

        def figures(x):
            lines, transfer = comb.lines(x)
            return lines, transfer, comb.flatness_db(lines), comb.rmse_percent(lines, transfer)

        rows = figures(batch)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(rows, figures(batch[None])))
        for j, x in enumerate(batch):
            for alone in (figures(x), [f[0] for f in figures(x[None])]):
                for a, b in zip(alone, rows):
                    assert np.asarray(a).tobytes() == b[j].tobytes(), j


def assert_centred(cal, n_lines: int, spacing: float):
    """The calibrated pulse sits at t = 0, where the sampler reads it: the
    time-domain best delay of 16 periods of the modulator output onto the
    unshifted ideal sequence is zero."""
    grid = TimeGrid(32 * spacing, 32 * 16)
    out = modulate_directly(constant(grid), cal.plan, cal.params)
    ideal = Signal(grid, sequence_directly(n_lines, n_lines * spacing, times(grid))
                   .astype(complex))
    tau, _, _ = align_delay_gain(out, ideal)
    assert abs(tau) < 1e-6 * grid.dt


class TestCalibration:
    @pytest.mark.parametrize("spacing", [10e9, 20e9, 30e9])
    def test_three_line_comb_meets_targets(self, spacing):
        cal = calibrate_flat_comb(3, spacing, PARAMS, flatness_target_db=0.1)
        assert cal.converged
        assert cal.report.flatness_db <= 0.1
        assert cal.waveform_rmse_percent <= 1.0
        assert cal.report.sideband_suppression_db > 25.0
        assert_centred(cal, 3, spacing)

    @pytest.mark.parametrize("spacing", [8e9, 10e9])
    def test_five_line_comb_is_centred(self, spacing):
        cal = calibrate_flat_comb(5, spacing, PARAMS, flatness_target_db=0.1)
        assert cal.converged
        assert_centred(cal, 5, spacing)

    @pytest.mark.parametrize("spacing", [4e9, 4.25e9])
    def test_seven_line_comb_converges(self, spacing):
        """The waveform stage keeps the flatness within the target."""
        cal = calibrate_flat_comb(7, spacing, PARAMS, flatness_target_db=0.1)
        assert cal.converged
        assert cal.report.flatness_db <= 0.1
        assert_centred(cal, 7, spacing)

    def test_bad_line_counts_and_spacings_rejected(self):
        """An integral float, a fraction or a bool is no line count (a numpy
        integer is one), and the spacing is finite and positive; each is
        named before the search runs."""
        for bad in (3.0, 5.5, True, 4, 1):
            with pytest.raises(ValueError, match="n_lines must be an odd integer"):
                calibrate_flat_comb(bad, 10e9, PARAMS)
        for bad in (0.0, -10e9, math.inf, math.nan):
            with pytest.raises(ValueError, match="spacing must be finite and positive"):
                calibrate_flat_comb(3, bad, PARAMS)
        assert calibrate_flat_comb(np.int64(3), 10e9, PARAMS).report.n_lines == 3

    def test_index_and_target_are_finite_and_positive(self):
        """A negative index once calibrated a comb reported as converged whose
        waveform missed the sequence by 54%; an index of 0, inf or nan, and a
        target of 0 or below or nan, are refused, each named, before the
        search runs."""
        for bad in (-0.3, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="modulation_index must be finite and positive"):
                calibrate_flat_comb(3, 8e9, PARAMS, modulation_index=bad)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="flatness_target_db must be finite and positive"):
                calibrate_flat_comb(3, 8e9, PARAMS, flatness_target_db=bad)

    def test_deterministic(self):
        a = calibrate_flat_comb(3, 10e9, PARAMS)
        b = calibrate_flat_comb(3, 10e9, PARAMS)
        assert a.point == b.point
        assert a.plan == b.plan
        assert a.report.flatness_db == b.report.flatness_db
        assert a.gain == b.gain

    def test_first_harmonic_amplitude_is_pinned(self):
        """The requested drive strength shows up as the fundamental's
        arm-1 amplitude, scaled so the effective EO depth matches."""
        cal = calibrate_flat_comb(3, 10e9, PARAMS, modulation_index=0.3)
        fundamental = min(cal.plan.tones, key=lambda t: t.frequency)
        depth = (math.pi * fundamental.amplitude_arm1
                 * eo_response(fundamental.frequency, PARAMS) / PARAMS.v_pi)
        assert depth == pytest.approx(0.3, rel=1e-9)

    def test_search_sees_only_the_modulation_index(self, monkeypatch):
        """Spacing, V_pi, the EO model and the insertion loss only map the
        search result to volts: every drive the search tries, and the point
        it keeps, are the same to the bit, and the plan's volts are
        ``m_k * v_pi / (pi * |H_EO(k * spacing)|)`` for the same m_k."""
        tried, points = [], []
        lines = _OnePeriodComb.lines
        monkeypatch.setattr(_OnePeriodComb, "lines", lambda comb, x:
                            tried[-1].append(x.tobytes()) or lines(comb, x))
        setups = [(spacing, PARAMS) for spacing in (10e9, 8e9, 30e9)] + [
            (10e9, MzmParams(v_pi=3.0, eo_3db_bandwidth=16e9, eo_model=model,
                             insertion_loss_db=loss))
            for model in ("single_pole", "gaussian", "flat") for loss in (0.0, 3.0)]
        for spacing, params in setups:
            tried.append([])
            cal = calibrate_flat_comb(5, spacing, params, modulation_index=0.3)
            points.append(cal.point)
            assert (tried[-1], cal.point) == (tried[0], points[0]), (spacing, params)
            assert cal.modulation_index == 0.3
            plan = cal.plan
            harmonics = [t.frequency for t in plan.tones]
            assert_allclose(harmonics, [spacing, 2 * spacing], rtol=0)
            eo = eo_response(np.asarray(harmonics), params)
            assert_allclose([t.amplitude_arm1 for t in plan.tones],
                            0.3 * np.array([1.0, cal.point[2]]) * params.v_pi / (math.pi * eo),
                            rtol=1e-15, atol=0)
            assert plan.bias_arm1 - plan.bias_arm2 == cal.point[0]

    # (device, lines) -> (waveform RMSE %, line evaluations) of the search
    # by coordinate descent alone, stopping on a sweep that gained nothing
    DEVICES = {
        "comb_10ghz": PARAMS,
        "3V_gaussian_30_25dB_3dB_loss": MzmParams(
            v_pi=3.0, eo_3db_bandwidth=16e9, dc_extinction_arm1_db=30.0,
            dc_extinction_arm2_db=25.0, insertion_loss_db=3.0, eo_model="gaussian"),
        "60_45dB": MzmParams(v_pi=0.42, eo_3db_bandwidth=16e9,
                             dc_extinction_arm1_db=60.0, dc_extinction_arm2_db=45.0),
    }
    COORDINATE_DESCENT = {
        ("comb_10ghz", 3): (0.8630523548529013, 123),
        ("comb_10ghz", 5): (1.3282202497770563, 186),
        ("comb_10ghz", 7): (2.101209793458072, 207),
        ("3V_gaussian_30_25dB_3dB_loss", 3): (4.543126316545446, 49),
        ("3V_gaussian_30_25dB_3dB_loss", 5): (3.301056612549283, 135),
        ("3V_gaussian_30_25dB_3dB_loss", 7): (3.142957963158606, 253),
        ("60_45dB", 3): (0.9318969344178113, 123),
        ("60_45dB", 5): (1.3482741398821763, 186),
        ("60_45dB", 7): (2.1080263857301964, 207),
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_calibration_that_divided_by_zero(self):
        """This 5-line comb warned "divide by zero" in the pattern move, and
        a run of its config under ``-W error::RuntimeWarning`` exited 1."""
        cal = calibrate_flat_comb(5, 8e9, self.DEVICES["3V_gaussian_30_25dB_3dB_loss"],
                                  flatness_target_db=0.05, modulation_index=0.6)
        assert cal.converged

    def test_fewer_evaluations_at_no_loss_of_quality(self, monkeypatch):
        """Against coordinate descent alone, every comb converges with a
        waveform RMSE within 1e-4 points of it, in no more line evaluations,
        and in at least a quarter fewer over all the cases."""
        evaluations = [0]
        lines = _OnePeriodComb.lines
        monkeypatch.setattr(_OnePeriodComb, "lines", lambda comb, x:
                            evaluations.__setitem__(0, evaluations[0] + 1)
                            or lines(comb, x))
        total = 0
        for (device, n_lines), (rmse, count) in self.COORDINATE_DESCENT.items():
            evaluations[0] = 0
            cal = calibrate_flat_comb(n_lines, 8e9, self.DEVICES[device])
            assert cal.converged, (device, n_lines)
            assert cal.waveform_rmse_percent <= rmse + 1e-4, (device, n_lines)
            assert evaluations[0] <= count, (device, n_lines)
            total += evaluations[0]
        assert total <= 0.75 * sum(c for _, c in self.COORDINATE_DESCENT.values())

    @pytest.mark.parametrize("device", DEVICES)
    def test_no_polish_lowers_the_rmse(self, device):
        """SLSQP, started from each calibrated point under the same bounds
        and the same limit on every ordered pair of distinct lines, finds no
        drive more than 1e-4 RMSE points better: 3, 5 and 7 lines at index
        0.1, 0.3 and 0.6.  The search once stopped up to 3.3 points short."""
        from scipy.optimize import minimize

        limit = 0.1 * (1.0 - 1e-9)
        for n_lines in (3, 5, 7):
            hi, lo = np.nonzero(~np.eye(n_lines // 2 + 1, dtype=bool))
            for index in (0.1, 0.3, 0.6):
                cal = calibrate_flat_comb(n_lines, 8e9, self.DEVICES[device],
                                          modulation_index=index)
                comb = _OnePeriodComb(n_lines, index, _arms(self.DEVICES[device]))

                def rmse(x):
                    return float(comb.rmse_percent(*comb.lines(x)))

                def margins(x):
                    lines = comb.lines(x)[0]
                    db = 10.0 * np.log10(lines.real ** 2 + lines.imag ** 2)
                    return limit - (db[hi] - db[lo])
                bounds = ([(0.02, math.pi - 0.02), (0.1, 10.0)]
                          + [(0.05, None)] * (n_lines // 2 - 1))
                polished = minimize(rmse, cal.point, method="SLSQP", bounds=bounds,
                                    constraints=[{"type": "ineq", "fun": margins}],
                                    options={"ftol": 1e-12, "maxiter": 200})
                assert cal.converged, (n_lines, index)
                assert margins(polished.x).min() >= -1e-7, (n_lines, index)
                assert cal.waveform_rmse_percent <= polished.fun + 1e-4, (n_lines, index)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(n_lines=st.sampled_from([3, 5, 7]), index=st.floats(0.05, 0.8),
           target=st.floats(0.02, 0.5),
           extinctions=st.lists(st.floats(20.0, 60.0), min_size=2, max_size=2))
    @example(n_lines=3, index=1e-3, target=0.1, extinctions=[40.0, 37.0])
    def test_converged_is_the_reported_flatness_within_the_target(self, n_lines, index,
                                                                  target, extinctions):
        """Over lines, indices, targets and arm extinctions, ``converged``
        says whether the report's flatness is within the target, the solve
        raises no RuntimeWarning (the suite makes them errors), and a second
        call returns the same bits; so does a target out of reach (index
        1e-3, 11.9 dB at best within the bounds)."""
        params = MzmParams(v_pi=0.42, eo_3db_bandwidth=16e9,
                           dc_extinction_arm1_db=extinctions[0],
                           dc_extinction_arm2_db=extinctions[1])
        a, b = (calibrate_flat_comb(n_lines, 8e9, params, flatness_target_db=target,
                                    modulation_index=index) for _ in range(2))
        assert a.converged is (a.report.flatness_db <= target)
        assert np.array(a.point).tobytes() == np.array(b.point).tobytes()
        assert a == b

    def test_format_table_smoke(self):
        cal = calibrate_flat_comb(3, 10e9, PARAMS)
        text = format_comb_table(cal.report)
        assert "flatness" in text
        assert text.count("\n") >= 3


def test_import_leaves_scipy_optimize_unloaded():
    """Importing the package must not pull in scipy.optimize (about a third
    of the import time)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, nyquist_otdm; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_cli_import_loads_no_scipy():
    """numpy is the only runtime dependency: the command line loads no
    scipy module at all."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, nyquist_otdm.cli; print(sorted("
         "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
