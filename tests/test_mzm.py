"""Tests for the dual-drive MZM model and flat-comb calibration."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import jv

from helpers import (
    align_delay_gain,
    comb_lines_directly,
    delay_signal,
    freqs,
    rmse_percent,
    sequence_directly,
    tone,
)
from nyquist_otdm import Signal, TimeGrid, mzm, spectrum
from nyquist_otdm.core import constant
from nyquist_otdm.mzm import (
    DrivePlan,
    DriveTone,
    MzmParams,
    _OnePeriodComb,
    _descend,
    arm_amplitude,
    calibrate_flat_comb,
    comb_report,
    eo_response,
    format_comb_table,
    modulate,
    push_pull_plan,
)

PARAMS = MzmParams(v_pi=0.42, eo_3db_bandwidth=16e9)
ARMS = (0.5 * arm_amplitude(40.0), 0.5 * arm_amplitude(37.0))


class TestDeviceBasics:
    def test_arm_amplitude_values(self):
        assert arm_amplitude(40.0) == pytest.approx(0.9801980198019802, rel=1e-15)
        assert arm_amplitude(37.0) == pytest.approx(0.9721427433170929, rel=1e-15)
        assert arm_amplitude(math.inf) == 1.0
        # the closed form is exactly 1.0 from about 331 dB on, so an extinction
        # far past it is a perfect arm, not an overflow
        for extinction_db in (331.0, 400.0, 400.5, 6166.0, 7000.0):
            assert arm_amplitude(extinction_db) == 1.0

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

    @pytest.mark.parametrize("field", ["v_pi", "eo_3db_bandwidth", "insertion_loss_db"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_params_must_be_finite(self, field, value):
        """Refused at construction, naming the field: before, an infinite
        v_pi failed inside the calibration and an infinite insertion loss
        calibrated to a nan gain."""
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            MzmParams(**{"v_pi": 0.42, "eo_3db_bandwidth": 16e9, field: value})

    def test_push_pull_plan_structure(self):
        plan = push_pull_plan([10e9, 20e9], [0.2, 0.05], bias_difference=1.1,
                              arm2_drive_ratio=0.9)
        assert plan.bias_arm1 - plan.bias_arm2 == pytest.approx(1.1)
        assert plan.bias_arm1 == pytest.approx(0.55)
        for t, (f, a) in zip(plan.tones, [(10e9, 0.2), (20e9, 0.05)]):
            assert t.frequency == f
            assert t.amplitude_arm1 == pytest.approx(a)
            assert t.amplitude_arm2 == pytest.approx(0.9 * a)
            assert t.phase_arm2 - t.phase_arm1 == pytest.approx(math.pi)

    def test_duplicate_tone_frequencies_rejected(self):
        with pytest.raises(ValueError):
            DrivePlan((DriveTone(1e9, 0.1, 0.1, 0.0, 0.0),
                       DriveTone(1e9, 0.2, 0.2, 0.0, 0.0)))


class TestModulate:
    def test_zero_drive_closed_form(self):
        """With no RF the output is the static two-arm interference."""
        grid = TimeGrid(64e9, 64)
        params = MzmParams(v_pi=0.42, eo_3db_bandwidth=16e9,
                           insertion_loss_db=3.0)
        plan = DrivePlan((), bias_arm1=0.7, bias_arm2=-0.3)
        out = modulate(constant(grid), plan, params)
        a1 = arm_amplitude(params.dc_extinction_arm1_db)
        a2 = arm_amplitude(params.dc_extinction_arm2_db)
        expect = 10 ** (-3.0 / 20) * 0.5 * (a1 * np.exp(0.7j) + a2 * np.exp(-0.3j))
        assert_allclose(out.samples, np.full(64, expect), atol=1e-15)

    def test_single_tone_lines_match_bessel_series(self):
        """Each harmonic is the Bessel-weighted sum of the two arm drives."""
        f0 = 10e9
        grid = TimeGrid(128 * f0, 128 * 4)
        params = MzmParams(v_pi=0.42, eo_3db_bandwidth=16e9,
                           dc_extinction_arm1_db=40.0,
                           dc_extinction_arm2_db=37.0,
                           insertion_loss_db=2.0)
        tone_ = DriveTone(f0, 0.2, 0.15, 0.3, 2.0)
        plan = DrivePlan((tone_,), bias_arm1=0.4, bias_arm2=-0.9)
        spec = spectrum(modulate(constant(grid), plan, params))

        a = (arm_amplitude(40.0), arm_amplitude(37.0))
        m = tuple(math.pi * amp * eo_response(f0, params) / params.v_pi
                  for amp in (0.2, 0.15))
        bias = (0.4, -0.9)
        theta = (0.3, 2.0)
        loss = 10 ** (-2.0 / 20)
        for k in range(-6, 7):
            idx = np.argmin(np.abs(freqs(grid) - k * f0))
            expect = loss * 0.5 * sum(
                a[i] * jv(k, m[i]) * np.exp(1j * (bias[i] + k * theta[i]))
                for i in range(2))
            assert spec[idx] == pytest.approx(expect, abs=1e-12)

    def test_rejects_tone_at_or_above_nyquist(self):
        grid = TimeGrid(20e9, 40)
        plan = DrivePlan((DriveTone(10e9, 0.1, 0.1, 0.0, math.pi),))
        with pytest.raises(ValueError):
            modulate(constant(grid), plan, PARAMS)


class TestCombReport:
    def test_synthetic_spectrum(self):
        """On 8 periods of 32 samples, line k sits at 8 * (16 + k): every
        8th bin is the one-period spectrum."""
        sp = 10e9
        grid = TimeGrid(32 * sp, 32 * 8)
        sig = (tone(grid, -sp).samples + 0.9 * tone(grid, 0.0).samples
               + tone(grid, sp).samples
               + 0.1 * tone(grid, 2 * sp).samples
               + 0.01 * tone(grid, -3 * sp).samples)
        report = comb_report(spectrum(Signal(grid, sig))[::8], 3, sp)
        assert report.line_frequencies_hz == (-sp, 0.0, sp)
        assert_allclose(report.line_powers_dbm,
                        (0.0, 20 * math.log10(0.9), 0.0), atol=1e-9)
        assert report.flatness_db == pytest.approx(-20 * math.log10(0.9), abs=1e-9)
        # weakest nominal line vs the +/-2-order tone at 0.1
        assert report.sideband_suppression_db == pytest.approx(
            20 * math.log10(0.9) + 20.0, abs=1e-9)

    def test_rejects_even_lines_and_short_spectra(self):
        """Line k sits at len // 2 + k, so the orders +/-(h+2) need
        n_lines + 4 bins; a shorter array is refused, not read at an index
        that wraps."""
        for bad in (4, 3.0, 5.5, True):
            with pytest.raises(ValueError, match="n_lines must be an odd integer"):
                comb_report(spectrum(constant(TimeGrid(32e9, 64))), bad, 1e9)
        for n_lines in (3, 5, 7):
            assert comb_report(np.ones(n_lines + 4), n_lines, 1e9).flatness_db == 0.0
            for short in (n_lines + 3, n_lines + 2):
                with pytest.raises(ValueError, match="does not hold"):
                    comb_report(np.ones(short), n_lines, 1e9)


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
        z = constant(grid, 0.0)
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
        lines, power = comb.lines(x)

        harmonics = spacing * np.arange(1, n_lines // 2 + 1)
        indices = 0.3 * np.concatenate(([1.0], x[2:]))
        plan = push_pull_plan(
            harmonics, indices * PARAMS.v_pi / (math.pi * eo_response(harmonics, PARAMS)),
            bias, arm2_drive_ratio=ratio)
        grid = TimeGrid(32 * spacing, 32 * 16)
        out = modulate(constant(grid), plan, PARAMS)
        ideal = Signal(grid, sequence_directly(n_lines, n_lines * spacing, grid.t)
                       .astype(complex))
        gain = np.vdot(out.samples, ideal.samples) / np.vdot(out.samples, out.samples)
        report = comb_report(spectrum(out)[::16], n_lines, spacing)  # 16 periods
        assert comb.flatness_db(lines) == pytest.approx(report.flatness_db, rel=1e-9)
        assert comb.rmse_percent(lines, power) == pytest.approx(
            rmse_percent(Signal(grid, gain * out.samples), ideal), rel=1e-9)

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(n_lines=st.sampled_from([3, 5, 7]),
           bias=st.floats(0.15 * math.pi, 0.97 * math.pi),
           ratio=st.floats(0.5, 1.25),
           scales=st.lists(st.floats(0.4, 1.6), min_size=2, max_size=2))
    def test_half_period_is_the_full_period_dft(self, n_lines, bias, ratio, scales):
        """The drive is even, so the half-period cosine sums are the full
        period's FFT: lines 0..h equal the bins +k and -k, and the weighted
        power the mean power."""
        comb = _OnePeriodComb(n_lines, 0.3, ARMS)
        x = np.array([bias, ratio] + scales[:(n_lines - 3) // 2])
        lines, power = comb.lines(x)
        full, full_power = comb_lines_directly(n_lines, 0.3, ARMS, x, comb.mult)
        h = (n_lines - 1) // 2
        assert_allclose(lines, full[h:], rtol=0, atol=1e-14)  # orders 0..h
        assert_allclose(lines, full[h::-1], rtol=0, atol=1e-14)  # orders 0..-h
        assert power == pytest.approx(full_power, rel=1e-14, abs=0)

    @pytest.mark.parametrize("n_lines", [3, 5, 7])
    def test_a_drive_scores_the_same_bits_in_any_batch(self, n_lines):
        """Alone, as a 1-row batch, or as row j of a 17-row batch (also the
        (1, 17) batch a line search passes), a drive's lines, power,
        flatness and RMSE are the same to the bit.  A matrix product's last
        bits depended on the batch shape, so a start point could score lower
        inside a batch than alone."""
        comb = _OnePeriodComb(n_lines, 0.3, ARMS)
        rng = np.random.default_rng(n_lines)
        batch = np.column_stack(
            [rng.uniform(0.15 * math.pi, 0.97 * math.pi, 17), rng.uniform(0.5, 1.25, 17)]
            + [rng.uniform(0.4, 1.6, 17) for _ in range((n_lines - 3) // 2)])

        def figures(x):
            lines, power = comb.lines(x)
            return lines, power, comb.flatness_db(lines), comb.rmse_percent(lines, power)

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
    out = modulate(constant(grid), cal.plan, cal.params)
    ideal = Signal(grid, sequence_directly(n_lines, n_lines * spacing, grid.t)
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

    def test_deterministic(self):
        a = calibrate_flat_comb(3, 10e9, PARAMS)
        b = calibrate_flat_comb(3, 10e9, PARAMS)
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
        search result to volts: every drive the search tries, and the bias
        and arm-2 ratio it picks, are the same to the bit, and the volts are
        ``m_k * v_pi / (pi * |H_EO(k * spacing)|)`` for the same m_k."""
        tried, picked = [], []
        lines = _OnePeriodComb.lines
        monkeypatch.setattr(_OnePeriodComb, "lines", lambda comb, x:
                            tried[-1].append(x.tobytes()) or lines(comb, x))
        pick = mzm.push_pull_plan
        monkeypatch.setattr(mzm, "push_pull_plan", lambda *args, **kwargs:
                            picked.append((args, kwargs)) or pick(*args, **kwargs))
        setups = [(spacing, PARAMS) for spacing in (10e9, 8e9, 30e9)] + [
            (10e9, MzmParams(v_pi=3.0, eo_3db_bandwidth=16e9, eo_model=model,
                             insertion_loss_db=loss))
            for model in ("single_pole", "gaussian", "flat") for loss in (0.0, 3.0)]
        for spacing, params in setups:
            tried.append([])
            cal = calibrate_flat_comb(5, spacing, params, modulation_index=0.3)
            (harmonics, volts, bias), ratio = picked[-1]
            assert_allclose(harmonics, [spacing, 2 * spacing], rtol=0)
            eo = eo_response(np.asarray(harmonics), params)
            if len(tried) == 1:
                indices = np.asarray(volts) * math.pi * eo / params.v_pi
                assert indices[0] == pytest.approx(0.3, rel=1e-15)
                first = tried[0], bias, ratio
            assert (tried[-1], bias, ratio) == first, (spacing, params)
            assert_allclose(volts, indices * params.v_pi / (math.pi * eo),
                            rtol=1e-15, atol=0)
            assert cal.plan.bias_arm1 - cal.plan.bias_arm2 == bias

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

    def test_pattern_move_follows_a_narrow_valley(self):
        """Along a valley 30 times narrower than it is long, at 45 degrees to
        both coordinates, line searches along single coordinates gain little
        per sweep; the pattern move along each sweep's net step reaches the
        minimum at (1, 1) within the eight sweeps."""
        def score(x):
            return 30.0 * (x[..., 0] - x[..., 1]) ** 2 + (x[..., 0] + x[..., 1] - 2.0) ** 2
        x, best = _descend(score, np.zeros(2), [0, 1], [0.5, 0.5], (-10.0, -10.0),
                           (10.0, 10.0), 1e-9)
        assert_allclose(x, [1.0, 1.0], atol=1e-6)
        assert best == score(x) < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_gain_without_a_net_step_makes_no_pattern_move(self):
        """A start point that scores lower inside a batch than alone gains
        in its own line searches without moving; the pattern move along
        that zero net step divided by zero."""
        def score(x):
            return (x ** 2).sum(axis=-1) + (1e-12 if x.ndim == 1 else 0.0)
        x, best = _descend(score, np.zeros(2), [0, 1], [0.5, 0.5], (-1.0, -1.0),
                           (1.0, 1.0), 1e-9)
        assert_array_equal(x, [0.0, 0.0])
        assert best == 0.0

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
