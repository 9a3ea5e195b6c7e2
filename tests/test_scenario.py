"""Tests for scenario configs, the end-to-end runner, sweeps, and the CLI."""

import copy
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import freqs
from nyquist_otdm import scenario, spectrum
from nyquist_otdm.cli import main
from nyquist_otdm.modem import Q_FLOOR_DB
from nyquist_otdm.mzm import MzmParams, calibrate_flat_comb
from nyquist_otdm.scenario import (
    ConfigError,
    load_config,
    parse_scenario,
    run_scenario,
    sweep,
    write_bundle,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "paper-scenarios"

MZM_BLOCK = {
    "v_pi_volts": 0.42,
    "eo_3db_bandwidth_hz": 16e9,
    "dc_extinction_arm1_db": 40.0,
    "dc_extinction_arm2_db": 37.0,
}


FULL_MZM_CONFIG = {
    "version": 1, "mode": "transmission", "seed": 3, "label": "full",
    "carrier_frequency_thz": 193.1,
    "plan": {"n_branches": 5, "aggregate_bandwidth_hz": 20e9},
    "modulation": "16qam",
    "shaping": {"kind": "sinc"},
    "n_symbols": 15, "oversampling": 4,
    "fiber": {"length_km": 10.0, "reference_wavelength_nm": 1552.0},
    "noise": {"osnr_db": 28.0, "seed": 11},
    "sampler": {"mode": "mzm"},
    "mzm": dict(MZM_BLOCK, eo_model="gaussian"),
    "laser": {"linewidth_hz": 1e5},
    "outputs": ["metrics", "spectra"],
}
RAISED_COSINE_CONFIG = {
    "version": 1, "plan": {"n_branches": 3, "aggregate_bandwidth_hz": 24e9},
    "modulation": "qpsk", "n_symbols": 8,
    "shaping": {"kind": "raised_cosine", "symbol_rate_hz": 4e9, "rolloff": 1.0},
}
COMB_CONFIG = {"version": 1, "mode": "comb", "comb": {"spacing_hz": 10e9},
               "mzm": dict(MZM_BLOCK)}


def echo_leaves(echo, prefix=""):
    """Dotted paths of every leaf of a normalized config echo."""
    for key, value in echo.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from echo_leaves(value, path + ".")
        else:
            yield path


def base_config(**overrides):
    cfg = {
        "version": 1,
        "seed": 0,
        "plan": {"n_branches": 3, "aggregate_bandwidth_hz": 24e9},
        "modulation": "qpsk",
        "n_symbols": 9,
    }
    cfg.update(overrides)
    return cfg


def noisy_config(**overrides):
    """:func:`base_config` at 20 dB OSNR, so every metric is finite."""
    return base_config(**dict({"noise": {"osnr_db": 20.0}}, **overrides))


class TestParsing:
    def test_defaults_resolved(self):
        sc = parse_scenario(base_config())
        cfg = sc.config
        assert cfg["mode"] == "transmission"
        assert cfg["shaping"]["kind"] == "sinc"
        assert cfg["shaping"]["rolloff"] == 0.0
        assert cfg["shaping"]["symbol_rate_hz"] == pytest.approx(8e9)
        assert cfg["noise"]["osnr_db"] is None
        assert cfg["noise"]["seed"] == cfg["seed"] + 1
        assert cfg["receiver"]["compensate_dispersion"] is True
        assert cfg["oversampling"] == 8
        assert cfg["carrier_frequency_thz"] == pytest.approx(193.4)
        assert cfg["outputs"] == ["metrics"]
        assert cfg["sampler"]["mode"] == "ideal"
        assert sc.fiber.length_km == 0.0

    def test_config_echo_is_normal_form(self):
        """Re-parsing the echoed config reproduces the same echo."""
        sc = parse_scenario(base_config())
        assert parse_scenario(copy.deepcopy(sc.config)).config == sc.config

    def test_wavelength_follows_carrier_when_omitted(self):
        sc = parse_scenario(base_config(carrier_frequency_thz=192.65))
        assert sc.fiber.reference_wavelength_nm == pytest.approx(
            299792458.0 / 192.65e12 * 1e9)
        sc2 = parse_scenario(base_config(
            fiber={"length_km": 10.0, "reference_wavelength_nm": 1550.0}))
        assert sc2.fiber.reference_wavelength_nm == 1550.0

    @pytest.mark.parametrize("mutate, field", [
        (lambda c: c.update(bogus=1), "bogus"),
        (lambda c: c["plan"].update(extra=2), "plan.extra"),
        (lambda c: c.update(version=2), "version"),
        (lambda c: c["plan"].update(n_branches=4), "plan.n_branches"),
        (lambda c: c.update(modulation="8psk"), "modulation"),
        (lambda c: c.update(n_symbols="lots"), "n_symbols"),
        (lambda c: c.update(n_symbols=2), "n_symbols"),
        (lambda c: c.update(shaping={"kind": "sinc", "rolloff": 0.5}),
         "shaping.rolloff"),
        (lambda c: c.update(shaping={"kind": "sinc", "symbol_rate_hz": 5e9}),
         "shaping.symbol_rate_hz"),
        (lambda c: c.update(shaping={"kind": "raised_cosine",
                                     "symbol_rate_hz": 8e9, "rolloff": 1.0}),
         "shaping.symbol_rate_hz"),
        (lambda c: c.update(mzm=dict(MZM_BLOCK)), "mzm"),
        (lambda c: c.update(sampler={"mode": "mzm"}), "mzm"),
        (lambda c: c.update(outputs=["metrics", "hologram"]), "outputs"),
        (lambda c: c.update(noise={"osnr_db": 30, "seed": "abc"}),
         "noise.seed"),
        # the receiver has no LO and no delay to remove: a config naming one
        # of those fields, at any value, the old defaults too, fails closed
        (lambda c: c.update(receiver={"lo_power_w": 1.0}), "receiver.lo_power_w"),
        (lambda c: c.update(receiver={"lo_phase_rad": 0.0}), "receiver.lo_phase_rad"),
        (lambda c: c.update(receiver={"timing_delay_s": 0.0}),
         "receiver.timing_delay_s"),
        pytest.param(lambda c: c.update(receiver={"timing_delay_s": 1e300}),
                     "receiver.timing_delay_s", id="delay-phase-overflows"),
        pytest.param(lambda c: c.update(receiver={"timing_delay_s": -9 / 8e9}),
                     "receiver.timing_delay_s", id="delay-of-a-whole-window"),
        # json reads NaN and -Infinity; only null means "no noise"
        (lambda c: c.update(noise={"osnr_db": -math.inf}), "noise.osnr_db"),
        # finite, but the noise power would overflow or vanish
        pytest.param(lambda c: c.update(noise={"osnr_db": 4000.0}),
                     "noise.osnr_db", id="osnr-noise-vanishes"),
        pytest.param(lambda c: c.update(noise={"osnr_db": -4000}),
                     "noise.osnr_db", id="osnr-noise-overflows"),
        (lambda c: c.update(fiber={"length_km": math.nan}), "fiber.length_km"),
        (lambda c: c.update(fiber={"length_km": 10 ** 400}), "fiber.length_km"),
        pytest.param(lambda c: c.update(noise={"osnr_db": 25, "seed": -1}),
                     "noise.seed", id="negative-noise-seed"),
        pytest.param(lambda c: c.update(fiber={"reference_wavelength_nm": 0}),
                     "fiber.reference_wavelength_nm", id="zero-wavelength"),
        pytest.param(lambda c: c.update(fiber={"reference_wavelength_nm": -1550.0}),
                     "fiber.reference_wavelength_nm", id="negative-wavelength"),
        # finite, but lambda**2 or the derived wavelength is not
        pytest.param(lambda c: c.update(fiber={"reference_wavelength_nm": 1e300}),
                     "fiber.reference_wavelength_nm", id="wavelength-overflows"),
        pytest.param(lambda c: c.update(carrier_frequency_thz=1e300),
                     "carrier_frequency_thz", id="derived-wavelength-vanishes"),
        # finite, but the span loss drives the received power to 0, or so
        # near it that the metrics are garbage
        pytest.param(lambda c: c.update(fiber={"length_km": 17000.0}),
                     "fiber.length_km", id="span-power-underflows"),
        pytest.param(lambda c: c.update(fiber={"length_km": 30.0,
                                               "attenuation_db_km": 100.0}),
                     "fiber.length_km", id="span-loss-of-3000-db"),
        # finite, but the field or comb after the modulator leaves the float range
        pytest.param(lambda c: c.update(sampler={"mode": "mzm"}, mzm=dict(
            MZM_BLOCK, insertion_loss_db=3100.0)),
                     "mzm.insertion_loss_db", id="sampler-insertion-loss"),
        pytest.param(lambda c: (c.clear(), c.update(COMB_CONFIG, mzm=dict(
            MZM_BLOCK, insertion_loss_db=3100.0))),
                     "mzm.insertion_loss_db", id="comb-insertion-loss"),
        # integers a float cannot hold; parsed only, never run
        pytest.param(lambda c: c.update(oversampling=10 ** 400), "oversampling",
                     id="huge-oversampling"),
        pytest.param(lambda c: c.update(n_symbols=10 ** 400), "n_symbols",
                     id="huge-n-symbols"),
        pytest.param(lambda c: c["plan"].update(n_branches=10 ** 400 + 1),
                     "plan.n_branches", id="huge-n-branches"),
        pytest.param(lambda c: c.update(oversampling=2 ** 53 + 1), "oversampling",
                     id="oversampling-past-2**53"),
        pytest.param(lambda c: (c.clear(), c.update(COMB_CONFIG, comb={
            "spacing_hz": 10e9, "n_lines": 10 ** 400 + 1})),
                     "comb.n_lines", id="huge-comb-lines"),
    ])
    def test_fail_closed_names_the_field(self, mutate, field):
        cfg = base_config()
        mutate(cfg)
        with pytest.raises(ConfigError) as err:
            parse_scenario(cfg)
        assert err.value.field == field
        assert field in str(err.value)

    @pytest.mark.parametrize("raw", [
        FULL_MZM_CONFIG, RAISED_COSINE_CONFIG, COMB_CONFIG],
        ids=["mzm", "raised_cosine", "comb"])
    def test_every_echoed_field_fails_closed(self, raw):
        """Each leaf of the normalized echo, set to a list, is rejected by
        its own dotted path; the echo itself re-parses to itself."""
        echo = parse_scenario(copy.deepcopy(raw)).config
        assert parse_scenario(copy.deepcopy(echo)).config == echo
        leaves = list(echo_leaves(echo))
        assert len(leaves) >= 9
        for path in leaves:
            cfg = copy.deepcopy(echo)
            *blocks, key = path.split(".")
            block = cfg
            for b in blocks:
                block = block[b]
            block[key] = []
            with pytest.raises(ConfigError) as err:
                parse_scenario(cfg)
            assert err.value.field == path

    def test_window_must_hold_whole_periods(self):
        cfg = base_config(
            n_symbols=4,
            shaping={"kind": "raised_cosine", "symbol_rate_hz": 4.8e9,
                     "rolloff": 0.4})
        with pytest.raises(ConfigError) as err:
            parse_scenario(cfg)
        assert err.value.field == "n_symbols"

    def test_raised_cosine_within_detection_band_accepted(self):
        cfg = base_config(
            shaping={"kind": "raised_cosine", "symbol_rate_hz": 4e9,
                     "rolloff": 1.0},
            n_symbols=8)
        sc = parse_scenario(cfg)
        assert sc.config["shaping"]["rolloff"] == 1.0
        assert sc.config["shaping"]["symbol_rate_hz"] == 4e9

    def test_comb_mode(self):
        cfg = {"version": 1, "mode": "comb",
               "comb": {"spacing_hz": 10e9}, "mzm": dict(MZM_BLOCK)}
        sc = parse_scenario(cfg)
        assert sc.config["comb"]["n_lines"] == 3
        assert sc.config["comb"]["spacing_hz"] == 10e9
        assert sc.mzm_params.v_pi == 0.42
        with pytest.raises(ConfigError):
            parse_scenario({"version": 1, "mode": "comb",
                            "comb": {"spacing_hz": 10e9, "n_lines": 4},
                            "mzm": dict(MZM_BLOCK)})
        with pytest.raises(ConfigError):
            parse_scenario({"version": 1, "mode": "comb",
                            "comb": {"spacing_hz": 10e9}})


TABLE_PATHS = {row[0] for row in scenario._TRANSMISSION + scenario._COMB}
PROPERTY_BASE = {  # sinc shaping at the derived rate: 3 * 63 * 8 samples
    "version": 1, "plan": {"n_branches": 3, "aggregate_bandwidth_hz": 24e9},
    "modulation": "qpsk", "n_symbols": 63, "fiber": {"length_km": 30.0},
    "noise": {"osnr_db": 20.0}, "outputs": ["metrics"]}
PROPERTY_BASES = {
    "ideal": PROPERTY_BASE,
    "mzm": dict(PROPERTY_BASE, sampler={"mode": "mzm"}, mzm=MZM_BLOCK),
    # the MZM base's comb, so the two share the calibrations of an mzm value
    "comb": dict(COMB_CONFIG, comb={"spacing_hz": 8e9}),
}
# every float row, on each base that reads it: an ideal sampler has no mzm block
FLOAT_ROWS = [
    pytest.param(row, base, id=f"{base}-{row[0]}")
    for rows, bases in ((scenario._TRANSMISSION, ("ideal", "mzm")),
                        (scenario._COMB, ("comb",)))
    for row in rows if row[1] is float
    for base in bases if not (base == "ideal" and row[0].startswith("mzm."))]


@pytest.fixture(scope="module")
def calibrations():
    """Comb calibrations shared by the property test's runs: each is a
    deterministic function of its key, as within one sweep."""
    return {}


@pytest.mark.parametrize("row, base", FLOAT_ROWS)
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=5, deadline=None, derandomize=True)
@given(log10=st.floats(-308.0, 308.25), sign=st.sampled_from([1.0, -1.0]))
@example(log10=308.25, sign=1.0)
@example(log10=308.25, sign=-1.0)
def test_every_finite_value_fails_at_parse_time_or_runs(row, base, calibrations,
                                                        log10, sign):
    """Any finite value of a float field, magnitude log-uniform up to 1.78e308
    (either sign where the table allows one), fails at parse time naming a
    table field, or runs to finite metrics whose flags hold: a capped Q
    counts no errors, and a calibration that misses its flatness target
    says it has not converged."""
    path, minimum = row[0], row[3]
    value = 10.0 ** log10 * (sign if minimum is None or minimum < 0 else 1.0)
    cfg = copy.deepcopy(PROPERTY_BASES[base])
    *blocks, key = path.split(".")
    block = cfg
    for b in blocks:
        block = block.setdefault(b, {})
    block[key] = value
    try:
        sc = parse_scenario(cfg)
    except ConfigError as err:
        assert err.field in TABLE_PATHS
        return
    bundle = run_scenario(sc, calibrations)
    for report in bundle.metrics:
        floats = [v for v in dataclasses.asdict(report).values()
                  if isinstance(v, float)]
        assert all(math.isfinite(v) for v in floats), report
        assert not report.q_capped or report.ber_count_errors == 0, report
    cal = bundle.calibration
    assert (cal is None) == (base == "ideal")
    if cal is not None:
        target = sc.config["comb" if base == "comb" else "sampler"][
            "flatness_target_db"]
        comb = dataclasses.asdict(cal.report)
        values = [cal.waveform_rmse_percent, abs(cal.gain), comb["flatness_db"],
                  comb["sideband_suppression_db"], *comb["line_powers_dbm"]]
        assert all(math.isfinite(v) for v in values), cal
        assert cal.converged is (cal.report.flatness_db <= target)


class TestRunScenario:
    def test_noiseless_back_to_back_is_clean(self):
        bundle = run_scenario(parse_scenario(base_config()))
        assert len(bundle.metrics) == 3
        for rep in bundle.metrics:
            assert rep.evm_percent < 0.1
            assert rep.ber_count_errors == 0
            assert rep.q_capped
            assert rep.below_hdfec

    def test_16qam_and_noise(self):
        cfg = base_config(modulation="16qam", n_symbols=257,
                          noise={"osnr_db": 30.0})
        bundle = run_scenario(parse_scenario(cfg))
        for rep in bundle.metrics:
            assert rep.modulation == "16qam"
            assert rep.n_bits == 4 * 257
            assert 0.0 < rep.evm_percent < 20.0
            assert not rep.q_capped

    def test_reproducible_to_the_byte(self, tmp_path):
        cfg = base_config(noise={"osnr_db": 25.0},
                          outputs=["metrics", "constellation"])
        a = run_scenario(parse_scenario(cfg))
        b = run_scenario(parse_scenario(cfg))
        pa = write_bundle(a, tmp_path / "a")
        pb = write_bundle(b, tmp_path / "b")
        assert [p.name for p in pa] == [p.name for p in pb]
        for x, y in zip(pa, pb):
            assert x.read_bytes() == y.read_bytes()

    def test_seven_branch_mzm_sampler(self):
        cfg = base_config(plan={"n_branches": 7, "aggregate_bandwidth_hz": 28e9},
                          n_symbols=17, sampler={"mode": "mzm"},
                          mzm=dict(MZM_BLOCK))
        bundle = run_scenario(parse_scenario(cfg))
        assert len(bundle.metrics) == 7
        for rep in bundle.metrics:
            assert rep.ber_count_errors == 0

    def test_sampling_lines_are_built_once_per_run(self, monkeypatch):
        """One demultiplexing pass serves every branch: the sampling lines,
        and the MZM model they come from, are computed once per run, not
        once per branch."""
        from nyquist_otdm import demux

        calls = {"modulate": 0, "_sampling_lines": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(demux, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(demux, name, counted)
        sc = parse_scenario(base_config(sampler={"mode": "mzm"},
                                        mzm=dict(MZM_BLOCK),
                                        noise={"osnr_db": 30.0}))
        for runs in (1, 2):
            bundle = run_scenario(sc)
            assert len(bundle.metrics) == 3
            assert calls == {"modulate": runs, "_sampling_lines": runs}

    def test_full_length_transforms_do_not_grow_with_branches(self, monkeypatch):
        """A run with every output makes one n-point transform, the noise's
        FFT, at 3 and at 15 branches: every other layer, the spectra and the
        eyes included, works on the bins it is given."""
        import numpy.fft

        sizes = []
        for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                     "irfft", "rfftn", "irfftn", "hfft", "ihfft"):
            def counted(*args, _fn=getattr(numpy.fft, name), **kwargs):
                result = _fn(*args, **kwargs)
                sizes.append(np.size(result))
                return result
            monkeypatch.setattr(numpy.fft, name, counted)
        for n_branches in (3, 15):
            sc = parse_scenario(base_config(
                plan={"n_branches": n_branches,
                      "aggregate_bandwidth_hz": n_branches * 2e9},
                modulation="16qam", n_symbols=9, oversampling=4,
                fiber={"length_km": 20.0}, noise={"osnr_db": 25.0},
                outputs=["metrics", "spectra", "constellation", "eye"]))
            sizes.clear()
            bundle = run_scenario(sc)
            assert len(bundle.metrics) == n_branches
            assert sizes.count(sc.make_grid().n_samples) == 1

    def test_osnr_at_the_bounds_runs(self):
        """At -300 dB the noise drowns the signal: Q is floored and flagged.
        At +300 dB the run is at the noiseless floor, Q capped."""
        low = run_scenario(parse_scenario(
            base_config(n_symbols=513, noise={"osnr_db": -300.0})))
        for r in low.metrics:
            assert r.q_floored and r.evm_percent > 99.0
        high = run_scenario(parse_scenario(base_config(noise={"osnr_db": 300})))
        for r in high.metrics:
            assert r.q_capped and r.evm_percent < 1e-9

    def test_extinction_past_the_float_range_is_a_perfect_arm(self):
        mzm = dict(MZM_BLOCK, dc_extinction_arm1_db=7000.0,
                   dc_extinction_arm2_db=7000.0)
        cal = run_scenario(parse_scenario(dict(COMB_CONFIG, mzm=mzm))).calibration
        perfect = calibrate_flat_comb(3, 10e9, MzmParams(0.42, 16e9, math.inf,
                                                         math.inf))
        assert cal.plan == perfect.plan

    def test_comb_mode_bundle(self):
        cfg = {"version": 1, "mode": "comb",
               "comb": {"spacing_hz": 10e9}, "mzm": dict(MZM_BLOCK)}
        bundle = run_scenario(parse_scenario(cfg))
        assert bundle.metrics == []
        assert bundle.calibration.report.flatness_db <= 0.1
        assert bundle.calibration.converged
        assert "flatness" in bundle.summary()


def _recorded(monkeypatch, name):
    """Replace ``scenario.<name>`` by a wrapper that records each call's
    arguments and result."""
    calls = []
    original = getattr(scenario, name)

    def record(*args):
        result = original(*args)
        calls.append((args, result))
        return result
    monkeypatch.setattr(scenario, name, record)
    return calls


class TestBundleArtifacts:
    """Spectra cropped to their band, eyes resampled from the band bins."""

    SINC = base_config(n_symbols=33, fiber={"length_km": 10.0},
                       noise={"osnr_db": 25.0},
                       outputs=["metrics", "spectra", "eye"])
    RC = dict(RAISED_COSINE_CONFIG, n_symbols=32, noise={"osnr_db": 25.0},
              outputs=["metrics", "spectra", "eye"])
    # 0.5 GBd at B/N = 8 GHz: the detection band reaches 16 samples per
    # symbol's Nyquist frequency, so the eye takes 32
    SLOW_RC = base_config(
        n_symbols=8, noise={"osnr_db": 20.0}, outputs=["metrics", "eye"],
        shaping={"kind": "raised_cosine", "symbol_rate_hz": 0.5e9,
                 "rolloff": 1.0})

    @pytest.mark.parametrize("cfg", [SINC, RC], ids=["sinc", "raised_cosine"])
    def test_spectra_are_the_band_rows_bit_for_bit(self, monkeypatch, cfg):
        """Each spectrum CSV holds exactly the rows of the full spectrum
        with |f| <= 1.25 times its half-width, B/2 for the aggregate and
        B/(2N) for a branch, to the bit; the multiplexed one keeps rows
        beyond +-B/2, so the band gate has rows to judge."""
        calls = _recorded(monkeypatch, "_spectrum_rows")
        sc = parse_scenario(cfg)
        bundle = run_scenario(sc)
        b = sc.plan.aggregate_bandwidth
        half = {"spectrum_multiplexed": b / 2, "spectrum_received": b / 2}
        half.update({f"branch{l}_spectrum": sc.plan.detection_half_width
                     for l in range(1, sc.plan.n_branches + 1)})
        assert sorted(n for n in bundle.artifacts if "spectrum" in n) == sorted(half)
        signal_of = {id(rows): args[0] for args, rows in calls}
        for name, width in half.items():
            header, fmt, rows = bundle.artifacts[name]
            sig = signal_of[id(bundle.artifacts[name])]
            power = 10.0 * np.log10(np.maximum(np.abs(spectrum(sig)) ** 2, 1e-30))
            full = np.column_stack([freqs(sig.grid), power])
            expected = full[np.abs(freqs(sig.grid)) <= 1.25 * width]
            assert header == "f_Hz,power_dBm"
            assert rows.tobytes() == expected.tobytes(), name
        mux_freqs = bundle.artifacts["spectrum_multiplexed"][2][:, 0]
        assert np.any(np.abs(mux_freqs) > b / 2)

    @pytest.mark.parametrize("cfg, per_symbol", [(SINC, 16), (RC, 16), (SLOW_RC, 32)],
                             ids=["sinc_24_to_16", "raised_cosine_48_to_16",
                                  "raised_cosine_384_to_32"])
    def test_eye_is_the_waveform_resampled(self, monkeypatch, cfg, per_symbol):
        """An eye holds per_symbol samples a symbol, and at the instants it
        shares with the full-rate grid it equals ``(y.samples * gain).real``
        to 1e-12 of the column's peak, with the same folded time; its time
        column holds exactly 2 * per_symbol values, one per phase."""
        calls = _recorded(monkeypatch, "_eye_rows")
        sc = parse_scenario(cfg)
        run_scenario(sc)
        assert len(calls) == sc.plan.n_branches
        rate = sc.config["shaping"]["symbol_rate_hz"]
        window = 2.0 / rate
        for (y, gain, _, t_offset), (header, fmt, rows) in calls:
            assert header == "t_mod_2symbols,amplitude"
            assert rows.shape == (per_symbol * sc.config["n_symbols"], 2)
            sps = round(y.grid.sample_rate / rate)
            shared = math.gcd(sps, per_symbol)
            full = (y.samples * gain).real[::sps // shared]
            eye = rows[::per_symbol // shared]
            assert np.max(np.abs(eye[:, 1] - full)) <= 1e-12 * np.max(np.abs(full))
            t_full = np.mod(y.grid.t - t_offset, window)[::sps // shared]
            apart = np.abs(eye[:, 0] - t_full)
            assert np.all(np.minimum(apart, window - apart) <= 1e-9 * window)
            # one time value per phase: the index is folded before the floats
            assert len(np.unique(rows[:, 0])) == 2 * per_symbol
            assert np.all((rows[:, 0] >= 0) & (rows[:, 0] < window))


class TestWriteBundle:
    def test_files_and_artifacts(self, tmp_path):
        cfg = base_config(outputs=["metrics", "spectra", "constellation",
                                   "eye"])
        bundle = run_scenario(parse_scenario(cfg))
        paths = write_bundle(bundle, tmp_path)
        names = {p.name for p in paths}
        assert {"config.json", "metrics.json", "metrics.txt"} <= names
        for l in (1, 2, 3):
            assert f"branch{l}_constellation.csv" in names
            assert f"branch{l}_eye.csv" in names
            assert f"branch{l}_spectrum.csv" in names
        assert "spectrum_multiplexed.csv" in names

        # the config echo loads back and validates as-is
        echoed = json.loads((tmp_path / "config.json").read_text())
        assert parse_scenario(echoed).config == echoed

        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert [r["label"] for r in metrics["reports"]] == [
            "branch 1", "branch 2", "branch 3"]
        # infinite OSNR is serialized as null, not Infinity
        assert metrics["reports"][0]["osnr_db"] is None

        csv_head = (tmp_path / "branch1_constellation.csv").read_text()
        assert csv_head.splitlines()[0] == "re,im,decided_symbol"

    def test_csvs_match_savetxt(self, tmp_path):
        """Every CSV of a full bundle (16,368-row eyes across four write
        blocks, spectra, constellations with a %d column) has the bytes
        np.savetxt gives."""
        raw = json.loads((SCENARIO_DIR / "nyquist_qpsk_8gbd_10km.json").read_text())
        bundle = run_scenario(parse_scenario(raw))
        csvs = [p for p in write_bundle(bundle, tmp_path / "bundle")
                if p.suffix == ".csv"]
        assert sorted(p.stem for p in csvs) == sorted(bundle.artifacts)
        ref = tmp_path / "ref.csv"
        for p in csvs:
            header, fmt, rows = bundle.artifacts[p.stem]
            np.savetxt(ref, rows, fmt=fmt, delimiter=",", header=header,
                       comments="")
            assert p.read_bytes() == ref.read_bytes(), p.name

    def test_comb_bundle_writes_drive_plan(self, tmp_path):
        """The JSON records are their dataclasses, field for field; a new
        field changes these key sets, which bench/checks.py reads."""
        cfg = {"version": 1, "mode": "comb",
               "comb": {"spacing_hz": 10e9}, "mzm": dict(MZM_BLOCK)}
        bundle = run_scenario(parse_scenario(cfg))
        names = {p.name for p in write_bundle(bundle, tmp_path / "comb")}
        assert "drive_plan.json" in names
        plan = json.loads((tmp_path / "comb" / "drive_plan.json").read_text())
        assert set(plan) == {"bias_arm1", "bias_arm2", "tones"}
        assert plan["tones"]
        for tone in plan["tones"]:
            assert set(tone) == {"frequency", "amplitude_arm1", "amplitude_arm2",
                                 "phase_arm1", "phase_arm2"}
        metrics = json.loads((tmp_path / "comb" / "metrics.json").read_text())
        assert set(metrics["comb"]) == {
            "n_lines", "spacing_hz", "line_frequencies_hz", "line_powers_dbm",
            "flatness_db", "sideband_suppression_db"}

        comb_keys = set(metrics["comb"])

        # an MZM transmission writes the sampler's calibration the same way
        write_bundle(run_scenario(parse_scenario(base_config(
            sampler={"mode": "mzm"}, mzm=dict(MZM_BLOCK)))), tmp_path / "mzm")
        metrics = json.loads((tmp_path / "mzm" / "metrics.json").read_text())
        assert set(metrics["comb"]) == comb_keys
        assert metrics["comb"]["n_lines"] == 3
        plan = json.loads((tmp_path / "mzm" / "drive_plan.json").read_text())
        assert set(plan) == {"bias_arm1", "bias_arm2", "tones"}

        write_bundle(run_scenario(parse_scenario(base_config())), tmp_path / "tx")
        metrics = json.loads((tmp_path / "tx" / "metrics.json").read_text())
        assert metrics["comb"] is None
        assert not (tmp_path / "tx" / "drive_plan.json").exists()
        assert set(metrics["reports"][0]) == {
            "label", "modulation", "distance_km", "osnr_db", "n_symbols",
            "n_bits", "evm_percent", "evm_std_percent", "q_i_db", "q_q_db",
            "q_i_std_db", "q_q_std_db", "q_capped", "ber_estimated",
            "ber_estimated_log10", "ber_count_errors", "ber_counted",
            "below_hdfec", "seed", "q_floored"}


class TestEchoIsTheRecord:
    """The normalized config a bundle writes is all a run reads."""

    MZM_DERIVED = dict(FULL_MZM_CONFIG, fiber={"length_km": 10.0},
                       noise={"osnr_db": 28.0})  # derived seed and wavelength
    RC_ALL = dict(RAISED_COSINE_CONFIG, noise={"osnr_db": 25.0},
                  outputs=["metrics", "spectra", "constellation", "eye"])

    @pytest.mark.parametrize("cfg", [MZM_DERIVED, RC_ALL, COMB_CONFIG],
                             ids=["mzm_derived", "raised_cosine_all", "comb"])
    def test_rerun_of_the_written_config_is_byte_identical(self, tmp_path, cfg):
        first = write_bundle(run_scenario(parse_scenario(cfg)), tmp_path / "a")
        echo = json.loads((tmp_path / "a" / "config.json").read_text())
        second = write_bundle(run_scenario(parse_scenario(echo)), tmp_path / "b")
        assert [p.name for p in first] == [p.name for p in second]
        for x, y in zip(first, second):
            assert x.read_bytes() == y.read_bytes(), x.name

    def test_calibration_reads_the_block_of_its_mode(self, monkeypatch):
        """Comb mode calibrates to ``comb.*``, an MZM transmission to
        ``sampler.*``; each passes its block's index and target."""
        calls = []
        original = scenario.calibrate_flat_comb

        def record(*args, **kwargs):
            calls.append((args[:2], kwargs))
            return original(*args, **kwargs)
        monkeypatch.setattr(scenario, "calibrate_flat_comb", record)
        block = {"modulation_index": 0.25, "flatness_target_db": 0.2}
        run_scenario(parse_scenario(dict(
            COMB_CONFIG, comb=dict(COMB_CONFIG["comb"], **block))))
        run_scenario(parse_scenario(base_config(
            sampler=dict(block, mode="mzm"), mzm=dict(MZM_BLOCK))))
        assert calls == [((3, 10e9), block), ((3, 8e9), block)]

    def test_unconverged_sampler_calibration_runs_flagged(self, tmp_path, capsys):
        """At modulation index 1e-3 the comb misses its flatness target by
        far: the run still ends, exit 0, with finite metrics, and its bundle
        says so in the comb block, the drive plan and ``converged: no``."""
        cfg = base_config(sampler={"mode": "mzm", "modulation_index": 1e-3},
                          mzm=dict(MZM_BLOCK), noise={"osnr_db": 30.0})
        bundle = run_scenario(parse_scenario(cfg))
        assert bundle.calibration.converged is False
        assert bundle.calibration.report.flatness_db > 0.1
        for r in bundle.metrics:
            assert all(math.isfinite(v) for v in dataclasses.asdict(r).values()
                       if isinstance(v, float))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out-dir", str(tmp_path / "out")]) == 0
        assert "converged: no" in capsys.readouterr().out
        out = tmp_path / "out"
        assert (out / "drive_plan.json").exists()
        assert "converged: no (waveform rmse" in (out / "metrics.txt").read_text()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["comb"]["flatness_db"] == bundle.calibration.report.flatness_db


class TestSweep:
    def test_values_applied_and_seeds_derived(self):
        cfg = base_config(seed=5, noise={"osnr_db": 30.0}, n_symbols=9)
        bundles = sweep(cfg, "noise.osnr_db", [20.0, 25.0, 30.0])
        assert [b.scenario["seed"] for b in bundles] == [5, 6, 7]
        assert [b.scenario["noise"]["osnr_db"] for b in bundles] == [
            20.0, 25.0, 30.0]
        # base config is untouched
        assert cfg["noise"]["osnr_db"] == 30.0
        assert cfg["seed"] == 5

    def test_defaulted_field_can_be_swept(self):
        cfg = base_config(seed=3)  # no noise block
        bundles = sweep(cfg, "noise.osnr_db", [20.0, 25.0])
        assert [b.scenario["noise"]["osnr_db"] for b in bundles] == [20.0, 25.0]
        # the noise seed still derives from each point's seed
        assert [b.scenario["noise"]["seed"] for b in bundles] == [4, 5]
        assert "noise" not in cfg

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError):
            sweep(base_config(), "noise.bogus_db", [1.0])
        with pytest.raises(ValueError):
            sweep(base_config(), "noise.osnr_db", [])

    def test_seed_cannot_be_swept(self, tmp_path, capsys):
        """Each point's seed is the base seed plus its index, so a swept
        seed would run other seeds than the ones it is labelled with."""
        with pytest.raises(ConfigError) as err:
            sweep(base_config(), "seed", [5, 9])
        assert err.value.field == "seed"
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(base_config()))
        assert main(["sweep", str(p), "--param", "seed", "--values", "5,9"]) == 2
        assert capsys.readouterr().err.startswith("error: seed: cannot be swept")

    def test_bad_value_fails_before_any_point_runs(self, monkeypatch, tmp_path,
                                                  capsys):
        """Every point is parsed before the first one runs, so a bad value
        anywhere in the list costs no simulation."""
        def no_run(*args):
            raise AssertionError("a point ran")
        monkeypatch.setattr(scenario, "run_scenario", no_run)
        with pytest.raises(ConfigError) as err:
            sweep(base_config(), "plan.n_branches", [3, 4])
        assert err.value.field == "plan.n_branches"
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(base_config()))
        assert main(["sweep", str(p), "--param", "noise.osnr_db",
                     "--values", "20,nan"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: noise.osnr_db: must be finite\n"
        assert captured.out == ""

    def test_each_point_is_one_run_scenario_call(self, monkeypatch):
        """A sweep runs each point through ``run_scenario``, with the
        calibrations the points share."""
        seen = []
        original = scenario.run_scenario
        monkeypatch.setattr(scenario, "run_scenario", lambda sc, calibrations:
                            seen.append(calibrations) or original(sc, calibrations))
        cfg = base_config(noise={"osnr_db": 30.0}, sampler={"mode": "mzm"},
                          mzm=dict(MZM_BLOCK))
        bundles = sweep(cfg, "noise.osnr_db", [20.0, 25.0, 30.0])
        assert len(seen) == len(bundles) == 3
        assert all(c is seen[0] for c in seen)
        assert len(seen[0]) == 1  # one calibration, made once for all three

    @pytest.mark.parametrize("parameter, values, calls", [
        ("noise.osnr_db", [20.0, 25.0, 30.0], 1),
        ("sampler.modulation_index", [0.3, 0.25], 2),
    ], ids=["osnr_shares_one", "index_needs_two"])
    def test_calibrates_once_per_distinct_input(self, monkeypatch, parameter,
                                                values, calls):
        made = []
        original = scenario.calibrate_flat_comb
        monkeypatch.setattr(scenario, "calibrate_flat_comb", lambda *a, **k:
                            made.append(a) or original(*a, **k))
        cfg = base_config(noise={"osnr_db": 30.0}, sampler={"mode": "mzm"},
                          mzm=dict(MZM_BLOCK))
        assert len(sweep(cfg, parameter, values)) == len(values)
        assert len(made) == calls

    ALL_OUTPUTS = ["metrics", "spectra", "constellation", "eye"]

    @pytest.mark.parametrize("cfg, parameter, values", [
        (base_config(seed=2, sampler={"mode": "mzm"}, mzm=dict(MZM_BLOCK),
                     outputs=ALL_OUTPUTS), "noise.osnr_db", [20.0, 25.0, 30.0]),
        (COMB_CONFIG, "label", ["a", "b"]),
    ], ids=["mzm_osnr", "comb_label"])
    def test_points_equal_runs_of_their_own(self, tmp_path, cfg, parameter,
                                            values):
        """A calibration shared within a sweep gives every point the bytes
        a fresh run of that point gives."""
        for i, bundle in enumerate(sweep(cfg, parameter, values)):
            point = copy.deepcopy(cfg)
            scenario._set_by_path(point, parameter, values[i])
            point["seed"] = cfg.get("seed", 0) + i
            swept = write_bundle(bundle, tmp_path / f"swept{i}")
            alone = write_bundle(run_scenario(parse_scenario(point)),
                                 tmp_path / f"alone{i}")
            assert [p.name for p in swept] == [p.name for p in alone]
            for x, y in zip(swept, alone):
                assert x.read_bytes() == y.read_bytes(), (i, x.name)


class TestCli:
    def write_cfg(self, tmp_path, cfg):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(cfg))
        return p

    def test_validate_ok(self, tmp_path, capsys):
        p = self.write_cfg(tmp_path, base_config())
        assert main(["validate", str(p)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_validate_bad_config_names_field(self, tmp_path, capsys):
        p = self.write_cfg(tmp_path, base_config(bogus=1))
        assert main(["validate", str(p)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_validate_bad_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["validate", str(p)]) == 2
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads("{not json")
        assert capsys.readouterr().err == f"error: invalid JSON: {exc.value}\n"

    @pytest.mark.parametrize("text", [b"{not json", b"\xff\xfe{"],
                             ids=["syntax", "not_utf8"])
    def test_invalid_json_reads_the_same_for_every_verb(self, tmp_path, capsys,
                                                         text):
        """run, sweep and validate read a config through one loader, so the
        same fault gives the same message and exit code."""
        p = tmp_path / "broken.json"
        p.write_bytes(text)
        errors = []
        for verb in (["run"], ["sweep", "--param", "noise.osnr_db", "--values", "20"],
                     ["validate"]):
            assert main([verb[0], str(p)] + verb[1:]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("error: invalid JSON: ")
        assert errors == [errors[0]] * 3

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2

    def test_run_writes_bundle(self, tmp_path, capsys):
        p = self.write_cfg(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["run", str(p), "--out-dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "branch 1" in text
        assert (out / "metrics.json").exists()

    def test_run_reports_a_floored_q(self, tmp_path):
        """Clusters that overlap entirely (100 MHz linewidth at 20 dB OSNR)
        give a Q flagged at the floor, with the estimated BER from it, and
        the run still reports its counted BER."""
        cfg = base_config(seed=1, modulation="16qam", n_symbols=129,
                          noise={"osnr_db": 20.0}, laser={"linewidth_hz": 1e8})
        out = tmp_path / "out"
        assert main(["run", str(self.write_cfg(tmp_path, cfg)),
                     "--out-dir", str(out)]) == 0
        reports = json.loads((out / "metrics.json").read_text())["reports"]
        assert any(r["q_floored"] for r in reports)
        for r in reports:
            assert r["ber_count_errors"] > 0
            assert r["ber_counted"] == r["ber_count_errors"] / r["n_bits"]
            if r["q_floored"]:
                assert min(r["q_i_db"], r["q_q_db"]) == Q_FLOOR_DB
            expected = 0.25 * sum(math.erfc(10.0 ** (r[k] / 20.0) / math.sqrt(2.0))
                                  for k in ("q_i_db", "q_q_db"))
            assert r["ber_estimated"] == pytest.approx(expected, rel=1e-12)

    def test_run_seed_override(self, tmp_path):
        p = self.write_cfg(tmp_path, base_config(noise={"osnr_db": 25.0}))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", str(p), "--seed", "9", "--out-dir", str(out1)]) == 0
        assert main(["run", str(p), "--seed", "9", "--out-dir", str(out2)]) == 0
        m1 = json.loads((out1 / "metrics.json").read_text())
        m2 = json.loads((out2 / "metrics.json").read_text())
        assert m1 == m2
        assert m1["seed"] == 9

    def test_sweep_cli(self, tmp_path, capsys):
        p = self.write_cfg(tmp_path, base_config(noise={"osnr_db": 30.0}))
        out = tmp_path / "sweep"
        rc = main(["sweep", str(p), "--param", "noise.osnr_db",
                   "--values", "20,30", "--out-dir", str(out)])
        assert rc == 0
        assert (out / "noise.osnr_db=20" / "metrics.json").exists()
        assert (out / "noise.osnr_db=30" / "metrics.json").exists()
        assert "noise.osnr_db = 20" in capsys.readouterr().out

    @pytest.mark.parametrize("values", ["30,30", "-0,0"])
    def test_sweep_rejects_values_sharing_a_directory(self, tmp_path, capsys,
                                                      values):
        """Two values with one directory tag would overwrite one bundle
        with the other; the sweep refuses them before any point runs."""
        p = self.write_cfg(tmp_path, base_config())
        out = tmp_path / "sweep"
        assert main(["sweep", str(p), "--param", "noise.osnr_db",
                     f"--values={values}", "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert "--values" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_sweep_values_may_start_negative(self, tmp_path, capsys):
        """A value list that starts with a minus sign is read as values,
        not as an option."""
        p = self.write_cfg(tmp_path, base_config())
        out = tmp_path / "sweep"
        assert main(["sweep", str(p), "--param", "noise.osnr_db",
                     "--values", "-5,0", "--out-dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "noise.osnr_db = -5 ---" in text and "noise.osnr_db = 0 ---" in text
        for tag in ("-5", "0"):
            metrics = json.loads((out / f"noise.osnr_db={tag}" / "metrics.json")
                                 .read_text())
            assert metrics["reports"][0]["osnr_db"] == float(tag)

    def test_sweep_bad_values(self, tmp_path, capsys):
        p = self.write_cfg(tmp_path, base_config())
        assert main(["sweep", str(p), "--param", "noise.osnr_db",
                     "--values", "20,apple"]) == 2

    def test_calibrate_comb_cli(self, tmp_path, capsys):
        out = tmp_path / "cal"
        rc = main(["calibrate-comb", "--spacing-ghz", "10",
                   "--out-dir", str(out)])
        assert rc == 0
        assert (out / "drive_plan.json").exists()
        comb = json.loads((out / "metrics.json").read_text())["comb"]
        assert comb["n_lines"] == 3 and comb["spacing_hz"] == 10e9
        assert comb["flatness_db"] <= 0.1
        text = capsys.readouterr().out
        assert "converged: yes" in text

    def test_calibrate_comb_is_run(self, tmp_path, capsys):
        """``calibrate-comb`` writes the bundle ``run`` writes for its
        config, and prints what ``run`` prints, but for the paths."""
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["calibrate-comb", "--spacing-ghz", "20", "--lines", "5",
                     "--out-dir", str(a)]) == 0
        cal_out = capsys.readouterr().out
        assert main(["run", str(a / "config.json"), "--out-dir", str(b)]) == 0
        run_out = capsys.readouterr().out
        assert cal_out.replace(str(a), "OUT") == run_out.replace(str(b), "OUT")
        assert cal_out.count("wrote ") == 4
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("osnr", [4000, -4000])
    @pytest.mark.parametrize("verb", [
        ["validate"], ["run"], ["sweep", "--param", "noise.osnr_db",
                                "--values", "20,{osnr}"]],
        ids=["validate", "run", "sweep"])
    def test_out_of_range_osnr_exits_2(self, tmp_path, capsys, verb, osnr):
        """The config holds the value, or the sweep's list does after a
        good one; no point runs."""
        noise = {} if verb[0] == "sweep" else {"osnr_db": osnr}
        p = self.write_cfg(tmp_path, base_config(noise=noise))
        assert main([verb[0], str(p)] + [a.format(osnr=osnr) for a in verb[1:]]) == 2
        captured = capsys.readouterr()
        bound = "<= 300" if osnr > 0 else ">= -300"
        assert captured.err == f"error: noise.osnr_db: must be {bound}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("block, field", [
        ({"fiber": {"length_km": 10.0, "reference_wavelength_nm": 1e300}},
         "fiber.reference_wavelength_nm"),
        ({"carrier_frequency_thz": 1e300}, "carrier_frequency_thz"),
        ({"fiber": {"length_km": 17000.0}}, "fiber.length_km"),
        pytest.param({"sampler": {"mode": "mzm"},
                      "mzm": dict(MZM_BLOCK, insertion_loss_db=3100.0)},
                     "mzm.insertion_loss_db", id="sampler-insertion-loss"),
        pytest.param(dict(COMB_CONFIG, mzm=dict(MZM_BLOCK, insertion_loss_db=3100.0)),
                     "mzm.insertion_loss_db", id="comb-insertion-loss"),
        pytest.param(dict(COMB_CONFIG, comb={"spacing_hz": 1e300}),
                     "comb.spacing_hz", id="comb-spacing"),
        pytest.param({"plan": {"n_branches": 3, "aggregate_bandwidth_hz": 1e300}},
                     "plan.aggregate_bandwidth_hz", id="bandwidth"),
        pytest.param({"plan": {"n_branches": 3, "aggregate_bandwidth_hz": 1.7e308}},
                     "plan.aggregate_bandwidth_hz", id="bandwidth-overflows"),
        pytest.param({"fiber": {"length_km": 30.0, "dispersion_ps_nm_km": 1.7e308}},
                     "fiber.length_km", id="dispersion"),
        pytest.param({"fiber": {"length_km": 1e307, "attenuation_db_km": 0.0}},
                     "fiber.length_km", id="lossless-length"),
        # the grid's top frequency squares to inf: no length makes the phase finite
        pytest.param({"plan": {"n_branches": 3, "aggregate_bandwidth_hz": 1e150},
                      "oversampling": 30000}, "oversampling", id="grid-top-no-fiber"),
        pytest.param({"plan": {"n_branches": 3, "aggregate_bandwidth_hz": 1e150},
                      "oversampling": 30000, "fiber": {"length_km": 10.0}},
                     "oversampling", id="grid-top-10km"),
        pytest.param({"laser": {"linewidth_hz": 1.7e308}}, "laser.linewidth_hz",
                     id="linewidth"),
        pytest.param(dict(COMB_CONFIG, comb={"spacing_hz": 1e12},
                          mzm=dict(MZM_BLOCK, eo_model="gaussian")),
                     "mzm.eo_3db_bandwidth_hz", id="comb-gaussian-eo"),
        pytest.param({"sampler": {"mode": "mzm"}, "mzm": dict(
            MZM_BLOCK, eo_model="gaussian", eo_3db_bandwidth_hz=1e8)},
                     "mzm.eo_3db_bandwidth_hz", id="sampler-gaussian-eo"),
    ])
    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_values_that_break_the_run_exit_2(self, tmp_path, capsys, verb,
                                              block, field):
        """Finite values that once passed validation and then failed inside
        the run (or, in comb mode, reported nan) are rejected at parse time,
        naming the field."""
        cfg = block if block.get("mode") == "comb" else base_config(**block)
        p = self.write_cfg(tmp_path, cfg)
        assert main([verb, str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field}: must be ")
        assert captured.out == ""

    def test_bounds_keep_usable_values(self):
        """The widest wavelength runs; at the largest span loss the EVM is
        the lossless run's.  At the largest modulator insertion loss, the MZM
        sampler's EVMs and the comb's RMSE and flatness are the lossless
        device's.  Flatness is a difference of line powers near -2017 dBm,
        so it agrees to their rounding (2.3e-13 dB a step), not to 1e-12 of
        its own ~1e-3 dB."""
        bundle = run_scenario(parse_scenario(base_config(
            fiber={"length_km": 10.0, "reference_wavelength_nm": 1e6})))
        assert all(math.isfinite(r.evm_percent) for r in bundle.metrics)
        sc = parse_scenario(base_config(carrier_frequency_thz=299792.458))
        assert sc.fiber.reference_wavelength_nm == pytest.approx(1.0)
        evms = [[r.evm_percent for r in run_scenario(parse_scenario(base_config(
            fiber={"length_km": 20.0, "attenuation_db_km": attenuation},
            noise={"osnr_db": 33.0}))).metrics]
            for attenuation in (0.0, 100.0)]  # 100 dB/km: a 2000 dB span
        assert evms[1] == pytest.approx(evms[0], rel=1e-12, abs=0)
        evms, combs = [], []
        for loss in (0.0, 2000.0):
            mzm = dict(MZM_BLOCK, insertion_loss_db=loss)
            bundle = run_scenario(parse_scenario(base_config(
                sampler={"mode": "mzm"}, mzm=mzm, noise={"osnr_db": 33.0})))
            evms.append([r.evm_percent for r in bundle.metrics])
            cal = run_scenario(parse_scenario(dict(COMB_CONFIG, mzm=mzm))).calibration
            combs.append((cal.waveform_rmse_percent, cal.report.flatness_db))
        assert all(math.isfinite(e) for e in evms[1] + list(combs[1]))
        assert evms[1] == pytest.approx(evms[0], rel=1e-12, abs=0)
        assert combs[1][0] == pytest.approx(combs[0][0], rel=1e-12, abs=0)
        assert combs[1][1] == pytest.approx(combs[0][1], rel=0, abs=1e-12)

    @pytest.mark.parametrize("cfg", [
        pytest.param(dict(COMB_CONFIG, comb={"spacing_hz": 1e150}), id="comb-spacing"),
        pytest.param(noisy_config(plan={"n_branches": 3, "aggregate_bandwidth_hz": 1e150},
                                  sampler={"mode": "mzm"}, mzm=dict(MZM_BLOCK)),
                     id="bandwidth"),
        pytest.param(noisy_config(fiber={"length_km": 30.0,
                                         "dispersion_ps_nm_km": -1e307}),
                     id="dispersion"),
        pytest.param(noisy_config(fiber={"length_km": 1e300, "attenuation_db_km": 0.0}),
                     id="lossless-length"),
        pytest.param(noisy_config(plan={"n_branches": 3, "aggregate_bandwidth_hz": 1e150},
                                  oversampling=26000), id="grid-top"),
        pytest.param(noisy_config(laser={"linewidth_hz": 1e300}), id="linewidth"),
        pytest.param(dict(COMB_CONFIG, comb={"spacing_hz": 5e11},
                          mzm=dict(MZM_BLOCK, eo_model="gaussian")),
                     id="comb-gaussian-eo"),
        pytest.param(noisy_config(sampler={"mode": "mzm"}, mzm=dict(
            MZM_BLOCK, eo_model="gaussian", eo_3db_bandwidth_hz=1e9)),
                     id="sampler-gaussian-eo"),
    ])
    def test_values_at_the_new_bounds_run(self, cfg):
        """The largest value each bound above admits runs to finite metrics
        and a converged comb."""
        bundle = run_scenario(parse_scenario(cfg))
        for r in bundle.metrics:
            assert all(math.isfinite(v) for v in dataclasses.asdict(r).values()
                       if isinstance(v, float))
        assert bundle.calibration is None or bundle.calibration.converged

    def test_calibrate_comb_rejects_even_lines(self, capsys):
        assert main(["calibrate-comb", "--lines", "4",
                     "--spacing-ghz", "10"]) == 2

    @pytest.mark.parametrize("flag, value, field", [
        ("--modulation-index", "-1", "comb.modulation_index"),
        ("--flatness-target-db", "0", "comb.flatness_target_db"),
        ("--spacing-ghz", "nan", "comb.spacing_hz"),
        ("--eo-bandwidth-ghz", "inf", "mzm.eo_3db_bandwidth_hz"),
    ])
    def test_calibrate_comb_flags_meet_the_config_bounds(self, capsys, flag,
                                                         value, field):
        args = ["calibrate-comb", "--spacing-ghz", "10", flag, value]
        assert main(args) == 2
        assert f"error: {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("verb", [
        ["run"], ["sweep", "--param", "noise.osnr_db", "--values", "20"]],
        ids=["run", "sweep"])
    def test_config_must_be_an_object(self, tmp_path, capsys, verb):
        p = self.write_cfg(tmp_path, [1, 2])
        assert main([verb[0], str(p), "--seed", "3"] + verb[1:]) == 2
        assert capsys.readouterr().err == "error: config must be a JSON object\n"


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_bundled_scenario_validates(path, capsys):
    """Every bundled scenario parses, passes ``validate``, and its
    normalized echo re-parses to itself."""
    echo = parse_scenario(json.loads(path.read_text())).config
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert parse_scenario(copy.deepcopy(echo)).config == echo


def test_load_config(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(base_config()))
    assert load_config(p) == base_config()
    assert parse_scenario(load_config(p)).plan.n_branches == 3
    p.write_text("oops")
    with pytest.raises(ConfigError):
        load_config(p)
