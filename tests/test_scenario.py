"""Tests for scenario configs, the end-to-end runner, sweeps, and the CLI."""

import copy
import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    demultiplex_directly,
    freqs,
    gate_directly,
    load_bench,
    propagate_directly,
    shape_directly,
    times,
)
import nyquist_otdm
from nyquist_otdm import Signal, TimeGrid, cli, modem, scenario, spectrum
from nyquist_otdm.cli import main
from nyquist_otdm.modem import Q_FLOOR_DB
from nyquist_otdm.mzm import MzmParams, calibrate_flat_comb, eo_response
from nyquist_otdm.scenario import (
    ConfigError,
    load_config,
    parse_scenario,
    run_scenario,
    sweep,
    write_bundle,
)

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "paper-scenarios"
SCENARIO_FILES = sorted(SCENARIO_DIR.glob("*.json"))
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

MZM_BLOCK = {
    "v_pi_volts": 0.42,
    "eo_3db_bandwidth_hz": 16e9,
    "dc_extinction_arm1_db": 40.0,
    "dc_extinction_arm2_db": 37.0,
}


FULL_MZM_CONFIG = {
    "version": 1, "mode": "transmission", "seed": 3, "label": "full",
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

    def test_wavelength_sets_the_carrier(self):
        """A given wavelength is the carrier: the echo holds c / lambda for
        a carrier left out, and a given carrier may repeat it to 1e-9 (and
        is echoed as given), not contradict it; before, the wavelength ran
        and a contradicting carrier was echoed.  The widest wavelength
        echoes a carrier that re-parses."""
        fiber = {"length_km": 10.0, "reference_wavelength_nm": 1552.0}
        carrier = 299792458.0 / 1552e-9 * 1e-12  # 193.165 THz
        sc = parse_scenario(base_config(fiber=fiber))
        assert sc.config["carrier_frequency_thz"] == pytest.approx(carrier, rel=1e-15)
        assert parse_scenario(copy.deepcopy(sc.config)).config == sc.config
        repeated = base_config(fiber=fiber, carrier_frequency_thz=carrier * (1 + 5e-10))
        assert parse_scenario(repeated).config == dict(
            sc.config, carrier_frequency_thz=carrier * (1 + 5e-10))
        for contradicting in (193.1, carrier * (1 + 2e-9)):
            with pytest.raises(ConfigError) as err:
                parse_scenario(base_config(fiber=fiber, carrier_frequency_thz=contradicting))
            assert err.value.field == "carrier_frequency_thz"
        widest = parse_scenario(base_config(
            fiber={"length_km": 10.0, "reference_wavelength_nm": 1e6})).config
        assert widest["carrier_frequency_thz"] == pytest.approx(0.299792458, rel=1e-15)
        assert parse_scenario(copy.deepcopy(widest)).config == widest

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
        pytest.param(lambda c: c.update(receiver={"lo_power_w": 1.7e308}),
                     "receiver.lo_power_w", id="huge-lo-power"),
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

    @pytest.mark.parametrize("mutate, field, message", [
        (lambda c: c["plan"].pop("aggregate_bandwidth_hz"), "plan.aggregate_bandwidth_hz",
         "missing required field"),
        (lambda c: c["plan"].update(aggregate_bandwidth_hz=None), "plan.aggregate_bandwidth_hz",
         "must not be null"),
        (lambda c: c.update(fiber=3), "fiber", "expected an object"),
        (lambda c: c.update(shaping={"kind": "raised_cosine", "rolloff": 0.5}),
         "shaping.symbol_rate_hz", "missing required field"),
        (lambda c: c.update(shaping={"kind": "raised_cosine", "symbol_rate_hz": 4e9}),
         "shaping.rolloff", "missing required field"),
        (lambda c: c.update(shaping={"kind": "raised_cosine", "symbol_rate_hz": 7e9,
                                     "rolloff": 0.0}),
         "shaping.symbol_rate_hz", "symbol period must hold an integer number of samples"),
    ], ids=["missing-bandwidth", "null-bandwidth", "fiber-not-an-object", "rc-missing-rate",
            "rc-missing-rolloff", "rc-7-gbd-in-24-ghz"])
    def test_parse_error_names_its_field(self, mutate, field, message):
        cfg = base_config()
        mutate(cfg)
        with pytest.raises(ConfigError) as err:
            parse_scenario(cfg)
        assert (err.value.field, str(err.value)) == (field, f"{field}: {message}")

    def test_parse_refuses_a_non_object(self):
        with pytest.raises(ConfigError) as err:
            parse_scenario([])
        assert (err.value.field, str(err.value)) == ("", "config must be a JSON object")

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


def _run_keeping_symbols(sc):
    """``run_scenario(sc)`` and the symbol blocks it multiplexed."""
    blocks = []
    original = scenario.otdm_multiplex

    def record(symbols, *args, **kwargs):
        blocks.extend(symbols)
        return original(symbols, *args, **kwargs)
    with mock.patch.object(scenario, "otdm_multiplex", record):
        return run_scenario(sc), blocks


class TestRunScenario:
    def test_a_single_level_axis_is_capped_not_an_abort(self):
        """QPSK at 5 symbols a branch leaves some branch one level on an
        axis on 12 of seeds 0-39 (0, 6, 8, 18, ...).  Such a branch reports
        Q at the cap with ``q_capped``, and the run goes on; at 20 dB OSNR
        every other branch is measured below the cap."""
        hit = set()
        for seed in range(40):
            bundle, blocks = _run_keeping_symbols(
                parse_scenario(noisy_config(n_symbols=5, seed=seed)))
            for rep, block in zip(bundle.metrics, blocks):
                one_level = min(np.unique(block.real).size, np.unique(block.imag).size) < 2
                if one_level:
                    hit.add(seed)
                assert rep.q_capped is one_level, (seed, rep.label)
        assert len(hit) == 12

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

    @pytest.mark.parametrize("sampler", ["ideal", "mzm"])
    def test_sampling_lines_are_built_once_per_run(self, monkeypatch, sampler):
        """One demultiplexing pass serves every branch: the sampling lines,
        and the MZM model they come from, are computed once per run, not
        once per branch; the noise reach of an ideal run is the plan's, and
        builds no lines of its own."""
        from nyquist_otdm import demux

        calls = {"modulate": 0, "_sampling_lines": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(demux, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(demux, name, counted)
        extra = ({"sampler": {"mode": "mzm"}, "mzm": dict(MZM_BLOCK)}
                 if sampler == "mzm" else {})
        sc = parse_scenario(base_config(noise={"osnr_db": 30.0}, **extra))
        for runs in (1, 2):
            bundle = run_scenario(sc)
            assert len(bundle.metrics) == 3
            assert calls == {"modulate": runs if extra else 0, "_sampling_lines": runs}

    def test_full_length_transforms_do_not_grow_with_branches(self, monkeypatch):
        """A noisy run with every output makes no n-point transform at 3 and
        at 15 branches: the noise is drawn as bins, and every other layer,
        the spectra and the eyes included, works on the bins it is given."""
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
            assert sizes.count(sc.make_grid().n_samples) == 0

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
            header, rows = bundle.artifacts[name]
            sig = signal_of[id(bundle.artifacts[name])]
            power = 10.0 * np.log10(np.maximum(np.abs(spectrum(sig)) ** 2, 1e-30))
            full = np.column_stack([freqs(sig.grid), power])
            expected = full[np.abs(freqs(sig.grid)) <= 1.25 * width]
            assert header == "f_Hz,power_dBm"
            assert rows.tobytes() == expected.tobytes(), name
        mux_freqs = bundle.artifacts["spectrum_multiplexed"][1][:, 0]
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
        for (y, gain, _, t_offset), (header, rows) in calls:
            assert header == "t_mod_2symbols,amplitude"
            assert rows.shape == (per_symbol * sc.config["n_symbols"], 2)
            sps = round(y.grid.sample_rate / rate)
            shared = math.gcd(sps, per_symbol)
            full = (y.samples * gain).real[::sps // shared]
            eye = rows[::per_symbol // shared]
            assert np.max(np.abs(eye[:, 1] - full)) <= 1e-12 * np.max(np.abs(full))
            t_full = np.mod(times(y.grid) - t_offset, window)[::sps // shared]
            apart = np.abs(eye[:, 0] - t_full)
            assert np.all(np.minimum(apart, window - apart) <= 1e-9 * window)
            # one time value per phase: the index is folded before the floats
            assert len(np.unique(rows[:, 0])) == 2 * per_symbol
            assert np.all((rows[:, 0] >= 0) & (rows[:, 0] < window))


    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_symbols=st.integers(1, 9), sps=st.integers(1, 40), size=st.integers(1, 400),
           first=st.integers(-400, 400), seed=st.integers(0, 2 ** 16), slot=st.integers(0, 6))
    @example(n_symbols=1023, sps=16, size=400, first=-200, seed=1, slot=3)  # p = 16,368
    def test_eye_scatter_is_the_modular_scatter(self, n_symbols, sps, size, first, seed, slot):
        """The eye lays the band's bins onto its p-point grid by slices, bit
        for bit as the modular index assignment ``bins[(first + i) % p]``
        does, for a band of any width from any first bin, wrapping past
        n // 2 and past p.  Its time column is each row's fold phase, bit
        for bit, at a slot's offset and for symbol counts where p is not a
        whole number of the 2 * per_symbol phases."""
        n = n_symbols * sps
        size = min(size, n)
        rng = np.random.default_rng(seed)
        rate = 1e9
        grid = TimeGrid(rate * sps, n)
        y = Signal._of_bins(
            grid, rng.standard_normal(size) + 1j * rng.standard_normal(size), first)
        sc = types.SimpleNamespace(
            config={"shaping": {"symbol_rate_hz": rate}, "n_symbols": n_symbols})
        gain = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        t_offset = slot / (7 * rate)  # branch slot + 1 of 7
        _, rows = scenario._eye_rows(y, gain, sc, t_offset)
        p = rows.shape[0]
        assert p > size
        first, values = y._band
        bins = np.zeros(p, dtype=complex)
        bins[(first + np.arange(size)) % p] = values
        assert rows[:, 1].tobytes() == (np.fft.ifft(bins) * (p / n) * gain).real.tobytes()
        ps = p // n_symbols
        phase = -t_offset * ps * rate
        t_fold = np.mod(np.arange(p) % (2 * ps) + phase, 2 * ps) / (ps * rate)
        assert rows[:, 0].tobytes() == t_fold.tobytes()


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
        """Every CSV of a full bundle (16,368-row eyes across two write
        blocks, spectra, constellations with their decided_symbol column)
        has the bytes np.savetxt gives with %.17g."""
        raw = json.loads((SCENARIO_DIR / "nyquist_qpsk_8gbd_10km.json").read_text())
        bundle = run_scenario(parse_scenario(raw))
        csvs = [p for p in write_bundle(bundle, tmp_path / "bundle")
                if p.suffix == ".csv"]
        assert sorted(p.stem for p in csvs) == sorted(bundle.artifacts)
        ref = tmp_path / "ref.csv"
        for p in csvs:
            header, rows = bundle.artifacts[p.stem]
            np.savetxt(ref, rows, fmt="%.17g", delimiter=",", header=header,
                       comments="")
            assert p.read_bytes() == ref.read_bytes(), p.name

    def test_reused_directory_holds_one_bundle(self, tmp_path):
        """A bundle written over another keeps none of the earlier bundle's
        files: an ideal-sampler, metrics-only run written over a full MZM
        run leaves the bytes of a write into a fresh directory, and a file
        of another name stays."""
        raw = json.loads((SCENARIO_DIR / "nyquist_qpsk_8gbd_10km.json").read_text())
        reused = tmp_path / "reused"
        assert len(write_bundle(run_scenario(parse_scenario(raw)), reused)) == 15
        (reused / "notes.txt").write_text("kept\n")
        raw.pop("mzm")
        raw.update(sampler={"mode": "ideal"}, outputs=["metrics"])
        paths = write_bundle(run_scenario(parse_scenario(raw)), reused)
        assert [p.name for p in paths] == ["config.json", "metrics.json", "metrics.txt"]
        fresh = _bundle_bytes(raw, tmp_path / "fresh")
        assert _dir_bytes(reused) == dict(fresh, **{"notes.txt": b"kept\n"})

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


ALL_OUTPUTS = ["metrics", "spectra", "constellation", "eye"]


class TestBenchmarkNames:
    """The traced benchmark wraps package functions by name (bench/tracing.py's
    ``TIMED``): a refactor that drops one, or scores branch by branch again,
    fails here in seconds rather than in a traced benchmark run."""

    def test_every_traced_name_resolves(self):
        for metric, (module, names) in load_bench("tracing").TIMED.items():
            mod = importlib.import_module(f"nyquist_otdm.{module}")
            for name in names:
                assert callable(getattr(mod, name, None)), (metric, module, name)

    @pytest.mark.parametrize("n_branches", [3, 5, 7])
    def test_a_run_scores_every_branch_in_one_call(self, monkeypatch, n_branches):
        """One evm and one q_factor call per transmission run, whatever N."""
        calls = dict.fromkeys(("evm", "q_factor"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(modem, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(modem, name, counted)
        bundle = run_scenario(parse_scenario({
            "version": 1, "modulation": "16qam", "n_symbols": 9, "noise": {"osnr_db": 20.0},
            "plan": {"n_branches": n_branches, "aggregate_bandwidth_hz": n_branches * 8e9}}))
        assert len(bundle.metrics) == n_branches
        assert calls == {"evm": 1, "q_factor": 1}


def _noise_config(n_branches, shaping, n_symbols, **overrides):
    """A noisy 16QAM run over 20 km at 8 GHz of B per branch."""
    cfg = dict(
        plan={"n_branches": n_branches, "aggregate_bandwidth_hz": n_branches * 8e9},
        modulation="16qam", shaping=shaping, n_symbols=n_symbols, oversampling=4,
        fiber={"length_km": 20.0}, noise={"osnr_db": 22.0}, outputs=ALL_OUTPUTS)
    cfg.update(overrides)
    return base_config(**cfg)


def _bundle_bytes(cfg, path) -> dict:
    return {p.name: p.read_bytes()
            for p in write_bundle(run_scenario(parse_scenario(cfg)), path)}


def _dir_bytes(path) -> dict:
    return {p.name: p.read_bytes() for p in path.iterdir()}


# (shaping, n_symbols): the line spacing in bins is the window's count of
# sequence periods, odd or even; an even one puts bins on the band edge
REACH_SHAPINGS = {
    "sinc_odd": ({"kind": "sinc"}, 9),
    "sinc_even": ({"kind": "sinc"}, 10),
    "rc_odd": ({"kind": "raised_cosine", "symbol_rate_hz": 16e9 / 3, "rolloff": 0.5}, 6),
    "rc_even": ({"kind": "raised_cosine", "symbol_rate_hz": 4e9, "rolloff": 1.0}, 9),
}
REACH_CASES = [(n, name) for n in (3, 5, 7) for name in REACH_SHAPINGS]


class TestNoiseReach:
    """The noise is drawn only up to the largest |k| a reader takes, and the
    run reads the same bins as from a whole-grid draw."""

    @pytest.mark.parametrize("n_branches, shaping", REACH_CASES)
    def test_ideal_bundle_is_the_whole_grid_draws(self, monkeypatch, tmp_path,
                                                  n_branches, shaping):
        """Every byte of an ideal-sampler bundle with every output is the
        same from the draw up to the reach as from the whole grid's: an
        off-by-one reach would drop a bin the demultiplexer or the spectrum
        crop reads."""
        cfg = _noise_config(n_branches, *REACH_SHAPINGS[shaping])
        sc = parse_scenario(cfg)
        spacing = round(sc.make_grid().duration * sc.plan.symbol_rate)
        assert spacing % 2 == (shaping.endswith("odd"))
        reaches = []
        original = scenario.add_noise

        def drawn(sig, noise, reach=None):
            reaches.append(reach)
            return original(sig, noise, reach)
        monkeypatch.setattr(scenario, "add_noise", drawn)
        cut = _bundle_bytes(cfg, tmp_path / "reach")
        assert 0 < 2 * reaches[0] + 1 < sc.make_grid().n_samples
        monkeypatch.setattr(scenario, "add_noise",
                            lambda sig, noise, reach: original(sig, noise))
        whole = _bundle_bytes(cfg, tmp_path / "whole")
        assert cut.keys() == whole.keys()
        for name in cut:
            assert cut[name] == whole[name], name

    def test_reach_is_the_widest_bin_the_demultiplexer_reads(self, monkeypatch):
        """The reach an ideal run passes to ``add_noise`` is the widest |k| of
        the sequences' windows: each line's shift, half a line spacing each
        side.  The run stops at the noise, so each config costs little."""
        from nyquist_otdm.demux import _sampling_lines

        class Drawn(Exception):
            pass

        def drawn(sig, noise, reach=None):
            raise Drawn(reach)
        monkeypatch.setattr(scenario, "add_noise", drawn)
        for n_branches in range(3, 16, 2):
            for oversampling in range(4, 17):
                for n_symbols in (4, 5):  # the line spacing in bins, even and odd
                    sc = parse_scenario(noisy_config(
                        plan={"n_branches": n_branches,
                              "aggregate_bandwidth_hz": n_branches * 2e9},
                        n_symbols=n_symbols, oversampling=oversampling))
                    shifts, _ = _sampling_lines(sc.plan, None, sc.make_grid())
                    spacing = int(shifts[1] - shifts[0])
                    assert spacing == n_symbols
                    widest = int(np.abs(shifts).max()) + spacing // 2
                    with pytest.raises(Drawn) as drawn_at:
                        run_scenario(sc)
                    assert drawn_at.value.args == (widest,), (n_branches, oversampling)

    @pytest.mark.parametrize("n_branches, shaping", REACH_CASES + [(3, "mzm")])
    def test_metrics_do_not_depend_on_the_outputs(self, tmp_path, n_branches, shaping):
        """The spectra read further out than the demultiplexer, so asking
        for them draws more bins, but the bins the branches read and so
        ``metrics.json`` stay the same."""
        if shaping == "mzm":
            cfg = _noise_config(n_branches, {"kind": "sinc"}, 9,
                                sampler={"mode": "mzm"}, mzm=dict(MZM_BLOCK))
        else:
            cfg = _noise_config(n_branches, *REACH_SHAPINGS[shaping])
        every = _bundle_bytes(cfg, tmp_path / "every")
        alone = _bundle_bytes(dict(cfg, outputs=["metrics"]), tmp_path / "alone")
        assert alone["metrics.json"] == every["metrics.json"]

    @pytest.mark.parametrize("sampler", ["ideal", "mzm"])
    @pytest.mark.parametrize("n_branches", [3, 5, 7])
    def test_branch_evm_is_the_noise_limited_closed_form(self, tmp_path, n_branches,
                                                         sampler):
        """Every branch EVM is ``bench/checks.py``'s noise-limited closed form
        within its bound, 4/sqrt(n_symbols) + 1.5 % relative, the MZM
        sampler's distortion floor added in quadrature."""
        extra = ({"sampler": {"mode": "mzm"}, "mzm": dict(MZM_BLOCK)}
                 if sampler == "mzm" else {})
        cfg = _noise_config(n_branches, {"kind": "sinc"}, 1023,
                            noise={"osnr_db": 20.0}, outputs=["metrics"], **extra)
        write_bundle(run_scenario(parse_scenario(cfg)), tmp_path)
        assert load_bench().check_evm(tmp_path) == []


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
    def test_each_point_is_a_run_holding_its_calibrations(self, monkeypatch):
        """A sweep runs each point as one ``scenario.run_scenario`` call, the
        name a tracer wraps, and each calibration inside a run: a traced run
        time then holds the point's calibration and the work between the
        traced calls.  The points share the one 3-line calibration."""
        runs, open_runs, calibrated = [], [], []
        run, calibrate = scenario.run_scenario, scenario.calibrate_flat_comb

        def run_recorded(sc, *args):
            runs.append(sc.config["noise"]["osnr_db"])
            open_runs.append(sc)
            try:
                return run(sc, *args)
            finally:
                open_runs.pop()

        def calibrate_recorded(*args, **kwargs):
            calibrated.append(len(open_runs))
            return calibrate(*args, **kwargs)
        monkeypatch.setattr(scenario, "run_scenario", run_recorded)
        monkeypatch.setattr(scenario, "calibrate_flat_comb", calibrate_recorded)
        cfg = base_config(sampler={"mode": "mzm"}, mzm=dict(MZM_BLOCK))
        bundles = sweep(cfg, "noise.osnr_db", [20.0, 25.0, 30.0])
        assert len(bundles) == 3 and runs == [20.0, 25.0, 30.0]
        assert calibrated == [1]

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

    def test_numpy_values_sweep_and_write(self, tmp_path):
        """A numpy array of values sweeps like a list, and numpy integers
        are integers that echo as plain ones, so every bundle writes; a
        bool, numpy's too, is still no integer."""
        cfg = base_config(noise={"osnr_db": 30.0})
        arrays = sweep(cfg, "noise.osnr_db", np.array([20.0, 25.0]))
        assert [b.metrics for b in arrays] == [
            b.metrics for b in sweep(cfg, "noise.osnr_db", [20.0, 25.0])]
        counts = sweep(cfg, "n_symbols", [np.int64(9), np.int32(15)])
        assert [b.scenario["n_symbols"] for b in counts] == [9, 15]
        assert all(type(b.scenario["n_symbols"]) is int for b in counts)
        for i, bundle in enumerate(arrays + counts):
            assert write_bundle(bundle, tmp_path / str(i))
        for flag in (True, np.bool_(True)):
            with pytest.raises(ConfigError, match="n_symbols: expected an integer"):
                sweep(cfg, "n_symbols", [flag])
        with pytest.raises(ValueError, match="at least one value"):
            sweep(cfg, "noise.osnr_db", np.array([]))

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


def test_bandwidth_is_tuned_in_the_electrical_domain():
    """The paper's claim that the demultiplexer is tuned electrically: over
    24 to 90 GHz of aggregate bandwidth, the bundled 16 GHz, 0.42 V device
    keeps one drive point, bit for bit, and only the tone's volts change,
    as 1/|H_EO| at the comb spacing B/3.  The modulator runs that point in
    index units and turns of its period, so the noiseless branch EVMs are
    the same bits at every bandwidth."""
    calibrations, evms = [], []
    for bandwidth in (24e9, 48e9, 72e9, 90e9):
        cfg = base_config(plan={"n_branches": 3, "aggregate_bandwidth_hz": bandwidth},
                          sampler={"mode": "mzm"}, mzm=dict(MZM_BLOCK),
                          laser={"linewidth_hz": 0.0})
        bundle = run_scenario(parse_scenario(cfg))
        calibrations.append(bundle.calibration)
        evms.append([r.evm_percent for r in bundle.metrics])
    for evm in evms[1:]:
        assert evm == evms[0]
    first = calibrations[0]
    ratio = first.point[1]
    for cal, bandwidth in zip(calibrations, (24e9, 48e9, 72e9, 90e9)):
        plan = cal.plan
        assert cal.converged
        assert cal.point == first.point
        assert (plan.bias_arm1, plan.bias_arm2) == (first.plan.bias_arm1, first.plan.bias_arm2)
        assert len(plan.tones) == len(first.plan.tones)
        for k, (tone, tone_24) in enumerate(zip(plan.tones, first.plan.tones), start=1):
            assert tone.frequency == k * (bandwidth / 3)
            assert tone.amplitude_arm2 == ratio * tone.amplitude_arm1
            driven = tone.amplitude_arm1 * eo_response(tone.frequency, cal.params)
            driven_24 = tone_24.amplitude_arm1 * eo_response(tone_24.frequency, cal.params)
            assert driven == pytest.approx(driven_24, rel=1e-12)


def _invariance_config(bandwidth, n_branches, shaping, n_symbols, **sampler):
    """A noiseless 0 km 16QAM run at ``bandwidth``, of the ideal sampler
    unless ``sampler`` gives the sampler and mzm blocks: sinc, or raised
    cosine at 0.6 times the branch rate, rolloff 0.35."""
    if shaping == "sinc":
        shape = {"kind": "sinc"}
    else:
        shape = {"kind": "raised_cosine", "rolloff": 0.35,
                 "symbol_rate_hz": 0.6 * bandwidth / n_branches}
    return base_config(plan={"n_branches": n_branches, "aggregate_bandwidth_hz": bandwidth},
                       modulation="16qam", shaping=shape, n_symbols=n_symbols,
                       oversampling=6, outputs=["metrics", "constellation"], **sampler)


@pytest.mark.parametrize("shaping", ["sinc", "raised_cosine"])
@pytest.mark.parametrize("n_branches", [3, 5, 7])
def test_noiseless_ideal_runs_are_the_same_bits_at_any_bandwidth(n_branches, shaping):
    """A noiseless 0 km run is one experiment at every aggregate bandwidth:
    the slot phases turn in whole turns of N and the shaping works in bins,
    so from 24 to 90 GHz every branch's constellation and every metric keep
    their bits.  Only the Hz and seconds of the run differ."""
    for n_symbols in (63, 126):
        runs = []
        for bandwidth in (24e9, 48e9, 72e9, 90e9):
            bundle = run_scenario(parse_scenario(
                _invariance_config(bandwidth, n_branches, shaping, n_symbols)))
            points = [bundle.artifacts[f"branch{l}_constellation"][1].tobytes()
                      for l in range(1, n_branches + 1)]
            runs.append((points, bundle.metrics))
        for run in runs[1:]:
            assert run == runs[0], n_symbols


@pytest.mark.parametrize("shaping", ["sinc", "raised_cosine"])
@pytest.mark.parametrize("n_branches", [3, 5, 7])
def test_noiseless_mzm_runs_are_the_same_bits_at_any_bandwidth(n_branches, shaping):
    """With the MZM sampler and the bundled device too: from 24 to 90 GHz
    the calibration keeps one drive point, the modulator runs it in turns of
    one period, and every branch's constellation and every metric keep
    their bits."""
    runs = []
    for bandwidth in (24e9, 48e9, 72e9, 90e9):
        bundle = run_scenario(parse_scenario(_invariance_config(
            bandwidth, n_branches, shaping, 63, sampler={"mode": "mzm"},
            mzm=dict(MZM_BLOCK))))
        points = [bundle.artifacts[f"branch{l}_constellation"][1].tobytes()
                  for l in range(1, n_branches + 1)]
        runs.append((points, bundle.metrics, bundle.calibration.point))
    for run in runs[1:]:
        assert run == runs[0]


@pytest.mark.parametrize("sampler", ["ideal", "mzm"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(n_branches=st.sampled_from([3, 5]), rolloff=st.sampled_from([None, 0.0, 0.35, 1.0]),
       modulation=st.sampled_from(["qpsk", "16qam"]), n_symbols=st.integers(4, 7),
       length_km=st.sampled_from([0.0, 10.0, 30.0]), compensate=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_branch_symbols_match_the_time_domain_chain(sampler, n_branches, rolloff, modulation,
                                                    n_symbols, length_km, compensate, seed):
    """Every branch's constellation of a noiseless run equals, to 1e-10, the
    chain built from the time-domain oracles on the run's own symbols: each
    block shaped by explicit DFT sums (sinc for ``rolloff`` None, else
    raised cosine at half the branch rate) and gated by its cosine-sum
    sequence, the span's phase and loss applied (and undone, when
    compensated) bin by bin, each branch gated, by its cosine-sum sequence
    or by the MZM run tone by tone on the calibration's volts plan, and
    low-passed, read at its slot's samples and fitted by the one complex
    gain."""
    shaping = {"kind": "sinc"} if rolloff is None else {
        "kind": "raised_cosine", "rolloff": rolloff, "symbol_rate_hz": 4e9 / n_branches}
    extra = ({"sampler": {"mode": "mzm"}, "mzm": dict(MZM_BLOCK)}
             if sampler == "mzm" else {})
    cfg = base_config(plan={"n_branches": n_branches, "aggregate_bandwidth_hz": 8e9},
                      modulation=modulation, shaping=shaping, n_symbols=n_symbols,
                      oversampling=4, seed=seed, fiber={"length_km": length_km},
                      receiver={"compensate_dispersion": compensate},
                      outputs=["metrics", "constellation"], **extra)
    sc = parse_scenario(cfg)
    bundle, blocks = _run_keeping_symbols(sc)
    plan, grid = sc.plan, sc.make_grid()
    rate = sc.config["shaping"]["symbol_rate_hz"]
    sps = round(grid.sample_rate / rate)
    tx = sum(gate_directly(Signal(grid, shape_directly(
        block, rate, sc.config["shaping"]["rolloff"], grid, plan.slot(l))), plan, l)
        for l, block in enumerate(blocks, start=1))
    loss = 10.0 ** (-sc.fiber.attenuation_db_km * length_km / 20.0)
    rx = propagate_directly(Signal(grid, tx), sc.fiber, amplitude=loss)
    if compensate:
        rx = propagate_directly(Signal(grid, rx), sc.fiber, sign=-1.0)
    for l, block in enumerate(blocks, start=1):
        y = demultiplex_directly(Signal(grid, rx), plan, l, bundle.calibration)
        start = round(plan.slot(l) * grid.sample_rate)
        raw = y[start + sps * np.arange(n_symbols)]
        want = raw * (np.vdot(raw, block) / np.vdot(raw, raw))
        header, rows = bundle.artifacts[f"branch{l}_constellation"]
        assert header.startswith("re,im,")
        np.testing.assert_allclose(rows[:, 0] + 1j * rows[:, 1], want, rtol=0, atol=1e-10)


class TestCli:
    def write_cfg(self, tmp_path, cfg):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(cfg))
        return p

    def test_validate_ok(self, tmp_path, capsys):
        p = self.write_cfg(tmp_path, base_config())
        assert main(["validate", str(p)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_version_names_the_package_and_numpy(self, capsys):
        """``--version`` prints the package and numpy versions, needs no
        verb and exits 0."""
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == (
            f"nyquist-otdm {nyquist_otdm.__version__} (numpy {np.__version__})\n")

    def test_validate_bad_config_names_field(self, tmp_path, capsys):
        p = self.write_cfg(tmp_path, base_config(bogus=1))
        assert main(["validate", str(p)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_validate_missing_field_exits_2(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["plan"]["aggregate_bandwidth_hz"]
        assert main(["validate", str(self.write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == (
            "error: plan.aggregate_bandwidth_hz: missing required field\n")

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
        path = tmp_path / "absent.json"
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read config {path}: No such file or directory\n")

    def test_directory_for_a_config(self, tmp_path, capsys):
        """A path that cannot be read as a file is a usage error, as a
        missing one is, for every verb that reads a config."""
        for verb in (["run"], ["sweep", "--param", "noise.osnr_db", "--values", "20"],
                     ["validate"]):
            assert main([verb[0], str(tmp_path)] + verb[1:]) == 2
            assert capsys.readouterr().err == (
                f"error: cannot read config {tmp_path}: Is a directory\n")

    def test_run_writes_bundle(self, tmp_path, capsys):
        p = self.write_cfg(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["run", str(p), "--out-dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "branch 1" in text
        assert (out / "metrics.json").exists()

    def test_run_into_a_closed_pipe_writes_the_bundle_and_exits_0(self, tmp_path):
        """``run ... | head -1``: the reader closes stdout after one line, the
        bundle is still written whole, and the run exits 0 with nothing on
        stderr.  Unbuffered, so that each line meets the closed pipe."""
        out = tmp_path / "out"
        with subprocess.Popen(
                [sys.executable, "-m", "nyquist_otdm.cli", "run",
                 str(SCENARIO_DIR / "nyquist_qpsk_8gbd_30km.json"), "--out-dir", str(out)],
                env=dict(CHILD_ENV, PYTHONUNBUFFERED="1"),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert first.startswith(b"branch")
        assert (proc.returncode, err) == (0, b"")
        assert len(list(out.glob("*.csv"))) == 11
        assert json.loads((out / "metrics.json").read_text())["reports"]

    def test_run_into_a_pipe_closed_after_one_line_in_process(self, tmp_path, monkeypatch):
        """The same in this process: stdout is a pipe whose reader takes the
        first line and closes it before the bundle is written, so the next
        line meets the closed pipe; stdout becomes os.devnull, the bundle is
        written whole and the run exits 0."""
        read_fd, write_fd = os.pipe()
        stdout = os.fdopen(write_fd, "w")
        monkeypatch.setattr(sys, "stdout", stdout)
        first = []
        write = cli.write_bundle

        def hang_up_then_write(bundle, out_dir):
            with os.fdopen(read_fd, "rb") as reader:
                first.append(reader.readline())
            return write(bundle, out_dir)
        monkeypatch.setattr(cli, "write_bundle", hang_up_then_write)
        out = tmp_path / "out"
        try:
            assert main(["run", str(SCENARIO_DIR / "nyquist_qpsk_8gbd_30km.json"),
                         "--out-dir", str(out)]) == 0
        finally:
            stdout.close()
        assert first[0].startswith(b"branch")
        assert len(list(out.glob("*.csv"))) == 11
        assert json.loads((out / "metrics.json").read_text())["reports"]

    def test_run_into_an_existing_file_exits_1(self, tmp_path, capsys):
        """An --out-dir that is a file cannot hold a bundle: one error line,
        exit code 1, no traceback."""
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", str(self.write_cfg(tmp_path, base_config())),
                     "--out-dir", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

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
        capsys.readouterr()
        assert main(["sweep", str(p), "--param", "noise.osnr_db", "--values", "1,,2"]) == 2
        assert capsys.readouterr().err == "error: --values: empty value in list\n"

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

    def test_carrier_contradicting_the_wavelength_exits_2(self, tmp_path, capsys):
        """193.1 THz is 1552.52 nm, not the 1552 nm the fiber block gives."""
        p = self.write_cfg(tmp_path, base_config(carrier_frequency_thz=193.1, fiber={
            "length_km": 10.0, "reference_wavelength_nm": 1552.0}))
        for verb in ("validate", "run"):
            assert main([verb, str(p)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: carrier_frequency_thz: must be 193.1652436")
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


# each bundled file, and three ideal-sampler configs, as every bundled
# transmission file uses the MZM sampler: one file's variant, and the
# ideal-chain benchmark's shape at an odd 81 symbols with every output, sinc
# at B/N and raised cosine at r = 1 and B/(2N)
SCENARIOS = {p.stem: json.loads(p.read_text()) for p in SCENARIO_FILES}
SCENARIOS["nyquist_qpsk_8gbd_30km_ideal"] = {
    k: v for k, v in SCENARIOS["nyquist_qpsk_8gbd_30km"].items() if k != "mzm"} | {
    "sampler": {"mode": "ideal"}}
SCENARIOS["chain_16qam_sinc"] = {
    "version": 1, "seed": 3, "plan": {"n_branches": 5, "aggregate_bandwidth_hz": 24e9},
    "modulation": "16qam", "n_symbols": 81, "fiber": {"length_km": 30.0},
    "noise": {"osnr_db": 25.0}, "outputs": ALL_OUTPUTS}
SCENARIOS["chain_16qam_rc"] = dict(SCENARIOS["chain_16qam_sinc"], shaping={
    "kind": "raised_cosine", "symbol_rate_hz": 2.4e9, "rolloff": 1.0})


class TestBundledScenarios:
    """Every bundled scenario and the ideal-sampler configs, the comb
    calibrations of ``calibrate-comb`` and the bandwidth sweep, end to end:
    each bundle is reproducible and passes ``bench/checks.py``."""

    @pytest.mark.parametrize("raw", SCENARIOS.values(), ids=SCENARIOS.keys())
    def test_bundle_is_reproducible_and_checked(self, tmp_path, raw):
        """Two runs in process and a run of the written config in another
        process, where a RuntimeWarning is an error too, give the same bytes
        (criterion 10 across processes).  The bundle passes its checks, and
        each CSV of a transmission bundle is what np.savetxt writes for the
        values np.loadtxt reads back from it."""
        a = _bundle_bytes(raw, tmp_path / "a")
        assert _bundle_bytes(raw, tmp_path / "b") == a
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "nyquist_otdm.cli",
             "run", str(tmp_path / "a" / "config.json"), "--out-dir", str(tmp_path / "c")],
            env=CHILD_ENV, capture_output=True, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert _dir_bytes(tmp_path / "c") == a
        checks = load_bench()
        if raw.get("mode") == "comb":
            assert checks.check_comb_bundle(tmp_path / "a") == []
            return
        assert checks.check_transmission_bundle(tmp_path / "a", evm=True) == []
        csvs = sorted((tmp_path / "a").glob("*.csv"))
        assert csvs
        for csv in csvs:
            rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
            np.savetxt(tmp_path / "rebuilt.csv", rows, fmt="%.17g", delimiter=",",
                       header=csv.read_text().split("\n", 1)[0], comments="")
            assert (tmp_path / "rebuilt.csv").read_bytes() == csv.read_bytes(), csv.name

    @pytest.mark.parametrize("lines, spacing", [(None, "20"), (3, "10"), (5, "8"),
                                                (7, "4.25")])
    def test_calibrate_comb_bundle(self, tmp_path, lines, spacing):
        """``calibrate-comb``, its line count given or not, converges and
        writes the bundle ``run`` writes for its config, which passes its
        checks.  The drive is the even drive the calibration scored at zero
        delay: -pi/2 on arm 1 and +pi/2 on arm 2 for every tone."""
        a, b = tmp_path / "a", tmp_path / "b"
        flags = ["--spacing-ghz", spacing] + (["--lines", str(lines)] if lines else [])
        assert main(["calibrate-comb", *flags, "--out-dir", str(a)]) == 0
        assert "\nconverged: yes " in (a / "metrics.txt").read_text()
        assert main(["run", str(a / "config.json"), "--out-dir", str(b)]) == 0
        assert _dir_bytes(b) == _dir_bytes(a)
        assert load_bench().check_comb_bundle(a) == []
        tones = json.loads((a / "drive_plan.json").read_text())["tones"]
        assert len(tones) == (lines or 3) // 2
        for tone in tones:
            assert (tone["phase_arm1"], tone["phase_arm2"]) == (-math.pi / 2, math.pi / 2)

    def test_aggregate_bandwidth_sweeps_from_the_cli(self, capsys):
        """The sinc files derive the branch rate as B/N, so B can be swept."""
        assert main(["sweep", str(SCENARIO_DIR / "nyquist_qpsk_8gbd_30km.json"),
                     "--param", "plan.aggregate_bandwidth_hz",
                     "--values", "24e9,90e9"]) == 0
        out = capsys.readouterr().out
        for value in ("24000000000.0", "90000000000.0"):
            assert f"--- plan.aggregate_bandwidth_hz = {value} ---" in out
        assert out.count("converged: yes") == 2


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
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
