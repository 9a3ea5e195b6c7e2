"""End-to-end simulation scenarios: JSON configs, the transmit/impair/
demultiplex/measure pipeline, parameter sweeps, and report bundles.

Configs are fail-closed: unknown fields are rejected with an error naming
the offending field, and every run is bit-reproducible from (config, seed).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ChannelPlan, Signal, TimeGrid, _write_csv, delay_signal, spectrum
from .demux import MzmSampler, demultiplex
from .link import (
    SPEED_OF_LIGHT,
    FiberSpec,
    NoiseSpec,
    add_noise,
    coherent_detect,
    compensate_dispersion,
    phase_noise,
    propagate,
)
from .modem import (
    Constellation,
    MetricsReport,
    ber_count,
    ber_estimate,
    ber_estimate_log10,
    below_hdfec_limit,
    decide_indices,
    evm,
    format_metrics_table,
    log10_mean,
    q_factor,
    qam_demap,
    qam_map,
)
from .mzm import (
    CombReport,
    FlatCombCalibration,
    MzmParams,
    calibrate_flat_comb,
    comb_report_to_dict,
    drive_plan_to_json,
    format_comb_table,
)
from .nyquist import otdm_multiplex, sample_symbols

__all__ = [
    "ConfigError",
    "Scenario",
    "ReportBundle",
    "parse_scenario",
    "scenario_from_file",
    "run_scenario",
    "sweep",
]

CONFIG_VERSION = 1
_FLOAT_FMT = "%.17g"


class ConfigError(ValueError):
    """Config validation failure, carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


_REQUIRED = object()


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_unknown(obj: dict, allowed, path: str) -> None:
    for k in obj:
        if k not in allowed:
            raise ConfigError(_join(path, k), "unknown field")


def _block(obj, key, path, default=_REQUIRED) -> dict:
    v = obj.get(key, default)
    if v is _REQUIRED:
        raise ConfigError(_join(path, key), "missing required field")
    if v is default and not isinstance(v, dict):
        return {}
    if not isinstance(v, dict):
        raise ConfigError(_join(path, key), "expected an object")
    return v


def _number(obj, key, path, default=_REQUIRED, minimum=None, allow_none=False):
    v = obj.get(key, default)
    if v is _REQUIRED:
        raise ConfigError(_join(path, key), "missing required field")
    if v is None:
        if allow_none:
            return None
        raise ConfigError(_join(path, key), "must not be null")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(_join(path, key), "expected a number")
    # Python's json parses NaN and +-Infinity; null is the way to say "none"
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(_join(path, key), "must be finite")
    if minimum is not None and v < minimum:
        raise ConfigError(_join(path, key), f"must be >= {minimum:g}")
    return v


def _integer(obj, key, path, default=_REQUIRED, minimum=None):
    v = obj.get(key, default)
    if v is _REQUIRED:
        raise ConfigError(_join(path, key), "missing required field")
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(_join(path, key), "expected an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(_join(path, key), f"must be >= {minimum}")
    return int(v)


def _boolean(obj, key, path, default=_REQUIRED):
    v = obj.get(key, default)
    if v is _REQUIRED:
        raise ConfigError(_join(path, key), "missing required field")
    if not isinstance(v, bool):
        raise ConfigError(_join(path, key), "expected true or false")
    return v


def _string(obj, key, path, default=_REQUIRED, choices=None):
    v = obj.get(key, default)
    if v is _REQUIRED:
        raise ConfigError(_join(path, key), "missing required field")
    if not isinstance(v, str):
        raise ConfigError(_join(path, key), "expected a string")
    if choices is not None and v not in choices:
        raise ConfigError(_join(path, key), f"must be one of {sorted(choices)}")
    return v


_MZM_KEYS = ("v_pi_volts", "eo_3db_bandwidth_hz", "dc_extinction_arm1_db",
             "dc_extinction_arm2_db", "insertion_loss_db", "eo_model")


def _parse_mzm(block: dict, path: str) -> MzmParams:
    _check_unknown(block, _MZM_KEYS, path)
    return MzmParams(
        v_pi=_number(block, "v_pi_volts", path, minimum=1e-6),
        eo_3db_bandwidth=_number(block, "eo_3db_bandwidth_hz", path, minimum=1.0),
        dc_extinction_arm1_db=_number(block, "dc_extinction_arm1_db", path,
                                      default=40.0, minimum=1e-3),
        dc_extinction_arm2_db=_number(block, "dc_extinction_arm2_db", path,
                                      default=37.0, minimum=1e-3),
        insertion_loss_db=_number(block, "insertion_loss_db", path,
                                  default=0.0, minimum=0.0),
        eo_model=_string(block, "eo_model", path, default="single_pole",
                         choices=("single_pole", "gaussian", "flat")),
    )


@dataclass(frozen=True)
class Scenario:
    """A fully resolved, validated simulation setup."""

    mode: str
    seed: int
    label: str
    config: dict  # normalized echo with defaults filled in
    # transmission mode
    plan: ChannelPlan | None = None
    modulation: str | None = None
    shaping_kind: str = "sinc"
    rolloff: float = 0.0
    branch_symbol_rate: float = 0.0
    n_symbols: int = 0
    oversampling: int = 8
    carrier_frequency_thz: float = 193.4
    fiber: FiberSpec | None = None
    osnr_db: float = math.inf
    noise_reference_bandwidth_hz: float = 12.5e9
    noise_seed: int = 0
    sampler_mode: str = "ideal"
    mzm_params: MzmParams | None = None
    modulation_index: float = 0.3
    comb_flatness_target_db: float = 0.1
    compensate: bool = True
    lo_power: float = 1.0
    lo_phase: float = 0.0
    timing_delay_s: float = 0.0
    linewidth_hz: float = 0.0
    outputs: tuple[str, ...] = ("metrics",)
    # comb mode
    comb_n_lines: int = 0
    comb_spacing_hz: float = 0.0

    @property
    def constellation(self) -> Constellation:
        return Constellation.of(4 if self.modulation == "qpsk" else 16)

    def make_grid(self) -> TimeGrid:
        b = self.plan.aggregate_bandwidth
        sample_rate = self.oversampling * b
        duration = self.n_symbols / self.branch_symbol_rate
        return TimeGrid(sample_rate, int(round(sample_rate * duration)))


def parse_scenario(raw: dict) -> Scenario:
    """Validate a config dict and resolve defaults (fail-closed)."""
    if not isinstance(raw, dict):
        raise ConfigError("", "config must be a JSON object")
    mode = _string(raw, "mode", "", default="transmission",
                   choices=("transmission", "comb"))
    version = _integer(raw, "version", "", minimum=1)
    if version != CONFIG_VERSION:
        raise ConfigError("version", f"unsupported version {version}")
    seed = _integer(raw, "seed", "", default=0, minimum=0)
    label = _string(raw, "label", "", default=mode)

    if mode == "comb":
        _check_unknown(raw, ("version", "mode", "seed", "label", "comb", "mzm"), "")
        comb = _block(raw, "comb", "")
        _check_unknown(comb, ("n_lines", "spacing_hz", "flatness_target_db",
                              "modulation_index"), "comb")
        n_lines = _integer(comb, "n_lines", "comb", default=3, minimum=3)
        if n_lines % 2 == 0:
            raise ConfigError("comb.n_lines", "must be odd")
        spacing = _number(comb, "spacing_hz", "comb", minimum=1.0)
        target = _number(comb, "flatness_target_db", "comb", default=0.1,
                         minimum=1e-4)
        index = _number(comb, "modulation_index", "comb", default=0.3,
                        minimum=1e-3)
        params = _parse_mzm(_block(raw, "mzm", ""), "mzm")
        config = {
            "version": version, "mode": mode, "seed": seed, "label": label,
            "comb": {"n_lines": n_lines, "spacing_hz": spacing,
                     "flatness_target_db": target, "modulation_index": index},
            "mzm": {k: getattr(params, f) for k, f in zip(
                _MZM_KEYS, ("v_pi", "eo_3db_bandwidth", "dc_extinction_arm1_db",
                            "dc_extinction_arm2_db", "insertion_loss_db",
                            "eo_model"))},
        }
        return Scenario(mode=mode, seed=seed, label=label, config=config,
                        comb_n_lines=n_lines, comb_spacing_hz=spacing,
                        comb_flatness_target_db=target, modulation_index=index,
                        mzm_params=params)

    allowed = ("version", "mode", "seed", "label", "carrier_frequency_thz",
               "plan", "modulation", "shaping", "n_symbols", "oversampling",
               "fiber", "noise", "sampler", "mzm", "receiver", "laser",
               "outputs")
    _check_unknown(raw, allowed, "")

    plan_blk = _block(raw, "plan", "")
    _check_unknown(plan_blk, ("n_branches", "aggregate_bandwidth_hz"), "plan")
    n_branches = _integer(plan_blk, "n_branches", "plan", minimum=3)
    bandwidth = _number(plan_blk, "aggregate_bandwidth_hz", "plan", minimum=1.0)
    if n_branches % 2 == 0:
        raise ConfigError("plan.n_branches", "must be odd")
    plan = ChannelPlan(n_branches, bandwidth)

    modulation = _string(raw, "modulation", "", choices=("qpsk", "16qam"))

    shaping = _block(raw, "shaping", "", default={"kind": "sinc"})
    _check_unknown(shaping, ("kind", "rolloff", "symbol_rate_hz"), "shaping")
    kind = _string(shaping, "kind", "shaping", default="sinc",
                   choices=("sinc", "raised_cosine"))
    branch_rate = plan.symbol_rate
    rolloff = 0.0
    if kind == "sinc":
        rate = _number(shaping, "symbol_rate_hz", "shaping", default=branch_rate,
                       minimum=1.0)
        if abs(rate - branch_rate) > 1e-6 * branch_rate:
            raise ConfigError("shaping.symbol_rate_hz",
                              f"sinc shaping requires the branch rate B/N = "
                              f"{branch_rate:g} Hz")
        if _number(shaping, "rolloff", "shaping", default=0.0, minimum=0.0) != 0.0:
            raise ConfigError("shaping.rolloff", "sinc shaping has no rolloff")
    else:
        branch_rate = _number(shaping, "symbol_rate_hz", "shaping", minimum=1.0)
        rolloff = _number(shaping, "rolloff", "shaping", minimum=0.0)
        if rolloff > 1.0:
            raise ConfigError("shaping.rolloff", "must be <= 1")
        occupied = 0.5 * (1.0 + rolloff) * branch_rate
        if occupied > plan.detection_half_width * (1 + 1e-9):
            raise ConfigError(
                "shaping.symbol_rate_hz",
                f"shaped branch occupies {occupied:g} Hz, beyond the "
                f"detection half-width B/(2N) = {plan.detection_half_width:g} Hz")

    n_symbols = _integer(raw, "n_symbols", "", minimum=4)
    oversampling = _integer(raw, "oversampling", "", default=8, minimum=4)

    sps = oversampling * bandwidth / branch_rate
    if abs(sps - round(sps)) > 1e-9:
        raise ConfigError("shaping.symbol_rate_hz",
                          "symbol period must hold an integer number of samples")
    periods = n_symbols * bandwidth / (n_branches * branch_rate)
    if abs(periods - round(periods)) > 1e-9:
        raise ConfigError("n_symbols",
                          "window must hold an integer number of sequence periods")

    carrier_thz = _number(raw, "carrier_frequency_thz", "", default=193.4,
                          minimum=1.0)

    fiber_blk = _block(raw, "fiber", "", default={"length_km": 0.0})
    _check_unknown(fiber_blk, ("length_km", "dispersion_ps_nm_km",
                               "attenuation_db_km", "reference_wavelength_nm"),
                   "fiber")
    wavelength = _number(fiber_blk, "reference_wavelength_nm", "fiber",
                         default=None, allow_none=True)
    if wavelength is None:
        wavelength = SPEED_OF_LIGHT / (carrier_thz * 1e12) * 1e9
    fiber = FiberSpec(
        length_km=_number(fiber_blk, "length_km", "fiber", default=0.0,
                          minimum=0.0),
        dispersion_ps_nm_km=_number(fiber_blk, "dispersion_ps_nm_km", "fiber",
                                    default=17.0),
        attenuation_db_km=_number(fiber_blk, "attenuation_db_km", "fiber",
                                  default=0.2, minimum=0.0),
        reference_wavelength_nm=wavelength,
    )

    noise_blk = _block(raw, "noise", "", default={"osnr_db": None})
    _check_unknown(noise_blk, ("osnr_db", "reference_bandwidth_hz", "seed"),
                   "noise")
    osnr = _number(noise_blk, "osnr_db", "noise", default=None, allow_none=True)
    osnr = math.inf if osnr is None else osnr
    noise_ref_bw = _number(noise_blk, "reference_bandwidth_hz", "noise",
                           default=12.5e9, minimum=1.0)
    noise_seed = noise_blk.get("seed")
    if noise_seed is None:
        noise_seed = seed + 1
    elif isinstance(noise_seed, bool) or not isinstance(noise_seed, int):
        raise ConfigError("noise.seed", "expected an integer or null")

    sampler_blk = _block(raw, "sampler", "", default={"mode": "ideal"})
    _check_unknown(sampler_blk, ("mode", "modulation_index",
                                 "flatness_target_db"), "sampler")
    sampler_mode = _string(sampler_blk, "mode", "sampler", default="ideal",
                           choices=("ideal", "mzm"))
    modulation_index = _number(sampler_blk, "modulation_index", "sampler",
                               default=0.3, minimum=1e-3)
    flatness_target = _number(sampler_blk, "flatness_target_db", "sampler",
                              default=0.1, minimum=1e-4)
    mzm_params = None
    if sampler_mode == "mzm":
        if "mzm" not in raw:
            raise ConfigError("mzm", "required when sampler.mode is 'mzm'")
        mzm_params = _parse_mzm(_block(raw, "mzm", ""), "mzm")
    elif "mzm" in raw:
        raise ConfigError("mzm", "only allowed when sampler.mode is 'mzm'")

    recv_blk = _block(raw, "receiver", "", default={})
    _check_unknown(recv_blk, ("compensate_dispersion", "lo_power_w",
                              "lo_phase_rad", "timing_delay_s"), "receiver")
    compensate = _boolean(recv_blk, "compensate_dispersion", "receiver",
                          default=True)
    lo_power = _number(recv_blk, "lo_power_w", "receiver", default=1.0,
                       minimum=1e-12)
    lo_phase = _number(recv_blk, "lo_phase_rad", "receiver", default=0.0)
    timing_delay = _number(recv_blk, "timing_delay_s", "receiver", default=0.0)

    laser_blk = _block(raw, "laser", "", default={})
    _check_unknown(laser_blk, ("linewidth_hz",), "laser")
    linewidth = _number(laser_blk, "linewidth_hz", "laser", default=0.0,
                        minimum=0.0)

    outputs = raw.get("outputs", ["metrics"])
    if not isinstance(outputs, list) or not outputs:
        raise ConfigError("outputs", "expected a non-empty list")
    for o in outputs:
        if o not in ("metrics", "spectra", "constellation", "eye"):
            raise ConfigError("outputs", f"unknown output {o!r}")

    config = {
        "version": version, "mode": mode, "seed": seed, "label": label,
        "carrier_frequency_thz": carrier_thz,
        "plan": {"n_branches": n_branches, "aggregate_bandwidth_hz": bandwidth},
        "modulation": modulation,
        "shaping": {"kind": kind, "rolloff": rolloff,
                    "symbol_rate_hz": branch_rate},
        "n_symbols": n_symbols,
        "oversampling": oversampling,
        "fiber": {
            "length_km": fiber.length_km,
            "dispersion_ps_nm_km": fiber.dispersion_ps_nm_km,
            "attenuation_db_km": fiber.attenuation_db_km,
            "reference_wavelength_nm": fiber.reference_wavelength_nm,
        },
        "noise": {"osnr_db": None if math.isinf(osnr) else osnr,
                  "reference_bandwidth_hz": noise_ref_bw, "seed": noise_seed},
        "sampler": {"mode": sampler_mode, "modulation_index": modulation_index,
                    "flatness_target_db": flatness_target},
        "receiver": {"compensate_dispersion": compensate,
                     "lo_power_w": lo_power, "lo_phase_rad": lo_phase,
                     "timing_delay_s": timing_delay},
        "laser": {"linewidth_hz": linewidth},
        "outputs": list(outputs),
    }
    if mzm_params is not None:
        config["mzm"] = {k: getattr(mzm_params, f) for k, f in zip(
            _MZM_KEYS, ("v_pi", "eo_3db_bandwidth", "dc_extinction_arm1_db",
                        "dc_extinction_arm2_db", "insertion_loss_db",
                        "eo_model"))}

    return Scenario(
        mode=mode, seed=seed, label=label, config=config, plan=plan,
        modulation=modulation, shaping_kind=kind, rolloff=rolloff,
        branch_symbol_rate=branch_rate, n_symbols=n_symbols,
        oversampling=oversampling, carrier_frequency_thz=carrier_thz,
        fiber=fiber, osnr_db=osnr, noise_reference_bandwidth_hz=noise_ref_bw,
        noise_seed=int(noise_seed), sampler_mode=sampler_mode,
        mzm_params=mzm_params, modulation_index=modulation_index,
        comb_flatness_target_db=flatness_target, compensate=compensate,
        lo_power=lo_power, lo_phase=lo_phase, timing_delay_s=timing_delay,
        linewidth_hz=linewidth, outputs=tuple(outputs),
    )


def scenario_from_file(path) -> Scenario:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from exc
    return parse_scenario(raw)


@dataclass
class ReportBundle:
    """Everything a run produced: metrics, optional comb data, CSV artifacts."""

    scenario: dict
    mode: str
    seed: int
    metrics: list[MetricsReport]
    comb: CombReport | None = None
    calibration: FlatCombCalibration | None = None
    artifacts: dict | None = None

    def summary(self) -> str:
        parts = []
        if self.metrics:
            parts.append(format_metrics_table(self.metrics))
        if self.comb is not None:
            parts.append(format_comb_table(self.comb))
            if self.calibration is not None:
                parts.append(
                    f"converged: {'yes' if self.calibration.converged else 'no'}"
                    f" (waveform rmse {self.calibration.waveform_rmse_percent:.3f}%)")
        return "\n".join(parts)

    def write(self, out_dir) -> list:
        return write_bundle(self, out_dir)


def _sanitize(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def write_bundle(bundle: ReportBundle, out_dir) -> list:
    """Write a bundle to disk with deterministic formatting; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    def dump_json(name, payload):
        p = out / name
        p.write_text(json.dumps(_sanitize(payload), sort_keys=True, indent=2)
                     + "\n")
        paths.append(p)

    dump_json("config.json", bundle.scenario)
    dump_json("metrics.json", {
        "mode": bundle.mode,
        "seed": bundle.seed,
        "reports": [r.to_dict() for r in bundle.metrics],
        "comb": comb_report_to_dict(bundle.comb) if bundle.comb else None,
    })
    p = out / "metrics.txt"
    p.write_text(bundle.summary() + "\n")
    paths.append(p)

    if bundle.calibration is not None:
        p = out / "drive_plan.json"
        p.write_text(drive_plan_to_json(bundle.calibration.plan) + "\n")
        paths.append(p)

    for name in sorted(bundle.artifacts or {}):
        header, fmt, rows = bundle.artifacts[name]
        p = out / f"{name}.csv"
        _write_csv(p, header, fmt, rows)
        paths.append(p)
    return paths


def _spectrum_rows(sig: Signal):
    spec = spectrum(sig)
    power = 10.0 * np.log10(np.maximum(np.abs(spec.bins) ** 2, 1e-30))
    return "f_Hz,power_dBm", _FLOAT_FMT, np.column_stack([spec.freqs, power])


def _calibrated_sampler(sc: Scenario) -> MzmSampler:
    cal = calibrate_flat_comb(
        sc.plan.n_branches, sc.plan.symbol_rate, sc.mzm_params,
        flatness_target_db=sc.comb_flatness_target_db,
        modulation_index=sc.modulation_index,
    )
    if not cal.converged:
        raise RuntimeError(
            f"comb calibration did not converge: flatness "
            f"{cal.report.flatness_db:.3f} dB over target "
            f"{sc.comb_flatness_target_db:g} dB")
    return MzmSampler.from_calibration(cal)


def run_scenario(sc: Scenario) -> ReportBundle:
    """Run one scenario end to end and collect its reports."""
    if sc.mode == "comb":
        cal = calibrate_flat_comb(
            sc.comb_n_lines, sc.comb_spacing_hz, sc.mzm_params,
            flatness_target_db=sc.comb_flatness_target_db,
            modulation_index=sc.modulation_index,
        )
        return ReportBundle(scenario=sc.config, mode=sc.mode, seed=sc.seed,
                            metrics=[], comb=cal.report, calibration=cal,
                            artifacts={})

    plan = sc.plan
    grid = sc.make_grid()
    const = sc.constellation
    bps = const.bits_per_symbol
    rng = np.random.default_rng(sc.seed)

    tx_bits = [rng.integers(0, 2, sc.n_symbols * bps)
               for _ in range(plan.n_branches)]
    streams = [qam_map(bits, const, sc.branch_symbol_rate) for bits in tx_bits]
    tx = otdm_multiplex(streams, plan, grid, shaping=sc.shaping_kind,
                        rolloff=sc.rolloff)

    rx = propagate(tx, sc.fiber)
    if sc.timing_delay_s:
        # the bulk path delay the receiver is configured to remove
        rx = delay_signal(rx, sc.timing_delay_s)
    if sc.linewidth_hz > 0:
        rx = phase_noise(rx, sc.linewidth_hz, seed=sc.seed + 2)
    if not math.isinf(sc.osnr_db):
        rx = add_noise(rx, NoiseSpec(sc.osnr_db, sc.noise_reference_bandwidth_hz,
                                     seed=sc.noise_seed))
    if sc.compensate:
        rx = compensate_dispersion(rx, sc.fiber)

    sampler = "ideal" if sc.sampler_mode == "ideal" else _calibrated_sampler(sc)

    artifacts = {}
    if "spectra" in sc.outputs:
        artifacts["spectrum_multiplexed"] = _spectrum_rows(tx)
        artifacts["spectrum_received"] = _spectrum_rows(rx)

    reports = []
    for l in range(1, plan.n_branches + 1):
        bplan = plan.for_branch(l)
        y = demultiplex(rx, bplan, sampler, timing_delay=sc.timing_delay_s)
        y = coherent_detect(y, sc.lo_power, sc.lo_phase)
        rx_stream = sample_symbols(y, sc.branch_symbol_rate,
                                   t_offset=bplan.time_offset,
                                   n_symbols=sc.n_symbols)
        ref = streams[l - 1].symbols
        raw = rx_stream.symbols
        denom = np.vdot(raw, raw)
        if denom == 0:
            raise RuntimeError(f"branch {l} demultiplexed to an all-zero stream")
        gain = np.vdot(raw, ref) / denom  # data-aided single complex tap
        aligned = raw * gain

        ev = evm(aligned, ref)
        qf = q_factor(aligned, ref)
        rx_bits = qam_demap(aligned, const)
        counted = ber_count(tx_bits[l - 1], rx_bits)
        est = 0.5 * (ber_estimate(qf.q_i_linear) + ber_estimate(qf.q_q_linear))
        est_log10 = log10_mean(ber_estimate_log10(qf.q_i_linear),
                               ber_estimate_log10(qf.q_q_linear))
        reports.append(MetricsReport(
            label=f"branch {l}",
            modulation=sc.modulation,
            distance_km=sc.fiber.length_km,
            osnr_db=sc.osnr_db,
            n_symbols=sc.n_symbols,
            n_bits=counted.n_bits,
            evm_percent=ev.percent,
            evm_std_percent=ev.std_percent,
            q_i_db=qf.q_i_db,
            q_q_db=qf.q_q_db,
            q_i_std_db=qf.q_i_std_db,
            q_q_std_db=qf.q_q_std_db,
            q_capped=qf.capped_i or qf.capped_q,
            ber_estimated=est,
            ber_estimated_log10=est_log10,
            ber_count_errors=counted.errors,
            ber_counted=counted.rate,
            below_hdfec=below_hdfec_limit(counted.rate),
            seed=sc.seed,
            q_floored=qf.floored_i or qf.floored_q,
        ))

        if "spectra" in sc.outputs:
            artifacts[f"branch{l}_spectrum"] = _spectrum_rows(y)
        if "constellation" in sc.outputs:
            decided = decide_indices(aligned, const)
            artifacts[f"branch{l}_constellation"] = (
                "re,im,decided_symbol",
                [_FLOAT_FMT, _FLOAT_FMT, "%d"],
                np.column_stack([aligned.real, aligned.imag, decided]),
            )
        if "eye" in sc.outputs:
            window = 2.0 / sc.branch_symbol_rate
            t_fold = np.mod(grid.t - bplan.time_offset, window)
            amp = (y.samples * gain).real
            artifacts[f"branch{l}_eye"] = (
                "t_mod_2symbols,amplitude", _FLOAT_FMT,
                np.column_stack([t_fold, amp]),
            )

    return ReportBundle(scenario=sc.config, mode=sc.mode, seed=sc.seed,
                        metrics=reports, artifacts=artifacts)


def _set_by_path(cfg: dict, dotted: str, value) -> None:
    # creates the blocks a config left to their defaults; fields derived from
    # others (the noise seed, the reference wavelength) stay derived
    parts = dotted.split(".")
    for p in parts[:-1]:
        cfg = cfg.setdefault(p, {})
    cfg[parts[-1]] = value


def sweep(config: dict, parameter: str, values) -> list[ReportBundle]:
    """Run a scenario once per value of a dotted config parameter.

    ``parameter`` names a field of the normalized config, so a field left to
    its default can be swept too.  Seeds derive deterministically from the
    base seed plus the value index, so points are independent but exactly
    reproducible.
    """
    if not values:
        raise ValueError("sweep needs at least one value")
    field = parse_scenario(config).config
    for p in parameter.split("."):
        if not isinstance(field, dict) or p not in field:
            raise ConfigError(parameter, "no such config field to sweep")
        field = field[p]
    base_seed = config.get("seed", 0)
    bundles = []
    for i, value in enumerate(values):
        cfg = copy.deepcopy(config)
        _set_by_path(cfg, parameter, value)
        cfg["seed"] = base_seed + i
        bundles.append(run_scenario(parse_scenario(cfg)))
    return bundles
