"""End-to-end simulation scenarios: JSON configs, the transmit/impair/
demultiplex/measure pipeline, parameter sweeps, and report bundles.

Configs are fail-closed: unknown fields are rejected with an error naming
the offending field, and every run is bit-reproducible from (config, seed).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import ChannelPlan, Signal, TimeGrid, _write_csv
from .demux import _read_bins, demultiplex
from .link import (
    SPEED_OF_LIGHT,
    FiberSpec,
    NoiseSpec,
    add_noise,
    compensate_dispersion,
    dispersion_phase,
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
    FlatCombCalibration,
    MzmParams,
    calibrate_flat_comb,
    eo_response,
    format_comb_table,
)
from .nyquist import otdm_multiplex, sample_symbols

__all__ = [
    "ConfigError",
    "Scenario",
    "ReportBundle",
    "load_config",
    "parse_scenario",
    "run_scenario",
    "sweep",
    "write_bundle",
]

CONFIG_VERSION = 1
# The spectrum artifacts keep the rows with |f| <= _BAND_MARGIN times the
# signal's half-width, so the multiplexed spectrum still holds rows beyond
# +-B/2 that show its band edge.
_BAND_MARGIN = 1.25
_EYE_SAMPLES_PER_SYMBOL = 16


class ConfigError(ValueError):
    """Config validation failure, carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


_REQUIRED = object()
_DERIVED = object()  # absent; settled from other fields once the table is read

# One row per config field: (dotted path, kind, default, minimum, maximum).
# ``kind`` is float, int, bool, str, a tuple of choices, or a list of choices
# for a non-empty list of them.  A default of None means null is allowed and
# stands for "none" or "derived".  A maximum keeps the run in the float range.
_EXACT = 2 ** 53  # the largest integer a float holds exactly
_MODE = ("mode", ("transmission", "comb"), "transmission", None, None)
_HEAD = (
    _MODE,
    ("version", int, _REQUIRED, 1, None),
    ("seed", int, 0, 0, None),
    ("label", str, _DERIVED, None, None),
)
_MZM = (  # in the order of MzmParams' fields
    ("mzm.v_pi_volts", float, _REQUIRED, 1e-6, None),
    ("mzm.eo_3db_bandwidth_hz", float, _REQUIRED, 1.0, None),
    ("mzm.dc_extinction_arm1_db", float, 40.0, 1e-3, None),
    ("mzm.dc_extinction_arm2_db", float, 37.0, 1e-3, None),
    ("mzm.insertion_loss_db", float, 0.0, 0.0, 2000.0),  # as the span loss
    ("mzm.eo_model", ("single_pole", "gaussian", "flat"), "single_pole", None, None),
)
_COMB = _HEAD + (
    ("comb.n_lines", int, 3, 3, _EXACT),
    ("comb.spacing_hz", float, _REQUIRED, 1.0, 1e150),  # f**2 in H_EO and CD
    ("comb.flatness_target_db", float, 0.1, 1e-4, None),
    ("comb.modulation_index", float, 0.3, 1e-3, 1e300),  # times the arm-2 ratio
) + _MZM
_TRANSMISSION = _HEAD + (
    ("carrier_frequency_thz", float, 193.4, 1.0, None),
    ("plan.n_branches", int, _REQUIRED, 3, _EXACT),
    ("plan.aggregate_bandwidth_hz", float, _REQUIRED, 1.0, 1e150),
    ("modulation", ("qpsk", "16qam"), _REQUIRED, None, None),
    ("shaping.kind", ("sinc", "raised_cosine"), "sinc", None, None),
    ("shaping.rolloff", float, _DERIVED, 0.0, 1.0),
    ("shaping.symbol_rate_hz", float, _DERIVED, 1.0, None),
    ("n_symbols", int, _REQUIRED, 4, _EXACT),
    ("oversampling", int, 8, 4, _EXACT),
    ("fiber.length_km", float, 0.0, 0.0, None),
    ("fiber.dispersion_ps_nm_km", float, 17.0, None, None),
    ("fiber.attenuation_db_km", float, 0.2, 0.0, None),
    ("fiber.reference_wavelength_nm", float, None, 1.0, 1e6),  # lambda**2 in CD
    ("noise.osnr_db", float, None, -300.0, 300.0),  # 10**(osnr/10) is not 0 or inf
    ("noise.reference_bandwidth_hz", float, 12.5e9, 1.0, None),
    ("noise.seed", int, None, 0, None),
    ("sampler.mode", ("ideal", "mzm"), "ideal", None, None),
    ("sampler.modulation_index", float, 0.3, 1e-3, 1e300),
    ("sampler.flatness_target_db", float, 0.1, 1e-4, None),
    ("receiver.compensate_dispersion", bool, True, None, None),
    ("laser.linewidth_hz", float, 0.0, 0.0, 1e300),
    ("outputs", ["metrics", "spectra", "constellation", "eye"], ["metrics"], None, None),
) + _MZM


def _field(obj: dict, row):
    """Check one field of ``obj`` against its table row; returns its value
    (a float for a number), or the default where the field is absent."""
    path, kind, default, minimum, maximum = row
    value = obj.get(path.rpartition(".")[2], default)
    if value is _REQUIRED:
        raise ConfigError(path, "missing required field")
    if value is _DERIVED or (value is None and default is None):
        return value
    if kind is float:
        if value is None:
            raise ConfigError(path, "must not be null")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, "expected a number")
        # Python's json parses NaN and +-Infinity; null is the way to say "none"
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(path, "must be finite")
    elif kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, "expected an integer"
                              + (" or null" if default is None else ""))
    elif kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(path, "expected true or false")
    elif isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(path, "expected a non-empty list")
        for o in value:
            if o not in kind:
                raise ConfigError(path, f"unknown output {o!r}")
        return list(value)
    elif not isinstance(value, str):
        raise ConfigError(path, "expected a string")
    elif kind is not str and value not in kind:
        raise ConfigError(path, f"must be one of {sorted(kind)}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum:g}")
    if maximum is not None and value > maximum:
        raise ConfigError(path, f"must be <= {maximum:g}")
    return value


def _read(raw: dict, rows, optional=()) -> dict:
    """Read every field ``rows`` name from ``raw`` into the normalized echo.

    Before a block's fields are read, it must be an object holding no key
    the table does not name.  An absent block reads as empty unless it holds
    a required field; a block in ``optional`` may be absent all the same,
    and is then left out of the echo.
    """
    blocks = {"": []}
    for row in rows:
        blocks.setdefault(row[0].rpartition(".")[0], []).append(row)
    echo = {}
    for block, block_rows in blocks.items():
        known = {r[0].rpartition(".")[2] for r in block_rows}
        if not block:
            obj, known = raw, known | (blocks.keys() - {""})
        elif block in raw:
            obj = raw[block]
            if not isinstance(obj, dict):
                raise ConfigError(block, "expected an object")
        elif block in optional:
            continue
        elif any(r[2] is _REQUIRED for r in block_rows):
            raise ConfigError(block, "missing required field")
        else:
            obj = {}
        out = echo.setdefault(block, {}) if block else echo
        for k in obj:
            if k not in known:
                raise ConfigError(f"{block}.{k}" if block else k, "unknown field")
        for row in block_rows:
            out[row[0].rpartition(".")[2]] = _field(obj, row)
    return echo


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: its normalized config, defaults filled in, and
    the objects built from it."""

    config: dict  # the echo; the whole record of the scenario
    plan: ChannelPlan | None = None  # transmission mode
    fiber: FiberSpec | None = None  # transmission mode
    mzm_params: MzmParams | None = None  # where an mzm block is given

    def make_grid(self) -> TimeGrid:
        cfg = self.config
        sample_rate = cfg["oversampling"] * self.plan.aggregate_bandwidth
        duration = cfg["n_symbols"] / cfg["shaping"]["symbol_rate_hz"]
        return TimeGrid(sample_rate, int(round(sample_rate * duration)))


def parse_scenario(raw: dict) -> Scenario:
    """Validate a config dict and resolve defaults (fail-closed)."""
    if not isinstance(raw, dict):
        raise ConfigError("", "config must be a JSON object")
    mode = _field(raw, _MODE)
    if mode == "comb":
        cfg = _read(raw, _COMB)
    else:
        cfg = _read(raw, _TRANSMISSION, optional=("mzm",))
    if cfg["version"] != CONFIG_VERSION:
        raise ConfigError("version", f"unsupported version {cfg['version']}")
    if cfg["label"] is _DERIVED:
        cfg["label"] = mode

    if mode == "comb":
        comb = cfg["comb"]
        if comb["n_lines"] % 2 == 0:
            raise ConfigError("comb.n_lines", "must be odd")
        return Scenario(cfg, mzm_params=_mzm_params(
            cfg, comb["n_lines"], comb["spacing_hz"], comb))

    n_branches = cfg["plan"]["n_branches"]
    bandwidth = cfg["plan"]["aggregate_bandwidth_hz"]
    if n_branches % 2 == 0:
        raise ConfigError("plan.n_branches", "must be odd")
    plan = ChannelPlan(n_branches, bandwidth)

    shaping = cfg["shaping"]
    if shaping["kind"] == "sinc":
        rate = shaping["symbol_rate_hz"]
        if rate is _DERIVED:
            rate = plan.symbol_rate  # stands in for the rate, so meets its bound
            if rate < 1.0:
                raise ConfigError("shaping.symbol_rate_hz", "must be >= 1")
        if abs(rate - plan.symbol_rate) > 1e-6 * plan.symbol_rate:
            raise ConfigError("shaping.symbol_rate_hz",
                              f"sinc shaping requires the branch rate B/N = "
                              f"{plan.symbol_rate:g} Hz")
        if shaping["rolloff"] not in (_DERIVED, 0.0):
            raise ConfigError("shaping.rolloff", "sinc shaping has no rolloff")
        shaping.update(rolloff=0.0, symbol_rate_hz=plan.symbol_rate)
    else:
        for key in ("symbol_rate_hz", "rolloff"):
            if shaping[key] is _DERIVED:
                raise ConfigError(f"shaping.{key}", "missing required field")
        occupied = 0.5 * (1.0 + shaping["rolloff"]) * shaping["symbol_rate_hz"]
        if occupied > plan.detection_half_width * (1 + 1e-9):
            raise ConfigError(
                "shaping.symbol_rate_hz",
                f"shaped branch occupies {occupied:g} Hz, beyond the "
                f"detection half-width B/(2N) = {plan.detection_half_width:g} Hz")
    branch_rate = shaping["symbol_rate_hz"]

    sps = cfg["oversampling"] * bandwidth / branch_rate
    if abs(sps - round(sps)) > 1e-9:
        raise ConfigError("shaping.symbol_rate_hz",
                          "symbol period must hold an integer number of samples")
    periods = cfg["n_symbols"] * bandwidth / (n_branches * branch_rate)
    if abs(periods - round(periods)) > 1e-9:
        raise ConfigError("n_symbols",
                          "window must hold an integer number of sequence periods")

    sampler = cfg["sampler"]
    if (sampler["mode"] == "mzm") != ("mzm" in cfg):
        raise ConfigError("mzm", "required when sampler.mode is 'mzm'"
                          if sampler["mode"] == "mzm"
                          else "only allowed when sampler.mode is 'mzm'")
    params = _mzm_params(cfg, n_branches, plan.symbol_rate, sampler) \
        if "mzm" in cfg else None

    noise = cfg["noise"]
    if noise["seed"] is None:
        noise["seed"] = cfg["seed"] + 1

    fiber = cfg["fiber"]
    if fiber["reference_wavelength_nm"] is None:
        if cfg["carrier_frequency_thz"] > SPEED_OF_LIGHT * 1e-3:
            raise ConfigError("carrier_frequency_thz", "must be <= 299792 (1 nm)")
        fiber["reference_wavelength_nm"] = (
            SPEED_OF_LIGHT / (cfg["carrier_frequency_thz"] * 1e12) * 1e9)
    # past ~3000 dB of span loss the received power leaves the float range
    # and the run fails or reports wrong metrics
    attenuation = fiber["attenuation_db_km"]
    if attenuation * fiber["length_km"] > 2000.0:
        raise ConfigError("fiber.length_km", f"must be <= {2000.0 / attenuation:g} km "
                          f"at {attenuation:g} dB/km (a 2000 dB span loss)")
    spec = FiberSpec(**fiber)
    top = cfg["oversampling"] * bandwidth / 2  # where noise fills the grid
    if not math.isfinite(top * top):  # the phase is L*D * inf, nan at any length
        raise ConfigError("oversampling", f"must be lower: the grid's top frequency "
                          f"{top:g} Hz has no finite square for the dispersion phase")
    with np.errstate(over="ignore", invalid="ignore"):
        phase = dispersion_phase(spec, top)
    if not np.isfinite(phase):
        product = fiber["length_km"] * fiber["dispersion_ps_nm_km"]
        raise ConfigError("fiber.length_km", f"must be shorter: the L*D product "
                          f"{product:g} ps/nm makes the dispersion phase infinite "
                          f"at {top:g} Hz, the grid's top frequency")
    return Scenario(cfg, plan, spec, params)


def _mzm_params(cfg: dict, n_lines: int, spacing: float, block: dict) -> MzmParams:
    """The config's device, once its top drive harmonic at the index of
    ``block`` is finite volts: where |H_EO| is 0 the modulator takes 0 * inf."""
    params = MzmParams(*cfg["mzm"].values())
    top = n_lines // 2 * spacing
    with np.errstate(over="ignore", under="ignore"):
        response = eo_response(top, params)
    if not response or math.isinf(
            block["modulation_index"] * params.v_pi / (math.pi * response)):
        raise ConfigError("mzm.eo_3db_bandwidth_hz", f"must be wider: the {top:g} Hz "
                          f"drive harmonic needs index*V_pi/(pi*|H_EO|) volts, "
                          f"infinite at |H_EO| = {response:g}")
    return params


def load_config(path) -> dict:
    """Read a config file into a dict, before validation; a file that cannot
    be read, invalid JSON (text that is not UTF-8 included) and a top level
    that is not an object raise :class:`ConfigError`."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError("", f"cannot read config {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("", "config must be a JSON object")
    return raw


@dataclass
class ReportBundle:
    """Everything a run produced: metrics, a comb calibration, CSV artifacts."""

    scenario: dict  # the normalized config echo
    metrics: list[MetricsReport]
    calibration: FlatCombCalibration | None = None  # comb mode or MZM sampler
    artifacts: dict | None = None

    def summary(self) -> str:
        parts = []
        if self.metrics:
            parts.append(format_metrics_table(self.metrics))
        if self.calibration is not None:
            parts.append(format_comb_table(self.calibration.report))
            parts.append(
                f"converged: {'yes' if self.calibration.converged else 'no'}"
                f" (waveform rmse {self.calibration.waveform_rmse_percent:.3f}%)")
        return "\n".join(parts)


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
        "mode": bundle.scenario["mode"],
        "seed": bundle.scenario["seed"],
        "reports": [asdict(r) for r in bundle.metrics],
        "comb": asdict(bundle.calibration.report) if bundle.calibration else None,
    })
    p = out / "metrics.txt"
    p.write_text(bundle.summary() + "\n")
    paths.append(p)

    if bundle.calibration is not None:
        p = out / "drive_plan.json"
        p.write_text(json.dumps(asdict(bundle.calibration.plan), sort_keys=True)
                     + "\n")
        paths.append(p)

    for name in sorted(bundle.artifacts or {}):
        p = out / f"{name}.csv"
        _write_csv(p, *bundle.artifacts[name])
        paths.append(p)
    return paths


def _spectrum_bins(grid: TimeGrid, half_width: float):
    """The bins k with |f| <= _BAND_MARGIN * half_width."""
    step, edge = grid.freq_resolution, _BAND_MARGIN * half_width
    top = int(edge / step) + 1  # below n/2: the sample rate is >= 4B
    k = np.arange(-top, top + 1)
    return k[np.abs(k * step) <= edge]


def _spectrum_rows(sig: Signal, half_width: float):
    """The rows of ``spectrum(sig)`` with |f| <= _BAND_MARGIN * half_width,
    bit for bit, computed from those bins alone."""
    k = _spectrum_bins(sig.grid, half_width)
    power = 10.0 * np.log10(np.maximum(np.abs(sig._take(k) / sig.grid.n_samples) ** 2, 1e-30))
    return "f_Hz,power_dBm", np.column_stack([k * sig.grid.freq_resolution, power])


def _eye_rows(y: Signal, gain: complex, sc: Scenario, t_offset: float):
    """The branch waveform ``(y.samples * gain).real`` at 16 samples per
    symbol, against time folded onto two symbols.

    A demultiplexed branch holds only its detection band of bins, so the
    inverse FFT of that band alone on p points, scaled by p/n, is the
    waveform resampled exactly on p points over the same window.  Where the
    band would reach the eye's Nyquist frequency (a symbol rate at or below
    B/(16N)) the rate rises by whole multiples of 16 samples per symbol
    until it does not.  The sample index is folded before any float
    arithmetic, so each of the 2 * per_symbol phases has one time value.
    """
    n = y.grid.n_samples
    cfg = sc.config
    rate, n_symbols = cfg["shaping"]["symbol_rate_hz"], cfg["n_symbols"]
    first, values = y._spectrum()
    per_symbol = _EYE_SAMPLES_PER_SYMBOL * (
        values.size // (_EYE_SAMPLES_PER_SYMBOL * n_symbols) + 1)
    p = per_symbol * n_symbols
    bins = np.zeros(p, dtype=np.complex128)
    bins[(first + np.arange(values.size)) % p] = values
    amp = (np.fft.ifft(bins) * (p / n) * gain).real
    phase = -t_offset * per_symbol * rate
    k = np.arange(p) % (2 * per_symbol)
    t_fold = np.mod(k + phase, 2 * per_symbol) / (per_symbol * rate)
    return "t_mod_2symbols,amplitude", np.column_stack([t_fold, amp])


def _calibrate(n_lines: int, spacing: float, block: dict, params: MzmParams,
               calibrations: dict) -> FlatCombCalibration:
    """Calibrate a flat comb to the target and index of ``block``, the
    config's ``comb`` or ``sampler`` block, unless ``calibrations`` holds
    one made from the same inputs: the calibration is a deterministic
    function of them."""
    target, index = block["flatness_target_db"], block["modulation_index"]
    key = (n_lines, spacing, target, index, params)
    if key not in calibrations:
        calibrations[key] = calibrate_flat_comb(n_lines, spacing, params,
                                                flatness_target_db=target,
                                                modulation_index=index)
    return calibrations[key]


def run_scenario(sc: Scenario, calibrations: dict | None = None) -> ReportBundle:
    """Run one scenario end to end and collect its reports.

    ``calibrations`` holds the comb calibrations already made: the run
    reuses those it needs and adds the ones it makes.  None starts empty.
    """
    if calibrations is None:
        calibrations = {}
    cfg = sc.config
    if cfg["mode"] == "comb":
        comb = cfg["comb"]
        cal = _calibrate(comb["n_lines"], comb["spacing_hz"], comb, sc.mzm_params,
                         calibrations)
        return ReportBundle(cfg, metrics=[], calibration=cal, artifacts={})

    seed, outputs = cfg["seed"], cfg["outputs"]
    rate, n_symbols = cfg["shaping"]["symbol_rate_hz"], cfg["n_symbols"]
    noise = cfg["noise"]
    osnr_db = math.inf if noise["osnr_db"] is None else noise["osnr_db"]
    plan = sc.plan
    grid = sc.make_grid()
    const = Constellation.of(4 if cfg["modulation"] == "qpsk" else 16)
    bps = const.bits_per_symbol
    rng = np.random.default_rng(seed)

    tx_bits = [rng.integers(0, 2, n_symbols * bps)
               for _ in range(plan.n_branches)]
    tx_symbols = [qam_map(bits, const) for bits in tx_bits]
    tx = otdm_multiplex(tx_symbols, rate, plan, grid, rolloff=cfg["shaping"]["rolloff"])

    cal = None
    if cfg["sampler"]["mode"] == "mzm":
        cal = _calibrate(plan.n_branches, plan.symbol_rate, cfg["sampler"],
                         sc.mzm_params, calibrations)
    # the received field's readers: the ideal sequences' demultiplexer (an MZM
    # sampler's P lines read every bin) and the spectrum crop
    half = plan.aggregate_bandwidth / 2
    reach = None if cal is not None else int(np.abs(_read_bins(plan, None, grid)[3]).max())
    if reach is not None and "spectra" in outputs:
        reach = max(reach, int(np.abs(_spectrum_bins(grid, half)).max()))

    rx = propagate(tx, sc.fiber)
    if cfg["laser"]["linewidth_hz"] > 0:
        rx = phase_noise(rx, cfg["laser"]["linewidth_hz"], seed=seed + 2)
    rx = add_noise(rx, NoiseSpec(osnr_db, noise["reference_bandwidth_hz"], noise["seed"]), reach)
    if cfg["receiver"]["compensate_dispersion"]:
        rx = compensate_dispersion(rx, sc.fiber)

    artifacts = {}
    if "spectra" in outputs:
        artifacts["spectrum_multiplexed"] = _spectrum_rows(tx, half)
        artifacts["spectrum_received"] = _spectrum_rows(rx, half)

    reports = []
    for l, y in enumerate(demultiplex(rx, plan, cal), start=1):
        raw = sample_symbols(y, rate, t_offset=plan.slot(l))
        ref = tx_symbols[l - 1]
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
            modulation=cfg["modulation"],
            distance_km=sc.fiber.length_km,
            osnr_db=osnr_db,
            n_symbols=n_symbols,
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
            seed=seed,
            q_floored=qf.floored_i or qf.floored_q,
        ))

        if "spectra" in outputs:
            artifacts[f"branch{l}_spectrum"] = _spectrum_rows(
                y, plan.detection_half_width)
        if "constellation" in outputs:
            decided = decide_indices(aligned, const)
            artifacts[f"branch{l}_constellation"] = (
                "re,im,decided_symbol",
                np.column_stack([aligned.real, aligned.imag, decided]))
        if "eye" in outputs:
            artifacts[f"branch{l}_eye"] = _eye_rows(y, gain, sc, plan.slot(l))

    return ReportBundle(cfg, metrics=reports, calibration=cal, artifacts=artifacts)


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
    reproducible; ``seed`` itself therefore cannot be swept.  Every point is
    validated before any runs, and the points share the comb calibrations
    made within this call, so each distinct calibration runs once and every
    bundle equals a run of its point alone.
    """
    if not values:
        raise ValueError("sweep needs at least one value")
    if parameter == "seed":
        raise ConfigError("seed", "cannot be swept: each point's seed is the "
                                  "base seed plus the value index")
    base = parse_scenario(config)
    field = base.config
    for p in parameter.split("."):
        if not isinstance(field, dict) or p not in field:
            raise ConfigError(parameter, "no such config field to sweep")
        field = field[p]
    points = []
    for i, value in enumerate(values):
        cfg = copy.deepcopy(config)
        _set_by_path(cfg, parameter, value)
        cfg["seed"] = base.config["seed"] + i
        points.append(parse_scenario(cfg))
    calibrations = {}
    return [run_scenario(sc, calibrations) for sc in points]
