"""Output checks that share no code with ``nyquist_otdm``.

Each check recomputes a quantity from first principles (the documented
modulator transfer, a noise closed form, a brute-force decision, the band
edge) and compares it with what a bundle on disk says.  Every function
returns a list of problem strings; an empty list means the output passed.
Only numpy and the standard library are used here, so a fault in the
package cannot hide itself by also breaking its own check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Gray code of each per-axis amplitude level, ascending; bit value 0 sits on
# the most positive level (README of the package, "Conventions").
_AXIS_CODES = {2: (1, 0), 4: (2, 3, 1, 0)}

# Noiseless EVM floor of the calibrated 3-line MZM sampler: 1.02-1.04 %
# measured on nyquist_qpsk_8gbd_30km with the noise block removed.
MZM_EVM_FLOOR_PERCENT = 1.5

BAND_MARGIN_DB = 200.0


# ---------------------------------------------------------------------------
# comb line powers from the drive plan


def arm_field(extinction_db: float) -> float:
    """Field transmission a = (g-1)/(g+1), g = 10^(X/20), of one arm."""
    if math.isinf(extinction_db):
        return 1.0
    g = 10.0 ** (extinction_db / 20.0)
    return (g - 1.0) / (g + 1.0)


def eo_gain(f: float, mzm: dict) -> float:
    fc = mzm["eo_3db_bandwidth_hz"]
    model = mzm.get("eo_model", "single_pole")
    if model == "single_pole":
        return 1.0 / math.sqrt(1.0 + (f / fc) ** 2)
    if model == "gaussian":
        return math.exp(-0.5 * math.log(2.0) * (f / fc) ** 2)
    return 1.0


def comb_line_powers_dbm(plan: dict, mzm: dict, n_lines: int, spacing: float,
                         samples_per_period: int = 64) -> np.ndarray:
    """Line powers (dBm) of the dual-drive MZM comb, orders -h..h.

    Evaluates the transfer ``loss/2 * (a1 exp(j phi1) + a2 exp(j phi2))``
    with ``phi_i = bias_i + sum_k pi A_ik eo(f_k) / v_pi sin(2 pi f_k t +
    p_ik)`` on one period 1/spacing and takes a direct DFT at each line.
    """
    m = samples_per_period
    t = np.arange(m) / (m * spacing)
    phi = [np.full(m, float(plan["bias_arm1"])), np.full(m, float(plan["bias_arm2"]))]
    for tone in plan["tones"]:
        f = tone["frequency"]
        depth = math.pi * eo_gain(f, mzm) / mzm["v_pi_volts"]
        for arm in (1, 2):
            phi[arm - 1] = phi[arm - 1] + depth * tone[f"amplitude_arm{arm}"] * np.sin(
                2 * math.pi * f * t + tone[f"phase_arm{arm}"])
    loss = 10.0 ** (-mzm.get("insertion_loss_db", 0.0) / 20.0)
    transfer = 0.5 * loss * (arm_field(mzm["dc_extinction_arm1_db"]) * np.exp(1j * phi[0])
                             + arm_field(mzm["dc_extinction_arm2_db"]) * np.exp(1j * phi[1]))
    half = (n_lines - 1) // 2
    orders = np.arange(-half, half + 1)
    kernel = np.exp(-2j * math.pi * np.outer(orders, np.arange(m)) / m)
    lines = kernel @ transfer / m
    return 10.0 * np.log10(np.abs(lines) ** 2)


def check_comb_bundle(bundle: Path, tol_db: float = 1e-6) -> list:
    """Recompute the comb of a comb-mode bundle and compare it with the
    reported line powers and flatness."""
    config = json.loads((bundle / "config.json").read_text())
    report = json.loads((bundle / "metrics.json").read_text())["comb"]
    plan = json.loads((bundle / "drive_plan.json").read_text())
    comb = config["comb"]
    powers = comb_line_powers_dbm(plan, config["mzm"], comb["n_lines"], comb["spacing_hz"])
    problems = []
    reported = np.asarray(report["line_powers_dbm"], dtype=float)
    if reported.shape != powers.shape or np.max(np.abs(reported - powers)) > tol_db:
        problems.append(f"{bundle.name}: line powers {reported.tolist()} dBm, "
                        f"recomputed {powers.tolist()} dBm")
    flatness = float(np.ptp(powers))
    if abs(flatness - report["flatness_db"]) > 2 * tol_db:
        problems.append(f"{bundle.name}: flatness {report['flatness_db']} dB, "
                        f"recomputed {flatness} dB")
    return problems


# ---------------------------------------------------------------------------
# noise-limited EVM


def evm_closed_form_percent(osnr_db: float, bandwidth_hz: float,
                            reference_bandwidth_hz: float, kind: str = "sinc",
                            rolloff: float = 0.0) -> float:
    """``100 sqrt(kappa B / (B_ref 10^(OSNR/10)))``, kappa = 1 - r/4 for a
    raised cosine of roll-off r and 1 for sinc shaping."""
    kappa = 1.0 if kind == "sinc" else 1.0 - rolloff / 4.0
    return 100.0 * math.sqrt(kappa * bandwidth_hz
                             / (reference_bandwidth_hz * 10.0 ** (osnr_db / 10.0)))


def evm_tolerance(n_symbols: int) -> float:
    """Relative tolerance on a measured EVM: eight standard deviations of
    an EVM estimated from n Gaussian error samples, 1/(2 sqrt n) each, plus
    1.5 % for the data-aided gain tap and the measured signal power."""
    return 4.0 / math.sqrt(n_symbols) + 0.015


def check_evm(bundle: Path) -> list:
    """Every branch EVM against the closed form; an MZM sampler may add its
    distortion floor in quadrature."""
    config = json.loads((bundle / "config.json").read_text())
    reports = json.loads((bundle / "metrics.json").read_text())["reports"]
    shaping = config["shaping"]
    predicted = evm_closed_form_percent(
        config["noise"]["osnr_db"], config["plan"]["aggregate_bandwidth_hz"],
        config["noise"]["reference_bandwidth_hz"], shaping["kind"], shaping["rolloff"])
    tol = evm_tolerance(config["n_symbols"])
    floor = MZM_EVM_FLOOR_PERCENT if config["sampler"]["mode"] == "mzm" else 0.0
    low, high = predicted * (1 - tol), math.hypot(predicted, floor) * (1 + tol)
    return [f"{bundle.name}: {r['label']} EVM {r['evm_percent']:.4f} % outside "
            f"[{low:.4f}, {high:.4f}] % (closed form {predicted:.4f} %)"
            for r in reports if not low <= r["evm_percent"] <= high]


def check_q_to_ber(bundle: Path, rel_tol: float = 1e-6) -> list:
    """The estimated BER is the mean of 0.5 erfc(Q/sqrt 2) over I and Q."""
    problems = []
    for r in json.loads((bundle / "metrics.json").read_text())["reports"]:
        if r["q_capped"]:
            continue
        expected = 0.25 * sum(math.erfc(10.0 ** (r[k] / 20.0) / math.sqrt(2.0))
                              for k in ("q_i_db", "q_q_db"))
        if expected > 1e-300 and abs(r["ber_estimated"] - expected) > rel_tol * expected:
            problems.append(f"{bundle.name}: {r['label']} BER estimate "
                            f"{r['ber_estimated']:.6g}, from Q {expected:.6g}")
    return problems


# ---------------------------------------------------------------------------
# decisions on the constellation CSV


def constellation_points(order: int) -> tuple:
    """(points, symbol values) of the square Gray-coded QAM of ``order``."""
    side = int(round(math.sqrt(order)))
    levels = np.arange(side) * 2.0 - (side - 1)
    norm = math.sqrt(2.0 * np.mean(levels ** 2))
    bits_axis = side.bit_length() - 1
    points, values = [], []
    for level_i, code_i in zip(levels, _AXIS_CODES[side]):
        for level_q, code_q in zip(levels, _AXIS_CODES[side]):
            points.append((level_i + 1j * level_q) / norm)
            values.append((code_i << bits_axis) | code_q)
    return np.asarray(points), np.asarray(values)


def nearest_point_values(symbols: np.ndarray, order: int) -> np.ndarray:
    """Symbol value of the closest constellation point, by full search."""
    points, values = constellation_points(order)
    distance = np.abs(symbols[:, None] - points[None, :])
    return values[np.argmin(distance, axis=1)]


def check_constellation_csv(path: Path, order: int, n_symbols: int) -> list:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (n_symbols, 3):
        return [f"{path.parent.name}/{path.name}: shape {rows.shape}, "
                f"expected ({n_symbols}, 3)"]
    decided = nearest_point_values(rows[:, 0] + 1j * rows[:, 1], order)
    wrong = int(np.count_nonzero(decided != rows[:, 2].astype(int)))
    if wrong:
        return [f"{path.parent.name}/{path.name}: {wrong} of {n_symbols} "
                f"decisions differ from the nearest point"]
    return []


# ---------------------------------------------------------------------------
# band property of the multiplexed spectrum


def band_margin_db(freqs: np.ndarray, power_dbm: np.ndarray, bandwidth: float) -> float:
    """In-band peak minus the strongest row beyond +-B/2; inf if no row is."""
    edge = 0.5 * bandwidth * (1 + 1e-9)
    outside = np.abs(freqs) > edge
    if not np.any(outside):
        return math.inf
    return float(np.max(power_dbm[~outside]) - np.max(power_dbm[outside]))


def check_band(path: Path, bandwidth: float) -> list:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    margin = band_margin_db(rows[:, 0], rows[:, 1], bandwidth)
    if margin < BAND_MARGIN_DB:
        return [f"{path.parent.name}/{path.name}: out-of-band rows only "
                f"{margin:.1f} dB below the in-band peak"]
    return []


def check_transmission_bundle(bundle: Path, *, evm: bool) -> list:
    """Every check that applies to the files a transmission bundle holds."""
    config = json.loads((bundle / "config.json").read_text())
    order = 4 if config["modulation"] == "qpsk" else 16
    problems = check_q_to_ber(bundle)
    if evm:
        problems += check_evm(bundle)
    for path in sorted(bundle.glob("branch*_constellation.csv")):
        problems += check_constellation_csv(path, order, config["n_symbols"])
    spectrum = bundle / "spectrum_multiplexed.csv"
    if spectrum.exists():
        problems += check_band(spectrum, config["plan"]["aggregate_bandwidth_hz"])
    return problems
