"""Acceptance checks for the whole package, one test per criterion.

Each test is self-contained and runs against the public API; tolerances and
time budgets are asserted inside the tests themselves.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from nyquist_otdm import ChannelPlan
from nyquist_otdm.demux import demultiplex
from nyquist_otdm.link import FiberSpec, compensate_dispersion, dispersion_phase, propagate
from nyquist_otdm.modem import (
    Constellation,
    ber_count,
    ber_estimate,
    q_factor,
    qam_demap,
    qam_map,
)
from nyquist_otdm.mzm import MzmParams, calibrate_flat_comb
from nyquist_otdm.nyquist import nyquist_interpolate, otdm_multiplex, sample_symbols
from nyquist_otdm.scenario import parse_scenario, run_scenario, write_bundle

from helpers import grid_for

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "paper-scenarios"

DEVICE = MzmParams(v_pi=0.42, eo_3db_bandwidth=16e9)


def _random_constellation_symbols(plan, constellation, n_symbols, rng):
    return [constellation.points[rng.integers(0, constellation.order, n_symbols)]
            for _ in range(plan.n_branches)]


def test_criterion_01_round_trip_exactness():
    """Mux then ideal demux returns every branch's symbols to 1e-9 relative,
    for QPSK and 16-QAM, across 100 seeds, in under 10 seconds."""
    plan = ChannelPlan(3, 24e9)
    n_symbols = 33
    grid = grid_for(plan, n_symbols)
    start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for constellation in (Constellation.of(4), Constellation.of(16)):
            blocks = _random_constellation_symbols(plan, constellation,
                                                   n_symbols, rng)
            agg = otdm_multiplex(blocks, plan.symbol_rate, plan, grid)
            branches = demultiplex(agg, plan)
            for l, (sent, y) in enumerate(zip(blocks, branches), start=1):
                got = sample_symbols(y, plan.symbol_rate, t_offset=plan.slot(l))
                assert np.all(np.abs(got - sent) <= 1e-9 * np.abs(sent))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"round-trip check took {elapsed:.1f} s"


def test_criterion_02_construction_equivalence():
    """The sequence-gated branch sum and a single aggregate-rate
    interpolation of the interleaved symbols give the same waveform."""
    plan = ChannelPlan(3, 24e9)
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        for n_symbols in (32, 33):  # both symbol-count parities
            grid = grid_for(plan, n_symbols)
            blocks = _random_constellation_symbols(
                plan, Constellation.of(4), n_symbols, rng)
            gated = otdm_multiplex(blocks, plan.symbol_rate, plan, grid)
            interleaved = np.empty(plan.n_branches * n_symbols, dtype=complex)
            for l, block in enumerate(blocks, start=1):
                interleaved[l - 1::plan.n_branches] = block
            direct = nyquist_interpolate(interleaved, plan.aggregate_bandwidth, grid)
            scale = np.max(np.abs(gated.samples))
            assert np.max(np.abs(gated.samples - direct.samples)) <= 1e-9 * scale


def _isolation_db(plan, sampler, seed):
    """Worst symbol-instant leakage into the quiet branches, dB below the
    single active branch."""
    rng = np.random.default_rng(seed)
    n_symbols = 33
    grid = grid_for(plan, n_symbols)
    active = Constellation.of(4).points[rng.integers(0, 4, n_symbols)]
    quiet = np.zeros(n_symbols, dtype=complex)
    agg = otdm_multiplex([quiet, active, quiet], plan.symbol_rate, plan, grid)
    ref_power = float(np.mean(np.abs(active) ** 2))
    worst = -math.inf
    branches = demultiplex(agg, plan, sampler=sampler)
    for l in (1, 3):
        got = sample_symbols(branches[l - 1], plan.symbol_rate,
                             t_offset=plan.slot(l))
        leak = float(np.mean(np.abs(got) ** 2))
        if leak > 0.0:
            worst = max(worst, 10 * math.log10(leak / ref_power))
    return worst


def test_criterion_03_single_branch_isolation():
    """One active branch leaks at least 60 dB (ideal sampler) / 40 dB
    (calibrated MZM sampler) below itself into the other branches."""
    plan = ChannelPlan(3, 24e9)
    for seed in (11, 12, 13):
        assert _isolation_db(plan, None, seed) < -60.0

    cal = calibrate_flat_comb(3, plan.symbol_rate, DEVICE,
                              flatness_target_db=0.1)
    assert cal.report.flatness_db <= 0.1
    for seed in (11, 12, 13):
        assert _isolation_db(plan, cal, seed) < -40.0


def test_criterion_04_flat_comb_calibration():
    """Three-line combs at 10/20/30 GHz reach <= 0.1 dB flatness and the
    pulse train matches the ideal sequence to <= 1% RMSE, each within 60 s."""
    for spacing in (10e9, 20e9, 30e9):
        start = time.perf_counter()
        cal = calibrate_flat_comb(3, spacing, DEVICE, flatness_target_db=0.1)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"{spacing:g} Hz calibration took {elapsed:.0f} s"
        assert cal.converged
        assert cal.report.flatness_db <= 0.1, (
            f"{spacing:g} Hz: flatness {cal.report.flatness_db:.4f} dB")
        assert cal.waveform_rmse_percent <= 1.0, (
            f"{spacing:g} Hz: waveform RMSE {cal.waveform_rmse_percent:.3f}%")


def test_criterion_05_q_to_ber_formula():
    """ber_estimate at Q = 18.46 dB lands in [1e-18, 1e-16] and the erfc
    evaluation tracks a numerical Gaussian-tail integral to 1e-3 relative."""
    q_lin = 10.0 ** (18.46 / 20.0)
    ber = ber_estimate(q_lin)
    assert 1e-18 <= ber <= 1e-16

    def tail(q):
        val, _ = quad(lambda x: math.exp(-0.5 * x * x), q, np.inf,
                      epsabs=0.0, epsrel=1e-10)
        return val / math.sqrt(2.0 * math.pi)

    for q in np.linspace(2.0, 9.0, 15):
        assert ber_estimate(q) == pytest.approx(tail(q), rel=1e-3)


def test_criterion_06_estimated_vs_counted_ber():
    """On synthetic Gaussian QPSK at BER ~5e-4, the Q-based estimate agrees
    with error counting over 10^7 bits within a factor of 3."""
    start = time.perf_counter()
    c = Constellation.of(4)
    n_bits = 10_000_000
    n_symbols = n_bits // c.bits_per_symbol
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
    tx = qam_map(bits, c)
    sigma_axis = (1 / math.sqrt(2)) / 3.2905  # per-axis Q of ~3.29
    rx = tx + sigma_axis * (
        rng.standard_normal(n_symbols) + 1j * rng.standard_normal(n_symbols))

    counted = ber_count(bits, qam_demap(rx, c))
    assert 1e-4 <= counted.rate <= 1e-2

    qf = q_factor(rx, tx)
    estimated = 0.5 * (ber_estimate(qf.q_i_linear) + ber_estimate(qf.q_q_linear))
    ratio = estimated / counted.rate
    assert 1 / 3 < ratio < 3, (
        f"estimated {estimated:.3e} vs counted {counted.rate:.3e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"Monte-Carlo check took {elapsed:.0f} s"


def test_criterion_07_dispersion_oracle():
    """The quadratic dispersion phase matches the closed form to 1e-9
    relative and compensation undoes propagation to 1e-9."""
    fiber = FiberSpec(length_km=30.0, dispersion_ps_nm_km=17.0,
                      attenuation_db_km=0.0, reference_wavelength_nm=1550.0)
    got = float(dispersion_phase(fiber, 10e9))
    assert got == pytest.approx(1.2839932546359234, rel=1e-9)

    plan = ChannelPlan(3, 24e9)
    rng = np.random.default_rng(42)
    grid = grid_for(plan, 33)
    agg = otdm_multiplex(
        _random_constellation_symbols(plan, Constellation.of(4), 33, rng),
        plan.symbol_rate, plan, grid)
    back = compensate_dispersion(propagate(agg, fiber), fiber)
    scale = np.max(np.abs(agg.samples))
    assert np.max(np.abs(back.samples - agg.samples)) <= 1e-9 * scale


def test_criterion_08_branch_symmetry():
    """In the bundled MZM-sampled 30 km scenario at OSNR 33 dB the three
    branch EVMs agree within 10% relative."""
    raw = json.loads((SCENARIO_DIR / "nyquist_qpsk_8gbd_30km.json").read_text())
    sc = parse_scenario(raw)
    assert sc.config["sampler"]["mode"] == "mzm"
    assert sc.config["noise"]["osnr_db"] == 33.0
    bundle = run_scenario(sc)
    evms = [r.evm_percent for r in bundle.metrics]
    assert len(evms) == 3
    spread = (max(evms) - min(evms)) / min(evms)
    assert spread <= 0.10, f"branch EVMs {evms} spread {spread:.1%}"


def test_criterion_09_osnr_monotonicity():
    """With the bit and noise seeds pinned, raising OSNR from 15 to 40 dB
    never raises any branch's EVM and strictly lowers its estimated BER."""
    base = {
        "version": 1,
        "seed": 3,
        "plan": {"n_branches": 3, "aggregate_bandwidth_hz": 24e9},
        "modulation": "qpsk",
        "n_symbols": 129,
        "noise": {"osnr_db": None, "seed": 77},
    }
    evm_by_branch, ber_by_branch = [], []
    for osnr in (15.0, 20.0, 25.0, 30.0, 35.0, 40.0):
        cfg = json.loads(json.dumps(base))
        cfg["noise"]["osnr_db"] = osnr
        bundle = run_scenario(parse_scenario(cfg))
        evm_by_branch.append([r.evm_percent for r in bundle.metrics])
        ber_by_branch.append([r.ber_estimated_log10 for r in bundle.metrics])
    for l in range(3):
        evms = [row[l] for row in evm_by_branch]
        bers = [row[l] for row in ber_by_branch]
        assert all(b <= a for a, b in zip(evms, evms[1:])), evms
        assert all(b < a for a, b in zip(bers, bers[1:])), bers


def test_criterion_10_bit_identical_reruns(tmp_path):
    """Re-running a scenario with the same config and seed writes files that
    are identical byte for byte, in both transmission and comb modes."""
    def run_twice(raw, tag):
        out = []
        for run in ("first", "second"):
            bundle = run_scenario(parse_scenario(json.loads(json.dumps(raw))))
            out.append(write_bundle(bundle, tmp_path / f"{tag}-{run}"))
        assert [p.name for p in out[0]] == [p.name for p in out[1]]
        for a, b in zip(out[0], out[1]):
            assert a.read_bytes() == b.read_bytes(), f"{tag}: {a.name} differs"

    transmission = {
        "version": 1,
        "seed": 5,
        "plan": {"n_branches": 3, "aggregate_bandwidth_hz": 24e9},
        "modulation": "16qam",
        "n_symbols": 33,
        "noise": {"osnr_db": 28.0},
        "outputs": ["metrics", "spectra", "constellation", "eye"],
    }
    run_twice(transmission, "transmission")

    comb = json.loads((SCENARIO_DIR / "comb_20ghz.json").read_text())
    run_twice(comb, "comb")
