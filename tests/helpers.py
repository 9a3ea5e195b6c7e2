"""Shared oracles for the test suite.

Everything here is deliberately independent of the package internals:
closed-form kernels evaluated point by point, direct O(n*m) sums instead of
FFTs, scipy special functions, and the time-domain definitions of fits the
package computes on spectral lines.  Tests compare the fast implementations
against these.
"""

from __future__ import annotations

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import erfcx

from nyquist_otdm import ChannelPlan, Signal, TimeGrid
from nyquist_otdm.link import dispersion_phase
from nyquist_otdm.modem import EvmResult, QFactorResult, _to_db
from nyquist_otdm.mzm import (
    CombReport,
    DrivePlan,
    FlatCombCalibration,
    MzmParams,
    eo_response,
)


def load_bench(name: str = "checks"):
    """A module of ``bench/``, read and never written: by default
    ``checks.py``, the package-free output checks."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def times(grid: TimeGrid) -> np.ndarray:
    """Every sample's time, the first at t = 0."""
    return np.arange(grid.n_samples) / grid.sample_rate


def tone(grid: TimeGrid, frequency: float, amplitude: float = 1.0,
         phase: float = 0.0) -> Signal:
    """Complex exponential ``amplitude * exp(j*(2*pi*f*t + phase))``."""
    if abs(frequency) >= grid.sample_rate / 2:
        raise ValueError("tone frequency must be below the Nyquist limit")
    return Signal(grid, amplitude * np.exp(1j * (2 * np.pi * frequency * times(grid)
                                                 + phase)))


def delay_signal(sig: Signal, delay: float) -> Signal:
    """Circularly delay a signal by ``delay`` seconds via a spectral phase ramp.

    Exact for the periodic, bandlimited signals used throughout; positive
    delay moves the waveform later in time.
    """
    if delay == 0.0:
        return sig
    n = sig.grid.n_samples
    first, band = sig._band
    f = np.fft.fftfreq(n, sig.grid.dt)[(first + np.arange(band.size)) % n]
    return Signal._of_bins(sig.grid, np.exp(-2j * np.pi * f * delay) * band, first)


def take_bins(sig: Signal, k) -> np.ndarray:
    """The bins of ``sig`` at the signed indices ``k``, in any order, by a
    modular index gather of the zero-filled whole grid."""
    n = sig.grid.n_samples
    first, band = sig._band
    filled = np.zeros(n, dtype=complex)
    filled[(first + np.arange(band.size)) % n] = band
    return filled[np.asarray(k) % n]


def freqs(grid: TimeGrid) -> np.ndarray:
    """Frequency of each bin of ``spectrum()`` on ``grid``, ascending."""
    return np.fft.fftshift(np.fft.fftfreq(grid.n_samples, grid.dt))


def periodic_sinc_kernel(x, m: int):
    """Interpolation kernel of ``m`` equispaced samples, evaluated at ``x``
    sample periods from the peak.

    Closed forms: sin(pi x)/(m sin(pi x/m)) for odd m, with the tangent
    variant for even m (the symmetric handling of the half-rate term).
    """
    x = np.asarray(x, dtype=float)
    rem = np.remainder(x, m)
    at_peak = np.isclose(rem, 0.0) | np.isclose(rem, float(m))
    xs = np.where(at_peak, 0.25, x)  # dodge 0/0; value replaced below
    if m % 2:
        vals = np.sin(np.pi * xs) / (m * np.sin(np.pi * xs / m))
    else:
        vals = np.sin(np.pi * xs) / (m * np.tan(np.pi * xs / m))
    out = np.where(at_peak, 1.0, vals)
    return out if out.ndim else float(out)


def interpolate_directly(symbols, symbol_rate: float, grid: TimeGrid,
                         t_offset: float = 0.0) -> np.ndarray:
    """Direct sum of kernel translates; O(n_samples * n_symbols)."""
    m = len(symbols)
    x = (times(grid) - t_offset) * symbol_rate  # in symbol periods
    out = np.zeros(grid.n_samples, dtype=complex)
    for k, sym in enumerate(symbols):
        out += sym * periodic_sinc_kernel(x - k, m)
    return out


def shape_directly(symbols, symbol_rate: float, rolloff: float, grid: TimeGrid,
                   t_offset: float = 0.0) -> np.ndarray:
    """Raised-cosine shaping as a filter, with explicit DFT sums: the symbols
    as impulses at their instants ``t_offset + k/symbol_rate``, which must
    fall on grid samples, through the response with half weight on an edge
    bin at rolloff 0, times the samples per symbol."""
    sps = round(grid.sample_rate / symbol_rate)
    start = round(t_offset * grid.sample_rate)
    impulses = np.zeros(grid.n_samples, dtype=complex)
    impulses[(start + sps * np.arange(len(symbols))) % grid.n_samples] = symbols
    lo, hi = (1 - rolloff) * symbol_rate / 2, (1 + rolloff) * symbol_rate / 2
    tol = grid.freq_resolution * 1e-6

    def response(f):
        f = np.abs(f)
        if rolloff == 0.0:
            edge = np.where(np.abs(f - lo) <= tol, 0.5, 0.0)
            return sps * np.where(f < lo - tol, 1.0, edge)
        ramp = 0.5 * (1 + np.cos(np.pi * (f - lo) / (hi - lo)))
        return sps * np.where(f <= lo, 1.0, np.where(f < hi, ramp, 0.0))

    return filter_directly(impulses, grid, response)


def sequence_directly(n_lines: int, bandwidth: float, t,
                      time_shift: float = 0.0):
    """Sinc-sequence by the cosine sum, one term at a time."""
    t = np.asarray(t, dtype=float)
    acc = np.ones_like(t)
    for order in range(1, (n_lines - 1) // 2 + 1):
        acc = acc + 2.0 * np.cos(2 * np.pi * order * bandwidth *
                                 (t - time_shift) / n_lines)
    return acc / n_lines


def require_same_grid(a: Signal, b: Signal) -> None:
    """Raise if two signals do not share an identical grid."""
    if a.grid != b.grid:
        raise ValueError("operands must share the same grid")


def rmse_percent(measured: Signal, reference: Signal) -> float:
    """RMS error between two signals as a percentage of the reference peak.

    ``100 * sqrt(mean |m - r|^2) / max |r|``.  Invariant under a common
    complex scale applied to both inputs.
    """
    require_same_grid(measured, reference)
    peak = float(np.max(np.abs(reference.samples)))
    if peak == 0.0:
        raise ValueError("reference signal is identically zero")
    err = measured.samples - reference.samples
    return float(100.0 * np.sqrt(np.mean(np.abs(err) ** 2)) / peak)


def filter_directly(samples, grid: TimeGrid, response) -> np.ndarray:
    """Apply ``response(f)`` to each DFT bin of ``samples`` by explicit
    O(n^2) DFT sums, with f the signed bin frequency."""
    n = grid.n_samples
    k = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / n)
    f = np.where(k < (n + 1) // 2, k, k - n) * grid.freq_resolution
    return dft.conj() @ (response(f) * (dft @ np.asarray(samples))) / n


def branch_drive(drive: DrivePlan, plan: ChannelPlan, branch: int) -> DrivePlan:
    """The drive at the branch's RF phase 2*pi*(branch-1)/N: the harmonic-k
    tone's phases lowered by k times it, which delays the whole transfer by
    the branch slot (branch-1)/B."""
    phase = 2 * math.pi * (branch - 1) / plan.n_branches
    tones = []
    for t in drive.tones:
        k = round(t.frequency / plan.symbol_rate)
        tones.append(replace(t, phase_arm1=t.phase_arm1 - k * phase,
                             phase_arm2=t.phase_arm2 - k * phase))
    return DrivePlan(tuple(tones), drive.bias_arm1, drive.bias_arm2)


def arm_field(extinction_db: float) -> float:
    """Field a of an arm whose power extinction X against an ideal partner,
    ((1+a)/(1-a))^2, is ``extinction_db``: a = (sqrt(X)-1)/(sqrt(X)+1), and
    1.0 for a perfect (infinite) one."""
    if math.isinf(extinction_db):
        return 1.0
    root = math.sqrt(10.0 ** (extinction_db / 10.0))
    return (root - 1.0) / (root + 1.0)


def modulate_directly(field: Signal, plan: DrivePlan, params: MzmParams) -> Signal:
    """The dual-drive MZM in volts and seconds, tone by tone: arm i
    accumulates phase ``bias_i + sum_k pi*(A_ik*eo(f_k))/v_pi *
    sin(2*pi*f_k*t + phase_ik)``; the output is the loss-scaled average of
    the two arm fields with their static amplitude imbalance."""
    grid = field.grid
    t = times(grid)
    phi1 = np.full(grid.n_samples, float(plan.bias_arm1))
    phi2 = np.full(grid.n_samples, float(plan.bias_arm2))
    for tone_ in plan.tones:
        if tone_.frequency >= grid.sample_rate / 2:
            raise ValueError("drive tone at or above the grid Nyquist limit")
        depth = math.pi * eo_response(tone_.frequency, params) / params.v_pi
        w = 2 * np.pi * tone_.frequency
        phi1 += depth * tone_.amplitude_arm1 * np.sin(w * t + tone_.phase_arm1)
        phi2 += depth * tone_.amplitude_arm2 * np.sin(w * t + tone_.phase_arm2)
    a1, a2 = arm_field(params.dc_extinction_arm1_db), arm_field(params.dc_extinction_arm2_db)
    loss = 10.0 ** (-params.insertion_loss_db / 20.0)
    transfer = loss * 0.5 * (a1 * np.exp(1j * phi1) + a2 * np.exp(1j * phi2))
    return Signal(grid, transfer * field.samples)


def sampler_of(point, modulation_index: float, params: MzmParams, spacing: float,
               gain: complex = 1.0, n_lines: int | None = None) -> FlatCombCalibration:
    """A calibration holding an arbitrary drive ``point`` at comb
    ``spacing``, to sample with: the demultiplexer reads only its point,
    index, device and gain, and its volts plan the spacing, the one figure
    its report holds besides the line count.  That count is ``n_lines``,
    by default the one a calibration of ``point`` targets; the
    demultiplexer takes a sampler whose count is its plan's branches."""
    if n_lines is None:
        n_lines = 2 * len(point) - 1
    report = CombReport(n_lines, spacing, (), (), math.nan, math.nan)
    return FlatCombCalibration(point=tuple(float(v) for v in point),
                               modulation_index=modulation_index, params=params,
                               report=report, converged=True, gain=gain,
                               waveform_rmse_percent=math.nan)


def gate_directly(sig: Signal, plan: ChannelPlan, branch: int,
                  sampler=None) -> np.ndarray:
    """The signal times the branch's sampling pulse train on the full grid:
    the cosine-sum sequence, or the MZM transfer of the calibration's
    volts plan at the branch RF phase times the calibration gain."""
    if sampler is None:
        return sig.samples * sequence_directly(
            plan.n_branches, plan.aggregate_bandwidth, times(sig.grid),
            plan.slot(branch))
    drive = branch_drive(sampler.plan, plan, branch)
    return modulate_directly(sig, drive, sampler.params).samples * sampler.gain


def demultiplex_directly(sig: Signal, plan: ChannelPlan, branch: int,
                         sampler=None) -> np.ndarray:
    """Time-domain demultiplexing: gate, keep |f| < B/(2N) with half weight
    on the edge, and restore the factor N."""
    grid = sig.grid
    edge = plan.detection_half_width
    tol = grid.freq_resolution * 1e-6

    def lowpass(f):
        return np.where(np.abs(f) < edge - tol, 1.0,
                        np.where(np.abs(np.abs(f) - edge) <= tol, 0.5, 0.0))

    return plan.n_branches * filter_directly(
        gate_directly(sig, plan, branch, sampler), grid, lowpass)


def propagate_directly(sig: Signal, fiber, sign: float = 1.0,
                       amplitude: float = 1.0) -> np.ndarray:
    """The span's quadratic phase (``sign`` -1 undoes it) and a scalar
    amplitude applied bin by bin with explicit DFT sums."""
    return filter_directly(
        sig.samples, sig.grid,
        lambda f: amplitude * np.exp(1j * sign * dispersion_phase(fiber, f)))


def random_symbols(plan: ChannelPlan, n_symbols: int, rng,
                   constellation=None) -> list[np.ndarray]:
    """One random symbol block per branch; Gaussian symbols unless a
    constellation's points are given."""
    blocks = []
    for _ in range(plan.n_branches):
        if constellation is None:
            syms = rng.standard_normal(n_symbols) + 1j * rng.standard_normal(
                n_symbols)
        else:
            syms = rng.choice(constellation, size=n_symbols)
        blocks.append(syms)
    return blocks


def grid_for(plan: ChannelPlan, n_symbols: int,
             oversampling: int = 8) -> TimeGrid:
    """Smallest grid holding ``n_symbols`` per branch at the usual rate."""
    sample_rate = oversampling * plan.aggregate_bandwidth
    n = sample_rate * n_symbols / plan.symbol_rate
    return TimeGrid(sample_rate, int(round(n)))


def align_delay_gain(measured: Signal, reference: Signal):
    """Best circular delay and complex gain mapping ``measured`` onto
    ``reference``, searched in the time domain.

    Returns ``(delay, gain, aligned)`` with ``aligned = gain *
    delay_signal(measured, delay)`` minimizing the residual to the
    reference in the least-squares sense: a bounded search of the
    correlation within one sample of its best sample.
    """
    require_same_grid(measured, reference)
    n = measured.grid.n_samples
    mf = np.fft.fft(measured.samples)
    rf = np.fft.fft(reference.samples)
    if not np.any(mf):
        raise ValueError("cannot align a zero signal")
    cross = rf * np.conj(mf)
    coarse = np.fft.ifft(cross)
    s0 = int(np.argmax(np.abs(coarse)))
    dt = measured.grid.dt
    f = np.fft.fftfreq(n, dt)

    def neg_corr(tau: float) -> float:
        return -abs(np.sum(cross * np.exp(2j * np.pi * f * tau))) / n

    tau0 = s0 * dt
    res = minimize_scalar(neg_corr, bounds=(tau0 - dt, tau0 + dt),
                          method="bounded", options={"xatol": dt * 1e-9})
    # keep the delay in the principal period, smallest magnitude
    period = measured.grid.duration
    tau = float((res.x + period / 2) % period - period / 2)
    shifted = delay_signal(measured, tau)
    gain = np.vdot(shifted.samples, reference.samples) / np.vdot(
        shifted.samples, shifted.samples)
    aligned = Signal(measured.grid, gain * shifted.samples)
    return tau, complex(gain), aligned


def ber_log10_erfcx(q_linear: float) -> float:
    """log10 of 0.5 * erfc(q / sqrt(2)) through the scaled complementary
    error function, erfc(x) = exp(-x**2) * erfcx(x), which stays finite far
    below float underflow."""
    x = q_linear / math.sqrt(2.0)
    return math.log10(0.5) + math.log10(float(erfcx(x))) - x * x * math.log10(math.e)


def _axis_q_linear(rx_axis: np.ndarray, ref_axis: np.ndarray) -> float:
    """Worst adjacent-level Q of one quadrature, one masked pass per level;
    inf when the reference holds a single level, which has no pair."""
    levels = np.unique(ref_axis)
    mu, sigma = [], []
    for lv in levels:
        cluster = rx_axis[ref_axis == lv]
        mu.append(float(np.mean(cluster)))
        sigma.append(float(np.std(cluster)))
    worst = math.inf
    for i in range(len(levels) - 1):
        denom = sigma[i] + sigma[i + 1]
        q = math.inf if denom == 0.0 else (mu[i + 1] - mu[i]) / denom
        worst = min(worst, q)
    return worst


def q_factor_directly(rx, ref, n_blocks: int = 10) -> QFactorResult:
    """:func:`nyquist_otdm.modem.q_factor` block by block: each block of
    ``np.array_split`` uses the levels present in it, and a block with fewer
    than 2 is skipped."""
    rx, ref = np.asarray(rx, dtype=complex), np.asarray(ref, dtype=complex)
    out = {}
    for name, rx_ax, ref_ax in (("i", rx.real, ref.real), ("q", rx.imag, ref.imag)):
        db, lin, capped, floored = _to_db(_axis_q_linear(rx_ax, ref_ax))
        blocks = []
        n_b = max(1, min(n_blocks, rx_ax.size))
        for r_b, f_b in zip(np.array_split(rx_ax, n_b), np.array_split(ref_ax, n_b)):
            if np.unique(f_b).size >= 2:
                blocks.append(_to_db(_axis_q_linear(r_b, f_b))[0])
        std = float(np.std(blocks, ddof=1)) if len(blocks) > 1 else 0.0
        out[name] = (db, lin, std, capped, floored)
    (i_db, i_lin, i_std, i_cap, i_floor), (q_db, q_lin, q_std, q_cap, q_floor) = (
        out["i"], out["q"])
    return QFactorResult(i_db, q_db, i_lin, q_lin, i_std, q_std,
                         i_cap, q_cap, i_floor, q_floor)


def evm_directly(rx, ref, n_blocks: int = 10) -> EvmResult:
    """:func:`nyquist_otdm.modem.evm` with one mean per ``np.array_split``
    block."""
    rx, ref = np.asarray(rx, dtype=complex), np.asarray(ref, dtype=complex)
    ref_rms = np.sqrt(np.mean(np.abs(ref) ** 2))

    def one(rx_b, ref_b):
        return 100.0 * np.sqrt(np.mean(np.abs(rx_b - ref_b) ** 2)) / ref_rms

    n_blocks = max(1, min(n_blocks, rx.size))
    blocks = [one(r, f) for r, f in zip(np.array_split(rx, n_blocks),
                                        np.array_split(ref, n_blocks))]
    std = float(np.std(blocks, ddof=1)) if len(blocks) > 1 else 0.0
    return EvmResult(float(one(rx, ref)), std, tuple(float(b) for b in blocks))


def comb_lines_directly(n_lines: int, modulation_index: float, arms, x,
                        mult: int):
    """Lines -h..h and mean power of one push-pull drive ``x`` (``[bias
    difference, arm-2 ratio, scale of harmonic 2, ...]`` in modulation-index
    units) from all ``mult`` samples of one period: the transfer's FFT /
    ``mult`` at the line orders, and the mean of |transfer|^2."""
    h = (n_lines - 1) // 2
    harmonics = np.cos(2 * np.pi * np.outer(np.arange(1, h + 1), np.arange(mult)) / mult)
    drive = modulation_index * np.concatenate(([1.0], x[2:])) @ harmonics
    half_bias = 0.5 * x[0]
    transfer = (arms[0] * np.exp(1j * (half_bias - drive))
                + arms[1] * np.exp(1j * (x[1] * drive - half_bias)))
    bins = np.fft.fft(transfer) / mult
    return bins[np.arange(-h, h + 1)], float(np.mean(np.abs(transfer) ** 2))
