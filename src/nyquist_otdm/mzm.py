"""Dual-drive Mach-Zehnder modulator model and flat-comb calibration.

The modulator multiplies the input field by the interference of two
phase-modulated arms.  Driving it with harmonics of a base frequency at the
right bias imbalance produces a flat N-line comb, i.e. a periodic sinc-pulse
sequence.

:func:`calibrate_flat_comb` finds that operating point by direct search.
The push-pull drive is a -cos series, even in time, so its pulse sits at
t = 0, where the sampler reads it.  The transfer is periodic in the comb
spacing and even, so the search evaluates each trial drive on half a period,
as harmonic lines: each line is a weighted cosine sum over those samples,
exactly the period's DFT, and the least-squares complex gain onto the ideal
sequence at zero delay, which has only N lines, is their mean plus a
Parseval residual.  Scans and line searches evaluate their trial drives as
one batch of transfers.  The search works in modulation-index units; the
chosen drive is mapped to volts in closed form, then fitted and reported on
one period with :func:`modulate` and :func:`comb_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Signal, TimeGrid, _require_odd_count, constant, spectrum

__all__ = [
    "MzmParams",
    "DriveTone",
    "DrivePlan",
    "CombReport",
    "FlatCombCalibration",
    "eo_response",
    "arm_amplitude",
    "push_pull_plan",
    "modulate",
    "comb_report",
    "calibrate_flat_comb",
    "format_comb_table",
]

_EO_MODELS = ("single_pole", "gaussian", "flat")


@dataclass(frozen=True)
class MzmParams:
    """Static device parameters of a dual-drive MZM.

    ``v_pi`` is the RF half-wave voltage (V), ``eo_3db_bandwidth`` the
    electro-optic 3 dB point (Hz).  The per-arm DC extinction ratios (dB)
    set a static arm-amplitude imbalance; ``math.inf`` means a perfect arm.
    """

    v_pi: float
    eo_3db_bandwidth: float
    dc_extinction_arm1_db: float = 40.0
    dc_extinction_arm2_db: float = 37.0
    insertion_loss_db: float = 0.0
    eo_model: str = "single_pole"

    def __post_init__(self):
        if not 0 < self.v_pi < math.inf:
            raise ValueError("v_pi must be finite and positive")
        if not 0 < self.eo_3db_bandwidth < math.inf:
            raise ValueError("eo_3db_bandwidth must be finite and positive")
        if not self.dc_extinction_arm1_db > 0 or not self.dc_extinction_arm2_db > 0:
            raise ValueError("DC extinction ratios must be positive (dB)")
        if not 0 <= self.insertion_loss_db < math.inf:
            raise ValueError("insertion_loss_db must be finite and >= 0")
        if self.eo_model not in _EO_MODELS:
            raise ValueError(f"eo_model must be one of {_EO_MODELS}")


@dataclass(frozen=True)
class DriveTone:
    """One RF tone applied to both arms (amplitudes in volts, phases in rad)."""

    frequency: float
    amplitude_arm1: float
    amplitude_arm2: float
    phase_arm1: float
    phase_arm2: float

    def __post_init__(self):
        if not self.frequency > 0:
            raise ValueError("tone frequency must be positive")


@dataclass(frozen=True)
class DrivePlan:
    """RF drive of the modulator: a set of tones plus per-arm DC biases (rad)."""

    tones: tuple[DriveTone, ...]
    bias_arm1: float = 0.0
    bias_arm2: float = 0.0

    def __post_init__(self):
        freqs = [t.frequency for t in self.tones]
        if len(set(freqs)) != len(freqs):
            raise ValueError("drive tones must have distinct frequencies")


@dataclass(frozen=True)
class CombReport:
    """Measured line powers and quality figures of a generated comb."""

    n_lines: int
    spacing_hz: float
    line_frequencies_hz: tuple[float, ...]
    line_powers_dbm: tuple[float, ...]
    flatness_db: float
    sideband_suppression_db: float


@dataclass(frozen=True)
class FlatCombCalibration:
    """Result of :func:`calibrate_flat_comb`.

    ``gain`` maps the raw modulator output onto the unit-peak ideal sequence
    (insertion loss and the bias-dependent output power folded in): multiply
    the output by it to reference the comb back to the ideal pulse train.
    """

    plan: DrivePlan
    params: MzmParams
    report: CombReport
    converged: bool
    gain: complex
    waveform_rmse_percent: float


def eo_response(f, params: MzmParams):
    """Normalized electro-optic magnitude response at frequency ``f`` (Hz).

    ``single_pole`` (default) and ``gaussian`` both pass 1 at DC and
    1/sqrt(2) at the 3 dB point; ``flat`` models an ideal drive path.
    """
    f = np.abs(np.asarray(f, dtype=float))
    fc = params.eo_3db_bandwidth
    if params.eo_model == "single_pole":
        resp = 1.0 / np.sqrt(1.0 + (f / fc) ** 2)
    elif params.eo_model == "gaussian":
        resp = np.exp(-0.5 * math.log(2.0) * (f / fc) ** 2)
    else:
        resp = np.ones_like(f)
    if resp.ndim == 0:
        return float(resp)
    return resp


def arm_amplitude(extinction_db: float) -> float:
    """Field transmission of one arm from its DC extinction ratio.

    Each arm is referenced against an ideal partner: an arm of amplitude a
    interfering with a unit arm nulls to ((1-a)/(1+a))^2, so a measured
    power extinction X gives a = (sqrt(X)-1)/(sqrt(X)+1).
    """
    if extinction_db > 400.0:  # the ratio below is 1.0 from about 331 dB on
        return 1.0
    g = 10.0 ** (extinction_db / 20.0)
    return (g - 1.0) / (g + 1.0)


def push_pull_plan(frequencies, amplitudes, bias_difference: float,
                   arm2_drive_ratio: float = 1.0) -> DrivePlan:
    """Anti-phase (push-pull) drive plan with symmetric biases.

    Arm 1 is driven by -cos and arm 2 by +cos, so the drive is even in time
    and the generated pulse sits at t = 0, on an unshifted ideal sequence.
    ``arm2_drive_ratio`` scales every arm-2 amplitude relative to arm 1,
    the knob used to balance arms of unequal optical transmission.
    """
    tones = tuple(
        DriveTone(f, a, arm2_drive_ratio * a, -math.pi / 2, math.pi / 2)
        for f, a in zip(frequencies, amplitudes, strict=True)
    )
    return DrivePlan(tones, bias_arm1=0.5 * bias_difference,
                     bias_arm2=-0.5 * bias_difference)


def modulate(field_in: Signal, plan: DrivePlan, params: MzmParams) -> Signal:
    """Multiply a field by the dual-drive MZM transfer waveform.

    Arm i accumulates phase ``bias_i + sum_k pi*(A_ik*eo(f_k))/v_pi *
    sin(2*pi*f_k*t + phase_ik)``; the output is the loss-scaled average of
    the two arm fields with their static amplitude imbalance.
    """
    grid = field_in.grid
    t = grid.t
    phi1 = np.full(grid.n_samples, float(plan.bias_arm1))
    phi2 = np.full(grid.n_samples, float(plan.bias_arm2))
    for tone_ in plan.tones:
        if tone_.frequency >= grid.nyquist:
            raise ValueError(
                f"drive tone at {tone_.frequency:g} Hz is at or above the "
                f"grid Nyquist limit {grid.nyquist:g} Hz"
            )
        depth = math.pi * eo_response(tone_.frequency, params) / params.v_pi
        w = 2 * np.pi * tone_.frequency
        phi1 += depth * tone_.amplitude_arm1 * np.sin(w * t + tone_.phase_arm1)
        phi2 += depth * tone_.amplitude_arm2 * np.sin(w * t + tone_.phase_arm2)
    a1 = arm_amplitude(params.dc_extinction_arm1_db)
    a2 = arm_amplitude(params.dc_extinction_arm2_db)
    loss = 10.0 ** (-params.insertion_loss_db / 20.0)
    transfer = loss * 0.5 * (a1 * np.exp(1j * phi1) + a2 * np.exp(1j * phi2))
    return Signal(grid, transfer * field_in.samples)


def comb_report(period_spectrum: np.ndarray, n_lines: int, spacing: float) -> CombReport:
    """Measure flatness and sideband suppression of a comb from
    :func:`spectrum` of exactly one comb period, where line k sits at index
    ``len // 2 + k``.  The ``n_lines`` nominal lines are k * ``spacing`` from
    the carrier; suppression is taken against the two orders beyond them on
    each side, which the array must hold.
    """
    _require_odd_count(n_lines, "n_lines")
    half = (n_lines - 1) // 2
    centre = len(period_spectrum) // 2
    if centre + half + 2 >= len(period_spectrum):  # then also centre < half + 2
        raise ValueError(f"a spectrum of {len(period_spectrum)} bins does not hold "
                         f"the orders +/-{half + 2} of a {n_lines}-line comb")

    def line_power_dbm(k: int) -> float:
        p = abs(period_spectrum[centre + k]) ** 2
        return float(10.0 * np.log10(p)) if p > 0 else float("-inf")

    nominal_orders = range(-half, half + 1)
    powers = tuple(line_power_dbm(k) for k in nominal_orders)
    unwanted = [line_power_dbm(s * k) for k in (half + 1, half + 2) for s in (-1, 1)]
    flatness = max(powers) - min(powers)
    suppression = min(powers) - max(unwanted)
    return CombReport(
        n_lines=n_lines,
        spacing_hz=float(spacing),
        line_frequencies_hz=tuple(float(k * spacing) for k in nominal_orders),
        line_powers_dbm=powers,
        flatness_db=float(flatness),
        sideband_suppression_db=float(suppression),
    )


# ---------------------------------------------------------------------------
# flat-comb calibration on half a period

_SWEEPS = 8          # coordinate-descent sweeps per stage
_LINE_POINTS = 17    # points per level of a bracket-and-zoom line search
_GRID = np.linspace(0.0, 1.0, _LINE_POINTS)
_MIN_GAIN = 3e-6     # a descent sweep gaining less than this is the last
# Above every RMSE percent: the least-squares residual never exceeds the
# norm of the unit-peak ideal, 100/sqrt(n_lines) %.
_OVER_LIMIT = 100.0


class _OnePeriodComb:
    """Comb line amplitudes and zero-delay waveform error of a batch of
    push-pull drives in modulation-index units, each a row ``[bias
    difference, arm-2 drive ratio, scale of harmonic 2, ...]`` (the
    fundamental's index is pinned at ``modulation_index``).

    Harmonic k of arm 1 carries the phase ``-m_k cos(2 pi k t / T)`` and
    arm 2 ``+ratio m_k cos(2 pi k t / T)``, whatever the spacing, V_pi or
    electro-optic response that produce it, and ``arms`` are the two arm
    fields' weights in the output.  One period of ``mult`` samples holds
    every line: its DFT / ``mult`` is the full grid's spectrum at the line
    bins.  The drive is a cosine series, so sample t equals sample mult - t,
    and that DFT folds exactly onto t = 0..mult/2: line k = line -k =
    ``sum_t w_t T_t cos(2 pi k t / mult)``, w = (1, 2, ..., 2, 1) / mult, and
    the mean power is ``sum_t w_t |T_t|^2``.  The pulse sits at t = 0, where
    the ideal sequence has the lines 1/n_lines at orders -h..h: the best
    complex gain onto it rests on ``corr = (L_0 + 2 sum_{k>0} L_k) /
    n_lines`` and, by Parseval, leaves the mean square residual ``1/n_lines
    - |corr|^2 / power`` against the unit-peak ideal.
    """

    def __init__(self, n_lines: int, modulation_index: float, arms):
        h = (n_lines - 1) // 2
        self.mult = max(32, 2 * (n_lines + 5))  # Nyquist clears the report's lines
        self.n_lines, self._arms = n_lines, arms
        t = np.arange(self.mult // 2 + 1)  # the half period t = 0..mult/2
        self._phase = 1j * modulation_index * np.cos(
            2 * np.pi * np.outer(np.arange(1, h + 1), t) / self.mult)
        self._weights = np.where((t == 0) | (t == t[-1]), 1.0, 2.0) / self.mult
        self._dft = self._weights * np.cos(
            2 * np.pi * np.outer(np.arange(h + 1), t) / self.mult)

    def lines(self, x: np.ndarray):
        """Lines 0..h and mean power of each drive, by elementwise sums
        (no matrix product), so a drive scores the same bits in any batch."""
        drive = self._phase[0]
        for j in range(2, x.shape[-1]):
            drive = drive + x[..., j:j + 1] * self._phase[j - 1]
        half_bias = 0.5j * x[..., :1]
        transfer = (self._arms[0] * np.exp(half_bias - drive)
                    + self._arms[1] * np.exp(x[..., 1:2] * drive - half_bias))
        power = ((transfer.real ** 2 + transfer.imag ** 2) * self._weights).sum(axis=-1)
        return (transfer[..., None, :] * self._dft).sum(axis=-1), power

    @staticmethod
    def flatness_db(lines: np.ndarray) -> np.ndarray:
        p = lines.real ** 2 + lines.imag ** 2
        return 10.0 * np.log10(p.max(axis=-1)) - 10.0 * np.log10(p.min(axis=-1))

    def rmse_percent(self, lines: np.ndarray, power: np.ndarray) -> np.ndarray:
        corr = (lines[..., 0] + 2.0 * lines[..., 1:].sum(axis=-1)) / self.n_lines
        corr2 = corr.real ** 2 + corr.imag ** 2
        return 100.0 * np.sqrt(np.maximum(1.0 / self.n_lines - corr2 / power, 0.0))


def _line_search(objective, lo, hi, xatol: float):
    """Bracket-and-zoom minimisation over ``[lo, hi]`` for each row of a
    batch: ``objective`` takes all rows' ``_LINE_POINTS`` points as one
    (rows, points) array; each level re-grids one step either side of the
    best point, until the step is below ``xatol``.  Returns ``(x, f)``."""
    lo, hi = np.atleast_1d(lo).astype(float), np.atleast_1d(hi).astype(float)
    rows = np.arange(lo.size)
    best_x, best_f = np.zeros(lo.size), np.full(lo.size, math.inf)
    while True:
        x = lo[:, None] + (hi - lo)[:, None] * _GRID
        f = objective(x)
        j = f.argmin(axis=1)
        f = f[rows, j]
        better = f < best_f
        best_x, best_f = np.where(better, x[rows, j], best_x), np.where(better, f, best_f)
        step = (hi - lo) / (_LINE_POINTS - 1)
        if (step < xatol).all():
            return best_x, best_f
        lo, hi = np.maximum(lo, best_x - step), np.minimum(hi, best_x + step)


def _along(x: np.ndarray, coords, values) -> np.ndarray:
    """Drive ``x`` broadcast over ``values[0]``'s shape, with ``coords`` set
    to ``values``."""
    trial = np.empty(np.shape(values[0]) + x.shape)
    trial[...] = x
    for i, v in zip(coords, values):
        trial[..., i] = v
    return trial


def _descend(score, x: np.ndarray, coords, widths, lower, upper,
             xatol: float, stop_at: float = -math.inf):
    """Coordinate descent: a line search within +/- width of each listed
    coordinate in turn, widths halving every sweep, then, after a gain that
    moved ``x``, a pattern move: a line search along the sweep's net step
    out to 8 times it (within the bounds), which follows a narrow valley
    the coordinates zig-zag across.  Stops when a sweep gains less than
    ``_MIN_GAIN`` or the score reaches ``stop_at``.  Returns ``(x, score)``."""
    x, best = x.copy(), float(score(x)[()])
    for _ in range(_SWEEPS):
        start, before = x.copy(), best
        for i, width in zip(coords, widths):
            v, f = _line_search(lambda v: score(_along(x, [i], [v])),
                                max(lower[i], x[i] - width),
                                min(upper[i], x[i] + width), xatol)
            if f[0] < best:
                best, x[i] = float(f[0]), float(v[0])
        d = x - start
        if best < before and d.any():
            reach = min([8.0] + [
                ((upper[i] if d[i] > 0 else lower[i]) - x[i]) / d[i] for i in coords if d[i]])
            t, f = _line_search(lambda t: score(x + t[..., None] * d), 0.0, reach,
                                xatol / np.abs(d).max())
            if f[0] < best:
                best, x = float(f[0]), x + t[0] * d
        widths = [w * 0.5 for w in widths]
        if best <= stop_at or before - best < _MIN_GAIN:
            break
    return x, best


def calibrate_flat_comb(
    n_lines: int,
    spacing: float,
    params: MzmParams,
    flatness_target_db: float = 0.1,
    *,
    modulation_index: float = 0.3,
) -> FlatCombCalibration:
    """Find a push-pull drive producing a flat ``n_lines`` comb at ``spacing``.

    The search runs in modulation-index units (see :class:`_OnePeriodComb`),
    so its result depends only on the line count, the index and the arm
    imbalance: the first harmonic's index is never touched, so the pulse
    keeps the low sideband level that index implies.  Trial drives are
    evaluated on half a comb period, as harmonic lines, each scan and each
    line-search level as one batch:

    1. flatness: a scan of the arm bias difference (67 points) against a
       common scale of the higher harmonics (13 points, beyond three lines),
       then coordinate descent of the bias and each higher harmonic's scale;
    2. zero-delay waveform RMSE against the ideal sequence: a scan of the
       arm-2 drive ratio (16 points, the bias re-balanced at each), then
       coordinate descent of the bias, the ratio and the scales, taking a
       move only while the flatness stays within the target (or within
       stage 1's result, if that missed it).

    Every descent sweep ends with a pattern move along its net step.

    The indices m_k map to the volts ``m_k * v_pi / (pi * |H_EO(k *
    spacing)|)`` in closed form.  The drive is even, so its pulse sits at
    t = 0 and needs no centring: on one period of the modulator output,
    ``gain`` is fitted at zero delay to map the output onto the unit-peak
    ideal sequence by a plain complex multiply, and the comb is reported;
    ``converged`` is False if the target is out of reach.
    """
    _require_odd_count(n_lines, "n_lines")
    if not 0 < spacing < math.inf:
        raise ValueError("spacing must be finite and positive")

    comb = _OnePeriodComb(n_lines, modulation_index,
                          (0.5 * arm_amplitude(params.dc_extinction_arm1_db),
                           0.5 * arm_amplitude(params.dc_extinction_arm2_db)))
    n_free = (n_lines - 1) // 2 - 1
    lower = (0.02, 0.1) + (0.05,) * n_free  # bias, arm-2 ratio, scales
    upper = (math.pi - 0.02, math.inf) + (math.inf,) * n_free

    def flatness(x):
        return comb.flatness_db(comb.lines(x)[0])

    biases = np.linspace(0.15 * math.pi, 0.97 * math.pi, 67)
    scales = np.linspace(0.4, 1.6, 13) if n_free else np.ones(1)
    b, s = (v.ravel() for v in np.meshgrid(biases, scales, indexing="ij"))
    scan = np.column_stack([b, np.ones_like(b)] + [s] * n_free)
    x, flat = _descend(flatness, scan[np.argmin(flatness(scan))],
                       [0] + list(range(2, 2 + n_free)), [0.12] + [0.25] * n_free,
                       lower, upper, 1e-7, stop_at=min(flatness_target_db / 50.0, 2e-3))

    # Stage 2.  Unequal arm transmissions tilt the even-order lines toward
    # the stronger arm's phase while barely touching the odd ones, a
    # relative rotation no single delay or complex gain can undo.  The only
    # centre-symmetric knob that moves the even lines back is the arm-2
    # drive amplitude (through the curvature of its carrier term), so scan
    # that ratio, re-balancing the bias at each step, then polish every
    # coordinate.  Drives over the flatness limit score above any RMSE,
    # ordered by the excess; the limit sits a hair inside the target so the
    # rounding of the modulator in volts cannot tip the report over it.
    limit = max(flatness_target_db * (1.0 - 1e-9), flat)

    def waveform_error(x):
        lines, power = comb.lines(x)
        over = comb.flatness_db(lines) - limit
        return np.where(over <= 0.0, comb.rmse_percent(lines, power), _OVER_LIMIT + over)

    ratios = np.linspace(0.5, 1.25, 16)
    bias, err = _line_search(
        lambda v: waveform_error(_along(x, [0, 1], [v, ratios[:, None]])),
        np.full(16, max(lower[0], x[0] - 0.4)),
        np.full(16, min(upper[0], x[0] + 0.4)), 1e-7)
    j = int(np.argmin(err))
    if err[j] < waveform_error(x):
        x[0], x[1] = bias[j], ratios[j]
    x, _ = _descend(waveform_error, x, range(2 + n_free),
                    [0.04, 0.04] + [0.1] * n_free, lower, upper, 1e-6)
    freqs = spacing * np.arange(1, n_lines // 2 + 1)
    volts = modulation_index * params.v_pi / (math.pi * eo_response(freqs, params))
    plan = push_pull_plan(freqs, volts * np.concatenate(([1.0], x[2:])), float(x[0]),
                          arm2_drive_ratio=float(x[1]))

    grid = TimeGrid(sample_rate=comb.mult * spacing, n_samples=comb.mult)
    line_bins = comb.mult // 2 + np.arange(-(n_lines // 2), n_lines // 2 + 1)
    spec = spectrum(modulate(constant(grid), plan, params))
    # the ideal sequence's lines are 1/n_lines, so by Parseval the
    # least-squares gain and residual on the lines are the waveform's
    ideal = np.zeros(comb.mult)
    ideal[line_bins] = 1.0 / n_lines
    gain = complex(np.vdot(spec, ideal) / np.vdot(spec, spec))
    report = comb_report(spec, n_lines, spacing)
    return FlatCombCalibration(
        plan=plan, params=params, report=report,
        converged=bool(report.flatness_db <= flatness_target_db),
        gain=gain,
        waveform_rmse_percent=float(100.0 * np.linalg.norm(gain * spec - ideal)),
    )


# ---------------------------------------------------------------------------
# reporting

def format_comb_table(report: CombReport) -> str:
    lines = [f"{'line':>5}  {'freq_GHz':>10}  {'power_dBm':>10}"]
    half = (report.n_lines - 1) // 2
    for k, (f, p) in zip(range(-half, half + 1),
                         zip(report.line_frequencies_hz, report.line_powers_dbm)):
        lines.append(f"{k:>5}  {f / 1e9:>10.3f}  {p:>10.3f}")
    lines.append(f"flatness: {report.flatness_db:.4f} dB")
    lines.append(f"sideband suppression: {report.sideband_suppression_db:.2f} dB")
    return "\n".join(lines)
