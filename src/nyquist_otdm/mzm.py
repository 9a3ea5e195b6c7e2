"""Dual-drive Mach-Zehnder modulator model and flat-comb calibration.

The modulator multiplies the input field by the interference of two
phase-modulated arms.  Driving it with harmonics of a base frequency at the
right bias imbalance produces a flat N-line comb, i.e. a periodic sinc-pulse
sequence.

:func:`calibrate_flat_comb` finds that operating point by a scan and a solve.
The push-pull drive is a -cos series, even in time, so its pulse sits at
t = 0, where the sampler reads it.  The transfer is periodic in the comb
spacing and even, so the search evaluates each trial drive on half a period,
as harmonic lines: each line is a weighted cosine sum over those samples,
exactly the period's DFT, and the least-squares complex gain onto the ideal
sequence at zero delay, which has only N lines, is their mean plus a
Parseval residual.  The scan and each solver iteration score their trial
drives as one batch of transfers.  The search, the report (:func:`modulate` on one
period) and the sampler share one transfer in modulation-index units and
turns of the period; volts are only reported, as the calibration's plan.
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
    "modulate",
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


@dataclass(frozen=True)
class DrivePlan:
    """RF drive of the modulator in volts, as :attr:`FlatCombCalibration.plan`
    reports it: a set of tones plus per-arm DC biases (rad)."""

    tones: tuple[DriveTone, ...]
    bias_arm1: float = 0.0
    bias_arm2: float = 0.0


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

    ``point`` is the searched drive, ``(bias difference, arm-2 drive ratio,
    scale of harmonic 2, ...)`` at the fundamental's ``modulation_index``.
    ``gain`` maps the raw modulator output onto the unit-peak ideal sequence
    (insertion loss and the bias-dependent output power folded in): multiply
    the output by it to reference the comb back to the ideal pulse train.
    """

    point: tuple[float, ...]
    modulation_index: float
    params: MzmParams
    report: CombReport
    converged: bool
    gain: complex
    waveform_rmse_percent: float

    @property
    def plan(self) -> DrivePlan:
        """The drive in volts, derived: harmonic k of the comb spacing at
        ``m_k * v_pi / (pi * |H_EO(k * spacing)|)``, -cos on arm 1 and +cos
        on arm 2 (so the drive is even in time), with symmetric biases."""
        bias, ratio, *scales = self.point
        freqs = self.report.spacing_hz * np.arange(1, len(self.point))
        volts = self.modulation_index * self.params.v_pi / (
            math.pi * eo_response(freqs, self.params)) * np.concatenate(([1.0], scales))
        return DrivePlan(tuple(DriveTone(f, a, ratio * a, -math.pi / 2, math.pi / 2)
                               for f, a in zip(freqs, volts)), 0.5 * bias, -0.5 * bias)


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


def _arms(params: MzmParams):
    """The two arm fields' weights in the output, before insertion loss.

    Each arm is referenced against an ideal partner: an arm of field a
    interfering with a unit arm nulls to ((1-a)/(1+a))^2, so a measured
    power extinction X gives a = (sqrt(X)-1)/(sqrt(X)+1).  That is 1.0 from
    about 331 dB on, so X is clamped at 400 dB, where a is 1.0 exactly: the
    config allows 1e300 dB, and 10 ** (X / 20) overflows past about 6,165 dB.
    """
    g = [10.0 ** (min(x, 400.0) / 20.0)
         for x in (params.dc_extinction_arm1_db, params.dc_extinction_arm2_db)]
    return tuple(0.5 * ((v - 1.0) / (v + 1.0)) for v in g)


def _push_pull(x: np.ndarray, phase: np.ndarray, arms) -> np.ndarray:
    """Transfer of drives ``x`` (rows of points) at the samples of ``phase``
    (row k-1: ``1j * m_1 * cos`` of harmonic k), by elementwise sums only."""
    drive = phase[0]
    for j in range(2, x.shape[-1]):
        drive = drive + x[..., j:j + 1] * phase[j - 1]
    half_bias = 0.5j * x[..., :1]
    return (arms[0] * np.exp(half_bias - drive)
            + arms[1] * np.exp(x[..., 1:2] * drive - half_bias))


def modulate(field_in: Signal, point, modulation_index: float, params: MzmParams) -> Signal:
    """Multiply a field holding one comb period by the modulator transfer of
    the drive ``point`` (:class:`FlatCombCalibration`) and insertion loss.
    Sample t of n is t/n of a turn, so harmonic k carries m_k cos(2 pi k t/n)
    whatever spacing, V_pi and EO response: no volts, Hz or seconds enter."""
    n, x = field_in.grid.n_samples, np.asarray(point, dtype=float)
    phase = 1j * modulation_index * np.cos(
        2 * np.pi * np.outer(np.arange(1, x.size), np.arange(n)) / n)
    loss = 10.0 ** (-params.insertion_loss_db / 20.0)
    return Signal(field_in.grid, loss * _push_pull(x, phase, _arms(params)) * field_in.samples)


# ---------------------------------------------------------------------------
# flat-comb calibration on half a period

_STEP = 1e-4      # finite-difference step of the solve's derivatives
_SLACK = 1e3      # cost of relaxing the flatness limit in a subproblem, per dB
_SHARES = 0.5 ** np.arange(10)  # of a step, tried until one lowers the merit
_LAST_STEP = 1e-8  # a step this short (max norm) is taken and ends the solve
_ITERATIONS = 60  # a cap: the tested combs take 3 to 11 iterations


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
        """Lines 0..h and half-period transfer of each drive, by elementwise
        sums (no matrix product), so a drive scores the same bits in any batch."""
        transfer = _push_pull(x, self._phase, self._arms)
        return (transfer[..., None, :] * self._dft).sum(axis=-1), transfer

    @staticmethod
    def flatness_db(lines: np.ndarray) -> np.ndarray:
        p = lines.real ** 2 + lines.imag ** 2
        return 10.0 * np.log10(p.max(axis=-1) / p.min(axis=-1))

    def rmse_percent(self, lines: np.ndarray, transfer: np.ndarray) -> np.ndarray:
        power = ((transfer.real ** 2 + transfer.imag ** 2) * self._weights).sum(axis=-1)
        corr = (lines[..., 0] + 2.0 * lines[..., 1:].sum(axis=-1)) / self.n_lines
        corr2 = corr.real ** 2 + corr.imag ** 2
        return 100.0 * np.sqrt(np.maximum(1.0 / self.n_lines - corr2 / power, 0.0))


def _nnls(M: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Lawson and Hanson's active set: the u >= 0 minimising |M u - e|."""
    u, passive = np.zeros(M.shape[1]), np.zeros(M.shape[1], dtype=bool)
    for _ in range(3 * M.shape[1]):
        w = np.where(passive, -np.inf, M.T @ (e - M @ u))
        if w.max() <= 1e-14:
            break
        passive[w.argmax()] = True
        while True:
            s = np.zeros_like(u)
            s[passive] = np.linalg.lstsq(M[:, passive], e, rcond=None)[0]
            blocked = passive & (s <= 0.0)
            if not blocked.any():
                break
            share = np.divide(u, u - s, out=np.zeros_like(u), where=blocked & (u > s))
            j = np.flatnonzero(blocked)[share[blocked].argmin()]
            u = u + share[j] * (s - u)
            passive[j] = False
            passive &= u > 0.0
        u = s
    return u


def _subproblem(W: np.ndarray, g: np.ndarray, A: np.ndarray, b: np.ndarray):
    """The y minimising ``y'W y / 2 + g'y`` subject to ``A y >= b``, W
    positive definite, and the constraints' multipliers.  With W = L L',
    z = L'y + L^-1 g is the least-norm point with ``E z >= f``, whose dual
    is a nonnegative least-squares problem (Lawson and Hanson's LDP)."""
    L = np.linalg.cholesky(W)
    h = np.linalg.solve(L, g)
    E = np.linalg.solve(L, A.T).T
    f = b + E @ h
    u = _nnls(np.vstack([E.T, f]), np.eye(g.size + 1)[-1])
    multipliers = u / (1.0 - f @ u)
    return np.linalg.solve(L.T, E.T @ multipliers - h), multipliers


def _solve(comb: _OnePeriodComb, x: np.ndarray, lower, upper, limit: float) -> np.ndarray:
    """SQP from ``x``: the least zero-delay RMSE within the bounds and the
    limits ``10 log10(p_i / p_j) <= limit`` on every ordered pair of the
    h + 1 distinct lines.  An iteration scores one batch, the stencil of the
    drive's central-difference gradients and Hessians, and steps to the
    minimum of a quadratic model of the Lagrangian (its Hessian made
    positive definite) under the linearised limits, relaxed by one slack at
    ``_SLACK`` a dB if they cannot all hold.  It takes the first of
    ``_SHARES`` of that step that lowers ``RMSE + rho * excess flatness``
    (rho twice the multipliers' sum, never falling), scored in one batch
    with the stencil about the whole step."""
    n, k = x.size, comb.n_lines // 2 + 1
    eye = _STEP * np.eye(n)
    a, b = np.triu_indices(n)
    stencil = np.concatenate([np.zeros((1, n)), eye, -eye, eye[a] + eye[b], -eye[a] - eye[b]])
    hi, lo = np.nonzero(~np.eye(k, dtype=bool))  # the limit on line hi over line lo
    bounded = np.isfinite(upper)
    fixed = np.vstack([np.eye(n + 1)[n:], np.eye(n + 1)[:n], -np.eye(n + 1)[:n][bounded]])

    def score(rows):  # RMSE % and each line's power (dB) of every row
        lines, transfer = comb.lines(rows)
        power = lines.real ** 2 + lines.imag ** 2
        return np.column_stack([comb.rmse_percent(lines, transfer), 10.0 * np.log10(power)])

    def merit(v):
        return v[:, 0] + rho * np.maximum(np.ptp(v[:, 1:], axis=1) - limit, 0.0)

    v, weights, rho = score(x + stencil), np.zeros(k), 0.0
    for _ in range(_ITERATIONS):
        centre, plus, minus, up, down = np.split(v, np.cumsum([1, n, n, a.size]))
        grad, hess = (plus - minus) / (2.0 * _STEP), np.empty((v.shape[1], n, n))
        hess[:, a, b] = hess[:, b, a] = ((up + down - plus[a] - minus[a] - plus[b] - minus[b]
                                          + 2.0 * centre) / (2.0 * _STEP ** 2)).T
        ev, vec = np.linalg.eigh(hess[0] + np.tensordot(weights, hess[1:], 1))
        W = np.diag(np.append(np.zeros(n), _SLACK))
        W[:n, :n] = (vec * np.maximum(np.abs(ev), 1e-6 * max(np.abs(ev).max(), 1.0))) @ vec.T
        slope = grad[:, 1 + hi] - grad[:, 1 + lo]
        step, multipliers = _subproblem(
            W, np.append(grad[:, 0], _SLACK),
            np.vstack([np.column_stack([-slope.T, np.ones(hi.size)]), fixed]),
            np.concatenate([centre[0, 1 + hi] - centre[0, 1 + lo] - limit, [0.0], lower - x,
                            (x - upper)[bounded]]))
        d, on_pairs = step[:n], multipliers[:hi.size]
        weights = np.bincount(hi, on_pairs, k) - np.bincount(lo, on_pairs, k)
        rho = max(rho, 2.0 * on_pairs.sum())
        if np.abs(d).max() <= _LAST_STEP:
            return x + d
        trial = score(np.concatenate([x + d + stencil, x + _SHARES[:, None] * d]))
        lower_merit = np.flatnonzero(merit(trial[len(stencil):]) < merit(v[:1]))
        if not lower_merit.size:
            break
        x = x + _SHARES[lower_merit[0]] * d
        v = trial[:len(stencil)] if lower_merit[0] == 0 else score(x + stencil)
    return x


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
    so its result depends only on the line count, the index, the target and
    the arm imbalance: the first harmonic's index is never touched, so the
    pulse keeps the low sideband level that index implies.  Trial drives are
    scored on half a comb period, as harmonic lines, in batches:

    1. a scan, one batch, of the arm bias difference (67 points) against a
       common scale of the higher harmonics (13 points, beyond three lines);
    2. from its flattest drive, one SQP solve (:func:`_solve`) for the least
       zero-delay waveform RMSE against the ideal sequence, within the
       bounds (bias 0.02 to pi - 0.02, arm-2 ratio 0.1 to 10, scales from
       0.05) and the limits ``10 log10(p_i / p_j) <= limit`` on every pair
       of the h + 1 distinct lines.  The limit sits a hair (1e-9 relative)
       inside the target, so the rounding of the report's whole-period
       transfer cannot tip a comb at the limit over.  When no drive near
       the start reaches the target (an index of 1e-3, say), the solve ends
       at the least excess it finds.

    The calibration keeps the point; the spacing, V_pi and EO response only
    map it to the volts of its ``plan``.  The drive is even, so its pulse
    sits at t = 0 and needs no centring: on one period of the modulator
    output (:func:`modulate`, in index units too), ``gain`` is fitted at
    zero delay to map the output onto the unit-peak ideal sequence by a
    plain complex multiply, and the comb is reported; ``converged`` is
    whether the reported flatness is within the target.
    """
    _require_odd_count(n_lines, "n_lines")
    for name, value in (("spacing", spacing), ("flatness_target_db", flatness_target_db),
                        ("modulation_index", modulation_index)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive")

    comb = _OnePeriodComb(n_lines, modulation_index, _arms(params))
    n_free = (n_lines - 1) // 2 - 1
    lower = np.array((0.02, 0.1) + (0.05,) * n_free)  # bias, arm-2 ratio, scales
    upper = np.array((math.pi - 0.02, 10.0) + (math.inf,) * n_free)
    biases = np.linspace(0.15 * math.pi, 0.97 * math.pi, 67)
    scales = np.linspace(0.4, 1.6, 13) if n_free else np.ones(1)
    b, s = (v.ravel() for v in np.meshgrid(biases, scales, indexing="ij"))
    scan = np.column_stack([b, np.ones_like(b)] + [s] * n_free)
    x = _solve(comb, scan[np.argmin(comb.flatness_db(comb.lines(scan)[0]))], lower, upper,
               flatness_target_db * (1.0 - 1e-9))
    point = tuple(float(v) for v in x)

    grid = TimeGrid(sample_rate=comb.mult * spacing, n_samples=comb.mult)
    h = n_lines // 2
    line_bins = comb.mult // 2 + np.arange(-h, h + 1)
    spec = spectrum(modulate(constant(grid), point, modulation_index, params))
    # the ideal sequence's lines are 1/n_lines, so by Parseval the
    # least-squares gain and residual on the lines are the waveform's
    ideal = np.zeros(comb.mult)
    ideal[line_bins] = 1.0 / n_lines
    gain = complex(np.vdot(spec, ideal) / np.vdot(spec, spec))

    def dbm(p) -> float:
        return float(10.0 * np.log10(p)) if p > 0 else float("-inf")

    # flatness is a ratio of powers, which keeps its digits at any level where a
    # difference of dBm does not; suppression is against orders +/-(h+1), +/-(h+2)
    nominal = [abs(spec[i]) ** 2 for i in line_bins]
    powers = tuple(dbm(p) for p in nominal)
    flatness = dbm(max(nominal) / min(nominal)) if min(nominal) > 0 else math.inf
    suppression = min(powers) - max(dbm(abs(spec[comb.mult // 2 + sign * k]) ** 2)
                                    for k in (h + 1, h + 2) for sign in (-1, 1))
    report = CombReport(
        n_lines=n_lines, spacing_hz=float(spacing), line_powers_dbm=powers,
        line_frequencies_hz=tuple(float(k * spacing) for k in range(-h, h + 1)),
        flatness_db=float(flatness), sideband_suppression_db=float(suppression))
    return FlatCombCalibration(
        point=point, modulation_index=modulation_index, params=params, report=report,
        converged=bool(report.flatness_db <= flatness_target_db), gain=gain,
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
