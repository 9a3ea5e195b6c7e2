"""Branch demultiplexing by sinc-sequence sampling and baseband filtering.

A branch is recovered by multiplying the aggregate signal with the branch's
sampling pulse train (either an ideal sinc sequence or a calibrated MZM
driven at the branch RF phase), low-pass filtering to half the branch rate,
and restoring the 1/N sampling gain.  Both pulse trains are periodic with a
period of whole grid samples, so they are a few spectral lines a whole
number of bins apart, and the product followed by the lowpass is a sum of
shifted spectral slices evaluated on the detection band alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ChannelPlan, Signal, TimeGrid, constant, delay_signal
from .mzm import DrivePlan, FlatCombCalibration, MzmParams, modulate
from .nyquist import SymbolStream, _require_integer, _sequence_lines, sample_symbols

__all__ = [
    "ChannelPlan",
    "MzmSampler",
    "branch_phase",
    "shift_plan_for_branch",
    "demultiplex",
    "recover_symbols",
]


def branch_phase(plan: ChannelPlan) -> float:
    """Relative RF phase selecting the plan's branch: 2*pi*(branch-1)/N."""
    return 2.0 * math.pi * (plan.branch - 1) / plan.n_branches


@dataclass(frozen=True)
class MzmSampler:
    """Sampling-pulse source backed by a calibrated MZM drive.

    ``gain`` references the modulator output back to the unit-peak ideal
    sequence; build instances via :meth:`from_calibration` so the flag and
    gain come from an actual calibration run.
    """

    drive_plan: DrivePlan
    params: MzmParams
    gain: complex = 1.0 + 0.0j
    calibrated: bool = False

    @classmethod
    def from_calibration(cls, cal: FlatCombCalibration) -> "MzmSampler":
        return cls(drive_plan=cal.plan, params=cal.params, gain=cal.gain,
                   calibrated=cal.converged)


def shift_plan_for_branch(drive_plan: DrivePlan, spacing: float,
                          rf_phase: float) -> DrivePlan:
    """Shift every drive tone by its harmonic order times ``rf_phase``.

    Subtracting k times the branch phase from the harmonic-k tone delays the
    sampling pulse train by rf_phase/(2*pi*spacing), i.e. by (branch-1)/B for
    the branch phases of :func:`branch_phase`.
    """
    if rf_phase == 0.0:
        return drive_plan
    tones = []
    for t in drive_plan.tones:
        k = round(t.frequency / spacing)
        if abs(t.frequency - k * spacing) > 1e-6 * spacing:
            raise ValueError(
                f"tone at {t.frequency:g} Hz is not a harmonic of the "
                f"spacing {spacing:g} Hz"
            )
        tones.append(replace(t, phase_arm1=t.phase_arm1 - k * rf_phase,
                             phase_arm2=t.phase_arm2 - k * rf_phase))
    return DrivePlan(tuple(tones), drive_plan.bias_arm1, drive_plan.bias_arm2)


def _sampling_lines(plan: ChannelPlan, sampler: str | MzmSampler,
                    grid: TimeGrid):
    """Spectral lines (bin shifts, coefficients) of the branch's sampling
    pulse train on ``grid``.

    ``sampler="ideal"`` gives the N lines of the exact sinc sequence.  An
    :class:`MzmSampler` drives the modulator model at the branch RF phase
    over one sequence period of the grid, divides out the calibration gain
    and takes the period's P-point DFT: the P lines of the transfer on the
    whole grid, which agrees with the ideal sequence to within the
    calibrated comb's waveform error.
    """
    if isinstance(sampler, str):
        if sampler != "ideal":
            raise ValueError(f"unknown sampler {sampler!r}")
        return _sequence_lines(plan, grid)
    if not isinstance(sampler, MzmSampler):
        raise TypeError("sampler must be 'ideal' or an MzmSampler")
    if not sampler.calibrated:
        raise ValueError("MZM sampling requires a calibrated drive plan")
    spacing = _require_integer(grid.duration * plan.symbol_rate,
                               "grid window in sequence periods")
    period = _require_integer(grid.sample_rate / plan.symbol_rate,
                              "samples per sequence period")
    drive = shift_plan_for_branch(sampler.drive_plan, plan.symbol_rate,
                                  branch_phase(plan))
    one_period = TimeGrid(grid.sample_rate, period, grid.t0)
    transfer = modulate(constant(one_period), drive, sampler.params).samples
    return np.arange(period) * spacing, np.fft.fft(transfer) * (sampler.gain / period)


def demultiplex(sig: Signal, plan: ChannelPlan,
                sampler: str | MzmSampler = "ideal",
                timing_delay: float = 0.0) -> Signal:
    """Recover one branch's baseband signal from the aggregate.

    Sampling, brickwall low-pass at B/(2N), and the factor N restoring the
    1/N gain of sequence sampling.  ``timing_delay`` models a known receiver
    clock offset and is removed before the sampling multiplication, where it
    still matters — the sequence zeros must land between the wanted symbols.
    Only the bins of the detection band are computed: each is a sum of the
    aggregate's bins one sampling line apart.

    Note on periodic windows: a branch carrying an even number of symbols
    per window has a discrete line exactly on the filter edge at B/(2N),
    and the edge fold makes its recovery inexact (a small error that
    alternates sign symbol to symbol).  Use an odd symbol count per branch
    when bit-exact recovery matters; with continuous spectra (noise, roll-off
    shaping) the effect is irrelevant.
    """
    grid = sig.grid
    n = grid.n_samples
    shifts, coefs = _sampling_lines(plan, sampler, grid)
    if timing_delay:
        sig = delay_signal(sig, -timing_delay)
    # the band |f| <= B/(2N) is half a line spacing each side; the bins at
    # exactly the edge (an even spacing) count half
    spacing = _require_integer(grid.duration * plan.symbol_rate,
                               "grid window in sequence periods")
    if spacing >= n:
        raise ValueError("the detection band B/(2N) must lie below the grid's "
                         "Nyquist limit")
    band = np.arange(-(spacing // 2), spacing // 2 + 1)
    gain = plan.n_branches * np.where(2 * np.abs(band) == spacing, 0.5, 1.0)
    taken = sig.bins[(band[None, :] - shifts[:, None]) % n]
    bins = np.zeros(n, dtype=np.complex128)
    bins[band % n] = gain * (coefs @ taken)
    return Signal._of_bins(grid, bins)


def recover_symbols(sig: Signal, plan: ChannelPlan,
                    n_symbols: int | None = None) -> SymbolStream:
    """Sample a demultiplexed branch at its symbol instants (k*N + l - 1)/B."""
    return sample_symbols(sig, plan.symbol_rate, t_offset=plan.time_offset,
                          n_symbols=n_symbols)
