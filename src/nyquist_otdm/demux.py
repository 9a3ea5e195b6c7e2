"""Branch demultiplexing by sinc-sequence sampling and baseband filtering.

A branch is recovered by multiplying the aggregate signal with the branch's
sampling pulse train (either an ideal sinc sequence or a calibrated MZM
comb), low-pass filtering to half the branch rate, and restoring the 1/N
sampling gain.  Both pulse trains are periodic with a period of whole grid
samples, so they are a few spectral lines a whole number of bins apart, and
the product followed by the lowpass is a sum of shifted spectral slices
evaluated on the detection band alone.  Branch l's train is branch 1's
delayed by (l-1)/B: the same lines, each turned by a phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ChannelPlan, Signal, TimeGrid, constant, delay_signal
from .mzm import DrivePlan, FlatCombCalibration, MzmParams, modulate
from .nyquist import _require_integer, _sequence_lines

__all__ = ["MzmSampler", "demultiplex"]


@dataclass(frozen=True)
class MzmSampler:
    """Sampling-pulse source backed by a calibrated MZM drive.

    ``gain`` references the modulator output back to the unit-peak ideal
    sequence; build instances via :meth:`from_calibration` so the gain
    comes from an actual calibration run.
    """

    drive_plan: DrivePlan
    params: MzmParams
    gain: complex = 1.0 + 0.0j

    @classmethod
    def from_calibration(cls, cal: FlatCombCalibration) -> "MzmSampler":
        return cls(drive_plan=cal.plan, params=cal.params, gain=cal.gain)


def _branch_rows(lines: np.ndarray, n_branches: int) -> np.ndarray:
    """Every branch's coefficients of a pulse train whose line m sits at m
    times the branch rate: row l-1 is ``lines`` delayed by (l-1)/B, i.e.
    line m turned by ``exp(-2j*pi*m*(l-1)/N)``."""
    m = np.arange(lines.shape[0])
    turns = np.outer(np.arange(n_branches), m) % n_branches
    return lines * np.exp(-2j * np.pi * turns / n_branches)


def _sampling_lines(plan: ChannelPlan, sampler: str | MzmSampler,
                    grid: TimeGrid):
    """Spectral lines (bin shifts, one row of coefficients per branch) of
    the sampling pulse trains on ``grid``; row l-1 is branch l's.

    ``sampler="ideal"`` gives the N lines of the exact sinc sequences.  An
    :class:`MzmSampler` drives the modulator model over one sequence period
    of the grid, divides out the calibration gain and takes the period's
    P-point DFT: the P lines of the transfer on the whole grid, which agree
    with branch 1's sequence to within the calibrated comb's waveform
    error.  The other branches' rows turn those lines by their slot's phase,
    which is exact only for drive tones at harmonics of the branch rate.
    """
    if isinstance(sampler, str):
        if sampler != "ideal":
            raise ValueError(f"unknown sampler {sampler!r}")
        return _sequence_lines(plan, grid)
    if not isinstance(sampler, MzmSampler):
        raise TypeError("sampler must be 'ideal' or an MzmSampler")
    rate = plan.symbol_rate
    for f in (t.frequency for t in sampler.drive_plan.tones):
        if abs(f / rate - round(f / rate)) > 1e-6:
            raise ValueError(f"tone at {f:g} Hz is not a harmonic of the "
                             f"branch rate {rate:g} Hz")
    spacing = _require_integer(grid.duration * rate,
                               "grid window in sequence periods")
    # a slot of whole samples makes each branch's delay a circular shift of
    # the period's samples, so its lines are branch 1's turned, aliases too
    period = plan.n_branches * _require_integer(
        grid.sample_rate / plan.aggregate_bandwidth, "samples per branch slot")
    one_period = TimeGrid(grid.sample_rate, period, grid.t0)
    transfer = modulate(constant(one_period), sampler.drive_plan,
                        sampler.params).samples
    lines = np.fft.fft(transfer) * (sampler.gain / period)
    return np.arange(period) * spacing, _branch_rows(lines, plan.n_branches)


def demultiplex(sig: Signal, plan: ChannelPlan,
                sampler: str | MzmSampler = "ideal",
                timing_delay: float = 0.0) -> tuple[Signal, ...]:
    """Recover every branch's baseband signal from the aggregate, branch 1 first.

    Sampling, brickwall low-pass at B/(2N), and the factor N restoring the
    1/N gain of sequence sampling.  ``timing_delay`` models a known receiver
    clock offset and is removed before the sampling multiplication, where it
    still matters — the sequence zeros must land between the wanted symbols.
    Only the detection band's bins are computed, from one gather for all
    branches: each is a sum of the aggregate's bins one sampling line apart.

    Note on periodic windows: a branch carrying an even number of symbols
    per window has a discrete line exactly on the filter edge at B/(2N),
    and the edge fold makes its recovery inexact (a small error that
    alternates sign symbol to symbol).  Use an odd symbol count per branch
    when bit-exact recovery matters; with continuous spectra (noise, roll-off
    shaping) the effect is irrelevant.
    """
    grid = sig.grid
    n = grid.n_samples
    shifts, rows = _sampling_lines(plan, sampler, grid)
    if timing_delay:
        sig = delay_signal(sig, -timing_delay)
    # the band |f| <= B/(2N) is half a line spacing each side; the bins at
    # exactly the edge (an even spacing) count half
    spacing = int(shifts[1] - shifts[0])
    if spacing >= n:
        raise ValueError("the detection band B/(2N) must lie below the grid's "
                         "Nyquist limit")
    band = np.arange(-(spacing // 2), spacing // 2 + 1)
    gain = plan.n_branches * np.where(2 * np.abs(band) == spacing, 0.5, 1.0)
    taken = sig._take(band[None, :] - shifts[:, None])
    # one product per row: an N-row product rounds differently
    return tuple(Signal._of_bins(grid, gain * (row @ taken), int(band[0]))
                 for row in rows)
