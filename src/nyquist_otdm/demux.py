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

import numpy as np

from .core import ChannelPlan, Signal, TimeGrid, constant
from .mzm import FlatCombCalibration, modulate
from .nyquist import _require_integer, _sequence_lines

__all__ = ["demultiplex"]


def _branch_rows(lines: np.ndarray, n_branches: int) -> np.ndarray:
    """Every branch's coefficients of a pulse train whose line m sits at m
    times the branch rate: row l-1 is ``lines`` delayed by (l-1)/B, i.e.
    line m turned by ``exp(-2j*pi*m*(l-1)/N)``."""
    m = np.arange(lines.shape[0])
    turns = np.outer(np.arange(n_branches), m) % n_branches
    return lines * np.exp(-2j * np.pi * turns / n_branches)


def _sampling_lines(plan: ChannelPlan, sampler: FlatCombCalibration | None,
                    grid: TimeGrid):
    """Spectral lines (bin shifts, one row of coefficients per branch) of
    the sampling pulse trains on ``grid``; row l-1 is branch l's.

    ``sampler=None`` gives the N lines of the exact sinc sequences.  A
    :class:`FlatCombCalibration` drives the modulator model with its drive
    plan over one sequence period of the grid, scales by its gain and takes
    the period's P-point DFT: the P lines of the transfer on the whole grid,
    which agree with branch 1's sequence to within the calibrated comb's
    waveform error.  The other branches' rows turn those lines by their
    slot's phase, which is exact only for drive tones at harmonics of the
    branch rate.
    """
    if sampler is None:
        return _sequence_lines(plan, grid)
    rate = plan.symbol_rate
    for f in (t.frequency for t in sampler.plan.tones):
        if abs(f / rate - round(f / rate)) > 1e-6:
            raise ValueError(f"tone at {f:g} Hz is not a harmonic of the "
                             f"branch rate {rate:g} Hz")
    spacing = _require_integer(grid.duration * rate,
                               "grid window in sequence periods")
    # a slot of whole samples makes each branch's delay a circular shift of
    # the period's samples, so its lines are branch 1's turned, aliases too
    period = plan.n_branches * _require_integer(
        grid.sample_rate / plan.aggregate_bandwidth, "samples per branch slot")
    one_period = TimeGrid(grid.sample_rate, period)
    transfer = modulate(constant(one_period), sampler.plan, sampler.params)
    lines = transfer._take(np.arange(period)) * (sampler.gain / period)
    return np.arange(period) * spacing, _branch_rows(lines, plan.n_branches)


def _read_bins(plan: ChannelPlan, sampler: FlatCombCalibration | None,
               grid: TimeGrid):
    """The branches' rows of the sampling lines, the detection band
    |f| <= B/(2N), half a line spacing each side, with each bin's weight,
    and the aggregate's bins that each line adds into the band."""
    shifts, rows = _sampling_lines(plan, sampler, grid)
    spacing = int(shifts[1] - shifts[0])
    if spacing >= grid.n_samples:
        raise ValueError("the detection band B/(2N) must lie below the grid's "
                         "Nyquist limit")
    band = np.arange(-(spacing // 2), spacing // 2 + 1)
    # the bins at exactly the edge (an even spacing) count half
    weight = np.where(2 * np.abs(band) == spacing, 0.5, 1.0)
    return rows, band, weight, band[None, :] - shifts[:, None]


def demultiplex(sig: Signal, plan: ChannelPlan,
                sampler: FlatCombCalibration | None = None) -> tuple[Signal, ...]:
    """Recover every branch's baseband signal from the aggregate, branch 1 first.

    ``sampler`` is the comb calibration whose drive makes the sampling
    pulses, or None for the ideal sinc sequences.  Sampling, brickwall
    low-pass at B/(2N), and the factor N restoring the 1/N gain of sequence
    sampling.  Only the detection band's bins are computed, from one gather
    for all branches: each is a sum of the aggregate's bins one sampling
    line apart.

    Note on periodic windows: a branch carrying an even number of symbols
    per window has a discrete line exactly on the filter edge at B/(2N),
    and the edge fold makes its recovery inexact (a small error that
    alternates sign symbol to symbol).  Use an odd symbol count per branch
    when bit-exact recovery matters; with continuous spectra (noise, roll-off
    shaping) the effect is irrelevant.
    """
    rows, band, weight, read = _read_bins(plan, sampler, sig.grid)
    gain = plan.n_branches * weight
    taken = sig._take(read)
    # one product per row: an N-row product rounds differently
    return tuple(Signal._of_bins(sig.grid, gain * (row @ taken), int(band[0]))
                 for row in rows)
