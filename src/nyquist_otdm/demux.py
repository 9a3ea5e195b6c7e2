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
from .nyquist import _branch_rows, _require_integer, _sequence_lines

__all__ = ["demultiplex"]


def _sampling_lines(plan: ChannelPlan, sampler: FlatCombCalibration | None,
                    grid: TimeGrid):
    """Spectral lines (bin shifts, one row of coefficients per branch) of
    the sampling pulse trains on ``grid``; row l-1 is branch l's.

    ``sampler=None`` gives the N lines of the exact sinc sequences.  A
    :class:`FlatCombCalibration` runs the modulator model on its drive
    point over one sequence period of the grid, scales by its gain and
    takes the period's P-point DFT: the P lines of the transfer on the whole
    grid, which agree with branch 1's sequence to within the calibrated
    comb's waveform error.  The drive is a sum of harmonics of its period,
    the branch rate, so the other branches' rows are those lines turned by
    their slot's phase.
    """
    if sampler is None:
        return _sequence_lines(plan, grid)
    spacing = _require_integer(grid.duration * plan.symbol_rate,
                               "grid window in sequence periods")
    # a slot of whole samples makes each branch's delay a circular shift of
    # the period's samples, so its lines are branch 1's turned, aliases too
    period = plan.n_branches * _require_integer(
        grid.sample_rate / plan.aggregate_bandwidth, "samples per branch slot")
    transfer = modulate(constant(TimeGrid(grid.sample_rate, period)), sampler.point,
                        sampler.modulation_index, sampler.params)
    lines = transfer._window(0, period) * (sampler.gain / period)
    orders = np.arange(period)
    return orders * spacing, _branch_rows(lines, orders, plan.n_branches)


def demultiplex(sig: Signal, plan: ChannelPlan,
                sampler: FlatCombCalibration | None = None) -> tuple[Signal, ...]:
    """Recover every branch's baseband signal from the aggregate, branch 1 first.

    ``sampler`` is the N-line comb calibration whose drive makes the sampling
    pulses, or None for the ideal sinc sequences.  Sampling, brickwall
    low-pass at B/(2N), and the factor N restoring the 1/N gain of sequence
    sampling.  Only the detection band's bins are computed, from one window
    of the aggregate's bins per sampling line, shared by all branches: each
    branch bin is a sum of the aggregate's bins one line spacing apart.

    Note on periodic windows: a branch carrying an even number of symbols
    per window has a discrete line exactly on the filter edge at B/(2N),
    and the edge fold makes its recovery inexact (a small error that
    alternates sign symbol to symbol).  Use an odd symbol count per branch
    when bit-exact recovery matters; with continuous spectra (noise, roll-off
    shaping) the effect is irrelevant.
    """
    if sampler is not None and (lines := sampler.report.n_lines) != plan.n_branches:
        raise ValueError(f"a {lines}-line sampler cannot read {plan.n_branches} branches")
    shifts, rows = _sampling_lines(plan, sampler, sig.grid)
    spacing = int(shifts[1] - shifts[0])
    if spacing >= sig.grid.n_samples:
        raise ValueError("the detection band B/(2N) must lie below the grid's "
                         "Nyquist limit")
    # the detection band, half a line spacing each side; the bins at exactly
    # the edge (an even spacing) count half
    band = np.arange(-(spacing // 2), spacing // 2 + 1)
    gain = plan.n_branches * np.where(2 * np.abs(band) == spacing, 0.5, 1.0)
    # C-contiguous (P, B): line m adds the aggregate's bins from band[0] - shifts[m]
    taken = np.stack([sig._window(start, band.size)
                      for start in (band[0] - shifts).tolist()])
    # one product per row: an N-row product rounds differently
    return tuple(Signal._of_bins(sig.grid, gain * (row @ taken), int(band[0]))
                 for row in rows)
