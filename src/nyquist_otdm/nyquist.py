"""Sinc-sequence pulses, zero-ISI interpolation, and orthogonal time multiplexing.

A length-N sinc sequence of bandwidth B is the periodic pulse whose spectrum
is N equal lines spaced B/N; its zero crossings at every multiple of 1/B not
divisible by N are what make N interleaved branches orthogonal.  All
constructions here are circular (periodic window, integer symbol counts), so
round trips are exact to machine precision.
"""

from __future__ import annotations

import numpy as np

from .core import ChannelPlan, Signal, TimeGrid, _laid

__all__ = [
    "nyquist_interpolate",
    "raised_cosine_shape",
    "sample_symbols",
    "multiplex_branch_signals",
    "otdm_multiplex",
]

_INT_TOL = 1e-9


def _snapped(value: float) -> int | float:
    """``value`` as the integer within ``_INT_TOL`` of it, or as it is."""
    n = round(value)
    return int(n) if abs(value - n) <= _INT_TOL * max(1.0, abs(value)) else value


def _require_integer(value: float, what: str) -> int:
    n = _snapped(value)
    if not isinstance(n, int):
        raise ValueError(f"{what} must be an integer, got {value:g}")
    return n


def _branch_rows(lines, orders: np.ndarray, n_branches: int) -> np.ndarray:
    """Every branch's coefficients of a pulse train whose lines ``lines`` sit
    at the integer ``orders`` times the branch rate: row l-1 is branch 1's
    delayed by its slot (l-1)/B, which turns line m by
    ``(orders[m]*(l-1)) mod N`` of N turns.  Whole turns keep every row the
    same bits at any B."""
    turns = np.outer(np.arange(n_branches), orders) % n_branches
    return lines * np.exp(-2j * np.pi * turns / n_branches)


def nyquist_interpolate(symbols, symbol_rate: float, grid: TimeGrid,
                        t_offset: float = 0.0) -> Signal:
    """Zero-ISI interpolation of a symbol block with a periodized sinc kernel.

    The result is the unique trigonometric polynomial confined to
    |f| <= symbol_rate/2 that passes through every symbol at
    ``t = t_offset + k/symbol_rate``: :func:`raised_cosine_shape` at
    rolloff 0.  For even symbol counts the symbol-Nyquist coefficient is
    split half-and-half between +R/2 and -R/2, which keeps the interpolation
    exact with half-amplitude edge bins.
    """
    return raised_cosine_shape(symbols, symbol_rate, 0.0, grid, t_offset)


def raised_cosine_shape(symbols, symbol_rate: float, rolloff: float,
                        grid: TimeGrid, t_offset: float = 0.0) -> Signal:
    """Raised-cosine pulse shaping of a 1-D symbol block on a circular window.

    rolloff 0 is :func:`nyquist_interpolate`; rolloff r occupies
    ``(1 + r) * symbol_rate / 2`` on each side while keeping the symbol
    instants ``t_offset + k/symbol_rate`` ISI-free.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.ndim != 1 or symbols.shape[0] == 0:
        raise ValueError("symbols must be a non-empty 1-D array")
    if not 0.0 <= rolloff <= 1.0:
        raise ValueError(f"rolloff must lie in [0, 1], got {rolloff:g}")
    if not symbol_rate > 0:
        raise ValueError("symbol_rate must be positive")
    m_sym = symbols.shape[0]
    window_symbols = _require_integer(grid.duration * symbol_rate,
                                      "grid window in symbol periods")
    if window_symbols != m_sym:
        raise ValueError(
            f"grid window holds {window_symbols} symbol periods but the "
            f"block has {m_sym} symbols"
        )

    n = grid.n_samples
    if m_sym >= n:
        raise ValueError("symbol_rate must be below the grid sample rate")
    # in bins the symbol rate is m_sym: the shape reaches the bins
    # |k| <= (1 + r) * m_sym / 2, as signed indices within fftfreq's range
    reach = int((1.0 + rolloff) * m_sym / 2)
    k = np.arange(max(-reach, -(n // 2)), min(reach, (n - 1) // 2) + 1)
    if rolloff == 0.0:
        shape = np.where(2 * np.abs(k) == m_sym, 0.5, 1.0)
    else:
        x = (np.abs(k) - (1.0 - rolloff) * m_sym / 2) / (rolloff * m_sym)
        shape = 0.5 * (1.0 + np.cos(np.pi * np.clip(x, 0.0, 1.0)))
    # The symbols' periodic interpolant has the M lines fft(symbols)[k mod M]
    # / M at bins k, phase-referenced to the first symbol instant; the shaped
    # signal's bins are those lines times the shape times n, each delayed by
    # the offset's s samples: (k*s) mod n of n turns, whole for whole s.
    s = _snapped(t_offset * grid.sample_rate)
    ramp = np.exp(-2j * np.pi * ((k * s) % n) / n)
    bins = (n / m_sym) * shape * ramp * np.fft.fft(symbols)[k % m_sym]
    return Signal._of_bins(grid, bins, int(k[0]))


def sample_symbols(sig, symbol_rate: float, t_offset=0.0) -> np.ndarray:
    """Read symbols back off a signal at ``t = t_offset + k/symbol_rate``.

    Symbol instants must fall on grid samples and the window must hold a
    whole number M of symbol periods, k = 0..M-1.  The values come from the
    signal's bins: folded onto M bins, then one M-point inverse FFT.  N
    signals on one grid and N offsets read as (N, M), one batched inverse FFT.
    """
    if not symbol_rate > 0:
        raise ValueError("symbol_rate must be positive")
    one = isinstance(sig, Signal)
    sigs, offsets = ([sig], [t_offset]) if one else (list(sig), t_offset)
    if (not sigs or np.ndim(offsets) != 1 or len(offsets) != len(sigs)
            or not all(isinstance(s, Signal) and s.grid == sigs[0].grid for s in sigs)):
        raise ValueError("expected one or more signals, one offset per signal, all on one grid")
    grid = sigs[0].grid
    n = grid.n_samples
    sps = _require_integer(grid.sample_rate / symbol_rate, "samples per symbol")
    m_sym = _require_integer(grid.duration * symbol_rate,
                             "grid window in symbol periods")
    folds = np.empty((len(sigs), m_sym), dtype=np.complex128)
    for fold, s, t in zip(folds, sigs, offsets):
        start = _require_integer(t * grid.sample_rate, "symbol offset in samples")
        # sample start + q*sps is (1/n) sum_k bins[k] exp(2j*pi*k*(start + q*sps)/n);
        # with k = a*M + r the sum over a folds the bins onto r = 0..M-1: over the
        # rows the band reaches, in ascending a mod sps, whatever the band's
        # width; sps rows hold every bin once, so a band of the whole grid reads no more
        first, band = s._band
        a = np.arange(first // m_sym, (first + band.size - 1) // m_sym + 1)[:sps]
        rows = s._window(int(a[0]) * m_sym, a.size * m_sym).reshape(a.size, m_sym)
        turns = np.exp(2j * np.pi * ((a * start) % sps) / sps)
        fold[:] = sum(turns[i] * rows[i] for i in np.argsort(a % sps, kind="stable"))
        fold *= np.exp(2j * np.pi * ((np.arange(m_sym) * start) % n) / n)
    symbols = np.fft.ifft(folds, axis=-1)
    symbols /= sps  # in place: the (N, M) reads set a run's peak memory
    return symbols[0] if one else symbols


def _sequence_lines(plan: ChannelPlan, grid: TimeGrid):
    """Spectral lines of every branch's sinc sequence on ``grid``.

    Returns (shifts, rows): branch l's sequence is
    ``sum_m rows[l-1, m] * exp(2j*pi*shifts[m]*j/n)`` over the grid's
    samples j, so multiplying a signal by it adds its bins shifted by
    ``shifts[m]`` and weighted by ``rows[l-1, m]``.  Only the phase of
    branch l's slot (l-1)/B on each line sets the rows apart.  The window
    must hold whole sequence periods: every shift is whole bins.
    """
    spacing = _require_integer(grid.duration * plan.symbol_rate,
                               "grid window in sequence periods")
    if spacing < 1:
        raise ValueError("grid window must hold at least one sequence period")
    half = (plan.n_branches - 1) // 2
    orders = np.arange(-half, half + 1)
    return orders * spacing, _branch_rows(1.0 / plan.n_branches, orders,
                                          plan.n_branches)


def multiplex_branch_signals(branch_signals: list[Signal],
                             plan: ChannelPlan) -> Signal:
    """Sum branch signals, each gated by its time-shifted sinc sequence.

    Branch l (1-based) is multiplied by the sequence peaking at
    ``(l-1)/B + k*N/B``; the zero crossings of the other branches' sequences
    at those instants keep the branches orthogonal.  In the frequency domain
    the sum is ``sum_m exp(-2j*pi*m*R*tau_l) X_l(f - m*R) / N`` over the N
    sequence lines m, a whole number of bins apart.
    """
    if len(branch_signals) != plan.n_branches:
        raise ValueError(
            f"expected {plan.n_branches} branch signals, got {len(branch_signals)}"
        )
    grid = branch_signals[0].grid
    n = grid.n_samples
    if any(sig.grid != grid for sig in branch_signals):
        raise ValueError("branch signals must share the same grid")
    shifts, rows = _sequence_lines(plan, grid)
    # only the band |k| <= reach holding every nonzero bin takes part; found by
    # value, the product's operand (so its rounding) is the same for any band
    reach = 0
    for sig in branch_signals:
        first, values = sig._band
        k = (first + np.flatnonzero(values) + n // 2) % n - n // 2
        reach = max(reach, int(np.max(np.abs(k), initial=0)))
    start, size = (-reach, 2 * reach + 1) if 2 * reach < n else (0, n)
    # row m: the branches' bins weighted by their line-m coefficients
    weighted = rows.T @ np.stack([sig._window(start, size) for sig in branch_signals])
    width = min(n, size + int(shifts[-1] - shifts[0]))
    acc = np.zeros(width, dtype=np.complex128)
    for shift, row in zip((shifts - shifts[0]).tolist(), weighted):
        for dst, src in _laid(shift % width, size, width, width):
            acc[dst] += row[src]
    return Signal._of_bins(grid, acc, start + int(shifts[0]))


def otdm_multiplex(symbols, symbol_rate: float, plan: ChannelPlan,
                   grid: TimeGrid, rolloff: float = 0.0) -> Signal:
    """Multiplex N symbol blocks, all at ``symbol_rate``, into one B-wide signal.

    Each block is raised-cosine shaped with ``rolloff`` at its branch
    offset and gated by the branch sequence.  Blocks at the branch rate B/N
    with rolloff 0 are sinc-interpolated: the aggregate occupies exactly
    |f| <= B/2 and carries block l's symbols untouched at
    ``t = (k*N + l - 1)/B``.
    """
    if len(symbols) != plan.n_branches:
        raise ValueError(
            f"expected {plan.n_branches} symbol blocks, got {len(symbols)}"
        )
    shaped = [raised_cosine_shape(block, symbol_rate, rolloff, grid,
                                  t_offset=plan.slot(l))
              for l, block in enumerate(symbols, start=1)]
    return multiplex_branch_signals(shaped, plan)
