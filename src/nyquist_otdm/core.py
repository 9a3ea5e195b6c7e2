"""Sampled-signal containers and the spectral operations everything else builds on.

All signals live on uniform time grids and are treated as immutable values:
operations return new objects and never mutate their inputs, so the whole
package is safe to drive from concurrent workers.

Amplitude convention: ``|sample|**2`` is instantaneous power with unit mean
power corresponding to the 0 dBm reference.  Spectra use the matching
amplitude convention (DFT / n), so a unit complex tone produces a single bin
of magnitude 1 and ``|bin|**2`` reads directly as line power.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "Signal",
    "ChannelPlan",
    "spectrum",
    "constant",
    "delay_signal",
    "require_same_grid",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid whose first sample is at t = 0.

    Parameters
    ----------
    sample_rate : float
        Samples per second (Hz), finite and positive.
    n_samples : int
        Number of samples in the window, an integer (not a bool).
    """

    sample_rate: float
    n_samples: int

    def __post_init__(self):
        if not (self.sample_rate > 0 and math.isfinite(self.sample_rate)):
            raise ValueError("sample_rate must be finite and positive")
        try:
            n = operator.index(self.n_samples)
        except TypeError:
            n = 0
        if isinstance(self.n_samples, bool) or n <= 0:
            raise ValueError("n_samples must be a positive integer")

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate

    @property
    def freq_resolution(self) -> float:
        return self.sample_rate / self.n_samples

    @property
    def nyquist(self) -> float:
        return self.sample_rate / 2.0

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.n_samples) / self.sample_rate


def _locked(values, what: str, lengths) -> np.ndarray:
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 1:
        raise ValueError(f"{what} must be a 1-D array")
    if values.shape[0] not in lengths:
        raise ValueError(f"{what} length {values.shape[0]} does not fit grid "
                         f"n_samples {max(lengths)}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")
    values.setflags(write=False)
    return values


class Signal:
    """Complex baseband field envelope sampled on a :class:`TimeGrid`.

    A signal is an immutable value that holds its samples, its DFT bins
    (``np.fft.fft(samples)``: unshifted, not divided by n, held as a band of
    signed bins with all others zero), or both.  The missing one is computed
    once, on first use, so a chain of per-bin operations pays no transform
    between its steps and touches only the band.  Samples are copied on
    construction and locked read-only; so is the band.  Non-finite values
    are rejected so downstream power metrics stay finite.
    """

    __slots__ = ("grid", "_samples", "_band")

    def __init__(self, grid: TimeGrid, samples):
        samples = np.array(samples, dtype=np.complex128)
        self._set(grid, _locked(samples, "samples", [grid.n_samples]), None)

    @classmethod
    def _of_bins(cls, grid: TimeGrid, bins: np.ndarray, first: int = 0) -> "Signal":
        """Signal whose DFT bins from signed index ``first`` on are ``bins``,
        the rest zero; kept, not copied, so callers pass one they do not keep."""
        band = _locked(bins, "bins", range(1, grid.n_samples + 1))
        sig = cls.__new__(cls)
        sig._set(grid, None, (first, band))
        return sig

    def _set(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Signal is immutable")

    def _spectrum(self) -> tuple[int, np.ndarray]:
        """(first, band): the band's first signed bin and its values."""
        if self._band is None:
            band = np.fft.fft(self._samples)
            band.setflags(write=False)
            object.__setattr__(self, "_band", (0, band))
        return self._band

    def _take(self, k: np.ndarray) -> np.ndarray:
        """The bins at the signed indices ``k``; zero outside the band."""
        first, band = self._spectrum()
        j = (k - first) % self.grid.n_samples
        return np.where(j < band.size, band[np.minimum(j, band.size - 1)], 0)

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            samples = np.fft.ifft(self.bins)
            samples.setflags(write=False)
            object.__setattr__(self, "_samples", samples)
        return self._samples

    @property
    def bins(self) -> np.ndarray:
        """Unshifted DFT bins, ``np.fft.fft(samples)``, built on each read."""
        first, band = self._spectrum()
        bins = np.zeros(self.grid.n_samples, dtype=np.complex128)
        bins[(first + np.arange(band.size)) % bins.size] = band
        bins.setflags(write=False)
        return bins

    @property
    def power(self) -> float:
        """Mean power ``mean(|samples|^2)``, by Parseval from the bins when
        the samples were never needed."""
        if self._samples is None:
            n, bins = self.grid.n_samples, self.bins
            return float(np.vdot(bins, bins).real) / n / n
        return float(np.mean(np.abs(self._samples) ** 2))


def _require_odd_count(value, what: str) -> None:
    """Raise unless ``value`` is an odd integer >= 3 by ``operator.index``
    (a float is no count; a bool is 0 or 1, so it fails too)."""
    try:
        n = operator.index(value)
    except TypeError:
        n = 0
    if n < 3 or n % 2 == 0:
        raise ValueError(f"{what} must be an odd integer >= 3")


@dataclass(frozen=True)
class ChannelPlan:
    """Branch plan for N-way orthogonal time multiplexing of total bandwidth B.

    ``n_branches`` must be odd (the multiplexing sequence needs an odd line
    count); branches are numbered 1..N.
    """

    n_branches: int
    aggregate_bandwidth: float

    def __post_init__(self):
        _require_odd_count(self.n_branches, "n_branches")
        if not 0 < self.aggregate_bandwidth < math.inf:
            raise ValueError("aggregate_bandwidth must be finite and positive")

    @property
    def symbol_rate(self) -> float:
        """Per-branch symbol rate B/N, also the sampling-comb line spacing."""
        return self.aggregate_bandwidth / self.n_branches

    @property
    def detection_half_width(self) -> float:
        """Half-width B/(2N) of the post-sampling detection lowpass."""
        return self.aggregate_bandwidth / (2 * self.n_branches)

    def slot(self, branch: int) -> float:
        """Time slot (branch-1)/B of a branch."""
        return (branch - 1) / self.aggregate_bandwidth


def require_same_grid(a, b) -> None:
    """Raise if two signals do not share an identical grid."""
    if a.grid != b.grid:
        raise ValueError("operands must share the same grid")


def spectrum(sig: Signal) -> np.ndarray:
    """Read-only amplitude spectrum of ``sig``: DFT / n in ascending
    frequency, the carrier at index ``n // 2``."""
    spec = np.fft.fftshift(sig.bins) / sig.grid.n_samples
    spec.setflags(write=False)
    return spec


def constant(grid: TimeGrid, amplitude: complex = 1.0) -> Signal:
    """Constant (CW) signal."""
    return Signal(grid, np.full(grid.n_samples, amplitude, dtype=np.complex128))


def delay_signal(sig: Signal, delay: float) -> Signal:
    """Circularly delay a signal by ``delay`` seconds via a spectral phase ramp.

    Exact for the periodic, bandlimited signals used throughout; positive
    delay moves the waveform later in time.
    """
    if delay == 0.0:
        return sig
    n = sig.grid.n_samples
    first, band = sig._spectrum()
    f = np.fft.fftfreq(n, sig.grid.dt)[(first + np.arange(band.size)) % n]
    return Signal._of_bins(sig.grid, np.exp(-2j * np.pi * f * delay) * band, first)


# ---------------------------------------------------------------------------
# serialization

_CSV_BLOCK_ROWS = 4096


def _write_csv(path, header: str, fmt, rows) -> None:
    """Write a 2-D table as CSV, byte for byte as ``np.savetxt(path, rows,
    fmt=fmt, delimiter=",", header=header, comments="")`` does.

    ``fmt`` is one ``%`` format for every column or a list with one per
    column.  Each block of ``_CSV_BLOCK_ROWS`` rows is formatted by a single
    ``%`` over the whole block, about twice as fast as one ``%`` per row,
    while the block's string stays a few hundred kB.
    """
    rows = np.asarray(rows)
    fmts = [fmt] * rows.shape[1] if isinstance(fmt, str) else list(fmt)
    row_fmt = ",".join(fmts) + "\n"
    # text mode with the default encoding and newlines, as np.savetxt opens it
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[start:start + _CSV_BLOCK_ROWS]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))
