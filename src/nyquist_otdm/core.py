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
        bins = self._take(np.arange(self.grid.n_samples))
        bins.setflags(write=False)
        return bins

    @property
    def power(self) -> float:
        """Mean power ``mean(|samples|^2)``; without samples, by Parseval over the band."""
        if self._samples is None:
            n, band = self.grid.n_samples, self._band[1]
            return float(np.vdot(band, band).real) / n / n
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


def spectrum(sig: Signal) -> np.ndarray:
    """Read-only amplitude spectrum of ``sig``: DFT / n in ascending
    frequency, the carrier at index ``n // 2``."""
    spec = np.fft.fftshift(sig.bins) / sig.grid.n_samples
    spec.setflags(write=False)
    return spec


def constant(grid: TimeGrid, amplitude: complex = 1.0) -> Signal:
    """Constant (CW) signal."""
    return Signal(grid, np.full(grid.n_samples, amplitude, dtype=np.complex128))


# ---------------------------------------------------------------------------
# serialization

_CSV_BLOCK_ROWS = 4096

# The %.17g kernel's tables: 10**s (s <= 22, exact) and its Dekker halves; the
# ASCII digits of 0..9999 as words, first digit lowest, and their trailing zeros.
_P10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
_P10_HI = 134217729.0 * _P10 - (134217729.0 * _P10 - _P10)
_P10_LO = _P10 - _P10_HI
_QUAD = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
_QUAD_WORD = (_QUAD + 48).view("<u4").ravel().astype(np.uint64)
_TZ = np.cumprod(_QUAD[:, ::-1] == 0, axis=1, dtype=np.int8).sum(axis=1, dtype=np.int8)


def _g17_field_tables():
    """Byte masks and fixed bytes of a 56-byte field, by exponent X (-6..16),
    last nonzero digit i (0..16) and sign.  Bytes 3-23 and 27-47 hold "0000"
    and the 17 digits: the integer part (0 when X < 0), then the fraction to
    digit i after a dot at 26; X < -4 keeps one integer digit and adds "e-0X"
    at 48-51.  The sign is at byte 0, the separator at 55."""
    x, i, neg, b = np.ix_(np.arange(-6, 17), np.arange(17), [0, 1], np.arange(56))
    q = 4 + np.where(x >= -4, x, 0)  # the integer digit's position
    keep = (((b >= np.minimum(q, 4) + 3) & (b <= q + 3))
            | ((b >= q + 28) & (b <= i + 31)) | (b == 55))
    suffix = np.array([101, 45, 48, 48])[np.clip(b - 48, 0, 3)] - x * (b == 51)  # e-0X
    add = np.select([(b == 0) & (neg == 1), (b == 26) & (i + 4 > q),
                     (x < -4) & (b >= 48) & (b <= 51)], [45, 46, suffix])
    return [np.broadcast_to(t, add.shape).astype(np.uint8).reshape(-1, 56).view("<u8")
            for t in (keep * 255, add)]


_G17_KEEP, _G17_ADD = _g17_field_tables()


def _g17(x, sep: int) -> np.ndarray:
    """Fields of ``'%.17g' % v`` and separator ``sep``, (n, 7) words, for 1e-6 < |v| < 1e17."""
    a = np.abs(x)
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    e = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp)
    for _ in range(2):  # mend a log10 one off near a power of ten; the 2nd finds none
        s = 16 - e  # a * 10**s = hi + lo exactly, Dekker's TwoProduct
        hi = a * _P10[s]
        lo = ((ah * _P10_HI[s] - hi) + ah * _P10_LO[s] + al * _P10_HI[s]) + al * _P10_LO[s]
        e += (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        e -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))  # hi alone can round onto 1e16
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = d == 10 ** 17  # rounded up to one more digit
    d, e = np.where(carry, 10 ** 16, d), e + carry
    top, low = np.divmod(d, 10 ** 8)
    top, g2 = np.divmod(top, 10 ** 4)
    d0, g3 = np.divmod(top, 10 ** 4)
    g1, g0 = np.divmod(low, 10 ** 4)
    tz = _TZ[g0] + (g0 == 0) * (_TZ[g1] + (g1 == 0) * (_TZ[g2] + (g2 == 0) * _TZ[g3]))
    digits = np.stack([_QUAD_WORD[d0] << 32 | 48 << 24, _QUAD_WORD[g3] | _QUAD_WORD[g2] << 32,
                       _QUAD_WORD[g1] | _QUAD_WORD[g0] << 32], axis=1)
    words = np.hstack([digits, digits, np.full((len(x), 1), sep << 56, np.uint64)])
    row = ((e + 6) * 17 + 16 - tz) * 2 + (x < 0)
    words &= _G17_KEEP[row]
    words |= _G17_ADD[row]
    return words


def _words(strings, width: int = 0) -> np.ndarray:
    """ASCII ``strings`` NUL-padded to rows of at least ``width`` words."""
    text = np.array(strings, dtype="S")
    width = max(width, -(-text.itemsize // 8))
    return text.astype(f"S{8 * width}").view("<u8").reshape(-1, width)


def _fields(column, fmt: str) -> np.ndarray:
    """``fmt % v``, ``fmt`` ending in its separator, for each v of ``column``."""
    if fmt[:-1] != "%.17g" or column.dtype != np.float64:
        return _words([fmt % v for v in column.tolist()])
    fast = (np.abs(column) > 1e-6) & (np.abs(column) < 1e17)
    words = _g17(np.where(fast, column, 1.0), ord(fmt[-1]))
    words[~fast] = _words([fmt % v for v in column[~fast].tolist()], 7)
    return words


def _write_csv(path, header: str, fmt, rows) -> None:
    """Write a 2-D table as CSV, byte for byte as ``np.savetxt(path, rows,
    fmt=fmt, delimiter=",", header=header, comments="")`` does.

    ``fmt`` is one ``%`` format or a list of one per column.  Each block of
    ``_CSV_BLOCK_ROWS`` rows is a matrix of words, each value and separator
    a NUL-padded field, written without the NULs.  A ``%.17g`` float with
    1e-6 < |v| < 1e17 is formatted in numpy, exactly: e = floor(log10 |v|),
    mended where the logarithm is one off, puts |v| * 10**(16 - e) in [1e16,
    1e17).  That power of ten is an exact double (16 - e <= 22), Dekker's
    TwoProduct gives the product exactly as hi + lo, and hi >= 1e16 > 2**53
    is an even integer, so hi + rint(lo) rounds the 17-digit significand
    half to even, as ``%`` does.  Other values (|v| <= 1e-6, |v| >= 1e17,
    inf, nan) and formats keep ``%``, one list comprehension per block; so
    does a column with at most half of its values distinct, once per value
    distinct by its bits (-0.0 prints ``-0``), gathered by its rows.
    """
    rows = np.asarray(rows)
    fmts = [fmt] * rows.shape[1] if isinstance(fmt, str) else list(fmt)
    fmts = [f + sep for f, sep in zip(fmts, [","] * (len(fmts) - 1) + ["\n"])]
    pooled = {}  # column -> (its distinct values' fields, each row's index)
    for j, f in enumerate(fmts):
        bits = rows[:, j].view(f"u{rows.itemsize}")
        # counted on the sorted bits: np.unique's index and inverse would cost
        # an all-distinct column a quarter of its formatting time
        if 2 * (np.count_nonzero(np.diff(np.sort(bits))) + 1) <= bits.size:
            _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
            pooled[j] = _words([f % v for v in rows[first, j].tolist()]), inverse
    # text mode with the default encoding and newlines, as np.savetxt opens it
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            fields = [pooled[j][0][pooled[j][1][block]] if j in pooled
                      else _fields(rows[block, j], f) for j, f in enumerate(fmts)]
            fh.write(np.hstack(fields, dtype="<u8").tobytes().translate(None, b"\0").decode())
