"""Sampled-signal containers and the spectral operations everything else builds on.

All signals live on uniform time grids and are treated as immutable values:
operations return new objects and never mutate their inputs, so the whole
package is safe to drive from concurrent workers.

Amplitude convention: ``|sample|**2`` is instantaneous power with unit mean
power corresponding to the 0 dBm reference.  :func:`spectrum` reads the whole
spectrum in the matching amplitude convention (DFT / n), so a unit complex
tone produces a single bin of magnitude 1 and ``|bin|**2`` reads as line power.
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
        if _index(self.n_samples) <= 0:
            raise ValueError("n_samples must be a positive integer")

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate

    @property
    def freq_resolution(self) -> float:  # the bins' spacing, as np.fft.fftfreq's
        return 1.0 / (self.n_samples * self.dt)

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
    between its steps and touches only the band; every reader of the bins
    gathers them by signed index (``_take``).  Samples are copied on
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
            samples = np.fft.ifft(self._take(np.arange(self.grid.n_samples)))
            samples.setflags(write=False)
            object.__setattr__(self, "_samples", samples)
        return self._samples

    @property
    def power(self) -> float:
        """Mean power ``mean(|samples|^2)``; without samples, by Parseval over the band."""
        if self._samples is None:
            n, band = self.grid.n_samples, self._band[1]
            return float(np.vdot(band, band).real) / n / n
        return float(np.mean(np.abs(self._samples) ** 2))


def _index(value) -> int:
    """``operator.index(value)``; -1 for a bool or a non-integer (a float is no count)."""
    try:
        return -1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return -1


def _require_odd_count(value, what: str) -> None:
    """Raise unless ``value`` is an odd integer >= 3 by :func:`_index`."""
    n = _index(value)
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
    n = sig.grid.n_samples
    spec = sig._take(np.arange(-(n // 2), (n + 1) // 2)) / n
    spec.setflags(write=False)
    return spec


def constant(grid: TimeGrid, amplitude: complex = 1.0) -> Signal:
    """Constant (CW) signal."""
    return Signal(grid, np.full(grid.n_samples, amplitude, dtype=np.complex128))


# ---------------------------------------------------------------------------
# serialization

_CSV_BLOCK_ROWS = 8192

# The %.17g kernel's tables: 10**s (s <= 22, exact) and its Dekker halves; the
# ASCII digits of 0..9999 as words, first digit lowest, and their trailing zeros.
_P10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
_P10_HI = 134217729.0 * _P10 - (134217729.0 * _P10 - _P10)
_P10_LO = _P10 - _P10_HI
_QUAD = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
_QUAD_WORD = (_QUAD + 48).view("<u4").ravel().astype(np.uint64)
_TZ = np.cumprod(_QUAD[:, ::-1] == 0, axis=1, dtype=np.int8).sum(axis=1, dtype=np.int8)


def _g17_field_tables():
    """The masks and fixed bytes of ``_g17``'s fields: (782, 3, 4) words."""
    x, i, neg, b = np.ix_(np.arange(-6, 17), np.arange(17), [0, 1], np.arange(32))
    p = np.where(x >= -4, x, 0)  # the last integer digit's exponent
    suffix = np.array([101, 45, 48, 48])[np.clip(b - 25, 0, 3)] - x * (b == 28)  # e-0X
    masks = [(b >= 7 + np.minimum(p, 0)) & (b <= 7 + p), (b >= 9 + p) & (b <= 8 + i)]
    add = np.select([(b == 0) & (neg == 1), (b == 8 + p) & (i > p),
                     (x < -4) & (b >= 25) & (b <= 28)], [45, 46, suffix])
    tables = np.stack(np.broadcast_arrays(255 * masks[0], 255 * masks[1], add), axis=-2)
    return tables.astype(np.uint8).reshape(-1, 3, 32).view("<u8")


_G17 = _g17_field_tables()


def _g17(x, out, sep) -> None:
    """Write ``'%.17g' % v`` and column j's separator word ``sep[j]`` into ``out``,
    one 32-byte (4-word) field per v of the 2-D float table ``x``.

    The field is exact for 1e-6 < |v| < 1e17: e = floor(log10 |v|), mended
    where (hi - 1e17) + lo >= 0 or (hi - 1e16) + lo < 0 (exact tests, by
    Sterbenz's lemma), puts |v| * 10**(16 - e) in [1e16, 1e17).  That power
    of ten is an exact double (16 - e <= 22), Dekker's TwoProduct gives the
    product exactly as hi + lo, and hi >= 1e16 > 2**53 is an even integer, so
    hi + rint(lo) rounds the 17-digit significand half to even, as ``%``
    does.  The layout: the sign at byte 0; "0000" at 3-6 and digit k at 7 + k
    of the digit words, which give the integer part to 7 + X (X the exponent;
    the "0" at 7 + X when X < 0); the dot at 8 + X; the fraction to the last
    nonzero digit i at 9 + X..8 + i, from the digit words shifted up one
    byte, its leading zeros from "0000"; "e-0X" at 25-28 when X < -4, laid
    out as X = 0; the separator at 31.  A table row per (X, i, sign) holds
    both masks and the fixed bytes.  |v| <= 1e-6, |v| >= 1e17, inf and nan
    keep ``%`` in the same field: no ``%.17g`` string is longer than 24 bytes
    (``-2.2250738585072014e-308``), so the separator never overwrites one.
    """
    fast = (np.abs(x) > 1e-6) & (np.abs(x) < 1e17)
    a = np.abs(np.where(fast, x, 1.0))
    ah = (c := 134217729.0 * a) - (c - a)  # Dekker's split: a = ah + al, 26-bit halves
    al = a - ah
    e = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp)
    while True:  # mend a log10 one off near a power of ten: a 2nd pass only if one moved
        s = 16 - e  # a * 10**s = hi + lo exactly, Dekker's TwoProduct
        hi, p_hi, p_lo = a * _P10[s], _P10_HI[s], _P10_LO[s]
        lo = ((ah * p_hi - hi) + ah * p_lo + al * p_hi) + al * p_lo
        if not ((hi >= 1e17) | (hi <= 1e16)).any():
            break
        step = ((hi - 1e17) + lo >= 0).view(np.int8) - ((hi - 1e16) + lo < 0).view(np.int8)
        if not step.any():
            break
        e += step
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = d == 10 ** 17  # rounded up to one more digit
    d, e = np.where(carry, 10 ** 16, d), e + carry
    d0, q, top, r = d // 10 ** 16, d // 10 ** 12, d // 10 ** 8, d // 10 ** 4  # // beats %
    g3, g2, g1, g0 = q - d0 * 10 ** 4, top - q * 10 ** 4, r - top * 10 ** 4, d - r * 10 ** 4
    tz = _TZ[g0] + (g0 == 0) * (_TZ[g1] + (g1 == 0) * (_TZ[g2] + (g2 == 0) * _TZ[g3]))
    w = np.empty((4,) + x.shape, np.uint64)  # the digit words, word by word
    w[0], w[3] = _QUAD_WORD[d0] << 32 | 48 << 24, 0
    w[1], w[2] = _QUAD_WORD[g2] << 32 | _QUAD_WORD[g3], _QUAD_WORD[g0] << 32 | _QUAD_WORD[g1]
    shifted = w << 8
    shifted[1:] |= w[:-1] >> 56
    row = ((e + 6) * 17 + 16 - tz) * 2 + (x < 0)
    keep, keep_shifted, add = np.moveaxis(_G17.take(row, axis=0), (-2, -1), (0, 1))
    w &= keep
    shifted &= keep_shifted
    w |= shifted
    slow = np.array(["%.17g" % v for v in x[~fast].tolist()], "S32").view("<u8")
    w[:, ~fast], add[:, ~fast] = slow.reshape(-1, 4).T, 0
    for j in range(x.shape[1]):  # by column: a column axis would be the inner loop
        np.bitwise_or(w[..., j], add[..., j], out=out[:, j].T)
        out[:, j, 3] |= sep[j]


def _write_csv(path, header: str, rows) -> None:
    """Write a 2-D float table as CSV, byte for byte as ``np.savetxt(path,
    rows, fmt="%.17g", delimiter=",", header=header, comments="")`` does.

    Each block of ``_CSV_BLOCK_ROWS`` rows is one (rows, columns, 4) matrix
    of words, each value and its separator a NUL-padded ``_g17`` field,
    written without the NULs.  A column with at most half of its first
    block's values distinct by their bits (-0.0 prints ``-0``) is formatted
    once per distinct value and gathered by its rows; ``_g17`` writes each
    run of the other, adjacent columns in one call a block.
    """
    rows = np.asarray(rows, dtype=np.float64)
    n_cols = rows.shape[1]
    seps = np.array([ord(",")] * (n_cols - 1) + [ord("\n")], np.uint64) << 56  # byte 31
    pooled = {}  # column -> (its distinct values' fields, each row's index)
    for j in range(n_cols):
        bits = rows[:, j].view(np.uint64)
        # counted on the first block's sorted bits: np.unique's index and
        # inverse would cost an all-distinct column a quarter of its time
        head = np.sort(bits[:_CSV_BLOCK_ROWS])
        if 2 * (np.count_nonzero(np.diff(head)) + 1) <= head.size:
            _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
            fields = np.empty((first.size, 1, 4), np.uint64)
            _g17(rows[first, j:j + 1], fields, seps[j:j + 1])
            pooled[j] = fields[:, 0], inverse
    runs = np.flatnonzero(np.diff([0] + [j not in pooled for j in range(n_cols)] + [0]))
    out = np.empty((min(len(rows), _CSV_BLOCK_ROWS), n_cols, 4), np.uint64)
    # text mode with the default encoding and newlines, as np.savetxt opens it
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[start:start + _CSV_BLOCK_ROWS]
            o = out[:len(block)]
            for j, (fields, inverse) in pooled.items():
                o[:, j] = fields[inverse[start:start + len(block)]]
            for j, k in runs.reshape(-1, 2):  # a run of adjacent unpooled columns
                _g17(block[:, j:k], o[:, j:k], seps[j:k])
            fh.write(o.tobytes().translate(None, b"\0").decode())
