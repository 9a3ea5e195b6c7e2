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

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "TimeGrid",
    "Signal",
    "Spectrum",
    "ChannelPlan",
    "spectrum",
    "inverse_spectrum",
    "brickwall_lowpass",
    "rmse_percent",
    "power_dbm",
    "normalize",
    "tone",
    "constant",
    "delay_signal",
    "require_same_grid",
    "write_signal_csv",
    "read_signal_csv",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid.

    Parameters
    ----------
    sample_rate : float
        Samples per second (Hz).
    n_samples : int
        Number of samples in the window.
    t0 : float
        Time of the first sample (s).
    """

    sample_rate: float
    n_samples: int
    t0: float = 0.0

    def __post_init__(self):
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be positive")
        if int(self.n_samples) != self.n_samples or self.n_samples <= 0:
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
        return self.t0 + np.arange(self.n_samples) / self.sample_rate


@dataclass(frozen=True, eq=False)
class Signal:
    """Complex baseband field envelope sampled on a :class:`TimeGrid`.

    Samples are copied on construction and locked read-only.  Non-finite
    samples are rejected so downstream power metrics stay finite.
    """

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise ValueError("samples must be a 1-D array")
        if samples.shape[0] != self.grid.n_samples:
            raise ValueError(
                f"samples length {samples.shape[0]} does not match grid "
                f"n_samples {self.grid.n_samples}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        samples = samples.copy()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def power(self) -> float:
        """Mean power ``mean(|samples|^2)``."""
        return float(np.mean(np.abs(self.samples) ** 2))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Amplitude spectrum of a signal, bins in ascending-frequency order.

    ``bins[i]`` is the complex amplitude of the exponential at ``freqs[i]``
    (frequencies relative to the carrier), so a unit tone occupies a single
    bin of magnitude 1.
    """

    grid: TimeGrid
    bins: np.ndarray

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.complex128)
        if bins.ndim != 1 or bins.shape[0] != self.grid.n_samples:
            raise ValueError("bins must be 1-D and match the grid length")
        bins = bins.copy()
        bins.setflags(write=False)
        object.__setattr__(self, "bins", bins)

    @property
    def freq_resolution(self) -> float:
        return self.grid.freq_resolution

    @property
    def freqs(self) -> np.ndarray:
        return np.fft.fftshift(np.fft.fftfreq(self.grid.n_samples, self.grid.dt))


@dataclass(frozen=True)
class ChannelPlan:
    """Branch plan for N-way orthogonal time multiplexing of total bandwidth B.

    ``n_branches`` must be odd (the multiplexing sequence needs an odd line
    count); ``branch`` is 1-based.
    """

    n_branches: int
    aggregate_bandwidth: float
    branch: int = 1

    def __post_init__(self):
        if self.n_branches < 3 or self.n_branches % 2 == 0:
            raise ValueError("n_branches must be an odd integer >= 3")
        if not self.aggregate_bandwidth > 0:
            raise ValueError("aggregate_bandwidth must be positive")
        if not 1 <= self.branch <= self.n_branches:
            raise ValueError(
                f"branch must be in 1..{self.n_branches}, got {self.branch}"
            )

    @property
    def symbol_rate(self) -> float:
        """Per-branch symbol rate B/N, also the sampling-comb line spacing."""
        return self.aggregate_bandwidth / self.n_branches

    @property
    def detection_half_width(self) -> float:
        """Half-width B/(2N) of the post-sampling detection lowpass."""
        return self.aggregate_bandwidth / (2 * self.n_branches)

    @property
    def time_offset(self) -> float:
        """Time slot of this branch, (branch-1)/B."""
        return (self.branch - 1) / self.aggregate_bandwidth

    @property
    def sequence_period(self) -> float:
        return self.n_branches / self.aggregate_bandwidth

    def for_branch(self, branch: int) -> "ChannelPlan":
        return ChannelPlan(self.n_branches, self.aggregate_bandwidth, branch)


def require_same_grid(a, b) -> None:
    """Raise if two signals/spectra do not share an identical grid."""
    if a.grid != b.grid:
        raise ValueError("operands must share the same grid")


def spectrum(sig: Signal) -> Spectrum:
    """Amplitude spectrum of ``sig`` (DFT / n, centered on the carrier)."""
    bins = np.fft.fftshift(np.fft.fft(sig.samples)) / sig.grid.n_samples
    return Spectrum(sig.grid, bins)


def inverse_spectrum(spec: Spectrum) -> Signal:
    """Invert :func:`spectrum` exactly."""
    samples = np.fft.ifft(np.fft.ifftshift(spec.bins)) * spec.grid.n_samples
    return Signal(spec.grid, samples)


def brickwall_lowpass(sig: Signal, half_width: float) -> Signal:
    """Ideal lowpass: keep |f| < half_width, halve bins at exactly |f| ==
    half_width, zero the rest.

    The boundary bin convention makes edge-aliased content through the
    multiplexing chain recombine exactly.
    """
    grid = sig.grid
    if not 0 < half_width < grid.nyquist:
        raise ValueError(
            f"half_width must lie in (0, Nyquist={grid.nyquist:g} Hz), "
            f"got {half_width:g}"
        )
    f = np.fft.fftfreq(grid.n_samples, grid.dt)
    tol = grid.freq_resolution * 1e-6
    gain = np.zeros(grid.n_samples)
    gain[np.abs(f) < half_width - tol] = 1.0
    gain[np.abs(np.abs(f) - half_width) <= tol] = 0.5
    out = np.fft.ifft(np.fft.fft(sig.samples) * gain)
    return Signal(grid, out)


def rmse_percent(measured: Signal, reference: Signal) -> float:
    """RMS error between two signals as a percentage of the reference peak.

    ``100 * sqrt(mean |m - r|^2) / max |r|``.  Invariant under a common
    complex scale applied to both inputs.
    """
    require_same_grid(measured, reference)
    peak = float(np.max(np.abs(reference.samples)))
    if peak == 0.0:
        raise ValueError("reference signal is identically zero")
    err = measured.samples - reference.samples
    return float(100.0 * np.sqrt(np.mean(np.abs(err) ** 2)) / peak)


def power_dbm(sig: Signal) -> float:
    """Mean power in dBm; unit mean power is the 0 dBm reference."""
    p = sig.power
    if p == 0.0:
        return float("-inf")
    return float(10.0 * np.log10(p))


def normalize(sig: Signal) -> Signal:
    """Scale to unit mean power."""
    p = sig.power
    if p == 0.0:
        raise ValueError("cannot normalize a zero signal")
    return Signal(sig.grid, sig.samples / np.sqrt(p))


def tone(grid: TimeGrid, frequency: float, amplitude: float = 1.0,
         phase: float = 0.0) -> Signal:
    """Complex exponential ``amplitude * exp(j*(2*pi*f*t + phase))``."""
    if abs(frequency) >= grid.nyquist:
        raise ValueError("tone frequency must be below the Nyquist limit")
    return Signal(grid, amplitude * np.exp(1j * (2 * np.pi * frequency * grid.t + phase)))


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
    f = np.fft.fftfreq(sig.grid.n_samples, sig.grid.dt)
    out = np.fft.ifft(np.fft.fft(sig.samples) * np.exp(-2j * np.pi * f * delay))
    return Signal(sig.grid, out)


# ---------------------------------------------------------------------------
# serialization

_FLOAT_FMT = "%.17g"
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


def write_signal_csv(sig: Signal, csv_path, header_path=None) -> None:
    """Write a signal as CSV rows (t_seconds, re, im) plus a JSON header.

    The header (sample_rate, n_samples, t0) lands next to the CSV by default.
    Formatting is deterministic so identical signals produce identical bytes.
    """
    csv_path = Path(csv_path)
    if header_path is None:
        header_path = csv_path.with_suffix(".json")
    t = sig.grid.t
    rows = np.column_stack([t, sig.samples.real, sig.samples.imag])
    _write_csv(csv_path, "t_seconds,re,im", _FLOAT_FMT, rows)
    header = {
        "sample_rate": sig.grid.sample_rate,
        "n_samples": sig.grid.n_samples,
        "t0": sig.grid.t0,
    }
    Path(header_path).write_text(json.dumps(header, sort_keys=True, indent=2) + "\n")


def read_signal_csv(csv_path, header_path=None) -> Signal:
    """Read a signal written by :func:`write_signal_csv`."""
    csv_path = Path(csv_path)
    if header_path is None:
        header_path = csv_path.with_suffix(".json")
    header = json.loads(Path(header_path).read_text())
    grid = TimeGrid(header["sample_rate"], int(header["n_samples"]), header["t0"])
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[0] != grid.n_samples:
        raise ValueError("CSV row count does not match the header n_samples")
    return Signal(grid, rows[:, 1] + 1j * rows[:, 2])
