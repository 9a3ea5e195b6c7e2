"""Fiber propagation, noise loading, and laser phase noise.

Chromatic dispersion is the usual all-pass quadratic spectral phase around
the carrier; attenuation is a scalar.  Noise loading is circular complex
white Gaussian noise scaled to a target optical signal-to-noise ratio in a
0.1 nm (12.5 GHz) reference bandwidth, seeded for reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Signal, _index

__all__ = [
    "SPEED_OF_LIGHT",
    "FiberSpec",
    "NoiseSpec",
    "propagate",
    "compensate_dispersion",
    "dispersion_phase",
    "add_noise",
    "phase_noise",
]

SPEED_OF_LIGHT = 299792458.0  # m/s


@dataclass(frozen=True)
class FiberSpec:
    """Linear fiber span.  Defaults are typical values for standard
    single-mode fiber at 1550 nm."""

    length_km: float
    dispersion_ps_nm_km: float = 17.0
    attenuation_db_km: float = 0.2
    reference_wavelength_nm: float = 1550.0

    def __post_init__(self):
        if not 0 <= self.length_km < math.inf:
            raise ValueError("length_km must be finite and >= 0")
        if not math.isfinite(self.dispersion_ps_nm_km):
            raise ValueError("dispersion_ps_nm_km must be finite")
        if not 0 <= self.attenuation_db_km < math.inf:
            raise ValueError("attenuation_db_km must be finite and >= 0")
        if not 0 < self.reference_wavelength_nm < math.inf:
            raise ValueError("reference_wavelength_nm must be finite and positive")


def dispersion_phase(fiber: FiberSpec, f) -> np.ndarray:
    """Quadratic spectral phase pi*(lambda^2/c)*D*L*f^2 in rad (f in Hz,
    relative to the carrier)."""
    lam = fiber.reference_wavelength_nm * 1e-9
    d_si = fiber.dispersion_ps_nm_km * 1e-6  # ps/(nm km) -> s/m^2
    length = fiber.length_km * 1e3
    return math.pi * (lam ** 2 / SPEED_OF_LIGHT) * d_si * length * np.asarray(f) ** 2


def _apply_phase(sig: Signal, phase_sign: float, fiber: FiberSpec,
                 amplitude: float) -> Signal:
    n = sig.grid.n_samples
    first, band = sig._spectrum()
    first = (first + n // 2) % n - n // 2  # within fftfreq's signed range
    last, top = first + band.size - 1, (n - 1) // 2
    # the phase is even in f: evaluate it at |k| = 0..reach and lay it along
    # the band, which past ``top`` wraps to -n//2
    reach = n // 2 if last > top else max(-first, last, 0)
    f = np.arange(reach + 1) * sig.grid.freq_resolution
    half = amplitude * np.exp(1j * phase_sign * dispersion_phase(fiber, f))
    parts = []
    for lo, hi in ((first, min(last, top)), (-(n // 2), last - n)):
        parts += [half[max(-lo, 0):max(-hi - 1, 0):-1], half[max(lo, 0):max(hi + 1, 0)]]
    h = np.concatenate(parts)  # named, so numpy cannot swap the operands
    return Signal._of_bins(sig.grid, band * h, first)


def propagate(sig: Signal, fiber: FiberSpec) -> Signal:
    """Apply dispersion and scalar loss of one span."""
    loss = 10.0 ** (-fiber.attenuation_db_km * fiber.length_km / 20.0)
    return _apply_phase(sig, +1.0, fiber, loss)


def compensate_dispersion(sig: Signal, fiber: FiberSpec) -> Signal:
    """Apply the exact inverse dispersion phase of a span (no gain)."""
    return _apply_phase(sig, -1.0, fiber, 1.0)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise loading target: OSNR in dB measured against ``reference_bandwidth_hz``."""

    osnr_db: float
    reference_bandwidth_hz: float = 12.5e9
    seed: int = 0

    def __post_init__(self):
        # 10**(osnr/10) is neither 0 nor inf within +-300 dB
        if not (-300.0 <= self.osnr_db <= 300.0 or self.osnr_db == math.inf):
            raise ValueError("osnr_db must be finite and within +-300 dB, or inf for no noise")
        if not 0 < self.reference_bandwidth_hz < math.inf:
            raise ValueError("reference_bandwidth_hz must be finite and positive")


def add_noise(sig: Signal, noise: NoiseSpec, reach: int | None = None) -> Signal:
    """Load circular complex AWGN for the requested OSNR.

    The noise power spectral density is flat across the simulated band and
    chosen so that the noise falling in the reference bandwidth sits
    ``osnr_db`` below the current signal power.  The bins are drawn, each
    CN(0, n sigma^2) as the DFT of n CN(0, sigma^2) samples is, in the order
    k = 0, 1, -1, 2, -2, ...: bin k's noise depends on the seed and k alone.
    The noisy signal holds only the bins |k| <= ``reach`` (None: all).
    """
    if reach is not None and _index(reach) < 0:
        raise ValueError(f"reach must be None or an integer >= 0, got {reach!r}")
    if math.isinf(noise.osnr_db) and noise.osnr_db > 0:
        return sig
    p_sig = sig.power
    if p_sig == 0.0:
        raise ValueError("cannot set an OSNR on a zero signal")
    n = sig.grid.n_samples
    osnr_lin = 10.0 ** (noise.osnr_db / 10.0)
    # total noise power across the full simulated band
    sigma2 = p_sig * sig.grid.sample_rate / (noise.reference_bandwidth_hz * osnr_lin)
    m = n if reach is None else min(2 * reach + 1, n)
    rng = np.random.default_rng(noise.seed)
    w = (rng.standard_normal(2 * m) * math.sqrt(n * sigma2 / 2.0)).view(np.complex128)
    first = -((m - 1) // 2)  # w[1::2] holds k = 1, 2, ... and w[2::2] k = -1, -2, ...
    bins = np.concatenate([w[2::2][::-1], w[:1], w[1::2]])
    return Signal._of_bins(sig.grid, bins + sig._take(np.arange(first, first + m)), first)


def phase_noise(sig: Signal, linewidth_hz: float, seed: int = 0) -> Signal:
    """Optional Wiener laser phase noise (off when linewidth is 0)."""
    if not 0 <= linewidth_hz <= 1e300:  # nan and inf would make every phase nan
        raise ValueError("linewidth_hz must be finite, >= 0 and at most 1e300")
    if linewidth_hz == 0.0:
        return sig
    rng = np.random.default_rng(seed)
    var = 2.0 * math.pi * linewidth_hz * sig.grid.dt
    steps = rng.normal(0.0, math.sqrt(var), sig.grid.n_samples)
    steps[0] = 0.0
    return Signal(sig.grid, sig.samples * np.exp(1j * np.cumsum(steps)))
