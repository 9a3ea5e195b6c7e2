"""Fiber propagation, noise loading, and coherent detection.

Chromatic dispersion is the usual all-pass quadratic spectral phase around
the carrier; attenuation is a scalar.  Noise loading is circular complex
white Gaussian noise scaled to a target optical signal-to-noise ratio in a
0.1 nm (12.5 GHz) reference bandwidth, seeded for reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Signal

__all__ = [
    "SPEED_OF_LIGHT",
    "FiberSpec",
    "NoiseSpec",
    "propagate",
    "compensate_dispersion",
    "add_noise",
    "coherent_detect",
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
        if self.length_km < 0:
            raise ValueError("length_km must be >= 0")
        if self.attenuation_db_km < 0:
            raise ValueError("attenuation_db_km must be >= 0")
        if not self.reference_wavelength_nm > 0:
            raise ValueError("reference_wavelength_nm must be positive")


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
    # the phase is even in f: evaluate bins 0..n//2 and mirror them onto the
    # negative frequencies, which fftfreq gives as exactly the negated values
    f = np.arange(n // 2 + 1) * (1.0 / (n * sig.grid.dt))
    half = amplitude * np.exp(1j * phase_sign * dispersion_phase(fiber, f))
    h = np.concatenate([half, half[(n + 1) // 2 - 1:0:-1]])
    return Signal._of_bins(sig.grid, sig.bins * h)


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
        if not self.reference_bandwidth_hz > 0:
            raise ValueError("reference_bandwidth_hz must be positive")


def add_noise(sig: Signal, noise: NoiseSpec) -> Signal:
    """Load circular complex AWGN for the requested OSNR.

    The noise power spectral density is flat across the simulated band and
    chosen so that the noise falling in the reference bandwidth sits
    ``osnr_db`` below the current signal power.  Deterministic per seed:
    the noise is drawn in the time domain and added to the signal's bins.
    """
    if math.isinf(noise.osnr_db) and noise.osnr_db > 0:
        return sig
    p_sig = sig.power
    if p_sig == 0.0:
        raise ValueError("cannot set an OSNR on a zero signal")
    osnr_lin = 10.0 ** (noise.osnr_db / 10.0)
    # total noise power across the full simulated band
    sigma2 = p_sig * sig.grid.sample_rate / (noise.reference_bandwidth_hz * osnr_lin)
    rng = np.random.default_rng(noise.seed)
    w = rng.standard_normal(sig.grid.n_samples) + 1j * rng.standard_normal(
        sig.grid.n_samples)
    return Signal._of_bins(sig.grid, sig.bins + np.sqrt(sigma2 / 2.0) * np.fft.fft(w))


def coherent_detect(sig: Signal, lo_power: float = 1.0,
                    lo_phase: float = 0.0) -> Signal:
    """Beat the field against a local oscillator: scale by sqrt(lo_power)
    and counter-rotate by the LO phase."""
    if not lo_power > 0:
        raise ValueError("lo_power must be positive")
    return Signal._of_bins(
        sig.grid, math.sqrt(lo_power) * np.exp(-1j * lo_phase) * sig.bins)


def phase_noise(sig: Signal, linewidth_hz: float, seed: int = 0) -> Signal:
    """Optional Wiener laser phase noise (off when linewidth is 0)."""
    if linewidth_hz < 0:
        raise ValueError("linewidth_hz must be >= 0")
    if linewidth_hz == 0.0:
        return sig
    rng = np.random.default_rng(seed)
    var = 2.0 * math.pi * linewidth_hz * sig.grid.dt
    steps = rng.normal(0.0, math.sqrt(var), sig.grid.n_samples)
    steps[0] = 0.0
    return Signal(sig.grid, sig.samples * np.exp(1j * np.cumsum(steps)))
