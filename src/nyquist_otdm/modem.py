"""Gray-coded QAM mapping and the receiver-side quality metrics.

Conventions: constellations are normalized to unit mean power; QPSK maps
bits 00 to (1+1j)/sqrt(2); EVM is a percentage against the RMS of the
reference; the Q factor is the worst adjacent-level pair per quadrature,
reported in 20*log10 dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Q_CAP_DB",
    "Q_FLOOR_DB",
    "HD_FEC_BER_LIMIT",
    "Constellation",
    "EvmResult",
    "QFactorResult",
    "BerCount",
    "MetricsReport",
    "qam_map",
    "qam_demap",
    "decide_indices",
    "evm",
    "q_factor",
    "ber_estimate",
    "ber_estimate_log10",
    "log10_mean",
    "ber_count",
    "below_hdfec_limit",
    "format_metrics_table",
]

Q_CAP_DB = 60.0
# Q at or below this (clusters that overlap entirely give Q <= 0) is
# reported as the floor and flagged, so degraded runs still report
Q_FLOOR_DB = -20.0
HD_FEC_BER_LIMIT = 4.5e-3

# per-axis Gray code for ascending amplitude levels (MSB-half of the symbol
# bits is the in-phase code); bit value 0 maps to the most positive level
_AXIS_CODES = {2: (1, 0), 4: (2, 3, 1, 0)}
_AXIS_LEVELS = {2: (-1.0, 1.0), 4: (-3.0, -1.0, 1.0, 3.0)}


def _square_grid(side: int, levels: np.ndarray) -> np.ndarray:
    """Symbol v of the side x side Gray-coded grid on ascending ``levels``:
    in-phase code v // side, quadrature code v % side."""
    level = np.argsort(_AXIS_CODES[side])  # each code's level index
    v = np.arange(side * side)
    return levels[level[v // side]] + 1j * levels[level[v % side]]


@dataclass(frozen=True, eq=False)
class Constellation:
    """Square Gray-coded QAM constellation of order 4 or 16: its ``points``
    must be the grid :func:`qam_map` and :func:`decide_indices` read, the
    same ascending levels on both axes, in-phase code first."""

    order: int
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128).copy()
        side = math.isqrt(self.order) if self.order in (4, 16) else 0
        levels = np.sort(pts.real[::side]) if side and pts.shape == (self.order,) else None
        if (levels is None or not (np.diff(levels) > 0).all()
                or not np.array_equal(pts, _square_grid(side, levels))):
            raise ValueError(f"a constellation of order {self.order} with {pts.size} points "
                             "is no square Gray-coded QAM grid of order 4 or 16")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def of(cls, order: int) -> "Constellation":
        if order not in (4, 16):
            raise ValueError(f"unsupported constellation order {order}")
        side = math.isqrt(order)
        levels = np.asarray(_AXIS_LEVELS[side])
        norm = math.sqrt(2.0 * np.mean(np.square(levels)))
        return cls(order, _square_grid(side, levels / norm))

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1


def qam_map(bits, constellation: Constellation) -> np.ndarray:
    """Map a 0/1 bit array onto constellation symbols (MSB first)."""
    bits = np.asarray(bits)
    bps = constellation.bits_per_symbol
    if bits.ndim != 1 or bits.size == 0 or bits.size % bps:
        raise ValueError(f"bit count must be a positive multiple of {bps}")
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("bits must be 0 or 1")
    weights = 1 << np.arange(bps - 1, -1, -1)
    values = bits.reshape(-1, bps) @ weights
    return constellation.points[values]


def decide_indices(symbols, constellation: Constellation) -> np.ndarray:
    """Nearest-point decision, returned as symbol values (bit patterns)."""
    syms = np.asarray(symbols, dtype=np.complex128)
    side = math.isqrt(constellation.order)
    levels = np.sort(constellation.points.real[::side])  # Q code 0: the I levels
    codes = np.asarray(_AXIS_CODES[side])
    thresholds = 0.5 * (levels[1:] + levels[:-1])
    ci = codes[np.searchsorted(thresholds, syms.real)]
    cq = codes[np.searchsorted(thresholds, syms.imag)]
    bits_axis = side.bit_length() - 1
    return (ci << bits_axis) | cq


def qam_demap(symbols, constellation: Constellation) -> np.ndarray:
    """Minimum-distance demapping back to bits (inverse of :func:`qam_map`)."""
    values = decide_indices(symbols, constellation)
    bps = constellation.bits_per_symbol
    shifts = np.arange(bps - 1, -1, -1)
    return ((values[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)


@dataclass(frozen=True)
class EvmResult:
    """EVM in percent with the spread over contiguous blocks."""

    percent: float
    std_percent: float
    block_percents: tuple[float, ...]


def evm(rx, ref, n_blocks: int = 10) -> EvmResult:
    """Error vector magnitude, 100 * rms(rx - ref) / rms(ref).

    The +/- spread is the sample standard deviation over ``n_blocks``
    contiguous blocks.
    """
    rx = np.asarray(rx, dtype=np.complex128)
    ref = np.asarray(ref, dtype=np.complex128)
    if rx.shape != ref.shape:
        raise ValueError("rx and ref must have the same length")
    ref_rms = np.sqrt(np.mean(np.abs(ref) ** 2))
    if ref_rms == 0.0:
        raise ValueError("reference symbols are all zero")

    err2 = np.abs(rx - ref) ** 2
    total = 100.0 * np.sqrt(np.mean(err2)) / ref_rms
    n_blocks = max(1, min(n_blocks, rx.size))
    sizes = np.array([b.size for b in np.array_split(err2, n_blocks)])
    blocks = 100.0 * np.sqrt(np.add.reduceat(err2, np.cumsum(sizes) - sizes)
                             / sizes) / ref_rms
    std = float(np.std(blocks, ddof=1)) if len(blocks) > 1 else 0.0
    return EvmResult(float(total), std, tuple(float(b) for b in blocks))


@dataclass(frozen=True)
class QFactorResult:
    """Worst adjacent-pair Q per quadrature, in dB, with block spread.

    ``capped_*`` marks quadratures whose Q exceeded the reporting cap
    (effectively noiseless data), ``floored_*`` those whose Q fell to the
    reporting floor (clusters overlapping entirely).
    """

    q_i_db: float
    q_q_db: float
    q_i_linear: float
    q_q_linear: float
    q_i_std_db: float
    q_q_std_db: float
    capped_i: bool
    capped_q: bool
    floored_i: bool
    floored_q: bool


def _worst_q(x: np.ndarray, group: np.ndarray, n_rows: int, n_levels: int):
    """Worst adjacent-level Q of each row of clusters, where ``group`` is
    row * n_levels + level, taken over the levels present in the row; inf
    for a row with fewer than 2 of them, and a mask of the rows with 2+."""
    count = np.bincount(group, minlength=n_rows * n_levels)
    n = np.maximum(count, 1)
    mean = np.bincount(group, x, count.size) / n
    dev = x - mean[group]  # two passes: E[x^2] - E[x]^2 cancels at high Q
    std = np.sqrt(np.bincount(group, dev * dev, count.size) / n)
    present = np.flatnonzero(count)
    row = present // n_levels
    pair = np.flatnonzero(row[1:] == row[:-1])
    lo, hi = present[pair], present[pair + 1]
    den = std[lo] + std[hi]
    q = np.divide(mean[hi] - mean[lo], den, out=np.full(den.size, math.inf),
                  where=den != 0.0)
    worst = np.full(n_rows, math.inf)
    np.minimum.at(worst, row[pair], q)
    return worst, np.bincount(row, minlength=n_rows) >= 2


def _to_db(q_linear: float) -> tuple[float, float, bool, bool]:
    """(dB, linear, capped, floored) of a measured linear Q."""
    cap_linear = 10.0 ** (Q_CAP_DB / 20.0)
    floor_linear = 10.0 ** (Q_FLOOR_DB / 20.0)
    if not math.isfinite(q_linear) or q_linear >= cap_linear:
        return Q_CAP_DB, cap_linear, True, False
    if q_linear <= floor_linear:
        return Q_FLOOR_DB, floor_linear, False, True
    return 20.0 * math.log10(q_linear), q_linear, False, False


def q_factor(rx, ref, n_blocks: int = 10) -> QFactorResult:
    """Decision-threshold Q factor per quadrature.

    Clusters are formed from the reference (data-aided), the Q of every
    adjacent level pair is (mu1 - mu0)/(sigma1 + sigma0), and the minimum
    pair is reported.  Values above ``Q_CAP_DB`` are capped and values
    below ``Q_FLOOR_DB`` floored, each flagged.
    """
    rx = np.asarray(rx, dtype=np.complex128)
    ref = np.asarray(ref, dtype=np.complex128)
    if rx.shape != ref.shape:
        raise ValueError("rx and ref must have the same length")

    n_b = max(1, min(n_blocks, rx.size))
    block = np.repeat(np.arange(n_b), [b.size for b in np.array_split(rx, n_b)])
    out = {}
    for name, rx_ax, ref_ax in (("i", rx.real, ref.real), ("q", rx.imag, ref.imag)):
        levels, level = np.unique(ref_ax, return_inverse=True)
        if levels.size < 2:
            raise ValueError("need at least 2 occupied levels per quadrature")
        total = _worst_q(rx_ax, level, 1, levels.size)[0][0]
        db, lin, capped, floored = _to_db(float(total))
        worst, valid = _worst_q(rx_ax, block * levels.size + level, n_b, levels.size)
        blocks = [_to_db(float(q))[0] for q in worst[valid]]
        std = float(np.std(blocks, ddof=1)) if len(blocks) > 1 else 0.0
        out[name] = (db, lin, std, capped, floored)

    return QFactorResult(
        q_i_db=out["i"][0], q_q_db=out["q"][0],
        q_i_linear=out["i"][1], q_q_linear=out["q"][1],
        q_i_std_db=out["i"][2], q_q_std_db=out["q"][2],
        capped_i=out["i"][3], capped_q=out["q"][3],
        floored_i=out["i"][4], floored_q=out["q"][4],
    )


def ber_estimate(q_linear: float) -> float:
    """BER predicted from a linear Q factor, 0.5 * erfc(q / sqrt(2))."""
    if not q_linear > 0:
        raise ValueError("q_linear must be positive")
    return 0.5 * math.erfc(q_linear / math.sqrt(2.0))


def ber_estimate_log10(q_linear: float) -> float:
    """log10 of :func:`ber_estimate`, stable far below float underflow."""
    if not q_linear > 0:
        raise ValueError("q_linear must be positive")
    x = q_linear / math.sqrt(2.0)
    if x == math.inf:  # the value every q past about 1.9e154 already gives
        return -math.inf
    if x < 25.0:  # 0.5 * erfc(25) is about 4e-274, still a normal float
        return math.log10(0.5 * math.erfc(x))
    # erfc(x) = exp(-x**2) * erfcx(x); at x >= 25 eight terms of erfcx's
    # asymptotic series 1/(x sqrt(pi)) * sum (-1)**k (2k-1)!! / (2x**2)**k
    # reach 1e-17
    u = 0.5 / (x * x)
    term = series = 1.0
    for k in range(1, 8):
        term *= -(2 * k - 1) * u
        series += term
    return (math.log10(0.5 * series / (x * math.sqrt(math.pi)))
            - x * x * math.log10(math.e))


def log10_mean(*log10_values: float) -> float:
    """log10 of the arithmetic mean of values given as log10."""
    m = max(log10_values)
    if math.isinf(m):
        return m
    acc = sum(10.0 ** (v - m) for v in log10_values)
    return m + math.log10(acc / len(log10_values))


@dataclass(frozen=True)
class BerCount:
    """Counted bit errors; keeps n so 'zero errors in n bits' stays meaningful."""

    errors: int
    n_bits: int

    def __post_init__(self):
        if self.n_bits <= 0:
            raise ValueError("n_bits must be positive")
        if not 0 <= self.errors <= self.n_bits:
            raise ValueError("errors must lie in [0, n_bits]")

    @property
    def rate(self) -> float:
        return self.errors / self.n_bits


def ber_count(tx_bits, rx_bits) -> BerCount:
    """Count bit errors between transmitted and received bit arrays."""
    tx = np.asarray(tx_bits)
    rx = np.asarray(rx_bits)
    if tx.shape != rx.shape or tx.ndim != 1:
        raise ValueError("bit arrays must be 1-D and the same length")
    return BerCount(int(np.count_nonzero(tx != rx)), int(tx.size))


def below_hdfec_limit(ber: float) -> bool:
    """True when a BER is at or below the hard-decision FEC limit 4.5e-3."""
    return ber <= HD_FEC_BER_LIMIT


@dataclass(frozen=True)
class MetricsReport:
    """One branch's quality summary, serializable and table-printable.

    ``q_capped`` and ``q_floored`` flag a Q factor reported at
    ``Q_CAP_DB`` or ``Q_FLOOR_DB``; the estimated BER follows the reported Q.
    """

    label: str
    modulation: str
    distance_km: float
    osnr_db: float
    n_symbols: int
    n_bits: int
    evm_percent: float
    evm_std_percent: float
    q_i_db: float
    q_q_db: float
    q_i_std_db: float
    q_q_std_db: float
    q_capped: bool
    ber_estimated: float
    ber_estimated_log10: float
    ber_count_errors: int
    ber_counted: float
    below_hdfec: bool
    seed: int
    q_floored: bool = False


def format_metrics_table(reports: list[MetricsReport]) -> str:
    """Fixed-width per-branch summary table."""
    head = (f"{'branch':<16} {'format':<7} {'km':>6} {'Q_I_dB':>16} "
            f"{'Q_Q_dB':>16} {'EVM_%':>16} {'BER_est':>10} {'BER_cnt':>10}")
    rows = [head, "-" * len(head)]
    for r in reports:
        qi = f"{r.q_i_db:.2f}+/-{r.q_i_std_db:.2f}"
        qq = f"{r.q_q_db:.2f}+/-{r.q_q_std_db:.2f}"
        if r.q_capped or r.q_floored:
            mark = ">" if r.q_capped else "<"
            qi = f"{mark}{qi}"
            qq = f"{mark}{qq}"
        ev = f"{r.evm_percent:.2f}+/-{r.evm_std_percent:.2f}"
        rows.append(
            f"{r.label:<16} {r.modulation:<7} {r.distance_km:>6.1f} {qi:>16} "
            f"{qq:>16} {ev:>16} {r.ber_estimated:>10.2e} {r.ber_counted:>10.2e}"
        )
    return "\n".join(rows)
