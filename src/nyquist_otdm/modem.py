"""Gray-coded QAM mapping and the receiver-side quality metrics.

Conventions: constellations are normalized to unit mean power; QPSK maps
bits 00 to (1+1j)/sqrt(2); EVM is a percentage against the RMS of the
reference; the Q factor is the worst adjacent-level pair per quadrature,
reported in 20*log10 dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _index

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
    "evm",
    "q_factor",
    "ber_count",
    "score_branches",
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


def _square_grid(side: int) -> np.ndarray:
    """Symbol v of the side x side Gray-coded grid at unit mean power:
    in-phase code v // side, quadrature code v % side."""
    levels = np.asarray(_AXIS_LEVELS[side])
    levels = levels / math.sqrt(2.0 * np.mean(np.square(levels)))
    level = np.argsort(_AXIS_CODES[side])  # each code's level index
    v = np.arange(side * side)
    return levels[level[v // side]] + 1j * levels[level[v % side]]


@dataclass(frozen=True, eq=False)
class Constellation:
    """Square Gray-coded QAM constellation of order 4 or 16 at unit mean
    power, built from its order alone: ``points[v]`` is the symbol of bit
    pattern v, the grid :func:`qam_map` and the decisions read.
    The order is an integer by :func:`operator.index`, not a bool."""

    order: int
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        order = _index(self.order)
        if order not in (4, 16):
            raise ValueError(f"unsupported constellation order {self.order!r}")
        points = _square_grid(math.isqrt(order))
        points.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "points", points)

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1


def qam_map(bits, constellation: Constellation) -> np.ndarray:
    """Map a 0/1 bit array onto constellation symbols (MSB first)."""
    bits = np.asarray(bits)
    bps = constellation.bits_per_symbol
    if bits.ndim != 1 or bits.size == 0 or bits.size % bps:
        raise ValueError(f"bit count must be a positive multiple of {bps}")
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must be 0 or 1")
    weights = 1 << np.arange(bps - 1, -1, -1)
    values = bits.reshape(-1, bps) @ weights  # float bits give float values
    return constellation.points[values.astype(np.intp, copy=False)]


def _decide_indices(symbols, constellation: Constellation) -> np.ndarray:
    """Nearest-point decision, returned as symbol values (bit patterns)."""
    syms = np.asarray(symbols, dtype=np.complex128)
    side = math.isqrt(constellation.order)
    levels = np.sort(constellation.points.real[::side])  # Q code 0: the I levels
    codes = np.asarray(_AXIS_CODES[side])
    thresholds = 0.5 * (levels[1:] + levels[:-1])
    # the count of thresholds not at or above v, as np.searchsorted's: nan decides last
    ci, cq = (codes[sum(~(v <= t) for t in thresholds)] for v in (syms.real, syms.imag))
    return ci * side + cq


def qam_demap(symbols, constellation: Constellation) -> np.ndarray:
    """Minimum-distance demapping back to bits (inverse of :func:`qam_map`)."""
    values = _decide_indices(symbols, constellation)
    bps = constellation.bits_per_symbol
    shifts = np.arange(bps - 1, -1, -1)
    return ((values[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)


@dataclass(frozen=True)
class EvmResult:
    """EVM in percent with the spread over contiguous blocks."""

    percent: float
    std_percent: float
    block_percents: tuple[float, ...]


def _rows(rx, ref, n_blocks: int):
    """``rx`` and its reference as rows of one shape, and ``np.array_split``'s block sizes."""
    rx, ref = np.asarray(rx, dtype=np.complex128), np.asarray(ref)
    if rx.shape != ref.shape or rx.size == 0 or rx.ndim not in (1, 2):
        raise ValueError("rx and its reference must be non-empty and of the same length")
    if not np.isfinite(rx).all() or ref.dtype.kind in "fc" and not np.isfinite(ref).all():
        raise ValueError("rx and its reference must be finite")
    n_b = max(1, min(n_blocks, m := rx.shape[-1]))
    return np.atleast_2d(rx), np.atleast_2d(ref), m // n_b + (np.arange(n_b) < m % n_b)


def evm(rx, ref, n_blocks: int = 10):
    """Error vector magnitude, 100 * rms(rx - ref) / rms(ref).

    The +/- spread is the sample standard deviation over ``n_blocks``
    contiguous blocks.  2-D input is scored row by row, in one pass, into a
    tuple of one result per row.
    """
    rows, refs, sizes = _rows(rx, np.asarray(ref, dtype=np.complex128), n_blocks)
    ref_rms = np.sqrt(np.mean(np.abs(refs) ** 2, axis=1))
    if np.any(ref_rms == 0.0):
        raise ValueError("reference symbols are all zero")

    err2 = np.abs(rows - refs) ** 2
    total = 100.0 * np.sqrt(np.mean(err2, axis=1)) / ref_rms
    blocks = 100.0 * np.sqrt(np.add.reduceat(err2, np.cumsum(sizes) - sizes, axis=1)
                             / sizes) / ref_rms[:, None]
    std = np.std(blocks, axis=1, ddof=1) if sizes.size > 1 else np.zeros(len(rows))
    out = tuple(EvmResult(float(t), float(s), tuple(b.tolist()))
                for t, s, b in zip(total, std, blocks))
    return out[0] if np.ndim(rx) == 1 else out


@dataclass(frozen=True)
class QFactorResult:
    """Worst adjacent-pair Q per quadrature, in dB, with block spread.

    ``capped_*`` marks quadratures whose Q exceeded the reporting cap
    (effectively noiseless data, or patterns holding a single level on the
    axis), ``floored_*`` those whose Q fell to the reporting floor
    (clusters overlapping entirely).
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
    dev = mean[group]  # 2nd pass, in place for peak memory: E[x^2] - E[x]^2 cancels at high Q
    dev -= x
    std = np.sqrt(np.bincount(group, np.square(dev, out=dev), count.size) / n)
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


def q_factor(rx, sent, constellation: Constellation, n_blocks: int = 10):
    """Decision-threshold Q factor per quadrature.

    Clusters are formed from the transmitted bit patterns ``sent``
    (data-aided): a symbol's level on an axis is its pattern's axis code's
    rank.  The Q of every adjacent pair of the levels present is
    (mu1 - mu0)/(sigma1 + sigma0), and the minimum pair is reported.
    Values above ``Q_CAP_DB`` are capped and values below ``Q_FLOOR_DB``
    floored, each flagged.  An axis whose patterns hold a single level has
    no pair, so its Q is infinite and capped.  2-D input is scored row by
    row, in one pass, into a tuple of one result per row.
    """
    rows, sent, sizes = _rows(rx, sent, n_blocks)
    if sent.dtype.kind not in "iu" or sent.min() < 0 or sent.max() >= constellation.order:
        raise ValueError(f"sent must hold integer bit patterns 0..{constellation.order - 1}")
    n_rows, n_b, side = len(rows), sizes.size, math.isqrt(constellation.order)
    rank, v = np.argsort(_AXIS_CODES[side]), np.arange(constellation.order)
    # cluster row * side + level, then in place (row * n_b + block) * side + level
    row, block = np.arange(n_rows)[:, None], np.repeat(np.arange(n_b), sizes)
    axes = []
    for x, levels in ((rows.real, rank[v // side]), (rows.imag, rank[v % side])):
        x, group = x.ravel(), levels[sent]
        group += row * side
        total = _worst_q(x, group.ravel(), n_rows, side)[0]
        group += (row * (n_b - 1) + block) * side
        worst, valid = (a.reshape(n_rows, n_b) for a in _worst_q(
            x, group.ravel(), n_rows * n_b, side))
        axis = []
        for q, w, ok in zip(total.tolist(), worst, valid):
            blocks = [_to_db(b)[0] for b in w[ok].tolist()]
            db, lin, *flags = _to_db(q)
            axis.append((db, lin, float(np.std(blocks, ddof=1)) if len(blocks) > 1 else 0.0,
                         *flags))
        axes.append(axis)
    # QFactorResult's fields take each figure for I, then for Q
    out = tuple(QFactorResult(*(f for pair in zip(i, q) for f in pair))
                for i, q in zip(*axes))
    return out[0] if np.ndim(rx) == 1 else out


def _ber_estimate(q_linear: float) -> float:
    """BER predicted from a linear Q factor, 0.5 * erfc(q / sqrt(2))."""
    if not q_linear > 0:
        raise ValueError("q_linear must be positive")
    return 0.5 * math.erfc(q_linear / math.sqrt(2.0))


def _ber_estimate_log10(q_linear: float) -> float:
    """log10 of :func:`_ber_estimate`, stable far below float underflow."""
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


def _log10_mean(*log10_values: float) -> float:
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


def score_branches(rx, sent, constellation: Constellation):
    """Score each row of an (N, M) read-out against the bit patterns ``sent``.

    Each row is scaled by its data-aided tap, the least-squares gain onto its
    sent symbols, in place when ``rx`` is complex128; an all-zero row has no
    tap and raises RuntimeError.  Returns the tapped read-out, the taps, the
    nearest-point decisions, and one dict per row of the measured
    :class:`MetricsReport` fields, from one :func:`evm` and one
    :func:`q_factor` call.
    """
    rx, sent = np.asarray(rx, dtype=np.complex128), np.asarray(sent)
    ref = constellation.points[sent]
    denom = [np.vdot(row, row) for row in rx]  # one product per row, as demultiplex's
    if 0 in denom:
        raise RuntimeError(f"branch {denom.index(0) + 1} demultiplexed to an all-zero stream")
    taps = np.array([np.vdot(row, f) / d for row, f, d in zip(rx, ref, denom)])
    rx *= taps[:, None]
    scores = zip(evm(rx, ref), q_factor(rx, sent, constellation))
    decided = _decide_indices(rx, constellation)
    ones = np.array([bin(v).count("1") for v in range(constellation.order)])
    errors = ones[sent ^ decided].sum(axis=1)  # bit errors: the set bits of sent ^ decided
    n_bits = sent.shape[1] * constellation.bits_per_symbol
    return rx, taps, decided, [dict(
        n_bits=n_bits, evm_percent=ev.percent, evm_std_percent=ev.std_percent,
        q_i_db=qf.q_i_db, q_q_db=qf.q_q_db, q_i_std_db=qf.q_i_std_db, q_q_std_db=qf.q_q_std_db,
        q_capped=qf.capped_i or qf.capped_q, q_floored=qf.floored_i or qf.floored_q,
        ber_estimated=0.5 * (_ber_estimate(qf.q_i_linear) + _ber_estimate(qf.q_q_linear)),
        ber_estimated_log10=_log10_mean(_ber_estimate_log10(qf.q_i_linear),
                                        _ber_estimate_log10(qf.q_q_linear)),
        ber_count_errors=e, ber_counted=e / n_bits, below_hdfec=e / n_bits <= HD_FEC_BER_LIMIT)
        for (ev, qf), e in zip(scores, errors.tolist())]


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
