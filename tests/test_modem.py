"""Tests for constellations, mapping, EVM/Q metrics, and BER accounting."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nyquist_otdm.modem import (
    HD_FEC_BER_LIMIT,
    Q_CAP_DB,
    BerCount,
    Constellation,
    MetricsReport,
    QFactorResult,
    ber_count,
    ber_estimate,
    ber_estimate_log10,
    below_hdfec_limit,
    decide_indices,
    evm,
    format_metrics_table,
    log10_mean,
    q_factor,
    qam_demap,
    qam_map,
)

from helpers import ber_log10_erfcx, evm_directly, q_factor_directly

# BER at the linear Q corresponding to 18.46 dB, worked out independently
# with high-precision arithmetic
Q_REF_LINEAR = 8.375292821268827
BER_AT_Q_REF = 2.7543365447383586e-17


class TestConstellation:
    def test_qpsk_points(self):
        c = Constellation.of(4)
        s = 1 / math.sqrt(2)
        assert_allclose(c.points,
                        [s * (1 + 1j), s * (1 - 1j), s * (-1 + 1j), s * (-1 - 1j)],
                        atol=1e-15)
        assert c.bits_per_symbol == 2

    def test_unit_average_power(self):
        for c in (Constellation.of(4), Constellation.of(16)):
            assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_qam16_gray_adjacency(self):
        """Nearest neighbours on the grid differ in exactly one bit."""
        c = Constellation.of(16)
        pts = c.points
        spacing = np.min([abs(a - b) for i, a in enumerate(pts)
                          for b in pts[i + 1:]])
        for v1 in range(16):
            for v2 in range(v1 + 1, 16):
                if abs(pts[v1] - pts[v2]) < spacing * 1.001:
                    assert bin(v1 ^ v2).count("1") == 1

    def test_unsupported_order_rejected(self):
        with pytest.raises(ValueError):
            Constellation.of(8)

    def test_points_must_be_the_square_grid_of_the_order(self):
        """qam_map and decide_indices read the points as the order's square
        Gray-coded grid.  The QPSK points given as order 16 decided
        0.9+0.9j, -0.9-0.9j and 0.1-0.3j all as 10, and 3 points of
        order 8 were accepted."""
        qpsk = Constellation.of(4).points
        for order, points in ((16, qpsk), (8, np.arange(3)), (4, qpsk[::-1]),
                              (4, Constellation.of(16).points[:4]), (4, qpsk.reshape(2, 2)),
                              (4, np.full(4, np.nan))):
            with pytest.raises(ValueError, match="no square Gray-coded QAM grid"):
                Constellation(order, points)
        for order in (4, 16):  # the grid at any scale is one
            c = Constellation(order, 2.0 * Constellation.of(order).points)
            assert np.array_equal(decide_indices(c.points, c), np.arange(order))


class TestMapping:
    @pytest.mark.parametrize("order", [pytest.param(4, id="qpsk"),
                                       pytest.param(16, id="qam16")])
    def test_map_demap_round_trip(self, order):
        c = Constellation.of(order)
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 3 * 1000 * c.bits_per_symbol % 4 + 4000)
        bits = bits[: bits.size - bits.size % c.bits_per_symbol]
        symbols = qam_map(bits, c)
        assert symbols.shape == (bits.size // c.bits_per_symbol,)
        assert np.array_equal(qam_demap(symbols, c), bits)

    def test_map_input_validation(self):
        c = Constellation.of(4)
        with pytest.raises(ValueError):
            qam_map([0, 1, 1], c)  # not a multiple of 2
        with pytest.raises(ValueError):
            qam_map([0, 2], c)

    @pytest.mark.parametrize("order", [pytest.param(4, id="qpsk"),
                                       pytest.param(16, id="qam16")])
    def test_decision_agrees_with_brute_force(self, order):
        c = Constellation.of(order)
        rng = np.random.default_rng(5)
        ref_vals = rng.integers(0, c.order, 2000)
        noisy = c.points[ref_vals] + 0.1 * (
            rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
        decided = decide_indices(noisy, c)
        brute = np.argmin(np.abs(noisy[:, None] - c.points[None, :]), axis=1)
        assert np.array_equal(decided, brute)


class TestEvm:
    def test_hand_computed_value(self):
        ref = np.array([1.0, -1.0, 1.0j, -1.0j])
        rx = ref + np.array([0.1, 0.0, 0.0, 0.0])
        res = evm(rx, ref, n_blocks=1)
        assert res.percent == pytest.approx(100 * math.sqrt(0.01 / 4), rel=1e-12)

    def test_block_spread(self):
        ref = np.ones(8, dtype=complex)
        err = np.array([0.1] * 4 + [0.3] * 4)
        res = evm(ref + err, ref, n_blocks=2)
        assert res.block_percents == (pytest.approx(10.0), pytest.approx(30.0))
        assert res.std_percent == pytest.approx(np.std([10.0, 30.0], ddof=1))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            evm(np.ones(3, dtype=complex), np.ones(4, dtype=complex))
        with pytest.raises(ValueError):
            evm(np.ones(4, dtype=complex), np.zeros(4, dtype=complex))


class TestQFactor:
    def test_gaussian_clusters_match_analytic(self):
        rng = np.random.default_rng(12)
        c = Constellation.of(4)
        n = 200_000
        vals = rng.integers(0, 4, n)
        ref = c.points[vals]
        sigma = 0.05
        rx = ref + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        res = q_factor(rx, ref)
        # adjacent-level separation 2/sqrt(2), equal sigmas on both clusters
        expect_db = 20 * math.log10((2 / math.sqrt(2)) / (2 * sigma))
        assert res.q_i_db == pytest.approx(expect_db, abs=0.1)
        assert res.q_q_db == pytest.approx(expect_db, abs=0.1)
        assert not res.capped_i and not res.capped_q
        assert res.q_i_std_db > 0.0

    def test_noiseless_data_is_capped(self):
        c = Constellation.of(4)
        rng = np.random.default_rng(3)
        ref = c.points[rng.integers(0, 4, 100)]
        res = q_factor(ref, ref)
        assert res.capped_i and res.capped_q
        assert res.q_i_db == Q_CAP_DB

    def test_single_level_rejected(self):
        rx = np.full(10, 1.0 + 1.0j)
        with pytest.raises(ValueError):
            q_factor(rx, rx * 0 + (1 + 1j))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(order=st.sampled_from([4, 16]), n_symbols=st.integers(1, 300),
       n_blocks=st.integers(1, 12), runs=st.integers(1, 40),
       sigma=st.one_of(st.just(0.0), st.floats(-9.0, 0.3).map(lambda e: 10.0 ** e)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_pass_metrics_match_block_by_block_oracles(
        order, n_symbols, n_blocks, runs, sigma, seed):
    """q_factor and evm equal their per-block, per-level oracles: every flag
    identical, every other value within 1e-12 relative.  Symbols come in
    ``runs`` runs of one point, so blocks miss levels or hold just one, and
    ``n_symbols`` may be below ``n_blocks``; sigma 0 is noiseless, capped,
    and sigma near 1e-3 puts Q just under the cap, where a one-pass
    E[x^2] - E[x]^2 variance would cancel."""
    rng = np.random.default_rng(seed)
    points = Constellation.of(order).points
    values = np.repeat(rng.integers(0, order, runs), -(-n_symbols // runs))
    ref = points[values[:n_symbols]]
    rx = ref + sigma * (rng.standard_normal(n_symbols)
                        + 1j * rng.standard_normal(n_symbols))

    ev, want_ev = evm(rx, ref, n_blocks), evm_directly(rx, ref, n_blocks)
    assert ev.percent == want_ev.percent
    assert_allclose(ev.block_percents, want_ev.block_percents, rtol=1e-12, atol=0)
    assert ev.std_percent == pytest.approx(want_ev.std_percent, rel=1e-12, abs=1e-300)

    try:
        want = q_factor_directly(rx, ref, n_blocks)
    except ValueError:
        with pytest.raises(ValueError):
            q_factor(rx, ref, n_blocks)
        return
    got = q_factor(rx, ref, n_blocks)
    for field in dataclasses.fields(QFactorResult):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, bool):
            assert g is w, field.name
        else:
            assert g == pytest.approx(w, rel=1e-12, abs=1e-300), field.name


class TestBerEstimate:
    def test_reference_value(self):
        assert ber_estimate(Q_REF_LINEAR) == pytest.approx(BER_AT_Q_REF, rel=1e-12)

    def test_log10_agrees_where_not_underflowed(self):
        for q in (1.0, 3.0, 6.0, 8.0):
            assert ber_estimate_log10(q) == pytest.approx(
                math.log10(ber_estimate(q)), rel=1e-12)

    def test_log10_survives_underflow(self):
        q = 40.0
        assert ber_estimate(q) == 0.0  # the plain float has underflowed
        val = ber_estimate_log10(q)
        assert -350.0 < val < -348.0

    def test_log10_strictly_decreasing(self):
        qs = np.linspace(0.5, 50.0, 200)
        vals = [ber_estimate_log10(q) for q in qs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    # below x = q/sqrt(2) = 25 the function takes erfc directly, above it
    # an asymptotic series
    Q_SWITCH = 25.0 * math.sqrt(2.0)

    def test_log10_matches_erfcx(self):
        """Over Q from 0.1 to the 60 dB cap, and just either side of the
        switch point."""
        near = self.Q_SWITCH * (1.0 + np.arange(-200, 201) * 1e-9)
        qs = np.concatenate([np.linspace(0.1, 1000.0, 20001),
                             np.geomspace(0.1, 1000.0, 2001), near,
                             [np.nextafter(self.Q_SWITCH, 0.0), self.Q_SWITCH,
                              np.nextafter(self.Q_SWITCH, 100.0)]])
        got = np.array([ber_estimate_log10(float(q)) for q in qs])
        want = np.array([ber_log10_erfcx(float(q)) for q in qs])
        assert_allclose(got, want, rtol=1e-14, atol=0)

    @given(st.floats(0.1, 1000.0))
    def test_log10_matches_erfcx_anywhere(self, q):
        assert ber_estimate_log10(q) == pytest.approx(ber_log10_erfcx(q),
                                                      rel=1e-14, abs=0)

    def test_log10_strictly_decreasing_across_switch(self):
        for step in (1e-13, 1e-9, 1e-5):
            qs = self.Q_SWITCH * (1.0 + np.arange(-100, 101) * step)
            vals = [ber_estimate_log10(float(q)) for q in qs]
            assert all(b < a for a, b in zip(vals, vals[1:])), step

    def test_log10_is_minus_inf_where_the_square_overflows(self):
        """Beyond q of about 1.9e154, (q/sqrt(2))**2 is inf, as in the erfcx
        form, and so at q = inf; just below, both are finite."""
        for q in (1.9e154, 1e200, 1e300):
            assert ber_estimate_log10(q) == ber_log10_erfcx(q) == -math.inf
        assert ber_estimate_log10(math.inf) == -math.inf  # erfcx(inf) is 0
        q = 1.8e154
        assert math.isfinite(ber_estimate_log10(q))
        assert ber_estimate_log10(q) == pytest.approx(ber_log10_erfcx(q), rel=1e-14)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            ber_estimate(0.0)
        with pytest.raises(ValueError):
            ber_estimate_log10(-1.0)


def test_log10_mean():
    a, b = 3.2e-4, 7.9e-6
    got = log10_mean(math.log10(a), math.log10(b))
    assert got == pytest.approx(math.log10((a + b) / 2), rel=1e-12)
    assert log10_mean(-math.inf, -math.inf) == -math.inf
    assert log10_mean(0.0, -math.inf) == pytest.approx(math.log10(0.5))


class TestBerCount:
    def test_counts_exactly(self):
        tx = np.array([0, 1, 1, 0, 1, 0])
        rx = np.array([0, 1, 0, 0, 1, 1])
        res = ber_count(tx, rx)
        assert res.errors == 2
        assert res.n_bits == 6
        assert res.rate == pytest.approx(2 / 6)
        assert ber_count(tx, tx).errors == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ber_count([0, 1], [0, 1, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            BerCount(errors=5, n_bits=4)
        with pytest.raises(ValueError):
            BerCount(errors=0, n_bits=0)


def test_below_hdfec_limit_boundary():
    assert below_hdfec_limit(HD_FEC_BER_LIMIT)
    assert below_hdfec_limit(0.0)
    assert not below_hdfec_limit(HD_FEC_BER_LIMIT * 1.01)


def test_format_metrics_table_smoke():
    rep = MetricsReport(
        label="branch 1", modulation="qpsk", distance_km=30.0, osnr_db=33.0,
        n_symbols=4096, n_bits=8192, evm_percent=13.1, evm_std_percent=0.4,
        q_i_db=18.46, q_q_db=18.27, q_i_std_db=1.04, q_q_std_db=0.9,
        q_capped=False, ber_estimated=2.75e-17, ber_estimated_log10=-16.56,
        ber_count_errors=0, ber_counted=0.0, below_hdfec=True, seed=0)
    text = format_metrics_table([rep])
    assert "branch 1" in text
    assert "Q_I_dB" in text
    assert dataclasses.asdict(rep)["evm_percent"] == 13.1
