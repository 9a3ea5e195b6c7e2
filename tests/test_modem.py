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
    _ber_estimate,
    _ber_estimate_log10,
    _decide_indices,
    _log10_mean,
    ber_count,
    evm,
    format_metrics_table,
    q_factor,
    qam_demap,
    qam_map,
    score_branches,
)

from helpers import ber_log10_erfcx, evm_directly, q_factor_directly

# BER at the linear Q corresponding to 18.46 dB, worked out independently
# with high-precision arithmetic
Q_REF_LINEAR = 8.375292821268827
BER_AT_Q_REF = 2.7543365447383586e-17


class TestConstellation:
    def test_qpsk_points(self):
        c = Constellation(4)
        s = 1 / math.sqrt(2)
        assert_allclose(c.points,
                        [s * (1 + 1j), s * (1 - 1j), s * (-1 + 1j), s * (-1 - 1j)],
                        atol=1e-15)
        assert c.bits_per_symbol == 2

    def test_unit_average_power(self):
        for c in (Constellation(4), Constellation(16)):
            assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_qam16_gray_adjacency(self):
        """Nearest neighbours on the grid differ in exactly one bit."""
        c = Constellation(16)
        pts = c.points
        spacing = np.min([abs(a - b) for i, a in enumerate(pts)
                          for b in pts[i + 1:]])
        for v1 in range(16):
            for v2 in range(v1 + 1, 16):
                if abs(pts[v1] - pts[v2]) < spacing * 1.001:
                    assert bin(v1 ^ v2).count("1") == 1

    def test_unsupported_order_rejected(self):
        with pytest.raises(ValueError):
            Constellation(8)

    def test_order_is_an_integer_4_or_16(self):
        """The points follow from the order alone, which is an integer by
        operator.index: a numpy integer is one, a bool or a float is not.
        np.int64(16) once gave a constellation whose bits_per_symbol raised
        AttributeError, and 16.0 a TypeError."""
        for order in (np.int64(16), np.uint8(4)):
            c = Constellation(order)
            assert type(c.order) is int and c.order == order
            assert c.bits_per_symbol == {4: 2, 16: 4}[c.order]
            assert c.points.tobytes() == Constellation(int(order)).points.tobytes()
            with pytest.raises(ValueError):
                c.points[0] = 0.0
        for order in (True, 16.0, 8):
            with pytest.raises(ValueError, match="unsupported constellation order"):
                Constellation(order)


class TestMapping:
    @pytest.mark.parametrize("order", [pytest.param(4, id="qpsk"),
                                       pytest.param(16, id="qam16")])
    def test_map_demap_round_trip(self, order):
        c = Constellation(order)
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 3 * 1000 * c.bits_per_symbol % 4 + 4000)
        bits = bits[: bits.size - bits.size % c.bits_per_symbol]
        symbols = qam_map(bits, c)
        assert symbols.shape == (bits.size // c.bits_per_symbol,)
        assert np.array_equal(qam_demap(symbols, c), bits)

    def test_map_input_validation(self):
        c = Constellation(4)
        with pytest.raises(ValueError):
            qam_map([0, 1, 1], c)  # not a multiple of 2
        with pytest.raises(ValueError):
            qam_map([0, 2], c)

    @pytest.mark.parametrize("bits", [[0, 1, 1, 0], [0.0, 1.0, -0.0, 0.0],
                                      np.array([1, 0, 1, 1], bool), np.zeros(4, bool),
                                      [0, 1, 1, 2], [0, -1, 1, 0], [0, 0.5, 1, 0],
                                      [0, np.nan, 1, 0]])
    def test_bits_are_what_isin_zero_one_accepts(self, bits):
        """qam_map accepts the bits ``np.isin(bits, (0, 1)).all()`` accepts,
        bools too, and rejects 2, -1, 0.5 and nan."""
        c = Constellation(4)
        if np.isin(bits, (0, 1)).all():
            assert np.array_equal(qam_map(bits, c), qam_map(np.asarray(bits, dtype=int), c))
        else:
            with pytest.raises(ValueError, match="bits must be 0 or 1"):
                qam_map(bits, c)

    @pytest.mark.parametrize("order", [pytest.param(4, id="qpsk"),
                                       pytest.param(16, id="qam16")])
    def test_decision_agrees_with_brute_force(self, order):
        c = Constellation(order)
        rng = np.random.default_rng(5)
        ref_vals = rng.integers(0, c.order, 2000)
        noisy = c.points[ref_vals] + 0.1 * (
            rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
        decided = _decide_indices(noisy, c)
        brute = np.argmin(np.abs(noisy[:, None] - c.points[None, :]), axis=1)
        assert np.array_equal(decided, brute)

    @pytest.mark.parametrize("order", [pytest.param(4, id="qpsk"),
                                       pytest.param(16, id="qam16")])
    def test_ties_and_non_finite_values_decide_as_searchsorted(self, order):
        """On each axis a value decides the level that np.searchsorted
        finds among the thresholds: a value on a threshold the lower level,
        +-inf the outer ones and nan the last."""
        c = Constellation(order)
        levels = np.unique(c.points.real)
        th = 0.5 * (levels[1:] + levels[:-1])
        v = np.concatenate([th, np.nextafter(th, np.inf), np.nextafter(th, -np.inf), levels,
                            [0.0, -0.0, np.inf, -np.inf, np.nan]])
        syms = np.empty((v.size, v.size), dtype=complex)
        syms.real, syms.imag = v[:, None], v[None, :]
        i, q = np.searchsorted(th, syms.real.ravel()), np.searchsorted(th, syms.imag.ravel())
        expected = [np.flatnonzero(c.points == complex(levels[a], levels[b]))[0]
                    for a, b in zip(i, q)]
        assert np.array_equal(_decide_indices(syms.ravel(), c), expected)


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
        c = Constellation(4)
        n = 200_000
        vals = rng.integers(0, 4, n)
        ref = c.points[vals]
        sigma = 0.05
        rx = ref + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        res = q_factor(rx, vals, c)
        # adjacent-level separation 2/sqrt(2), equal sigmas on both clusters
        expect_db = 20 * math.log10((2 / math.sqrt(2)) / (2 * sigma))
        assert res.q_i_db == pytest.approx(expect_db, abs=0.1)
        assert res.q_q_db == pytest.approx(expect_db, abs=0.1)
        assert not res.capped_i and not res.capped_q
        assert res.q_i_std_db > 0.0

    def test_noiseless_data_is_capped(self):
        c = Constellation(4)
        rng = np.random.default_rng(3)
        vals = rng.integers(0, 4, 100)
        res = q_factor(c.points[vals], vals, c)
        assert res.capped_i and res.capped_q
        assert res.q_i_db == Q_CAP_DB

    def test_single_level_axis_is_capped_and_flagged(self):
        """An axis whose patterns hold one level has no adjacent pair: its
        Q is infinite, reported as the cap and flagged, with no block spread,
        while the other axis is measured as usual."""
        rng = np.random.default_rng(8)
        c = Constellation(4)
        vals = 2 * rng.integers(0, 2, 40)  # quadrature code 0 throughout
        rx = c.points[vals] + 0.1 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
        res = q_factor(rx, vals, c)
        assert res.capped_q and not res.floored_q
        assert (res.q_q_db, res.q_q_std_db) == (Q_CAP_DB, 0.0)
        assert res.q_q_linear == 10.0 ** (Q_CAP_DB / 20.0)
        assert not res.capped_i and res.q_i_db < Q_CAP_DB

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            q_factor(np.zeros(0, dtype=complex), np.zeros(0, dtype=int), Constellation(4))

    def test_invalid_patterns_rejected(self):
        """``sent`` holds bit patterns: a negative one would index the levels
        from their end and score wrong clusters, one of ``order`` or more
        has no level, and float references are not patterns."""
        rng = np.random.default_rng(0)
        c = Constellation(16)
        vals = rng.integers(0, 16, 400)
        rx = c.points[vals] + 0.02 * (rng.standard_normal(400) + 1j * rng.standard_normal(400))
        assert q_factor(rx, vals, c).q_i_db > 20.0
        for bad in (np.where(np.arange(400) < 20, -3, vals), np.where(vals == 5, 16, vals),
                    vals.astype(float), c.points[vals]):
            with pytest.raises(ValueError, match="sent must hold integer bit patterns"):
                q_factor(rx, bad, c)
        with pytest.raises(ValueError, match="sent must hold"):
            q_factor(np.stack([rx, rx]), np.stack([vals, vals - 1]), c)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_non_finite_read_outs_are_refused(bad):
    """A read-out holding nan or +/-inf is refused before any arithmetic,
    in 1-D and 2-D form, and so is such an EVM reference: a nan read-out
    scored Q at the cap, flagged capped, and an EVM of nan."""
    c = Constellation(4)
    vals = np.random.default_rng(4).integers(0, 4, 100)
    good = c.points[vals]
    spoilt = good.copy()
    spoilt[37] = bad
    two_d = np.stack([good, spoilt]), np.stack([vals, vals]), np.stack([good, good])
    for rx, sent, ref in ((spoilt, vals, good), two_d):
        with pytest.raises(ValueError, match="must be finite"):
            q_factor(rx, sent, c)
        with pytest.raises(ValueError, match="must be finite"):
            evm(rx, ref)
        with pytest.raises(ValueError, match="must be finite"):
            evm(ref, rx)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(order=st.sampled_from([4, 16]), n_symbols=st.integers(1, 300),
       n_blocks=st.integers(1, 12), runs=st.integers(1, 40),
       sigma=st.one_of(st.just(0.0), st.floats(-9.0, 0.3).map(lambda e: 10.0 ** e)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_pass_metrics_match_block_by_block_oracles(
        order, n_symbols, n_blocks, runs, sigma, seed):
    """q_factor and evm equal their per-block, per-level oracles: every flag
    identical, every other value within 1e-12 relative.  Symbols come in
    ``runs`` runs of one point, so blocks miss levels or hold just one, a
    single run leaves each axis one level, capped, and
    ``n_symbols`` may be below ``n_blocks``; sigma 0 is noiseless, capped,
    and sigma near 1e-3 puts Q just under the cap, where a one-pass
    E[x^2] - E[x]^2 variance would cancel."""
    rng = np.random.default_rng(seed)
    points = Constellation(order).points
    values = np.repeat(rng.integers(0, order, runs), -(-n_symbols // runs))
    ref = points[values[:n_symbols]]
    rx = ref + sigma * (rng.standard_normal(n_symbols)
                        + 1j * rng.standard_normal(n_symbols))

    ev, want_ev = evm(rx, ref, n_blocks), evm_directly(rx, ref, n_blocks)
    assert ev.percent == want_ev.percent
    assert_allclose(ev.block_percents, want_ev.block_percents, rtol=1e-12, atol=0)
    assert ev.std_percent == pytest.approx(want_ev.std_percent, rel=1e-12, abs=1e-300)

    want = q_factor_directly(rx, ref, n_blocks)
    got = q_factor(rx, values[:n_symbols], Constellation(order), n_blocks)
    for field in dataclasses.fields(QFactorResult):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, bool):
            assert g is w, field.name
        else:
            assert g == pytest.approx(w, rel=1e-12, abs=1e-300), field.name


@settings(max_examples=200, deadline=None, derandomize=True)
@given(order=st.sampled_from([4, 16]), n_rows=st.sampled_from([1, 3, 5, 7]),
       n_symbols=st.integers(1, 300), n_blocks=st.integers(1, 12),
       runs=st.integers(1, 40),
       sigma=st.one_of(st.just(0.0), st.floats(-9.0, 0.3).map(lambda e: 10.0 ** e)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rows_score_as_each_row_alone(order, n_rows, n_symbols, n_blocks, runs, sigma,
                                      seed):
    """evm and q_factor on (N, M) input give one result per row, each the
    bits of scoring that row alone, and within 1e-12 of the block-by-block
    oracles.  Rows are runs of one pattern, so a row may miss levels or hold
    one; row 0 holds one in-phase level, which is capped and flagged."""
    rng = np.random.default_rng(seed)
    c = Constellation(order)
    side = math.isqrt(order)
    sent = np.repeat(rng.integers(0, order, (n_rows, runs)), -(-n_symbols // runs),
                     axis=1)[:, :n_symbols]
    sent[0] %= side  # in-phase code 0 throughout
    ref = c.points[sent]
    rx = ref + sigma * (rng.standard_normal(ref.shape) + 1j * rng.standard_normal(ref.shape))

    evs, qfs = evm(rx, ref, n_blocks), q_factor(rx, sent, c, n_blocks)
    assert len(evs) == len(qfs) == n_rows
    for row in range(n_rows):
        assert repr(evs[row]) == repr(evm(rx[row], ref[row], n_blocks))
        assert repr(qfs[row]) == repr(q_factor(rx[row], sent[row], c, n_blocks))
        want_ev = evm_directly(rx[row], ref[row], n_blocks)
        assert evs[row].percent == want_ev.percent
        assert_allclose(evs[row].block_percents, want_ev.block_percents, rtol=1e-12, atol=0)
        assert evs[row].std_percent == pytest.approx(want_ev.std_percent, rel=1e-12,
                                                     abs=1e-300)
        want = q_factor_directly(rx[row], ref[row], n_blocks)
        for field in dataclasses.fields(QFactorResult):
            g, w = getattr(qfs[row], field.name), getattr(want, field.name)
            if isinstance(w, bool):
                assert g is w, field.name
            else:
                assert g == pytest.approx(w, rel=1e-12, abs=1e-300), field.name
    assert qfs[0].capped_i and (qfs[0].q_i_db, qfs[0].q_i_std_db) == (Q_CAP_DB, 0.0)


class TestBerEstimate:
    def test_reference_value(self):
        assert _ber_estimate(Q_REF_LINEAR) == pytest.approx(BER_AT_Q_REF, rel=1e-12)

    def test_log10_agrees_where_not_underflowed(self):
        for q in (1.0, 3.0, 6.0, 8.0):
            assert _ber_estimate_log10(q) == pytest.approx(
                math.log10(_ber_estimate(q)), rel=1e-12)

    def test_log10_survives_underflow(self):
        q = 40.0
        assert _ber_estimate(q) == 0.0  # the plain float has underflowed
        val = _ber_estimate_log10(q)
        assert -350.0 < val < -348.0

    def test_log10_strictly_decreasing(self):
        qs = np.linspace(0.5, 50.0, 200)
        vals = [_ber_estimate_log10(q) for q in qs]
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
        got = np.array([_ber_estimate_log10(float(q)) for q in qs])
        want = np.array([ber_log10_erfcx(float(q)) for q in qs])
        assert_allclose(got, want, rtol=1e-14, atol=0)

    @given(st.floats(0.1, 1000.0))
    def test_log10_matches_erfcx_anywhere(self, q):
        assert _ber_estimate_log10(q) == pytest.approx(ber_log10_erfcx(q),
                                                       rel=1e-14, abs=0)

    def test_log10_strictly_decreasing_across_switch(self):
        for step in (1e-13, 1e-9, 1e-5):
            qs = self.Q_SWITCH * (1.0 + np.arange(-100, 101) * step)
            vals = [_ber_estimate_log10(float(q)) for q in qs]
            assert all(b < a for a, b in zip(vals, vals[1:])), step

    def test_log10_is_minus_inf_where_the_square_overflows(self):
        """Beyond q of about 1.9e154, (q/sqrt(2))**2 is inf, as in the erfcx
        form, and so at q = inf; just below, both are finite."""
        for q in (1.9e154, 1e200, 1e300):
            assert _ber_estimate_log10(q) == ber_log10_erfcx(q) == -math.inf
        assert _ber_estimate_log10(math.inf) == -math.inf  # erfcx(inf) is 0
        q = 1.8e154
        assert math.isfinite(_ber_estimate_log10(q))
        assert _ber_estimate_log10(q) == pytest.approx(ber_log10_erfcx(q), rel=1e-14)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            _ber_estimate(0.0)
        with pytest.raises(ValueError):
            _ber_estimate_log10(-1.0)


def test_log10_mean():
    a, b = 3.2e-4, 7.9e-6
    got = _log10_mean(math.log10(a), math.log10(b))
    assert got == pytest.approx(math.log10((a + b) / 2), rel=1e-12)
    assert _log10_mean(-math.inf, -math.inf) == -math.inf
    assert _log10_mean(0.0, -math.inf) == pytest.approx(math.log10(0.5))


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


class TestScoreBranches:
    def test_hdfec_verdict_at_the_limit(self):
        """9 errors in 2,000 bits is exactly the HD-FEC limit and passes, 10
        does not; each flipped in-phase sign is one bit error."""
        c = Constellation(4)
        sent = np.random.default_rng(3).integers(0, 4, (3, 1000))
        rx = c.points[sent]
        for row, n_flips in zip(rx, (0, 9, 10)):
            row[:n_flips] = -row[:n_flips].real + 1j * row[:n_flips].imag
        measured = score_branches(rx, sent, c)[3]
        assert [m["n_bits"] for m in measured] == [2000] * 3
        assert [m["ber_count_errors"] for m in measured] == [0, 9, 10]
        assert measured[1]["ber_counted"] == HD_FEC_BER_LIMIT
        assert [m["below_hdfec"] for m in measured] == [True, True, False]

    def test_taps_undo_a_complex_gain_in_place(self):
        """The tap is the least-squares gain onto the sent symbols, applied
        to the read-out itself, and EVM and Q score the tapped rows."""
        c = Constellation(16)
        rng = np.random.default_rng(8)
        sent = rng.integers(0, 16, (2, 500))
        ref = c.points[sent]
        rx = (0.4 - 0.3j) * (ref + 0.05 * (rng.standard_normal(ref.shape)
                                          + 1j * rng.standard_normal(ref.shape)))
        tapped, taps, decided, measured = score_branches(rx, sent, c)
        assert tapped is rx
        assert_allclose(taps, 1 / (0.4 - 0.3j), rtol=1e-2)
        assert np.array_equal(decided, sent)
        for m, ev, qf in zip(measured, evm(rx, ref), q_factor(rx, sent, c)):
            assert (m["evm_percent"], m["q_i_db"], m["q_q_db"]) == (
                ev.percent, qf.q_i_db, qf.q_q_db)
            assert m["ber_count_errors"] == 0 and m["ber_estimated"] == 0.5 * (
                _ber_estimate(qf.q_i_linear) + _ber_estimate(qf.q_q_linear))

    def test_an_all_zero_row_is_refused(self):
        c = Constellation(4)
        sent = np.zeros((3, 8), dtype=int)
        rx = c.points[sent]
        rx[1] = 0
        with pytest.raises(RuntimeError, match="branch 2 demultiplexed to an all-zero"):
            score_branches(rx, sent, c)


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
