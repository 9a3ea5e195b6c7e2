"""Hand cases for the output checks in ``checks.py``.

    python3 -m pytest bench/test_checks.py
"""

import json
import math

import numpy as np
import pytest
from scipy.special import jv

import checks

FLAT_MZM = {"v_pi_volts": math.pi, "eo_3db_bandwidth_hz": 1e9,
            "dc_extinction_arm1_db": math.inf, "dc_extinction_arm2_db": math.inf,
            "insertion_loss_db": 0.0, "eo_model": "flat"}


def one_arm_plan(beta: float, spacing: float) -> dict:
    # arm 1 carries beta sin(2 pi f t); arm 2 is undriven (v_pi = pi -> depth 1)
    return {"bias_arm1": 0.0, "bias_arm2": 0.0,
            "tones": [{"frequency": spacing, "amplitude_arm1": beta, "amplitude_arm2": 0.0,
                       "phase_arm1": 0.0, "phase_arm2": 0.0}]}


def test_comb_of_one_driven_arm_is_bessel_lines():
    # 0.5 (exp(j beta sin x) + 1): line 0 is (J0 + 1)/2, line k is J_k/2
    beta = 0.7
    powers = checks.comb_line_powers_dbm(one_arm_plan(beta, 5e9), FLAT_MZM, 5, 5e9)
    expected = [0.5 * jv(k, beta) for k in (-2, -1, 0, 1, 2)]
    expected[2] = 0.5 * (jv(0, beta) + 1.0)
    np.testing.assert_allclose(powers, 10 * np.log10(np.square(expected)), atol=1e-9)


def test_comb_arm_field_eo_gain_and_loss():
    assert checks.arm_field(20.0) == pytest.approx(9.0 / 11.0)
    assert checks.arm_field(math.inf) == 1.0
    for model in ("single_pole", "gaussian"):
        mzm = dict(FLAT_MZM, eo_model=model, eo_3db_bandwidth_hz=4e9)
        assert checks.eo_gain(4e9, mzm) == pytest.approx(math.sqrt(0.5))
    assert checks.eo_gain(4e9, FLAT_MZM) == 1.0
    # no tones: a constant transfer loss/2 (a1 + a2) on line 0 only
    plan = {"bias_arm1": 0.0, "bias_arm2": 0.0, "tones": []}
    mzm = dict(FLAT_MZM, insertion_loss_db=3.0, dc_extinction_arm2_db=20.0)
    line0 = checks.comb_line_powers_dbm(plan, mzm, 3, 1e9)[1]
    field = 0.5 * 10 ** (-3.0 / 20) * (1 + 9.0 / 11.0)
    assert line0 == pytest.approx(20 * math.log10(field))


def write_comb_bundle(path, line_powers, flatness):
    path.mkdir()
    plan = one_arm_plan(0.7, 5e9)
    (path / "config.json").write_text(json.dumps(
        {"mode": "comb", "comb": {"n_lines": 5, "spacing_hz": 5e9}, "mzm": FLAT_MZM}))
    (path / "drive_plan.json").write_text(json.dumps(plan))
    (path / "metrics.json").write_text(json.dumps(
        {"comb": {"line_powers_dbm": list(line_powers), "flatness_db": flatness}}))


def test_check_comb_bundle(tmp_path):
    powers = checks.comb_line_powers_dbm(one_arm_plan(0.7, 5e9), FLAT_MZM, 5, 5e9)
    write_comb_bundle(tmp_path / "good", powers, float(np.ptp(powers)))
    assert checks.check_comb_bundle(tmp_path / "good") == []
    shifted = powers + np.array([0, 0, 1e-3, 0, 0])
    write_comb_bundle(tmp_path / "bad", shifted, float(np.ptp(powers)))
    assert len(checks.check_comb_bundle(tmp_path / "bad")) == 1


@pytest.mark.parametrize("osnr, kind, expected", [
    (24.0, "sinc", 8.74), (30.0, "sinc", 4.38),
    (24.0, "raised_cosine", 7.57), (30.0, "raised_cosine", 3.79),
])
def test_evm_closed_form(osnr, kind, expected):
    got = checks.evm_closed_form_percent(osnr, 24e9, 12.5e9, kind, rolloff=1.0)
    assert round(got, 2) == expected


def write_transmission_bundle(path, evms, sampler="ideal", q_db=(20 * math.log10(3.0),) * 2,
                              ber=None):
    path.mkdir()
    config = {"mode": "transmission", "modulation": "qpsk", "n_symbols": 2,
              "plan": {"aggregate_bandwidth_hz": 24e9},
              "shaping": {"kind": "sinc", "rolloff": 0.0},
              "noise": {"osnr_db": 24.0, "reference_bandwidth_hz": 12.5e9},
              "sampler": {"mode": sampler}}
    if ber is None:
        ber = 0.5 * math.erfc(3.0 / math.sqrt(2.0))
    reports = [{"label": f"branch {i + 1}", "evm_percent": e, "q_i_db": q_db[0],
                "q_q_db": q_db[1], "q_capped": False, "ber_estimated": ber}
               for i, e in enumerate(evms)]
    (path / "config.json").write_text(json.dumps(config))
    (path / "metrics.json").write_text(json.dumps({"reports": reports}))
    return config


def test_check_evm_band(tmp_path):
    config = write_transmission_bundle(tmp_path / "b", [8.74, 8.0])
    config["n_symbols"] = 10_000  # tolerance 5.5 %: 8.0 is 8.5 % low
    (tmp_path / "b" / "config.json").write_text(json.dumps(config))
    problems = checks.check_evm(tmp_path / "b")
    assert len(problems) == 1 and "branch 2" in problems[0]
    # the MZM floor adds in quadrature: 9.3 % is above 1.055 * 8.74 = 9.22 %
    # but below 1.055 * hypot(8.74, 1.5) = 9.36 %
    reports = {"reports": [{"label": "branch 1", "evm_percent": 9.3}]}
    (tmp_path / "b" / "metrics.json").write_text(json.dumps(reports))
    assert len(checks.check_evm(tmp_path / "b")) == 1
    config["sampler"]["mode"] = "mzm"
    (tmp_path / "b" / "config.json").write_text(json.dumps(config))
    assert checks.check_evm(tmp_path / "b") == []


def test_check_q_to_ber(tmp_path):
    write_transmission_bundle(tmp_path / "good", [1.0])
    assert checks.check_q_to_ber(tmp_path / "good") == []
    write_transmission_bundle(tmp_path / "bad", [1.0], ber=1.4e-3)
    assert len(checks.check_q_to_ber(tmp_path / "bad")) == 1


def test_nearest_point_values_qpsk_and_16qam():
    r2, r10 = math.sqrt(2.0), math.sqrt(10.0)
    qpsk = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / r2 * 0.8
    assert checks.nearest_point_values(qpsk, 4).tolist() == [0, 2, 3, 1]
    qam = np.array([3 + 3j, -3 - 3j, 1 - 1j, -1 + 3j, 2.2 + 0.1j]) / r10
    # axis codes by level -3, -1, 1, 3: 2, 3, 1, 0; value = (I << 2) | Q
    assert checks.nearest_point_values(qam, 16).tolist() == [0, 10, 7, 12, 1]


def test_check_constellation_csv(tmp_path):
    path = tmp_path / "branch1_constellation.csv"
    rows = "re,im,decided_symbol\n0.7,0.7,0\n-0.7,0.7,2\n"
    path.write_text(rows)
    assert checks.check_constellation_csv(path, 4, 2) == []
    path.write_text(rows.replace("0.7,2", "0.7,3"))
    assert "1 of 2" in checks.check_constellation_csv(path, 4, 2)[0]
    assert "shape" in checks.check_constellation_csv(path, 4, 3)[0]


def test_band_margin():
    freqs = np.array([-13e9, -12e9, 0.0, 12e9, 13e9])
    power = np.array([-250.0, -10.0, 0.0, -5.0, -240.0])
    assert checks.band_margin_db(freqs, power, 24e9) == pytest.approx(240.0)
    # rows on the band edge are in band; cropped spectra have no rows beyond
    assert checks.band_margin_db(freqs[1:4], power[1:4], 24e9) == math.inf
    assert checks.band_margin_db(freqs, power, 20e9) == pytest.approx(5.0)
