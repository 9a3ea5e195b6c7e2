"""Self-test of the traced run: every per-layer counter reads non-zero on the
workloads that run its layer and the ``mzm.*`` counters read zero on
``ideal-chain``.  A counter wrapped only in its defining module would miss
callers that imported the function by name and silently read 0.

    python3 -m pytest bench/test_tracing.py      # about a minute
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tracing

HERE = Path(__file__).resolve().parent


def test_replace_everywhere_reaches_names_imported_elsewhere():
    def original():
        return 1

    defining, importing = types.ModuleType("defining"), types.ModuleType("importing")
    defining.f = importing.g = original
    tracer = tracing.Tracer()
    wrapper = tracer.counted(original, lambda args, result: tracer.totals.__setitem__(
        "fft.calls", tracer.totals["fft.calls"] + 1))
    assert tracing._replace_everywhere([defining, importing], original, wrapper) == 2
    tracer.active = True
    assert importing.g() == 1 and defining.f() == 1
    assert tracer.totals["fft.calls"] == 2


def test_coverage_problems_flags_zero_and_stray_counters():
    values = dict.fromkeys(tracing.METRICS, 1)
    assert tracing.coverage_problems("paper-bundles", values) == []
    assert tracing.coverage_problems("ideal-chain", values) == [
        f"{m} is 1 on ideal-chain, expected 0" for m in tracing.MZM_METRICS]
    values["demux.demultiplex_calls"] = 0
    assert tracing.coverage_problems("calibration-sweep", values) == [
        "demux.demultiplex_calls is 0 on calibration-sweep"]


def test_self_time_excludes_traced_children():
    tracer = tracing.Tracer()
    child = tracer.timed("link.noise_s", lambda: sum(range(200_000)))
    parent = tracer.timed("scenario.run_s", lambda: child() + child())
    tracer.active = True
    parent()
    totals = tracer.totals
    assert 0 < totals["scenario.run_self_s"] < totals["scenario.run_s"]
    assert totals["scenario.run_self_s"] + totals["link.noise_s"] == pytest.approx(
        totals["scenario.run_s"], rel=0.05)


@pytest.mark.parametrize("workload", ["paper-bundles", "calibration-sweep", "ideal-chain"])
def test_traced_run_counts_every_layer(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
        timeout=180)
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    assert result["correct"], proc.stderr.decode()
    values = {m: v["value"] for m, v in result["metrics"].items()}
    assert set(values) == set(tracing.METRICS)
    assert all(values[m] > 0 for m in tracing.EXERCISED[workload])
    assert all(values[m] == 0 for m in tracing.IDLE.get(workload, ()))
