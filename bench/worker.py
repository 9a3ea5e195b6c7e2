"""One benchmark process: set up, run whole rounds of a workload, check them.

Started by ``run.py`` in a fresh interpreter with one BLAS/OpenMP thread and
``PYTHONPATH`` set to the checkout's ``src``.  ``--t0`` is the parent's
``time.monotonic()`` just before the spawn, so set-up time counts
interpreter start-up plus the imports.  With ``--probe`` the process only
reports its set-up time.  Otherwise it repeats rounds until the next one
would end after ``--seconds``, and prints one JSON line: round times,
operations attempted and failed, problems found by the checks, peak RSS and,
with ``--trace 1``, the per-layer totals of every round.

Every process also times reference passes (``hostspeed.py``): five after
the imports, and, untraced, one every ``hostspeed.METER_PERIOD_S`` while a
round runs, so that ``run.py`` can scale the times to the reference host
speed.
"""

from __future__ import annotations

import argparse
import time

import numpy as np
import scipy

import nyquist_otdm as no

SETUP_DONE = time.monotonic()

import copy  # noqa: E402  (after the set-up stamp: not part of set-up)
import gc  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

SWEEP_BASE = "nyquist_qpsk_8gbd_30km.json"
COMB_MZM = "comb_10ghz.json"
SWEEP_POINTS = 6
IDEAL_POINTS = 4  # per shaping
# (n_lines, spacing in units of 10 MHz) of round 0; round k adds 40 k.  Modulo
# 0.4 GHz the four spacings are 0.05, 0.15, 0.25 and 0.35 GHz and the 8, 10, 20
# and 30 GHz of the bundled scenarios are 0, so no comb of a run meets those
# or another comb of the run.
COMB_SCHEDULE = ((5, 405), (5, 415), (7, 425), (7, 435))

def _scenarios(root: Path) -> dict:
    return {p.name: json.loads(p.read_text())
            for p in sorted((root / "paper-scenarios").glob("*.json"))}


def _osnr_tag(value) -> str:
    # the directory name `nyquist-otdm sweep --out-dir` gives a point
    return "noise.osnr_db=" + re.sub(r"[^A-Za-z0-9_.+-]", "_", str(value))


# ---------------------------------------------------------------------------
# workloads: each builds one round's inputs from (seed, round) and runs it


def paper_bundles(scenarios: dict, rng) -> tuple:
    ops = []
    for name, raw in scenarios.items():
        raw = copy.deepcopy(raw)
        raw["seed"] = int(rng.integers(0, 2 ** 31))
        ops.append((json.dumps(raw), name[:-len(".json")]))
    return ops, None


def calibration_sweep(scenarios: dict, rng, k: int) -> tuple:
    base = copy.deepcopy(scenarios[SWEEP_BASE])
    base["seed"] = int(rng.integers(0, 2 ** 31))
    base["outputs"] = ["metrics"]
    osnrs = sorted(rng.choice(np.arange(2000, 3400), SWEEP_POINTS, replace=False) / 100)
    sweep = (json.dumps(base), [float(v) for v in osnrs])
    mzm = scenarios[COMB_MZM]["mzm"]
    ops = []
    for n_lines, spacing in COMB_SCHEDULE:
        spacing_hz = (spacing + 40 * k) * 1e7
        raw = {"version": 1, "mode": "comb", "seed": 0,
               "label": f"{n_lines}-line comb, {spacing_hz / 1e9:g} GHz",
               "comb": {"n_lines": n_lines, "spacing_hz": spacing_hz},
               "mzm": copy.deepcopy(mzm)}
        ops.append((json.dumps(raw), f"comb{n_lines}_{spacing_hz / 1e9:g}ghz"))
    return ops, sweep


def ideal_chain(rng) -> tuple:
    # 5 branches at 24 GHz: sinc at 4.8 GBd, 6561 symbols -> 262,440 =
    # 2^3 3^8 5 samples; raised cosine r=1 at 2.4 GBd, 3375 symbols ->
    # 270,000 = 2^4 3^3 5^4 samples.
    shapings = (
        ("sinc", {"kind": "sinc"}, 6561),
        ("rc", {"kind": "raised_cosine", "symbol_rate_hz": 2.4e9, "rolloff": 1.0}, 3375),
    )
    ops = []
    for tag, shaping, n_symbols in shapings:
        for osnr in sorted(rng.choice(np.arange(2000, 3200), IDEAL_POINTS, replace=False) / 100):
            raw = {"version": 1, "seed": int(rng.integers(0, 2 ** 31)),
                   "label": f"5 x 16QAM {tag}, 30 km, OSNR {osnr:g} dB",
                   "plan": {"n_branches": 5, "aggregate_bandwidth_hz": 24e9},
                   "modulation": "16qam", "shaping": shaping, "n_symbols": n_symbols,
                   "oversampling": 8, "fiber": {"length_km": 30.0},
                   "noise": {"osnr_db": float(osnr)}, "sampler": {"mode": "ideal"},
                   "receiver": {"compensate_dispersion": True}, "outputs": ["metrics"]}
            ops.append((json.dumps(raw), f"{tag}_osnr{osnr:g}"))
    return ops, None


def build_round(workload: str, scenarios: dict, seed: int, k: int) -> tuple:
    """Round k's inputs: ([(config JSON, bundle name)], sweep or None)."""
    rng = np.random.default_rng([seed % 2 ** 32, k])
    if workload == "paper-bundles":
        return paper_bundles(scenarios, rng)
    if workload == "calibration-sweep":
        return calibration_sweep(scenarios, rng, k)
    return ideal_chain(rng)


def run_round(ops, sweep, out: Path, meter: hostspeed.Meter) -> tuple:
    """The timed part: parse, run and write every bundle, as ``nyquist-otdm
    sweep/run --out-dir`` do.  Returns the wall time of each operation (the
    sweep is one) without the meter's passes, and the bundles of the
    operations that failed: comb calibrations that did not converge."""
    failed, times = [], []

    def sweep_op(text, values):
        for value, bundle in zip(values, no.sweep(json.loads(text), "noise.osnr_db", values)):
            no.write_bundle(bundle, out / _osnr_tag(value))

    def run_op(text, name):
        bundle = no.run_scenario(no.parse_scenario(json.loads(text)))
        no.write_bundle(bundle, out / name)
        if bundle.calibration is not None and not bundle.calibration.converged:
            failed.append(name)

    steps = ([(sweep_op, sweep)] if sweep is not None else []) + [(run_op, op) for op in ops]
    for step, op in steps:
        spent = meter.spent
        start = time.perf_counter()
        step(*op)
        times.append(time.perf_counter() - start - (meter.spent - spent))
    return times, failed


def check_round(workload: str, out: Path, failed: list) -> list:
    problems = []
    for bundle in sorted(p for p in out.iterdir() if p.name not in failed):
        mode = json.loads((bundle / "config.json").read_text())["mode"]
        if mode == "comb":
            problems += checks.check_comb_bundle(bundle)
        else:
            problems += checks.check_transmission_bundle(
                bundle, evm=workload != "paper-bundles")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--root", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work-dir", type=Path)
    args = parser.parse_args(argv)
    setup_s = SETUP_DONE - args.t0
    setup_passes = hostspeed.passes(5)
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "setup_passes": setup_passes,
                          "package": no.__file__,
                          "numpy": np.__version__, "scipy": scipy.__version__}))
        return 0

    scenarios = _scenarios(args.root)
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    rounds, spent = [], 0.0
    while not rounds or spent + statistics.median(r["elapsed_s"] for r in rounds) <= args.seconds:
        k = len(rounds)
        lap = time.perf_counter()
        ops, sweep = build_round(args.workload, scenarios, args.seed, k)
        out = args.work_dir / f"round{k}"
        gc.collect()
        tracer.reset()
        tracer.active = bool(args.trace)
        meter = hostspeed.Meter()
        if args.trace:  # the passes would count in the layers
            times, failed = run_round(ops, sweep, out, meter)
        else:
            with meter:
                times, failed = run_round(ops, sweep, out, meter)
        tracer.active = False
        attempted = len(ops) + (len(sweep[1]) if sweep else 0)
        problems = check_round(args.workload, out, failed)
        shutil.rmtree(out)
        record = {"wall_s": sum(times), "attempted": attempted, "failed": failed,
                  "problems": problems, "op_s": times, "reference_s": meter.passes}
        if meter.passes:  # the host speed of the round: the mean of its passes
            record["scaled_wall_s"] = (sum(times) * hostspeed.REFERENCE_S
                                       / statistics.mean(meter.passes))
        if args.trace:
            layers = tracer.snapshot()
            record["layers"] = layers
            record["problems"] += tracing.coverage_problems(args.workload, layers)
        record["elapsed_s"] = time.perf_counter() - lap
        rounds.append(record)
        spent += record["elapsed_s"]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"setup_s": setup_s, "setup_passes": setup_passes,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0,
                      "cpu_user_s": usage.ru_utime, "cpu_sys_s": usage.ru_stime,
                      "rounds": rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
