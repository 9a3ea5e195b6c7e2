"""Benchmark of the nyquist-otdm simulator, one workload per call.

    python3 bench/run.py --workload paper-bundles --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every process runs the checkout's own
``src/nyquist_otdm`` with one BLAS/OpenMP thread.  Untraced, it starts
``SETUP_PROBES`` processes that only import the package, numpy and scipy,
then one workload process that repeats whole rounds for ``--seconds``, and
reports the end-to-end metrics:

* ``wall_s``: median over the rounds of the time from the first config
  parse to the last bundle written; set-up, checks, deleting the bundles
  and the reference passes are outside it;
* ``setup_s``: median over the probes and the workload process of the time
  from the spawn until the imports are done;
* ``peak_rss_mb``: peak resident memory of the workload process, MiB.

Both times are scaled to the reference host speed (see ``hostspeed.py``):
each round's time by the mean of the reference passes timed every half
second while it ran, each set-up time by the median of the five passes
timed here just before the spawn and the five timed in the process just
after its imports.  The raw times are kept in the record under
``bench/results/``.  All processes run on one vCPU, the lowest this one may
use, so the passes time the vCPU the work runs on.

With ``--trace 1`` the workload process wraps the package's public
functions and reports the per-layer metrics (see ``tracing.py``) instead:
times as the median over rounds, counts from the first round, which has
the same operations in every run.  The last line of standard output is one JSON
object; the full record of the run goes to ``bench/results/``.  The exit
code is 0 only when the run completed; ``correct`` is false when a check
of the outputs found a problem.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-bundles", "calibration-sweep", "ideal-chain")
SETUP_PROBES = 5
TIMEOUT_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARIABLES, "1"))
    env["PYTHONPATH"] = str(root / "src")  # this checkout's package, no other
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list, env: dict, deadline: float) -> dict:
    """Run ``worker.py`` with ``args`` and return its last JSON line, with
    its set-up time scaled to the reference host speed."""
    import hostspeed  # here, so numpy loads after main() set the thread variables
    before = hostspeed.passes(5)
    command = [sys.executable, str(HERE / "worker.py"), "--t0", repr(time.monotonic())]
    proc = subprocess.run(command + args, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}: {args}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    result["setup_passes_before"] = before
    result["scaled_setup_s"] = (result["setup_s"] * hostspeed.REFERENCE_S
                                / statistics.median(before + result["setup_passes"]))
    return result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIMEOUT_S
    root = HERE.parent
    package = root / "src" / "nyquist_otdm"
    if not (package / "__init__.py").is_file() or not (root / "paper-scenarios").is_dir():
        print(f"error: {root} holds no src/nyquist_otdm and paper-scenarios to measure",
              file=sys.stderr)
        return 2
    env = child_env(root)
    os.environ.update(dict.fromkeys(THREAD_VARIABLES, "1"))  # for hostspeed's numpy
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # inherited by the workers
    work = HERE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    try:
        probes = [] if args.trace else [spawn(["--probe"], env, deadline)
                                        for _ in range(SETUP_PROBES)]
        if any(Path(p["package"]).resolve().parent != package.resolve() for p in probes):
            raise RuntimeError("the probes imported nyquist_otdm from outside the checkout")
        run = spawn(["--root", str(root), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--work-dir", str(work)], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = run["rounds"]
    problems = [p for r in rounds for p in r["problems"]]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        import tracing
        metrics = {}
        for m in tracing.METRICS:
            unit = tracing.unit_of(m)
            # counts from round 0: comb spacings change from round to round
            # and move the calibration's call counts a little
            value = (statistics.median(r["layers"][m] for r in rounds) if unit == "s"
                     else rounds[0]["layers"][m])
            metrics[m] = metric(value, unit)
    else:
        metrics = {
            "wall_s": metric(statistics.median(r["scaled_wall_s"] for r in rounds), "s"),
            "setup_s": metric(statistics.median([p["scaled_setup_s"] for p in probes]
                                                + [run["scaled_setup_s"]]), "s"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        }
    summary = {"correct": not problems,
               "attempted": sum(r["attempted"] for r in rounds),
               "failed": sum(len(r["failed"]) for r in rounds),
               "metrics": metrics}
    record = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, probes=probes, run=run)
    name = f"{'trace' if args.trace else 'run'}-{args.workload}-{args.seed}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
