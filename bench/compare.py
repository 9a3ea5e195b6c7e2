"""Run two separate batches of the benchmark and compare them.

    python3 bench/compare.py --runs 10

Each batch runs ``bench/run.py`` once per workload of ``BENCHMARK.json`` and
seed, untraced, with its run length; batch A uses seeds 1 to ``--runs`` and
batch B the next ``--runs``.  For every workload and end-to-end metric it
prints each batch's median and quartiles (``statistics.quantiles(n=4)``),
the spread (q3 - q1) / median, and the change of batch B's median against
batch A's, next to the metric's bound.  ``ok`` means both spreads are within
a third of the bound and the two medians differ by at most the bound, either
way.  Exits 1 if a run fails, a check of the outputs fails, the share of
failed operations differs between the batches, or any row is not ``ok``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def stats(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="runs per batch and workload")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    batches = {}
    for batch, first in (("A", 1), ("B", 1 + args.runs)):
        batches[batch] = {w: [] for w in workloads}
        for seed in range(first, first + args.runs):
            for workload in workloads:
                batches[batch][workload].append(run_once(workload, seed, spec["run_seconds"]))

    ok = True
    print(f"{'workload':<18} {'metric':<12} {'batch A median [q1, q3] spread':<40} "
          f"{'batch B median [q1, q3] spread':<40} {'B/A-1':>7} {'bound':>6}")
    for workload in workloads:
        runs = {b: batches[b][workload] for b in batches}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, medians, row_ok = [], [], True
            for b in ("A", "B"):
                median, q1, q3, spread = stats([r["metrics"][name]["value"] for r in runs[b]])
                medians.append(median)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] {100 * spread:.1f}%")
                row_ok &= spread <= bound / 3
            change = medians[1] / medians[0] - 1
            row_ok &= abs(change) <= bound
            ok &= row_ok
            print(f"{workload:<18} {name:<12} {cells[0]:<40} {cells[1]:<40} "
                  f"{100 * change:>6.1f}% {100 * bound:>5.0f}% {'ok' if row_ok else 'NOT OK'}")
        shares = {b: sum(r["failed"] for r in runs[b]) / sum(r["attempted"] for r in runs[b])
                  for b in runs}
        correct = all(r["correct"] for b in runs for r in runs[b])
        ok &= correct and shares["A"] == shares["B"]
        print(f"{workload:<18} failed share A {shares['A']:.4f}, B {shares['B']:.4f}; "
              f"outputs {'correct' if correct else 'NOT CORRECT'}")
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "compare.json").write_text(json.dumps(batches, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
