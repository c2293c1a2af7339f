"""Regenerate the reference figures in README.md.

    python3 perfbench/figures.py [--seeds 201-210] [--seconds 25]

Runs every workload once per seed untraced and prints each end-to-end
metric's median and quartiles and the quartile spread as a share of the
median.  Then it runs each workload once traced (first seed) and prints the
per-layer figures with the tracing overhead.  Last, it times one
`gcalg verify` at each ROADMAP baseline context in a fresh interpreter.
Every run is a separate process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE_CONTEXTS = ((3, 5), (3, 6), (2, 8), (4, 4), (5, 3))


def bench(workload: str, seed: int, seconds: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="201-210", help="first-last, inclusive")
    parser.add_argument("--seconds", default="25")
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    seeds = range(first, last + 1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    print("| workload | metric | median | Q1 | Q3 | spread | bound |\n|---|---|---|---|---|---|---|")
    for workload in workloads:
        runs = [bench(workload, seed, args.seconds, 0) for seed in seeds]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [run["metrics"][name]["value"] for run in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"| `{workload}` | `{name}` | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} | {metric['bound']} |")
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        correct = all(run["correct"] for run in runs)
        print(f"| `{workload}` | ops failed / attempted, all correct | {failed} / {attempted} | | | | {correct} |")

    traced = {workload: bench(workload, first, args.seconds, 1)["metrics"] for workload in workloads}
    print("\n| per-layer metric | unit | " + " | ".join(f"`{w}`" for w in workloads) + " |")
    print("|---|---|" + "---|" * len(workloads))
    for metric in spec["per_layer"]:
        name = metric["name"]
        cells = " | ".join(f"{traced[w][name]['value']:.4g}" for w in workloads)
        print(f"| `{name}` | {metric['unit']} | {cells} |")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    print("\n| `gcalg verify` context | dim | wall s |\n|---|---|---|")
    for N, n in BASELINE_CONTEXTS:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "gcalg", "verify", "--N", str(N), "--n", str(n)],
                       env=env, cwd=ROOT, capture_output=True, check=True)
        print(f"| ({N},{n}) | {N ** n} | {time.perf_counter() - t0:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
