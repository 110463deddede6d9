"""Record a baseline: every workload over several seeds, plus one traced run each.

Run from the repository root, with nothing else loading the machine:

    python3 perfbench/baseline.py --seeds 1-10 --seconds 28 --out perfbench/BASELINE.json

With --seeds 1-1 and no --out it is the one command that runs every workload
once and prints each end-to-end metric with its unit.

For each workload and end-to-end metric it stores the median, the quartiles
(statistics.quantiles, n=4) and their spread as a share of the median; the
traced run (first seed) adds the busy-time share of each layer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]
from run import END_TO_END  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10", help="first-last")
    p.add_argument("--seconds", type=int, default=28)
    p.add_argument("--out", help="write the summary here as JSON")
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    out = {"machine": machine(), "seconds": args.seconds, "seeds": [lo, hi], "workloads": {}}
    for w in WORKLOADS:
        runs = [bench(w, seed, args.seconds, 0) for seed in range(lo, hi + 1)]
        traced = bench(w, lo, args.seconds, 1)["metrics"]
        out["workloads"][w] = {
            "correct": all(r["correct"] for r in runs),
            "attempted_per_run": [r["attempted"] for r in runs],
            "failed_per_run": [r["failed"] for r in runs],
            "end_to_end": {name: dict(summary([r["metrics"][name]["value"] for r in runs]),
                                      unit=unit) for name, unit in END_TO_END},
            "layer_share": {layer: traced[f"layer.{layer}.share"]["value"] for layer in LAYERS},
            "trace_overhead_ratio": traced["trace.overhead_ratio"]["value"],
        }
        print(w, json.dumps(out["workloads"][w]["end_to_end"]), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
