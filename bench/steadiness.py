"""Run-to-run steadiness of the end-to-end metrics.

    python3 bench/steadiness.py --seeds 1-10 --label first

Runs ``bench/run.py --trace 0`` once per seed on every workload named in
BENCHMARK.json, one run at a time, and records per metric the ten values,
their median, their quartiles (``statistics.quantiles(values, n=4)``) and
the spread (q3 - q1) / median next to the metric's bound. The record, with
the environment it was measured in, is merged into bench/steadiness.json
under ``--label``; a second label measured later shows whether the median
moves between two sets of runs of the same code.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RECORD = BENCH_DIR / "steadiness.json"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def environment() -> dict:
    # numpy is imported in a child so that this process stays light
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": commit,
        "blas_threads": 1,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--label", required=True)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    record = {"environment": environment(), "run_seconds": spec["run_seconds"],
              "seeds": args.seeds, "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}}
    for name in names:
        values = {m: [] for m in bounds}
        failed = 0
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={values[m][-1]:.6g}" for m in bounds), flush=True)
        summary = {"failed_ops": failed, "metrics": {}}
        for m, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary["metrics"][m] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[m], "spread_below_third_of_bound": spread < bounds[m] / 3,
                "values": vals,
            }
            print(f"  {name} {m}: median {median:.6g} spread {spread:.4f} bound {bounds[m]}")
        record["workloads"][name] = summary

    doc = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.exists() else {}
    doc[args.label] = record
    RECORD.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
