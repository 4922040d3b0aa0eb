"""Self-test of the benchmark at tiny input sizes.

    python3 bench/selftest.py

Checks, for every workload:
  * an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, plus the named per-workload lines with units and counts, and
    a traced run prints every per-layer metric with its unit;
  * a deliberately bad op (a config the CLI rejects with exit code 2) is
    counted as failed;
  * two traced ops of the same input give identical call counts and
    counts.
And that the benchmark, copied without the package source, exits non-zero
without printing a result. Exits 1 on the first failed check.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

run.import_package()
from workloads import WORKLOADS, run_cli  # noqa: E402  (needs the package path)

BENCH_DIR = run.BENCH_DIR
ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def check_printed_metrics(name: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = bench("--workload", name, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--scale", "tiny")
        check(done.returncode == 0, f"{name} trace {trace} exits 0 ({done.stderr.strip()[-300:]})")
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
              f"{name} trace {trace} result has exactly the four keys")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
              f"{name} trace {trace} ops all pass")
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {m: v["unit"] for m, v in result["metrics"].items()}
        check(got == want, f"{name} trace {trace} prints every {key} metric with its unit")
        if trace == 0:
            named = ["setup_s", "op_s", WORKLOADS[name].rate_name, "peak_rss_mb", "error_rate"]
            if name == "theory_grid":
                named.append("mc_samples_per_s")
            table = {line.split()[0]: line.split() for line in lines[:-1] if line.startswith("  ")}
            check(all(n in table and table[n][3].startswith("n=") for n in named),
                  f"{name} prints {', '.join(named)} with unit and sample count")


class BadSecondOp:
    """Delegates to a workload but runs its second op on a rejected config."""

    def __init__(self, workload, bad_config: Path):
        self.workload, self.bad_config, self.calls = workload, bad_config, 0

    def run(self, out: Path):
        self.calls += 1
        if self.calls == 2:
            return run_cli(["train", "--config", str(self.bad_config), "--out", str(out)])
        return self.workload.run(out)

    def check(self, out: Path):
        return self.workload.check(out)


def inputs_for(name: str, work: Path) -> Path:
    inputs = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    WORKLOADS[name].generate(5, "tiny", inputs)
    return inputs


def check_bad_op_counted(work: Path) -> None:
    inputs = inputs_for("train_srat", work)
    doc = json.loads((inputs / "config.json").read_text(encoding="utf-8"))
    doc["train"]["no_such_key"] = 1
    bad = work / "bad_config.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, _ = run_cli(["train", "--config", str(bad), "--out", str(work / "probe")])
    check(code == 2, "the CLI rejects the bad config with exit code 2")
    result = run.measure(BadSecondOp(WORKLOADS["train_srat"](inputs), bad), 0.0, work)
    check(len(result["problems"]) == 1 and "exit code 2" in result["problems"][0]
          and result["attempted"] >= 1 + run.MIN_OPS,
          f"one bad op of {result['attempted']} is counted as failed")


def check_trace_counts_repeat(name: str, work: Path) -> None:
    from tracing import Tracer, call_counts

    workload = WORKLOADS[name](inputs_for(name, work))
    tracer = Tracer()
    for i in range(2):
        code, err = tracer.run_op(lambda: workload.run(work / f"{name}-op{i}"))
        check(code == 0 and workload.check(work / f"{name}-op{i}") is None,
              f"{name} traced op {i} passes ({err})")
    first, second = (call_counts(s) for s in tracer.op_summaries())
    check(first == second and first["calls"], f"{name}: two traced ops give identical counts")


def check_needs_source(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench(*SPEC["command"][2:], "--workload", "train_srat", "--seed", "0",
                 "--seconds", "1", "--trace", "0", cwd=bare,
                 script=bare / Path(SPEC["command"][1]))
    check(done.returncode != 0 and not done.stdout.strip(),
          "without the package source the benchmark exits non-zero and prints no result")


def main() -> int:
    for name in WORKLOADS:
        check_printed_metrics(name)
    run.RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.RUN_DIR))
    try:
        check_bad_op_counted(work)
        for name in WORKLOADS:
            check_trace_counts_repeat(name, work)
        check_needs_source(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
