"""Closed-loop benchmark of the srat workbench.

    python3 bench/run.py --workload train_srat --seed 0 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
its ``src/`` directory. One process and one caller: each operation starts
only after the previous one has finished. A run sets up the workload's
inputs (a fresh process that imports srat and writes the inputs from the
seed), runs one untimed warm-up operation, then repeats set-up and
operation for ``--seconds`` and checks every output. Set-up times and
operation times thus sample the same stretch of a machine whose speed
drifts.

With ``--trace 0`` the result carries the end-to-end metrics. With
``--trace 1`` untraced and traced operations alternate, the traced ones
wrap the package's public functions (see tracing.py), and the result
carries the per-layer metrics; the spans go to
``.bench_out/trace-<workload>-seed<seed>.csv``.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import os

# Before numpy loads: the package is single-core by design, and threaded
# BLAS made the training workload slower and noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
OUT_DIR = ROOT / ".bench_out"

MIN_OPS = 3  # measured ops of each kind (untraced, traced) per run


def import_package() -> None:
    """Put the checkout's ``src/`` first on the path and import srat from it."""
    if not (SRC / "srat" / "__init__.py").is_file():
        sys.exit(f"bench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import srat

    if Path(srat.__file__).resolve().parent != SRC / "srat":
        sys.exit(f"bench: srat imported from {srat.__file__}, not from {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train_srat", "eval_csv", "theory_grid"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the self-test")
    p.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def set_up(args, inputs: Path) -> float:
    """Generate the inputs into ``inputs`` in a fresh process that imports
    srat; returns its wall seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--scale", args.scale,
           "--setup-into", str(inputs)]
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"bench: set-up failed ({done.returncode}): {done.stderr.strip()}")
    return elapsed


def run_one(workload, out: Path, tracer=None) -> tuple[float, str | None]:
    """One operation: (wall seconds, reason it failed or None)."""
    start = time.perf_counter()
    if tracer is None:
        code, err = workload.run(out)
    else:
        code, err = tracer.run_op(lambda: workload.run(out))
    elapsed = time.perf_counter() - start
    if code != 0:
        problem = f"exit code {code}: {err}"
    else:
        try:
            problem = workload.check(out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
    shutil.rmtree(out, ignore_errors=True)
    return elapsed, problem


def measure(workload, seconds: float, run_dir: Path, tracer=None, set_up_again=None) -> dict:
    """Warm-up op, then ops until ``seconds`` have passed. With a tracer,
    untraced and traced ops alternate. ``set_up_again()``, when given,
    runs before each measured op, so that set-up times sample the same
    stretch of machine time as the ops."""
    ops = {"untraced": [], "traced": []}
    setups = []
    problems = []

    def op(index: int, traced: bool):
        elapsed, problem = run_one(workload, run_dir / f"op{index}", tracer if traced else None)
        if problem:
            problems.append(f"op {index}: {problem}")
        return elapsed, problem is None

    op(0, traced=False)
    kinds = ("untraced", "traced") if tracer else ("untraced",)
    start = time.perf_counter()
    index = 1
    while True:
        if set_up_again is not None:
            setups.append(set_up_again())
        kind = kinds[index % len(kinds)]
        ops[kind].append(op(index, kind == "traced"))
        index += 1
        if time.perf_counter() - start >= seconds and all(
            len(ops[k]) >= MIN_OPS for k in kinds
        ):
            break
    return {"ops": ops, "setups": setups, "attempted": index, "problems": problems}


def op_seconds(ops: list) -> list[float]:
    """Times of the successful ops; all ops when none succeeded."""
    ok = [t for t, good in ops if good]
    return ok or [t for t, _ in ops]


def end_to_end(workload, setups: list[float], untraced: list[float], attempted, failed):
    """op_s is the median op; items_per_s is sustained throughput over all
    measured ops, so a run that spends some ops in a slow spell moves it
    by its share of the time instead of flipping the median."""
    op_s = statistics.median(untraced)
    n_ops = f"{len(untraced)} ops"
    throughput = workload.items_per_op * len(untraced) / sum(untraced)
    rows = [
        ("setup_s", statistics.median(setups), "s", f"{len(setups)} set-ups"),
        ("op_s", op_s, "s", n_ops),
        ("items_per_s", throughput, "1/s", n_ops),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "1 process"),
    ]
    # Named per workload for people. The JSON carries items_per_s, over
    # whole ops: on theory_grid the Monte Carlo batch is in its time.
    if getattr(workload, "mc_seconds", None):
        # theory_grid: the grid rate over the CLI grids alone, the Monte
        # Carlo rate over the MC batch alone; both without the warm-up op
        grid, mc = workload.grid_seconds[1:], workload.mc_seconds[1:]
        named = [
            (workload.rate_name, workload.items_per_op * len(grid) / sum(grid), "1/s",
             f"{len(grid)} ops"),
            ("mc_samples_per_s", workload.mc_samples_per_op * len(mc) / sum(mc), "1/s",
             f"{len(mc)} ops"),
        ]
    else:
        named = [(workload.rate_name, throughput, "1/s", n_ops)]
    named.append(("error_rate", failed / attempted, "ratio", f"{attempted} ops"))
    for name, value, unit, n in rows[:2] + named + rows[2:]:
        print(f"  {name:<22} {value:>14.6g} {unit:<6} n={n}")
    return {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.setup_into:
        cls.generate(args.seed, args.scale, Path(args.setup_into))
        return 0

    RUN_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        inputs = run_dir / "inputs"
        inputs.mkdir()
        first_setup = set_up(args, inputs)
        workload = cls(inputs)

        def set_up_again() -> float:
            target = Path(tempfile.mkdtemp(prefix="setup-", dir=run_dir))
            try:
                return set_up(args, target)
            finally:
                shutil.rmtree(target, ignore_errors=True)

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        result = measure(workload, args.seconds, run_dir, tracer, set_up_again)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    setups = [first_setup, *result["setups"]]
    attempted, failed = result["attempted"], len(result["problems"])
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} trace {args.trace}: "
          f"{attempted} ops attempted (1 warm-up), {failed} failed")
    print("  set-up seconds: " + " ".join(f"{t:.4f}" for t in setups))
    for kind, ops in result["ops"].items():
        if ops:
            print(f"  {kind} op seconds: " + " ".join(f"{t:.4f}" for t, _ in ops))
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    info = workload.info()
    if info:
        print(f"  info {json.dumps(info, sort_keys=True)}")

    untraced = op_seconds(result["ops"]["untraced"])
    if args.trace:
        from tracing import per_layer_metrics, per_layer_units

        values = per_layer_metrics(tracer.op_summaries(), statistics.median(untraced))
        units = per_layer_units()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv"
        tracer.write(trace_path)
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
        for name, entry in metrics.items():
            print(f"  {name:<52} {entry['value']:>14.6g} {entry['unit']}")
    else:
        metrics = end_to_end(workload, setups, untraced, attempted, failed)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
