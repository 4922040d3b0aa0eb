"""Spans around the package's public functions, recorded from outside.

Each wrap site is a (module, attribute) pair where a public function is
looked up at call time: the module that imported it, or its own module
for calls inside it. Replacing the attribute there splits calls by caller
(``srat.attack.forward`` vs ``srat.training.forward``) without editing
the package. Spans stay in memory and are written out when the run ends.
"""

import functools
import importlib
import statistics
import time
from collections import defaultdict
from pathlib import Path


def _gemm_forward(args, kwargs, result) -> dict:
    model, batch = args[0], args[1]
    n = batch.shape[0]
    return {"mlp.gemm_flops": sum(2 * n * l.fan_in * l.fan_out for l in model.layers)}


def _gemm_backward(args, kwargs, result) -> dict:
    model, trace = args[0], args[1]
    n = trace.logits.shape[0]
    # parameter gradient plus the gradient passed down, per layer
    return {"mlp.gemm_flops": sum(4 * n * l.fan_in * l.fan_out for l in model.layers)}


def _pgd_steps(args, kwargs, result) -> dict:
    config = args[4] if len(args) > 4 else kwargs["config"]
    return {"attack.pgd_steps": config.num_steps}


def _separation_flops(args, kwargs, result) -> dict:
    n, k = args[0].shape
    return {"losses.separation_loss.flops": n * n * k}


def _loaded_rows(args, kwargs, result) -> dict:
    return {"data.load_csv.rows": len(result)}


def _cdf_elems(args, kwargs, result) -> dict:
    return {"theory.normal_cdf.elems": getattr(result, "size", 1)}


def _mc_samples(args, kwargs, result) -> dict:
    return {"theory.monte_carlo_classwise_error.samples": args[3]}


# (module, attribute, span name, counter). Span names are the per-layer
# metric prefixes; the same function at two sites gets one name unless
# the caller split is itself a metric. Every site feeds a reported metric:
# an unlisted function (checkpoint and CSV writes, model building) stays in
# its caller's self time, cli.main or training.train_srat.
SITES = (
    ("srat.cli", "main", "cli.main", None),
    ("srat.cli", "train_srat", "training.train_srat", None),
    ("srat.cli", "evaluate", "evaluation.evaluate", None),
    ("srat.cli", "load_csv", "data.load_csv", _loaded_rows),
    ("srat.cli", "sample_gaussian_mixture", "data.sample_gaussian_mixture", None),
    ("srat.cli", "grid_search_bias", "theory.grid_search_bias", None),
    ("srat.cli", "verify_theorem1", "theory.verify_theorem1", None),
    ("srat.cli", "verify_theorem2", "theory.verify_theorem2", None),
    ("srat.training", "batches", "data.batches", None),
    ("srat.training", "pgd_attack", "attack.pgd_attack", _pgd_steps),
    ("srat.training", "forward", "mlp.forward.training", _gemm_forward),
    ("srat.training", "combined_objective", "losses.combined_objective", None),
    ("srat.training", "backward", "mlp.backward.training", _gemm_backward),
    ("srat.training", "sgd_step", "mlp.sgd_step", None),
    ("srat.evaluation", "pgd_attack", "attack.pgd_attack", _pgd_steps),
    ("srat.evaluation", "forward", "mlp.forward.evaluation", _gemm_forward),
    ("srat.attack", "forward", "mlp.forward.attack", _gemm_forward),
    ("srat.attack", "prediction_loss", "losses.prediction_loss.attack", None),
    ("srat.attack", "backward", "mlp.backward.attack", _gemm_backward),
    ("srat.losses", "prediction_loss", "losses.prediction_loss.objective", None),
    ("srat.losses", "separation_loss", "losses.separation_loss", _separation_flops),
    ("srat.theory", "normal_cdf", "theory.normal_cdf", _cdf_elems),
    (
        "srat.theory",
        "monte_carlo_classwise_error",
        "theory.monte_carlo_classwise_error",
        _mc_samples,
    ),
)

ROOT_SPAN = "bench.op"


class Tracer:
    """In-memory spans (name, start, end, parent index, op id) and the
    exact counts taken at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.counts = []  # one dict per traced op
        self._stack = []
        self._installed = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, len(self.counts) - 1)
            if counter is not None:
                op_counts = self.counts[-1]
                for key, value in counter(args, kwargs, result).items():
                    op_counts[key] += value
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def run_op(self, op):
        """Run ``op()`` as one traced op under a root span; returns its result."""
        self.counts.append(defaultdict(int))
        self.install()
        try:
            return self._wrap(ROOT_SPAN, op, None)()
        finally:
            self.uninstall()

    def op_summaries(self) -> list[dict]:
        """Per traced op: {span name: (calls, self seconds, total seconds)}
        plus the op's counts and its root-span seconds."""
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        ops = [defaultdict(lambda: [0, 0.0, 0.0]) for _ in self.counts]
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            entry = ops[op][name]
            entry[0] += 1
            entry[1] += (end - start) - child[idx]
            entry[2] += end - start
        return [
            {"spans": spans, "counts": dict(counts), "op_s": spans[ROOT_SPAN][2]}
            for spans, counts in zip(ops, self.counts)
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


# Per-layer metrics: (name, unit). Calls and counts repeat exactly between
# ops of one input; times are per-op medians.
CALL_SPANS = (
    "losses.separation_loss",
    "attack.pgd_attack",
    "mlp.forward.attack",
    "mlp.forward.training",
    "mlp.forward.evaluation",
    "mlp.backward.attack",
    "mlp.backward.training",
    "mlp.sgd_step",
    "losses.prediction_loss.attack",
    "losses.prediction_loss.objective",
    "evaluation.evaluate",
    "theory.normal_cdf",
    "theory.grid_search_bias",
)
SELF_SPANS = CALL_SPANS + (
    "training.train_srat",
    "losses.combined_objective",
    "data.load_csv",
    "data.batches",
    "data.sample_gaussian_mixture",
    "theory.verify_theorem1",
    "theory.verify_theorem2",
    "theory.monte_carlo_classwise_error",
    "cli.main",
)
COUNTS = {
    "losses.separation_loss.flops": "flop",
    "attack.pgd_steps": "count",
    "mlp.gemm_flops": "flop",
}
DERIVED = {
    "attack.step_us": "us",
    "mlp.backward.param_grads_used_ratio": "ratio",
    "data.load_csv.rows_per_s": "1/s",
    "theory.normal_cdf.elems_per_s": "1/s",
    "theory.monte_carlo_classwise_error.samples_per_s": "1/s",
    "trace.op_s": "s",
    "trace.layer_self_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict:
    units = {f"{name}.calls": "count" for name in CALL_SPANS}
    units.update({f"{name}.self_s": "s" for name in SELF_SPANS})
    units.update(COUNTS)
    units.update(DERIVED)
    return units


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def per_layer_metrics(summaries: list[dict], untraced_op_s: float) -> dict:
    """Per-layer values from the traced ops of one run."""

    def median(fn):
        return statistics.median(fn(s) for s in summaries)

    def calls(s, name):
        return s["spans"][name][0] if name in s["spans"] else 0

    def self_s(s, name):
        return s["spans"][name][1] if name in s["spans"] else 0.0

    def total_s(s, name):
        return s["spans"][name][2] if name in s["spans"] else 0.0

    def count(s, key):
        return s["counts"].get(key, 0)

    first = summaries[0]
    values = {f"{n}.calls": calls(first, n) for n in CALL_SPANS}
    values.update({f"{n}.self_s": median(lambda s, n=n: self_s(s, n)) for n in SELF_SPANS})
    values.update({key: count(first, key) for key in COUNTS})
    values["attack.step_us"] = median(
        lambda s: 1e6 * _rate(total_s(s, "attack.pgd_attack"), count(s, "attack.pgd_steps"))
        if count(s, "attack.pgd_steps")
        else 0.0
    )
    used = calls(first, "mlp.backward.training")
    all_backward = used + calls(first, "mlp.backward.attack")
    values["mlp.backward.param_grads_used_ratio"] = used / all_backward if all_backward else 0.0
    values["data.load_csv.rows_per_s"] = median(
        lambda s: _rate(count(s, "data.load_csv.rows"), self_s(s, "data.load_csv"))
    )
    values["theory.normal_cdf.elems_per_s"] = median(
        lambda s: _rate(count(s, "theory.normal_cdf.elems"), self_s(s, "theory.normal_cdf"))
    )
    values["theory.monte_carlo_classwise_error.samples_per_s"] = median(
        lambda s: _rate(
            count(s, "theory.monte_carlo_classwise_error.samples"),
            self_s(s, "theory.monte_carlo_classwise_error"),
        )
    )
    values["trace.op_s"] = median(lambda s: s["op_s"])
    # the reported self times against the traced op; what is missing is
    # time outside srat.cli.main and the wrapped functions (the benchmark's
    # own calls, output capture)
    values["trace.layer_self_share"] = median(
        lambda s: sum(self_s(s, n) for n in SELF_SPANS) / s["op_s"]
    )
    values["trace.overhead_ratio"] = values["trace.op_s"] / untraced_op_s
    return values


def call_counts(summary: dict) -> dict:
    """Everything in one traced op that must repeat exactly on the same input."""
    return {
        "calls": {name: entry[0] for name, entry in summary["spans"].items()},
        "counts": dict(summary["counts"]),
    }
