"""The benchmark reaches into the package from outside: ``bench/tracing.py``
wraps functions by (module, attribute) and ``bench/workloads.py`` imports
public names. A rename or a dropped import in ``src/`` fails here, not
only in a traced benchmark run, and so does a call that goes round a
wrapped name, which would leave its span silently empty."""

import importlib
import importlib.util
import json
from pathlib import Path

from srat.attack import AttackConfig
from srat.data import sample_gaussian_mixture
from srat.losses import LossConfig
from srat.mlp import ModelSpec
from srat.theory import GaussianMixtureSpec
from srat.training import TrainConfig, train_srat

ROOT = Path(__file__).resolve().parent.parent


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_site_resolves():
    sites = _load_bench("tracing").SITES
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in sites
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert sites
    assert missing == []


def test_workloads_import_and_cover_the_declared_workloads():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert {w["name"] for w in declared} <= set(_load_bench("workloads").WORKLOADS)


def test_trace_sites_see_every_loss_call_of_a_training_run():
    tracing = _load_bench("tracing")
    ds = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.5, 3, 3.0), 5, seed=0)  # 20 rows
    cfg = TrainConfig(
        total_epochs=2,
        defer_epoch=2,
        batch_size=8,
        lr=0.05,
        loss=LossConfig(kind="ldam", tau=0.1, lam=0.5),
        attack=AttackConfig(epsilon=0.1, step_size=0.05, num_steps=3),
        weighting="class_balanced",
        seed=0,
    )
    tracer = tracing.Tracer()
    tracer.run_op(lambda: train_srat(ds, ModelSpec((4,)), cfg))
    calls = tracing.call_counts(tracer.op_summaries()[0])["calls"]
    num_batches = 2 * 3  # two epochs of 20 rows in batches of 8
    assert calls.get("losses.prediction_loss.attack") == 3 * num_batches
    for name in ("losses.prediction_loss.objective", "attack.pgd_attack", "mlp.backward.attack"):
        assert calls.get(name, 0) > 0, name
    # one update per batch, through the traced backward and sgd_step
    for name in ("mlp.backward.training", "mlp.sgd_step"):
        assert calls.get(name) == num_batches, name
