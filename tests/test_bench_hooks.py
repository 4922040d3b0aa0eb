"""The benchmark reaches into the package from outside: ``bench/tracing.py``
wraps functions by (module, attribute) and ``bench/workloads.py`` imports
public names. A rename or a dropped import in ``src/`` fails here, not
only in a traced benchmark run."""

import importlib
import importlib.util
import json
from pathlib import Path

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
