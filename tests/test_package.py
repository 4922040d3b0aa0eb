"""Every module imports on its own, the command line starts, the
per-step functions check no input, and the mutation check's lists match
the source.

The package imports no module up front, so each one is imported in a
fresh interpreter: an import cycle or a dependence on another module
having been imported first fails here.
"""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import srat
from mutants import MUTANTS, SAMPLED

SRC = Path(srat.__file__).resolve().parent.parent
MODULES = ["srat"] + sorted(f"srat.{m.name}" for m in pkgutil.iter_modules(srat.__path__))


def _python(*args) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    done = _python("-c", f"import {module}")
    assert done.returncode == 0, done.stderr


def test_cli_help_runs_in_a_fresh_interpreter():
    done = _python("-m", "srat.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: srat")


# The functions that run on every attack step or training batch. A run
# checks its inputs once where it enters, so these may raise only on a
# fault (AttackError, TrainingError), never DomainError.
PER_STEP = {
    "mlp": ("forward", "backward", "sgd_step"),
    "attack": ("pgd_attack",),
    "losses": ("softmax_direction", "prediction_loss", "separation_loss", "combined_objective"),
    "training": ("_train_batch",),
}


def test_per_step_functions_raise_no_domain_error():
    found = []
    for module, names in PER_STEP.items():
        tree = ast.parse((SRC / "srat" / f"{module}.py").read_text())
        defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        for name in names:
            for node in ast.walk(defs[name]):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if ast.unparse(exc).endswith("DomainError"):
                        found.append(f"srat.{module}.{name} (line {node.lineno})")
    assert not found, f"per-step functions that raise DomainError: {found}"


def test_mutants_and_sampled_functions_are_in_the_source():
    # a refactor that moves code out from under tests/mutants.py fails here,
    # not only in a run of the mutation check
    missing = [
        f"{m.file}: {m.text!r} occurs {count} times"
        for m in MUTANTS
        if (count := (SRC / "srat" / m.file).read_text().count(m.text)) != 1
    ]
    for file, names in SAMPLED.items():
        tree = ast.parse((SRC / "srat" / file).read_text())
        defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        missing += [f"{file}: no function {name}" for name in names if name not in defined]
    assert not missing, missing


# The checks a run makes of its data, which the command line must reach
# through the run's own start and evaluation pass, never call itself.
# ``check_box`` is matched by its last name, on any config; ``resolve`` is
# too common a name, so the loss's is matched by its whole callee.
RUN_CHECKS = ("check_box",)
RUN_CHECK_CALLEES = ("PredictionLoss.resolve",)


def _run_check_calls(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in RUN_CHECKS or ast.unparse(func) in RUN_CHECK_CALLEES:
                found.append(f"{ast.unparse(func)} (line {node.lineno})")
    return found


@pytest.mark.parametrize("call, flagged", [
    ("cfg.attack.check_box(x)", True),
    ("check_box(x)", True),
    ("PredictionLoss.resolve(cfg, counts)", True),
    ("Path(out).resolve()", False),
])
def test_the_run_check_guard_flags_each_call(call, flagged):
    found = _run_check_calls(f"def f():\n    return {call}\n")
    assert found == ([f"{call.rsplit('(', 1)[0]} (line 2)"] if flagged else [])


def test_cli_makes_no_copy_of_the_run_checks():
    found = _run_check_calls((SRC / "srat" / "cli.py").read_text())
    assert not found, f"srat.cli calls the run's checks directly: {found}"


# A list cell of a table is its items' reprs joined by ";", and
# srat.data.write_rows builds it; an evaluation report's table columns
# come from EvalReport.columns, so the command line reads no per-class
# accuracy of a report itself.
PER_CLASS_FIELDS = ("per_class_standard", "per_class_robust")


def test_list_cells_are_joined_in_srat_data_only():
    found = []
    for path in sorted((SRC / "srat").glob("*.py")):
        if path.stem == "data":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "join"
                and isinstance(node.value, ast.Constant)
                and node.value.value == ";"
            ):
                found.append(f"srat.{path.stem} (line {node.lineno})")
    assert not found, f'";".join outside srat.data: {found}'


def test_cli_reads_no_per_class_accuracy_of_a_report():
    tree = ast.parse((SRC / "srat" / "cli.py").read_text())
    found = [
        f"{ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in PER_CLASS_FIELDS
    ]
    assert not found, f"srat.cli spells out a report's per-class columns: {found}"


# Parameters whose one default lives in the command line (``--convention``,
# ``--points``, ``--seed``): the library functions take them from the caller.
CALLER_CHOSEN = ("conv", "num_points", "seed")


def test_caller_chosen_parameters_have_no_library_default():
    found = []
    for module in ("theory", "evaluation"):
        tree = ast.parse((SRC / "srat" / f"{module}.py").read_text())
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            found += [
                f"srat.{module}.{node.name}({a.arg}=...)"
                for a in defaulted
                if a.arg in CALLER_CHOSEN
            ]
    assert not found, f"library defaults of caller-chosen parameters: {found}"
