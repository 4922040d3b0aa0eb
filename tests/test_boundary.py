"""Property of the command-line boundary: whatever one or two config
leaves or flags of ``srat train``, ``sweep``, ``make-dataset``, ``eval``,
``export-features`` or ``theory`` are set to, the command ends in exit 0,
2 or 3 (1 only for a theory grid with a violation), an exit 2 leaves no
new file or directory, and nothing raises or warns.

Every single edit (a leaf or flag set to one of the edge values) is run;
hypothesis draws pairs of edits. The commands run for real, on a capped
schedule: ``train_srat``, ``evaluate`` and ``export_features`` each get
their configs with the training cut to its first epoch and every attack
to at most one step. Random starts and clip bounds stay as configured, so
an edit such as ``num_steps`` 10^30 still runs the code it reaches.
``eval`` and ``export-features`` are also edited from an attack with no
random start and an open box. The commands that read ``balanced.csv``
(``train`` on a csv config, ``make-dataset`` step and exp, ``eval`` and
``export-features``) are also edited in its data: one feature cell set to
a huge, subnormal or non-finite value. Those cell edits also run ``eval``
with a zero-step attack and ``export-features`` without ``--attack``, so
the clean forward pass meets the huge cells itself.

On exit 0 (or 1, whose theory table is written too), every CSV, JSON
file and feature export the command wrote is read back, and each number in it must be finite. The documented
exceptions alone are allowed: an accuracy with no test row behind it (a
class in ``empty_classes``, or ``under_*`` when the partition has no test
row) is ``null``, ``nan`` or blank, and the ``eval_`` cells of an epoch
without a snapshot are blank. A run's ``config.json`` echoes the user's
own values and is not read.
"""

import collections
import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from srat import cli
from srat.attack import AttackConfig
from srat.data import LabeledDataset, save_csv
from srat.mlp import build_mlp, save_model
from srat.rand import derive_rng
from srat.training import TrainConfig

# derandomized and without an example database, as in test_properties.py
BOUNDARY = settings(max_examples=120, deadline=None, derandomize=True, database=None)

# Edge values for a config leaf: zero, units, huge and tiny magnitudes,
# non-finite floats, integers past int64 and past the float range, a
# negative zero, and values of the wrong JSON type.
EDGE_VALUES = [
    0, 1, -1, 10**30, -(10**30), 10**400, 1e30, 1e308, -1e308, 1e-320, math.nan, math.inf,
    -math.inf, 2**63, 2**64, -0.0, 0.5, True, False, None, "", "x", "csv", "1",
    [], [0], [1, 2], [math.nan], [10**30], {}, {"kind": "step"}, {"x": 1},
]
# Edge values of a feature cell of balanced.csv: huge of either sign, the
# smallest subnormal, and the non-finite values the reader refuses.
EDGE_CELLS = ["1e308", "-1e308", "5e-324", "nan", "inf"]
# (row, column) of the edited cells: a class-0 row and a class-1 row
_CELLS = [(0, 0), (11, 1)]
# The same edges as flag text.
EDGE_TEXT = [
    "0", "1", "-1", str(10**30), str(-(10**30)), str(10**400), "1e30", "1e308", "-1e308", "1e-320",
    "nan", "inf", "-inf", str(2**63), str(2**64), "-0.0", "0.5", "true", "", "x",
]

_TRAIN = {
    "total_epochs": 2, "defer_epoch": 2, "batch_size": 4, "lr": 0.05, "lr_milestones": [1],
    "lr_decay": 0.1, "weighting": "class_balanced", "manual_weights": None, "momentum": 0.0,
    "seed": 0, "eval_every": 1,
    "loss": {
        "kind": "ce", "focal_gamma": 2.0, "ldam_max_margin": 0.5, "ldam_scale": 30.0,
        "tau": 0.1, "lam": 1.0, "cb_beta": 0.9999,
    },
    "attack": {
        "epsilon": 0.1, "step_size": 0.05, "num_steps": 2, "random_start": True,
        "clip_min": None, "clip_max": None,
    },
}
_ATTACK = {
    "epsilon": 0.1, "step_size": 0.05, "num_steps": 3, "random_start": True,
    "clip_min": -100.0, "clip_max": 100.0,
}
# The attack of ``eval`` and ``export-features`` with its random start off
# and its box open: an edited bound is then the only one, and the capped
# step's gradient reads the clean rows, so the rows written are the ones
# that bound clipped.
_OPEN_ATTACK = {**_ATTACK, "random_start": False, "clip_min": None, "clip_max": None}
_SYNTHETIC = {
    "kind": "synthetic", "eta": 1.0, "sigma": 1.0, "dim": 2, "imbalance_ratio": 2.0,
    "n_minority_train": 3, "n_test_per_class": 2, "seed": 0, "under_classes": [1],
}
# balanced.csv holds 6 rows of each of 2 classes
_CSV = {
    "kind": "csv", "train_path": "balanced.csv", "test_path": "balanced.csv",
    "num_classes": 2, "imbalance": {"kind": "step", "ratio": 2.0},
    "seed": 0, "under_classes": [1],
}


def _experiment(dataset: dict) -> dict:
    return {
        "dataset": dataset, "model": {"hidden": [3]}, "train": _TRAIN,
        "eval_attack": _ATTACK, "output_dir": "out",
    }


_BASES = {
    "train_synthetic": _experiment(_SYNTHETIC),
    "train_csv": _experiment(_CSV),
    # with an open evaluation box, which a huge cell of balanced.csv passes
    "train_csv open": {**_experiment(_CSV), "eval_attack": _OPEN_ATTACK},
    "sweep": {
        "base": _experiment(_SYNTHETIC), "vary": {"train.loss.lam": [0.5]}, "seeds": [0, 1],
        "output_dir": "out",
    },
}


def _paths(node, prefix=()):
    """Every key or index path into ``node``, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)) and child:
            yield from _paths(child, prefix + (key,))


_LEAVES = {name: list(_paths(doc)) for name, doc in _BASES.items()}
# "clean": a zero-step attack for eval; export-features gets no --attack
_ATTACKS = {"": _ATTACK, "open": _OPEN_ATTACK, "clean": {**_OPEN_ATTACK, "num_steps": 0}}
_ATTACK_LEAVES = list(_paths(_ATTACK))


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _edited(doc, edits):
    """A copy of ``doc`` with each (path, value) set in turn; a path that an
    earlier edit cut off is skipped."""
    doc = json.loads(json.dumps(doc))
    for path, value in edits:
        with contextlib.suppress(KeyError, IndexError, TypeError):
            _set(doc, path, copy.deepcopy(value))
    return doc


def _capped(run):
    """``run`` (``train_srat``, ``evaluate`` or ``export_features``) with
    each TrainConfig argument cut to its first epoch and each AttackConfig,
    its own or a TrainConfig's, to at most one step."""

    def cap(value):
        if isinstance(value, AttackConfig):
            return dataclasses.replace(value, num_steps=min(value.num_steps, 1))
        if isinstance(value, TrainConfig):
            return dataclasses.replace(
                value, total_epochs=1, defer_epoch=min(value.defer_epoch, 2),
                attack=cap(value.attack),
            )
        return value

    def capped(*args, **kwargs):
        return run(*map(cap, args), **{k: cap(v) for k, v in kwargs.items()})

    return capped


def _fixtures(root: Path) -> None:
    """balanced.csv (2 classes of 6 rows, dim 2) and model.ckpt, a model of
    its width."""
    rng = derive_rng(11)
    save_csv(LabeledDataset(rng.normal(size=(12, 2)), np.repeat([0, 1], 6), 2),
             root / "balanced.csv")
    save_model(build_mlp(2, (3,), 2, seed=0), root / "model.ckpt", seed=0)


@contextlib.contextmanager
def _inside(root):
    cwd = os.getcwd()
    os.chdir(root)
    try:
        yield
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A directory holding the fixtures, made the working directory and the
    root of relative output paths, with the capped commands in place. The
    parser is built once."""
    root = tmp_path_factory.mktemp("boundary")
    _fixtures(root)
    parser = cli.build_parser()
    with _inside(root), mock.patch.dict(os.environ, {cli.OUTPUT_ROOT_ENV: str(root)}), \
            mock.patch.multiple(cli, train_srat=_capped(cli.train_srat),
                                evaluate=_capped(cli.evaluate),
                                export_features=_capped(cli.export_features),
                                build_parser=lambda: parser):
        yield root


def _entries(root: Path) -> set:
    return set(root.rglob("*"))


# The accuracies a run writes, under their table column names.
ACCURACIES = {
    f"{scope}_{kind}" for scope in ("overall", "under", "per_class") for kind in ("standard", "robust")
}


def _holes(run: Path) -> set:
    """The accuracies of the run in ``run`` with no test row behind them,
    as (column, class): each empty class's per-class columns, and the
    ``under_*`` aggregates (class None) when the partition has no test
    row. Empty where no metrics.json was written."""
    if not (run / "metrics.json").exists():
        return set()
    metrics = json.loads((run / "metrics.json").read_text())
    empty = set(metrics["empty_classes"])
    holes = {(f"per_class_{kind}", c) for kind in ("standard", "robust") for c in empty}
    if empty.issuperset(metrics["partition"]):
        holes |= {("under_standard", None), ("under_robust", None)}
    return holes


def _key(name, index):
    """(column, class) of a value written under ``name`` at list position
    ``index``: metrics.json's ``under_represented_*`` and history.csv's
    ``eval_*`` name the table columns of ``sweep.csv``."""
    column = name.removeprefix("eval_").replace("under_represented_", "under_")
    return column, index if column.startswith("per_class_") else None


def _float(text):
    try:
        return float(text)
    except ValueError:  # blank, or text such as a phase or a vary value
        return None


def _json_leaves(node, name=None, index=None):
    """(nearest key, list position or None, value) of each scalar."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _json_leaves(child, key)
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _json_leaves(child, name, i)
    else:
        yield name, index, node


def _values(path: Path):
    """(column, class, value, holes) of each value of the written file
    ``path`` that must be a number: a float, or None for a null, blank or
    non-numeric cell. ``holes`` are its run's accuracies without test rows."""
    text = path.read_text()
    if path.suffix == ".json":
        holes = _holes(path.parent)
        for name, index, value in _json_leaves(json.loads(text)):
            column, klass = _key(name, index)
            if isinstance(value, float) or (value is None and column in ACCURACIES):
                yield column, klass, value, holes
        return
    header, *body = csv.reader(text.splitlines())
    if header[0].startswith("dim=") or _float(header[0]) is not None:
        # a dataset CSV after its header line, or a feature export
        for row in body if header[0].startswith("dim=") else [header, *body]:
            yield from (("cell", None, _float(cell), set()) for cell in row)
        return
    taken = collections.Counter()  # sweep.csv rows per seed, in run order
    for cells in body:
        row = dict(zip(header, cells, strict=True))
        run = path.parent
        if path.name == "sweep.csv":
            run = sorted(run.glob(f"run_*_seed{row['seed']}"))[taken[row["seed"]]]
            taken[row["seed"]] += 1
        holes = _holes(run)
        snapshot = any(cell for name, cell in row.items() if name.startswith("eval_"))
        for name, cell in row.items():
            if name.startswith("eval_") and not snapshot:
                continue
            if path.name == "per_class.csv" and name != "class":
                yield f"per_class_{name}", int(row["class"]), _float(cell), holes
                continue
            for index, item in enumerate(cell.split(";")):
                column, klass = _key(name, index)
                value = _float(item)
                if value is not None or column in ACCURACIES:
                    yield column, klass, value, holes


def _unreadable(root: Path, written) -> list:
    """The values of the files in ``written`` that are not finite numbers
    where the property asks for one."""
    found = []
    for path in written:
        if path.is_dir() or path.name in ("config.json", "model.ckpt"):
            continue
        for column, klass, value, holes in _values(path):
            if (value is None or not math.isfinite(value)) and (column, klass) not in holes:
                where = column if klass is None else f"{column}[{klass}]"
                found.append(f"{path.relative_to(root)}: {where} = {value}")
    return found


def _with_cells(text: str, cells) -> str:
    """The CSV ``text`` with each ((row, column), value) of ``cells`` set
    in its data rows."""
    lines = text.splitlines()
    for (row, column), value in cells:
        parts = lines[row + 1].split(",")
        parts[column] = value
        lines[row + 1] = ",".join(parts)
    return "\n".join(lines) + "\n"


def _failure(root: Path, command: str, argv, config=None, cells=()):
    """Run ``srat command *argv`` after writing ``config`` (if any) to
    config.json and setting the feature ``cells`` of balanced.csv; return a
    description of how the boundary property failed, or None. Whatever the
    run wrote is removed and the fixtures are restored afterwards: a run
    whose output directory is the root overwrites model.ckpt."""
    if config is not None:
        (root / "config.json").write_text(json.dumps(config))
        argv = ["--config", "config.json", *argv]
    argv = [command, *argv]
    fixtures = {path: path.read_bytes() for path in (root / "balanced.csv", root / "model.ckpt")}
    if cells:
        (root / "balanced.csv").write_text(_with_cells(fixtures[root / "balanced.csv"].decode(), cells))
    before = _entries(root)
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, None
    try:
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(
            out
        ), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
    except Exception as exc:  # reported, with the trial, as a failure
        raised = exc
    written = sorted(_entries(root) - before)
    try:
        unreadable = _unreadable(root, written) if code in (0, 1) else []
    finally:
        for path in reversed(written):
            path.rmdir() if path.is_dir() else path.unlink()
        (root / "config.json").unlink(missing_ok=True)
        for path, content in fixtures.items():
            if not path.is_file() or path.read_bytes() != content:
                path.write_bytes(content)
    context = f"{argv} config {config} cells {list(cells)}"
    if raised is not None:
        return f"{context}: raised {raised!r}"
    context += f": exit {code}, stderr {err.getvalue()!r}"
    if caught:
        return f"{context}: warned {[str(w.message) for w in caught]}"
    if not (code in (0, 2, 3) or (command == "theory" and code == 1)):
        return context
    if code == 2 and written:
        return f"{context}: wrote {[str(p.relative_to(root)) for p in written]}"
    if unreadable:
        return f"{context}: wrote non-finite values {unreadable[:5]}"
    return None


def _set_edits(leaves):
    return [("set", path, value) for path in leaves for value in EDGE_VALUES]


def _flag_edits(flags):
    return [("flag", flag, text) for flag in flags for text in EDGE_TEXT]


_DATASET_FLAGS = ["--eta", "--sigma", "--dim", "--ratio", "--n-minority", "--n-test-per-class",
                  "--input", "--seed"]
_THEORY_FLAGS = ["--convention", "--eta", "--d", "--sigma", "--sigma1", "--sigma2", "--logK",
                 "--log-rho-over-k", "--K", "--points"]
# Every single edit of each group of trials: a config leaf set to an edge
# value, or a flag given as edge text.
_EDITS = {
    **{name: _set_edits(_LEAVES[name]) for name in _BASES},
    **{f"make-dataset {kind}": _flag_edits(_DATASET_FLAGS) for kind in ("synthetic", "step", "exp")},
    "eval": _set_edits(_ATTACK_LEAVES) + _flag_edits(["--under", "--seed"]),
    "export-features": _set_edits(_ATTACK_LEAVES) + _flag_edits(["--seed"]),
    **{f"{command} open": _set_edits(_ATTACK_LEAVES) for command in ("eval", "export-features")},
    **{f"{command} clean": [] for command in ("eval", "export-features")},
    **{f"theory {thm}": _flag_edits(_THEORY_FLAGS) for thm in ("lemma", "1", "2")},
}
# each group whose command reads balanced.csv also edits its cells
for group in ("train_csv", "train_csv open", "make-dataset step", "make-dataset exp", "eval",
              "export-features", "eval open", "export-features open", "eval clean",
              "export-features clean"):
    _EDITS[group] += [("cell", cell, text) for cell in _CELLS for text in EDGE_CELLS]


def _trial(group: str, edits):
    """(command, argv, config, cells) of the trial of ``group`` with
    ``edits``."""
    sets = [(path, value) for kind, path, value in edits if kind == "set"]
    flags = [f"{flag}={text}" for kind, flag, text in edits if kind == "flag"]
    cells = [(cell, text) for kind, cell, text in edits if kind == "cell"]
    if group in _BASES:
        return group.partition("_")[0], flags, _edited(_BASES[group], sets), cells
    command, _, mode = group.partition(" ")
    if command == "make-dataset":
        base = ["--dim", "2", "--n-minority", "3"] if mode == "synthetic" else [
            "--input", "balanced.csv", "--ratio", "2"]
        return command, ["--kind", mode, *base, *flags, "--out", "out"], None, cells
    if command == "theory":
        base = ["--points", "3"] if mode == "lemma" else []
        return command, ["--thm", mode, *base, *flags, "--out", "out"], None, cells
    under = ["--under", "1"] if command == "eval" else []
    argv = ["--checkpoint", "model.ckpt", "--data", "balanced.csv"]
    if (command, mode) != ("export-features", "clean"):
        argv += ["--attack", json.dumps(_edited(_ATTACKS[mode], sets))]
    return command, [*argv, *under, *flags, "--out", "out"], None, cells


def _covered_elsewhere(group: str, edit) -> bool:
    """Whether another group's single edits already cover ``edit``:
    train_csv differs from train_synthetic in its dataset only, train_csv
    open from train_csv in the open box that ``eval open`` edits, and a
    sweep's base is the train_synthetic config."""
    kind, path = edit[:2]
    if kind != "set":
        return False
    if group == "train_csv open":
        return True
    if group == "train_csv":
        return path[0] != "dataset"
    return group == "sweep" and path[0] == "base" and len(path) > 1


@pytest.mark.parametrize("group", list(_EDITS))
def test_every_single_edit_keeps_the_boundary(root, group):
    failures = []
    for edit in _EDITS[group]:
        if _covered_elsewhere(group, edit):
            continue
        failure = _failure(root, *_trial(group, [edit]))
        if failure is not None:
            failures.append(failure)
    assert failures == [], f"{len(failures)} failures:\n" + "\n".join(failures[:20])


@BOUNDARY
@given(
    st.sampled_from(list(_EDITS)).flatmap(
        lambda group: st.tuples(
            st.just(group), st.lists(st.sampled_from(_EDITS[group]), min_size=2, max_size=2)
        )
    )
)
def test_pairs_of_edits_keep_the_boundary(root, case):
    failure = _failure(root, *_trial(*case))
    assert failure is None, failure
