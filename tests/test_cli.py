"""End-to-end command-line contracts: artifacts, exit codes, determinism."""

import json
import warnings

import numpy as np
import pytest

from srat.cli import main
from srat.data import (
    ImbalanceSpec,
    LabeledDataset,
    load_csv,
    reduced_classes,
    sample_gaussian_mixture,
    save_csv,
)
from srat.rand import derive_rng
from srat.theory import GaussianMixtureSpec


def _experiment_doc(out_dir, **overrides):
    doc = {
        "dataset": {
            "kind": "synthetic",
            "eta": 1.0,
            "sigma": 1.5,
            "dim": 4,
            "imbalance_ratio": 5.0,
            "n_minority_train": 10,
            "n_test_per_class": 40,
            "seed": 3,
        },
        "model": {"hidden": [6]},
        "train": {
            "total_epochs": 3,
            "defer_epoch": 2,
            "batch_size": 16,
            "lr": 0.05,
            "lr_milestones": [2],
            "lr_decay": 0.1,
            "weighting": "class_balanced",
            "seed": 0,
            "eval_every": 2,
            "loss": {"kind": "ce", "tau": 0.1, "lam": 0.5},
            "attack": {"epsilon": 0.1, "step_size": 0.05, "num_steps": 2},
        },
        "eval_attack": {"epsilon": 0.1, "step_size": 0.05, "num_steps": 4},
        "output_dir": str(out_dir),
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------


def test_theory_theorem1_report(tmp_path):
    out = tmp_path / "thm1"
    rc = main(
        [
            "theory", "--thm", "1", "--eta", "1", "--sigma1", "1", "--sigma2", "2",
            "--d", "5", "--logK", "4", "--out", str(out),
        ]
    )
    assert rc == 0
    reports = json.loads((out / "reports.json").read_text())
    summed = [r for r in reports if r["convention"] == "summed"]
    assert len(summed) == 1 and summed[0]["holds"] and summed[0]["precondition_met"]
    table = (out / "table.csv").read_text().splitlines()
    assert len(table) == 3  # header + both conventions


def test_theory_theorem2_rebalanced_bias_columns_are_zero(tmp_path):
    out = tmp_path / "thm2"
    rc = main(
        [
            "theory", "--thm", "2", "--eta", "1", "--sigma1", "0.5", "--sigma2",
            "1", "2", "--d", "1", "5", "--logK", "3", "6", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "table.csv").read_text().splitlines()
    header = lines[0].split(",")
    i1 = header.index("bias1_rhoK")
    i2 = header.index("bias2_rhoK")
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[i1]) == 0.0
        assert float(cells[i2]) == 0.0


def test_theory_lemma_grid(tmp_path):
    out = tmp_path / "lemma"
    rc = main(
        [
            "theory", "--thm", "lemma", "--eta", "0.5", "2", "--sigma", "1", "2",
            "--d", "1", "5", "--points", "20001", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "table.csv").read_text().splitlines()
    ok_col = lines[0].split(",").index("ok")
    assert all(line.split(",")[ok_col] == "True" for line in lines[1:])


def test_theory_malformed_flag_exits_2_without_output(tmp_path):
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as exc:
        main(["theory", "--thm", "9", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--thm", "lemma", "--sigma", "1e200"], "sigma=1e+200"),
        (["--thm", "2", "--sigma2", "1e200"], "sigma2=1e+200"),
        (["--thm", "1", "--eta", "1e200"], "eta=1e+200"),
        (["--thm", "1", "--sigma1", "1e-200"], "sigma1=1e-200"),
        (["--thm", "lemma", "--log-rho-over-k", "1000"], "log_rho_over_k=1000.0"),
        (["--thm", "2", "--logK", "1000"], "logK=1000.0"),
    ],
)
def test_theory_out_of_range_grid_point_exits_2_naming_it(tmp_path, capsys, flags, named):
    out = tmp_path / "never"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["theory", *flags, "--out", str(out)]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: grid point ") and named in err
    assert not out.exists()


def test_theory_prints_no_numpy_warning(tmp_path, capsys):
    # a tiny eta puts the grid's z-scores far into the saturated tails
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        main(["theory", "--thm", "lemma", "--eta", "1e-300", "--out", str(tmp_path / "o")])
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# make-dataset
# ---------------------------------------------------------------------------


def test_make_dataset_synthetic(tmp_path):
    out = tmp_path / "data"
    rc = main(
        [
            "make-dataset", "--kind", "synthetic", "--eta", "1", "--sigma", "2",
            "--dim", "3", "--ratio", "4", "--n-minority", "5",
            "--n-test-per-class", "6", "--seed", "1", "--out", str(out),
        ]
    )
    assert rc == 0
    train = load_csv(out / "train.csv")
    test = load_csv(out / "test.csv")
    assert train.class_counts == (20, 5)
    assert test.class_counts == (6, 6)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["class_counts"] == [20, 5]


def test_make_dataset_step_imbalance(tmp_path):
    balanced = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.0, 2, 1.0), 30, seed=2)
    src = tmp_path / "balanced.csv"
    save_csv(balanced, src)
    out = tmp_path / "imb"
    rc = main(
        [
            "make-dataset", "--kind", "step", "--ratio", "10", "--input", str(src),
            "--seed", "0", "--out", str(out),
        ]
    )
    assert rc == 0
    shrunk = load_csv(out / "train.csv")
    assert shrunk.class_counts == (30, 3)


@pytest.mark.parametrize(
    "flags",
    [["--kind", "synthetic", "--eta", "-1"], ["--kind", "step", "--ratio", "10"]],
    ids=["negative_eta", "step_without_input"],
)
def test_make_dataset_rejected_input_writes_nothing(tmp_path, flags):
    out = tmp_path / "data"
    assert main(["make-dataset", *flags, "--out", str(out)]) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# train / eval / export
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    cfg_path = root / "config.json"
    run_dir = root / "out"
    cfg_path.write_text(json.dumps(_experiment_doc(run_dir)))
    rc = main(["train", "--config", str(cfg_path)])
    assert rc == 0
    return cfg_path, run_dir


def test_train_produces_run_directory(trained_run):
    _, run_dir = trained_run
    for name in ("config.json", "history.csv", "model.ckpt", "metrics.json", "per_class.csv"):
        assert (run_dir / name).exists()
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert set(metrics) >= {
        "overall_standard",
        "overall_robust",
        "under_represented_standard",
        "under_represented_robust",
        "per_class_standard",
        "per_class_robust",
        "partition",
    }
    assert metrics["partition"] == [1]
    history = (run_dir / "history.csv").read_text().splitlines()
    assert len(history) == 1 + 3  # header + one row per epoch


def test_train_rerun_is_bit_identical(trained_run, tmp_path):
    cfg_path, run_dir = trained_run
    doc = json.loads(cfg_path.read_text())
    other = tmp_path / "repeat"
    doc["output_dir"] = str(other)
    cfg2 = tmp_path / "config.json"
    cfg2.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg2)]) == 0
    assert (other / "model.ckpt").read_bytes() == (run_dir / "model.ckpt").read_bytes()
    assert (other / "metrics.json").read_bytes() == (run_dir / "metrics.json").read_bytes()


def test_eval_checkpoint_twice_is_identical(trained_run, tmp_path):
    _, run_dir = trained_run
    data = tmp_path / "test.csv"
    ds = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.5, 4, 1.0), 30, seed=5)
    save_csv(ds, data)
    attack = json.dumps({"epsilon": 0.1, "step_size": 0.05, "num_steps": 3})
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        rc = main(
            [
                "eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data",
                str(data), "--attack", attack, "--under", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        outs.append((out / "metrics.json").read_bytes())
    assert outs[0] == outs[1]


def test_eval_flags_classes_missing_from_the_csv(trained_run, tmp_path):
    _, run_dir = trained_run
    ds = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.5, 4, 1.0), 5, seed=5)
    data = tmp_path / "class0.csv"
    save_csv(ds.subset(np.flatnonzero(ds.labels == 0)), data)
    attack = json.dumps({"epsilon": 0.1, "step_size": 0.05, "num_steps": 1})
    out = tmp_path / "eval"
    rc = main(
        [
            "eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(data),
            "--attack", attack, "--under", "1", "--out", str(out),
        ]
    )
    assert rc == 0
    assert json.loads((out / "metrics.json").read_text())["empty_classes"] == [1]
    assert (out / "per_class.csv").read_text().splitlines()[2] == "1,,"


@pytest.mark.parametrize("bad", ["checkpoint", "data"])
def test_eval_corrupt_checkpoint_or_wrong_width_exits_2(trained_run, tmp_path, capsys, bad):
    _, run_dir = trained_run
    ckpt = tmp_path / "model.ckpt"
    blob = (run_dir / "model.ckpt").read_bytes()
    ckpt.write_bytes(blob[:300] if bad == "checkpoint" else blob)
    data = tmp_path / "data.csv"
    dim = 3 if bad == "data" else 4
    save_csv(sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.5, dim, 1.0), 3, seed=5), data)
    rc = main(
        [
            "eval", "--checkpoint", str(ckpt), "--data", str(data),
            "--attack", '{"epsilon":0.1,"step_size":0.05,"num_steps":1}',
            "--out", str(tmp_path / "eval"),
        ]
    )
    assert rc == 2
    assert str({"checkpoint": ckpt, "data": data}[bad]) in capsys.readouterr().err


def test_eval_non_integer_under_exits_2(trained_run, tmp_path, capsys):
    _, run_dir = trained_run
    data = tmp_path / "data.csv"
    save_csv(sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.5, 4, 1.0), 3, seed=5), data)
    out = tmp_path / "eval"
    rc = main(
        [
            "eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(data),
            "--attack", '{"epsilon":0.1,"step_size":0.05,"num_steps":1}',
            "--under", "a", "--out", str(out),
        ]
    )
    assert rc == 2
    assert "--under" in capsys.readouterr().err
    assert not out.exists()


def test_eval_attack_box_excluding_the_data_exits_2(trained_run, tmp_path, capsys):
    _, run_dir = trained_run
    data = tmp_path / "data.csv"  # mixture values spread well beyond [0, 1]
    save_csv(sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.5, 4, 1.0), 3, seed=5), data)
    out = tmp_path / "eval"
    attack = {"epsilon": 0.1, "step_size": 0.05, "num_steps": 1, "clip_min": 0, "clip_max": 1}
    rc = main(
        [
            "eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(data),
            "--attack", json.dumps(attack), "--out", str(out),
        ]
    )
    assert rc == 2
    assert "attack.clip_min/clip_max" in capsys.readouterr().err
    assert not out.exists()


def test_export_features_cli(trained_run, tmp_path):
    _, run_dir = trained_run
    data = tmp_path / "ds.csv"
    ds = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.5, 4, 2.0), 12, seed=6)
    save_csv(ds, data)
    out = tmp_path / "features.csv"
    rc = main(
        [
            "export-features", "--checkpoint", str(run_dir / "model.ckpt"),
            "--data", str(data), "--out", str(out),
        ]
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == len(ds)


def test_train_missing_config_exits_2(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2


def test_train_unknown_key_exits_2(tmp_path, capsys):
    doc = _experiment_doc(tmp_path / "x")
    doc["train"]["typo_knob"] = 1
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "typo_knob" in capsys.readouterr().err


def test_train_missing_mandatory_loss_keys_exits_2(tmp_path):
    doc = _experiment_doc(tmp_path / "x")
    del doc["train"]["loss"]["lam"]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("train", "lr", "fast"),
        ("model", "hidden", "ab"),
        ("model", "hidden", 8),
        ("train", "lr_milestones", None),
        ("train.loss", "tau", None),
        ("dataset", "dim", "ten"),
        ("train.attack", "num_steps", 1.7),
        ("train.attack", "random_start", "false"),
        ("model", "hidden", [1.7]),
        ("train", "lr_milestones", [2.5]),
    ],
)
def test_train_wrongly_typed_value_exits_2(tmp_path, capsys, section, key, value):
    doc = _experiment_doc(tmp_path / "x")
    node = doc
    for part in section.split("."):
        node = node[part]
    node[key] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "change,named",
    [({"eta": -1}, "eta"), ({"under_classes": [5]}, "dataset.under_classes")],
)
def test_train_bad_dataset_value_exits_2_writing_nothing(tmp_path, capsys, change, named):
    doc = _experiment_doc(tmp_path / "x")
    doc["dataset"].update(change)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("section", ["train.attack", "eval_attack"])
def test_train_attack_box_excluding_the_data_exits_2_writing_nothing(tmp_path, capsys, section):
    doc = _experiment_doc(tmp_path / "x")
    attack = doc["train"]["attack"] if section == "train.attack" else doc["eval_attack"]
    attack.update(clip_min=0.0, clip_max=1.0)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 2
    assert f"{section}.clip_min/clip_max" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("bad", ["config_is_a_directory", "config_bytes", "csv_bytes"])
def test_unreadable_input_exits_2_naming_the_path(tmp_path, capsys, bad):
    doc = _experiment_doc(tmp_path / "x")
    cfg = tmp_path / "config.json"
    data = tmp_path / "data.csv"
    data.write_bytes(b"dim=1,label_col=1\n1.0,0\n\xff,1\n")
    if bad == "csv_bytes":
        doc["dataset"] = {"kind": "csv", "train_path": str(data), "test_path": str(data)}
    if bad == "config_is_a_directory":
        cfg.mkdir()
    else:
        cfg.write_bytes(json.dumps(doc).encode() + (b"\xff" if bad == "config_bytes" else b""))
    assert main(["train", "--config", str(cfg)]) == 2
    assert str(data if bad == "csv_bytes" else cfg) in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_diverging_run_exits_3_with_epoch_and_batch(tmp_path, capsys):
    doc = _experiment_doc(tmp_path / "run")
    doc["train"]["lr"] = 1e200
    doc["train"]["attack"].update(num_steps=0, random_start=False)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(cfg)]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("training failure: ")
    assert "epoch" in err[0] and "batch" in err[0]


@pytest.mark.parametrize("under_classes", [None, [3]])
def test_train_on_csv_dataset(tmp_path, under_classes):
    rng = derive_rng(9)
    for name, per_class in (("train", 12), ("test", 5)):
        labels = np.repeat(np.arange(4), per_class)
        ds = LabeledDataset.from_arrays(rng.normal(size=(4 * per_class, 3)), labels, 4)
        save_csv(ds, tmp_path / f"{name}.csv")
    spec = ImbalanceSpec("step", 3.0, 12)
    doc = _experiment_doc(tmp_path / "run")
    doc["dataset"] = {
        "kind": "csv",
        "train_path": str(tmp_path / "train.csv"),
        "test_path": str(tmp_path / "test.csv"),
        "imbalance": spec.to_dict(),
    }
    if under_classes is not None:
        doc["dataset"]["under_classes"] = under_classes
    doc["train"].update(total_epochs=1, defer_epoch=1, lr_milestones=[])
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 0
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    expected = reduced_classes(spec, 4) if under_classes is None else under_classes
    assert metrics["partition"] == expected


def test_trailing_batch_of_one_row_trains(tmp_path):
    doc = _experiment_doc(tmp_path / "run")
    doc["dataset"].update(n_minority_train=1, imbalance_ratio=129.0)
    doc["train"].update(batch_size=129, total_epochs=1, defer_epoch=1, lr_milestones=[])
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "run" / "model.ckpt").exists()


def test_output_root_env_rewrites_relative_dirs(tmp_path, monkeypatch):
    monkeypatch.setenv("SRAT_OUTPUT_ROOT", str(tmp_path))
    doc = _experiment_doc("rooted/run")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "rooted" / "run" / "model.ckpt").exists()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_emits_one_row_per_config_and_seed(tmp_path):
    base = _experiment_doc(tmp_path / "unused")
    grid = {
        "base": base,
        "vary": {"train.loss.lam": [0.0, 1.0]},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "sweep"),
    }
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(grid))
    rc = main(["sweep", "--config", str(cfg)])
    assert rc == 0
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 4  # header + 2 lambdas x 2 seeds
    header = lines[0].split(",")
    assert header[0] == "train.loss.lam"
    assert "under_robust" in header
    run_dirs = list((tmp_path / "sweep").glob("run_*"))
    assert len(run_dirs) == 4
    for run_dir in run_dirs:
        assert (run_dir / "model.ckpt").exists()


def test_sweep_rejects_a_bad_run_before_writing(tmp_path, capsys):
    grid = {
        "base": _experiment_doc(tmp_path / "unused"),
        "vary": {"train.lr": [0.05, -1]},
        "seeds": [0],
        "output_dir": str(tmp_path / "sweep"),
    }
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(grid))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "run_001_seed0" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_sweep_bad_vary_key_exits_2(tmp_path):
    grid = {
        "base": _experiment_doc(tmp_path / "unused"),
        "vary": {"train.no_such.key": [1]},
        "seeds": [0],
        "output_dir": str(tmp_path / "sweep"),
    }
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(grid))
    assert main(["sweep", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "vary,seeds",
    [({"train.loss.lam": [0.0]}, []), ({"train.loss.lam": []}, [0])],
    ids=["no_seeds", "empty_vary_list"],
)
def test_sweep_empty_grid_exits_2(tmp_path, capsys, vary, seeds):
    grid = {
        "base": _experiment_doc(tmp_path / "unused"),
        "vary": vary,
        "seeds": seeds,
        "output_dir": str(tmp_path / "sweep"),
    }
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(grid))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "sweep." in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()
