"""End-to-end command-line contracts: artifacts, exit codes, determinism."""

import csv
import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

import srat.cli
import srat.theory
import srat.training
from srat.attack import AttackConfig
from srat.cli import main
from srat.data import (
    ImbalanceSpec,
    LabeledDataset,
    load_csv,
    reduced_classes,
    sample_gaussian_mixture,
    save_csv,
)
from srat.mlp import build_mlp, save_model
from srat.rand import derive_rng
from srat.theory import GaussianMixtureSpec


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _exit_code(argv) -> int:
    """``main``'s exit code, also when argparse rejects a flag."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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


def _wide_test_csv(tmp_path):
    """A CSV of 4 feature columns, one more than ``_csv_doc``'s splits."""
    path = tmp_path / "wide.csv"
    save_csv(LabeledDataset(derive_rng(5).normal(size=(8, 4)), np.repeat([0, 1], 4), 2), path)
    return path


def _csv_doc(tmp_path, out_dir):
    """An experiment on CSV splits whose rows hold only classes 0 and 1."""
    rng = derive_rng(4)
    for name in ("train", "test"):
        ds = LabeledDataset(rng.normal(size=(8, 3)), np.repeat([0, 1], 4), 2)
        save_csv(ds, tmp_path / f"{name}.csv")
    doc = _experiment_doc(out_dir)
    doc["dataset"] = {
        "kind": "csv",
        "train_path": str(tmp_path / "train.csv"),
        "test_path": str(tmp_path / "test.csv"),
        "num_classes": 2,
    }
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


# Pinned bytes of both theory outputs for small grids: a refactor of the
# writers or of the report records must leave every byte in place.
@pytest.mark.parametrize(
    "flags,table_sha256,reports_sha256",
    [
        (
            ["--thm", "lemma", "--eta", "0.5", "2", "--sigma", "1", "2", "--d", "1", "5",
             "--points", "20001"],
            "f97a9be314aa5bf6e1b2f4bab02af89ecba0eaa1130b95cb6b97c5aba64f4aef",
            "980f102d4074d50f32dc7c480afd740b8406d0507d8c41723e819562411e73a1",
        ),
        (
            ["--thm", "1", "--eta", "0.5", "1", "--sigma1", "0.5", "1", "--sigma2", "2",
             "--d", "1", "5", "--logK", "2.5", "6"],
            "d1e1154086fe9987b7eba34b0c6ea2a71d0d29bb624b548ae10048feb31a1271",
            "719692e841e09527552e9f8df9a30b598ca00853395d5933dc337e19b4d6ab7b",
        ),
        (
            ["--thm", "2", "--eta", "0.5", "1", "--sigma1", "0.5", "1", "--sigma2", "2",
             "--d", "1", "5", "--logK", "2.5", "6"],
            "31aae49ae129f504633838e2576a5adaf9ba64d38d94a4604e1faeac8780640f",
            "800df0b1960cc251ebc0657da1303ea47dbeb194ed1241323c800f597ea0af0e",
        ),
    ],
    ids=["lemma", "thm1", "thm2"],
)
def test_theory_output_bytes_are_pinned(tmp_path, flags, table_sha256, reports_sha256):
    out = tmp_path / "theory"
    assert main(["theory", *flags, "--out", str(out)]) == 0
    assert _sha256(out / "table.csv") == table_sha256
    assert _sha256(out / "reports.json") == reports_sha256


def test_readme_lemma_grid_bounds_its_normal_cdf_work(tmp_path, monkeypatch):
    # 216 grid points of 100,000 biases: a full scan takes 43.2 M normal_cdf
    # elements, the search with 32-point bounds about 3.61 M
    real = srat.theory.normal_cdf
    calls, elements = 0, 0

    def counting(z):
        nonlocal calls, elements
        calls, elements = calls + 1, elements + np.size(z)
        return real(z)

    monkeypatch.setattr(srat.theory, "normal_cdf", counting)
    argv = ["theory", "--thm", "lemma", "--eta", "0.5", "1", "2", "--sigma", "0.5", "1", "2", "4",
            "--d", "1", "5", "20", "--out", str(tmp_path / "lemma")]
    assert main(argv) == 0
    assert elements <= 4_500_000, f"{elements} normal_cdf elements in {calls} calls"


@pytest.mark.parametrize("thm", ["1", "2"])
def test_theory_violation_inside_the_hypothesis_exits_1(tmp_path, capsys, monkeypatch, thm):
    # a stubbed check whose inequality fails where its precondition holds
    name = f"verify_theorem{thm}"
    real = getattr(srat.cli, name)

    def violated(*args):
        return dataclasses.replace(real(*args), holds=False, precondition_met=True)

    monkeypatch.setattr(srat.cli, name, violated)
    out = tmp_path / "thm"
    assert main(["theory", "--thm", thm, "--out", str(out)]) == 1
    assert capsys.readouterr().out == f"2 grid points, 2 violation(s); wrote {out}\n"
    reports = json.loads((out / "reports.json").read_text())
    assert [(r["holds"], r["precondition_met"]) for r in reports] == [(False, True)] * 2


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
        # a finite bias bracket whose width overflows
        (["--thm", "lemma", "--eta", "1e-311", "--sigma", "0.01", "--d", "1"], "eta=1e-311"),
        # a finite bracket whose ends divided by the Z-score scale overflow
        (
            ["--thm", "lemma", "--eta", "1e-311", "--sigma", "1e-3", "--d", "1",
             "--convention", "summed", "--log-rho-over-k", "1.5"],
            "Z-scores of the bias bracket",
        ),
        # a dimension the closed forms cannot read as a float
        *(
            (["--thm", thm, "--d", str(2**1024)], "dim must be at most the largest float")
            for thm in ("lemma", "1", "2")
        ),
        # a bad deviation is refused even where its pair is out of order
        (["--thm", "1", "--sigma1", "nan", "1", "--sigma2", "2"], "sigma1=nan"),
        (["--thm", "1", "--sigma1", "3", "1", "--sigma2", "-1", "2"], "sigma2=-1.0"),
        (["--thm", "2", "--sigma1", "inf", "1", "--sigma2", "2"], "sigma1=inf"),
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


def test_make_dataset_without_test_split(tmp_path):
    out = tmp_path / "data"
    argv = ["make-dataset", "--kind", "synthetic", "--n-minority", "1",
            "--n-test-per-class", "0", "--out", str(out)]
    assert main(argv) == 0
    assert load_csv(out / "train.csv").class_counts == (10, 1)
    assert not (out / "test.csv").exists()


@pytest.mark.parametrize(
    "argv,named",
    [
        (["make-dataset", "--kind", "synthetic", "--n-test-per-class", "-1"],
         "--n-test-per-class: expected an integer >= 0, got '-1'"),
        (["make-dataset", "--kind", "synthetic", "--n-minority", "0"],
         "--n-minority: expected an integer >= 1, got '0'"),
        (["theory", "--thm", "lemma", "--points", "0"],
         "--points: expected an integer >= 3, got '0'"),
        (["theory", "--thm", "lemma", "--points", "2.5"],
         "--points: expected an integer >= 3, got '2.5'"),
        # past 2^53 a grid index has no exact float64; 2^60 - 1 rounds to
        # 2^60 as a float, too many points for one NumPy array
        (["theory", "--thm", "lemma", "--points", str(2**53 + 1)],
         "error: grid point convention=summed eta=1.0 sigma=1.0 d=5 K=20.0 "
         "log_rho_over_k=-1.5: num_points must lie in [3, 2^53]\n"),
        (["theory", "--thm", "lemma", "--points", str(2**60 - 1)],
         "error: grid point convention=summed eta=1.0 sigma=1.0 d=5 K=20.0 "
         "log_rho_over_k=-1.5: num_points must lie in [3, 2^53]\n"),
    ],
    ids=["negative_test_split", "no_minority", "no_points", "fractional_points",
         "points_past_2_53", "points_rounding_to_2_60"],
)
def test_out_of_range_integer_flag_exits_2_naming_it(tmp_path, capsys, argv, named):
    out = tmp_path / "never"
    assert _exit_code([*argv, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def _balanced_csv(path) -> None:
    """A balanced CSV of 4 classes of 40 rows, dim 3, labels cycling."""
    features = derive_rng(5).normal(size=(160, 3))
    save_csv(LabeledDataset(features, np.tile(np.arange(4), 40), 4), path)


def _manifest(num_examples, dim, class_counts, seed, **source) -> dict:
    return {
        "num_examples": num_examples, "dim": dim, "num_classes": len(class_counts),
        "class_counts": class_counts, "seed": seed, **source,
    }


# make-dataset's flags, its manifest.json and the sha256 of that file's
# bytes, recorded when write_manifest still wrote it: each key and byte
# stays in place
_MANIFESTS = {
    "synthetic": (
        ["--kind", "synthetic", "--eta", "1", "--sigma", "2", "--dim", "3", "--ratio", "4",
         "--n-minority", "5", "--n-test-per-class", "6", "--seed", "1"],
        _manifest(25, 3, [20, 5], 1, imbalance=None,
                  mixture={"dim": 3, "eta": 1.0, "imbalance_ratio": 4.0, "sigma": 2.0}),
        "1b95ef5e8b995b284b5019dbb3136406cba79a8510b1f2c5d4d08a16e8f57eeb",
    ),
    "synthetic_without_test_split": (
        ["--kind", "synthetic", "--n-minority", "1", "--n-test-per-class", "0"],
        _manifest(11, 10, [10, 1], 0, imbalance=None,
                  mixture={"dim": 10, "eta": 1.0, "imbalance_ratio": 10.0, "sigma": 1.0}),
        "e05e41b53828d01535515da657bd9a2192f6eb41f9dd10f9bbff6f58f29174de",
    ),
    "step": (
        ["--kind", "step", "--ratio", "8", "--input", "balanced.csv", "--seed", "3"],
        _manifest(90, 3, [40, 40, 5, 5], 3, imbalance={"kind": "step", "ratio": 8.0}),
        "7a7628351755ac94978422dbdc9d7cdc215f60928a9534c91a5346e7ae446291",
    ),
    "exp": (
        ["--kind", "exp", "--ratio", "8", "--input", "balanced.csv", "--seed", "3"],
        _manifest(75, 3, [40, 20, 10, 5], 3, imbalance={"kind": "exp", "ratio": 8.0}),
        "7336882fb07ae411f9dc347ea97167d8713fe14b32e9bb3e360cfc8f9df29a20",
    ),
}


@pytest.mark.parametrize("case", list(_MANIFESTS))
def test_make_dataset_manifest_is_pinned(tmp_path, monkeypatch, case):
    flags, doc, sha256 = _MANIFESTS[case]
    _balanced_csv(tmp_path / "balanced.csv")
    monkeypatch.chdir(tmp_path)
    assert main(["make-dataset", *flags, "--out", "data"]) == 0
    manifest = tmp_path / "data" / "manifest.json"
    assert json.loads(manifest.read_text()) == doc
    assert _sha256(manifest) == sha256


# sha256 of make-dataset's train.csv on the balanced CSV of
# test_make_dataset_keeps_the_rows_it_kept, recorded when the base count
# was still a field of the imbalance spec
_PROFILE_SHA256 = {
    "step": "00734403b8be8d4663a6f76fe3f6739dcb477e5f0a12d19a3fe33282c2b08bf4",
    "exp": "a3367db18a86912f9563b519ba2ffa3610cbb7410863668e69e80f69c4e63ebc",
}


@pytest.mark.parametrize("kind", ["step", "exp"])
def test_make_dataset_keeps_the_rows_it_kept(tmp_path, kind):
    # fixes which rows each profile keeps, not only how many
    _balanced_csv(tmp_path / "balanced.csv")
    argv = ["make-dataset", "--kind", kind, "--ratio", "8", "--input", str(tmp_path / "balanced.csv"),
            "--seed", "3", "--out", str(tmp_path / "imb")]
    assert main(argv) == 0
    assert _sha256(tmp_path / "imb" / "train.csv") == _PROFILE_SHA256[kind]
    manifest = json.loads((tmp_path / "imb" / "manifest.json").read_text())
    assert manifest["imbalance"] == {"kind": kind, "ratio": 8.0}
    assert manifest["class_counts"][0] == 40


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


def test_make_dataset_refuses_an_unbalanced_input_naming_it(tmp_path, capsys):
    src = tmp_path / "train.csv"
    save_csv(sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.0, 2, 10.0), 3, seed=0), src)
    out = tmp_path / "imb"
    argv = ["make-dataset", "--kind", "exp", "--ratio", "1000", "--input", str(src)]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {src}: expected a balanced dataset, got class counts [30, 3]" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["step", "exp"])
def test_make_dataset_one_class_input_takes_ratio_one_only(tmp_path, capsys, kind):
    # one class has no tail to reduce, under either profile
    src = tmp_path / "one.csv"
    save_csv(LabeledDataset(derive_rng(7).normal(size=(6, 2)), np.zeros(6, dtype=np.int64)), src)
    argv = ["make-dataset", "--kind", kind, "--input", str(src)]
    assert main([*argv, "--ratio", "2", "--out", str(tmp_path / "never")]) == 2
    assert capsys.readouterr().err == (
        f"error: {src}: imbalance ratio 2.0 needs two or more classes; one class has no tail\n"
    )
    assert not (tmp_path / "never").exists()
    assert main([*argv, "--ratio", "1", "--out", str(tmp_path / "kept")]) == 0
    assert (tmp_path / "kept" / "train.csv").read_bytes() == src.read_bytes()


def _csv_imbalance_err(tmp_path, capsys, command, ratio, imbalance, num_classes=2) -> str:
    """stderr of ``srat command`` (train, or a one-run sweep) on a csv
    config with ``imbalance`` whose train file is a 2-class mixture of
    ``ratio`` * 20 and 20 rows (only its first class with ``num_classes``
    1); checks exit 2 and that nothing was made."""
    src = tmp_path / "train.csv"
    mixture = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.0, 2, ratio), 20, seed=0)
    first = mixture.labels < num_classes
    save_csv(LabeledDataset(mixture.features[first], mixture.labels[first]), src)
    out = tmp_path / "never"
    doc = _experiment_doc(out)
    doc["dataset"] = {
        "kind": "csv", "train_path": str(src), "test_path": str(src), "imbalance": imbalance,
    }
    if command == "sweep":
        doc = {"base": doc, "vary": {"train.loss.lam": [0.5]}, "seeds": [0], "output_dir": str(out)}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg)]) == 2
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_csv_imbalance_on_an_unbalanced_train_file_exits_2_naming_it(tmp_path, capsys, command):
    err = _csv_imbalance_err(tmp_path, capsys, command, 10.0, {"kind": "step", "ratio": 10})
    src = tmp_path / "train.csv"
    assert f"{src}: expected a balanced dataset, got class counts [200, 20]" in err


@pytest.mark.parametrize("kind", ["step", "exp"])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_csv_imbalance_on_a_one_class_train_file_exits_2_naming_it(
    tmp_path, capsys, command, kind
):
    err = _csv_imbalance_err(tmp_path, capsys, command, 1.0, {"kind": kind, "ratio": 2}, 1)
    src = tmp_path / "train.csv"
    assert f"{src}: imbalance ratio 2.0 needs two or more classes; one class has no tail" in err


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_csv_imbalance_naming_a_base_count_exits_2(tmp_path, capsys, command):
    # the base is the balanced train file's own class size; no key sets it
    imbalance = {"kind": "step", "ratio": 10, "base_count": 20}
    err = _csv_imbalance_err(tmp_path, capsys, command, 1.0, imbalance)
    prefix = "sweep run_000_seed0: " if command == "sweep" else ""
    assert f"error: {prefix}dataset.imbalance: unknown keys ['base_count']" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["make-dataset", "--kind", "synthetic", "--ratio", "1e300", "--n-minority", "1",
          "--out", "{out}"], "1e+300 rows of dim 10 exceed NumPy's array size limit"),
        (["train", "--config", "{config}"], "K * n_minority = 1e+308 * 10 is not finite"),
    ],
    ids=["make_dataset", "train"],
)
def test_overflowing_majority_row_count_exits_2_writing_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "never"
    doc = _experiment_doc(out)
    doc["dataset"]["imbalance_ratio"] = 1e308
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    fill = {"{out}": str(out), "{config}": str(cfg)}
    assert main([fill.get(a, a) for a in argv]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# A test split of 10^308 rows per class has 2e308 rows, more than a float
# holds: the message must still be formed.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["make-dataset", "--kind", "synthetic", "--n-test-per-class", str(10**308),
          "--out", "{out}"], "2.000e+308 rows of dim 10 exceed NumPy's array size limit"),
        (["train", "--config", "{config}"], "e+308 rows of dim 4 exceed NumPy's array size limit"),
    ],
    ids=["make_dataset", "train"],
)
def test_row_count_beyond_float_range_exits_2_writing_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "never"
    doc = _experiment_doc(out)
    doc["dataset"]["n_test_per_class"] = 1e308
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    fill = {"{out}": str(out), "{config}": str(cfg)}
    assert _exit_code([fill.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


# Each asks for about 7 PiB, more than a 47-bit address space holds, so the
# allocation fails at once whatever the kernel's overcommit policy.
@pytest.mark.parametrize(
    "argv, shape",
    [
        (["--kind", "synthetic", "--ratio", "1e14", "--n-minority", "1"],
         "shape (100000000000000, 10)"),
        (["--kind", "step", "--ratio", "1", "--input", "{csv}"], "shape (1000000000000001,)"),
    ],
    ids=["ratio", "label"],
)
def test_make_dataset_out_of_memory_exits_2_writing_nothing(tmp_path, capsys, argv, shape):
    src = tmp_path / "train.csv"
    src.write_text("dim=1,label_col=1\n0.5,0\n0.25,1000000000000000\n")
    out = tmp_path / "never"
    argv = [str(src) if a == "{csv}" else a for a in argv]
    assert main(["make-dataset", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 7.11 PiB") and shape in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["make-dataset", "train"])
def test_label_beyond_int64_exits_2_naming_the_line(tmp_path, capsys, command):
    src = tmp_path / "train.csv"
    src.write_text("dim=1,label_col=1\n0.5,0\n0.25,99999999999999999999\n")
    out = tmp_path / "never"
    if command == "train":
        doc = _experiment_doc(out)
        doc["dataset"] = {"kind": "csv", "train_path": str(src), "test_path": str(src)}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        argv = ["train", "--config", str(cfg)]
    else:
        argv = ["make-dataset", "--kind", "step", "--ratio", "1", "--input", str(src),
                "--out", str(out)]
    assert main(argv) == 2
    assert "line 3: label 99999999999999999999 exceeds int64" in capsys.readouterr().err
    assert not out.exists()


# Every flag that applies to some modes only, given in each other mode:
# (mode argv, flag and value, the modes the message names). "{csv}" is a
# balanced CSV, so that only the foreign flag is wrong.
_LEMMA_ONLY = [["--sigma", "1"], ["--log-rho-over-k", "0"], ["--K", "20"], ["--points", "1000"]]
_THEOREM_ONLY = [["--sigma1", "1"], ["--sigma2", "2"], ["--logK", "4"]]
_SYNTHETIC_ONLY = [["--eta", "1"], ["--sigma", "2"], ["--dim", "3"], ["--n-minority", "5"],
                   ["--n-test-per-class", "6"]]
_FOREIGN_FLAGS = [
    *((["theory", "--thm", thm], flag, "--thm lemma") for thm in ("1", "2") for flag in _LEMMA_ONLY),
    *((["theory", "--thm", "lemma"], flag, "--thm 1 and 2") for flag in _THEOREM_ONLY),
    *(
        (["make-dataset", "--kind", kind, "--input", "{csv}"], flag, "--kind synthetic")
        for kind in ("step", "exp")
        for flag in _SYNTHETIC_ONLY
    ),
    (["make-dataset", "--kind", "synthetic"], ["--input", "{csv}"], "--kind step and exp"),
]


@pytest.mark.parametrize(
    "mode,flag,modes",
    _FOREIGN_FLAGS,
    ids=[f"{mode[0]}_{mode[2]}{flag[0]}" for mode, flag, _ in _FOREIGN_FLAGS],
)
def test_flag_of_another_mode_exits_2_naming_it(tmp_path, capsys, mode, flag, modes):
    balanced = tmp_path / "balanced.csv"
    save_csv(sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.0, 2, 1.0), 30, seed=2), balanced)
    out = tmp_path / "never"
    argv = [str(balanced) if a == "{csv}" else a for a in [*mode, *flag, "--out", str(out)]]
    assert main(argv) == 2
    assert f"error: {flag[0]} applies to {modes} only" in capsys.readouterr().err
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
    (tmp_path / "attack.json").write_text(attack)
    outs = []
    # twice inline, then the same attack read from a .json file
    for name, given in (("e1", attack), ("e2", attack), ("file", str(tmp_path / "attack.json"))):
        out = tmp_path / name
        rc = main(
            [
                "eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data",
                str(data), "--attack", given, "--under", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        outs.append((out / "metrics.json").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_eval_flags_classes_missing_from_the_csv(trained_run, tmp_path):
    _, run_dir = trained_run
    ds = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.5, 4, 1.0), 5, seed=5)
    data = tmp_path / "class0.csv"
    class0 = ds.labels == 0
    save_csv(LabeledDataset(ds.features[class0], ds.labels[class0], 2), data)
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
    # pins the null path: the empty class's accuracies are written as null
    assert _sha256(out / "metrics.json") == (
        "9ae0eb7c242343d20ca416f005cd0d83377998cee2806f4c33dbc5a916790db6"
    )


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


@pytest.mark.parametrize(
    "command,flags,named",
    [
        ("eval", ["--under", "5"], "--under"),
        ("eval", ["--seed", "-1"], "--seed"),
        ("export-features", ["--seed", "-1"], "--seed"),
        # the data lies beyond [0, 1]; refused before the output's parent is made
        (
            "export-features",
            ["--attack", json.dumps(
                {"epsilon": 0.1, "step_size": 0.05, "num_steps": 1, "clip_min": 0, "clip_max": 1}
            )],
            "attack.clip_min/clip_max",
        ),
        # a NaN bound would clip every attacked row to NaN
        (
            "eval",
            ["--attack", '{"epsilon":0.1,"step_size":0.05,"num_steps":1,"clip_max":NaN}'],
            "attack: clip_min/clip_max must be numbers",
        ),
        (
            "export-features",
            ["--attack", '{"epsilon":0.1,"step_size":0.05,"num_steps":1,'
             '"random_start":false,"clip_min":NaN}'],
            "attack: clip_min/clip_max must be numbers",
        ),
        ("eval", ["--attack", "{bad"], "error: --attack: invalid JSON ("),
        # a value with a .json suffix is a path: a missing file is named, not
        # parsed as inline JSON
        ("eval", ["--attack", "missing.json"], "No such file or directory: 'missing.json'"),
        (
            "export-features",
            ["--attack", "missing.json"],
            "No such file or directory: 'missing.json'",
        ),
    ],
    ids=[
        "eval_under_beyond_classes", "eval_negative_seed", "export_negative_seed",
        "export_attack_box_excluding_the_data", "eval_nan_clip_max", "export_nan_clip_min",
        "eval_invalid_attack_json", "eval_missing_attack_file", "export_missing_attack_file",
    ],
)
def test_eval_and_export_rejected_flag_write_nothing(
    trained_run, tmp_path, capsys, monkeypatch, command, flags, named
):
    monkeypatch.chdir(tmp_path)  # relative paths in ``flags`` resolve here
    _, run_dir = trained_run
    data = tmp_path / "data.csv"
    save_csv(sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.5, 4, 1.0), 3, seed=5), data)
    out = tmp_path / "out" / "result"
    argv = [
        command, "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(data),
        "--attack", '{"epsilon":0.1,"step_size":0.05,"num_steps":1}', *flags,
        "--out", str(out),
    ]
    assert _exit_code(argv) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "export-features"])
def test_eval_and_export_refuse_a_csv_of_another_width_naming_it(
    trained_run, tmp_path, capsys, command
):
    _, run_dir = trained_run
    data = tmp_path / "wide.csv"
    save_csv(sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.5, 5, 1.0), 3, seed=5), data)
    argv = [
        command, "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(data),
        "--attack", '{"epsilon":0.1,"step_size":0.05,"num_steps":1}',
        "--out", str(tmp_path / "out" / "result"),
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {data}: data of dim 5 does not match model input width 4\n"
    assert not (tmp_path / "out").exists()


_NOT_WRITTEN = "a cell holds a blank, '_' or a non-ASCII character"


@pytest.mark.parametrize(
    "text, message",
    [
        ("dim=4,label_col=4\n1_0.5,2,3,4,1\n", f"line 2: {_NOT_WRITTEN}"),
        ("dim=4,label_col=4\n1,2,3,4, 1 \n", f"line 2: {_NOT_WRITTEN}"),
        ("dim=4,label_col=4 \n1,2,3,4,1\n", "line 1: bad header 'dim=4,label_col=4 '"),
    ],
    ids=["underscore", "blank", "header_blank"],
)
def test_eval_refuses_a_csv_number_save_csv_never_writes(
    trained_run, tmp_path, capsys, text, message
):
    _, run_dir = trained_run
    data = tmp_path / "data.csv"
    data.write_text(text)
    argv = [
        "eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(data),
        "--attack", '{"epsilon":0.1,"step_size":0.05,"num_steps":1}',
        "--out", str(tmp_path / "out"),
    ]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {data}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "export-features"])
def test_eval_and_export_check_the_attack_box_once(
    trained_run, tmp_path, monkeypatch, command
):
    # in the evaluation pass, which the commands leave the check to
    calls = []
    real = AttackConfig.check_box

    def spy(self, x, *args):
        calls.append(len(x))
        return real(self, x, *args)

    monkeypatch.setattr(AttackConfig, "check_box", spy)
    _, run_dir = trained_run
    data = tmp_path / "data.csv"
    save_csv(sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.5, 4, 1.0), 3, seed=5), data)
    attack = '{"epsilon":0.1,"step_size":0.05,"num_steps":1,"clip_min":-100,"clip_max":100}'
    argv = [
        command, "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(data),
        "--attack", attack, "--out", str(tmp_path / "out"),
    ]
    assert main(argv) == 0
    assert calls == [6]


@pytest.mark.parametrize("section", ["train.attack", "eval_attack", "--attack"])
def test_attack_epsilon_too_wide_for_a_random_start_exits_2_writing_nothing(
    trained_run, tmp_path, capsys, section
):
    out = tmp_path / "never"
    if section == "--attack":
        _, run_dir = trained_run
        data = tmp_path / "data.csv"
        save_csv(sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.5, 4, 1.0), 3, seed=5), data)
        argv = ["eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(data),
                "--attack", '{"epsilon":1e308,"step_size":0.05,"num_steps":1}', "--out", str(out)]
        named = "attack: epsilon"
    else:
        doc = _experiment_doc(out)
        attack = doc["train"]["attack"] if section == "train.attack" else doc["eval_attack"]
        attack["epsilon"] = 1e308
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        argv = ["train", "--config", str(cfg)]
        named = f"{section}: epsilon"
    assert main(argv) == 2
    assert f"{named} must lie in [0, 2^1023)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section", ["train.attack", "eval_attack", "eval", "export-features"])
def test_negative_zero_epsilon_with_a_random_start_runs(trained_run, tmp_path, section):
    # a budget of -0.0 is a budget of 0: the random start draws from [0, 0]
    attack = {"epsilon": -0.0, "step_size": 0.05, "num_steps": 1, "random_start": True}
    out = tmp_path / "out"
    if section in ("eval", "export-features"):
        _, run_dir = trained_run
        data = tmp_path / "data.csv"
        save_csv(sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.5, 4, 1.0), 3, seed=5), data)
        argv = [section, "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(data),
                "--attack", json.dumps(attack), "--out", str(out)]
    else:
        doc = _experiment_doc(out)
        if section == "train.attack":
            doc["train"]["attack"] = attack
        else:
            doc["eval_attack"] = attack
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        argv = ["train", "--config", str(cfg)]
    assert main(argv) == 0


def test_train_refuses_a_test_csv_of_another_width_before_training(
    tmp_path, capsys, monkeypatch
):
    steps = []
    real = srat.training.pgd_attack

    def spy(*args, **kwargs):
        steps.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(srat.training, "pgd_attack", spy)
    out = tmp_path / "run"
    doc = _csv_doc(tmp_path, out)
    wide = _wide_test_csv(tmp_path)
    doc["dataset"]["test_path"] = str(wide)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {wide}: data of dim 4 does not match model input width 3\n"
    assert steps == []
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


def test_export_features_exits_3_on_non_finite_features_and_writes_nothing(tmp_path, capsys):
    # every row is +-1e308: each hidden unit sums terms of order 1e308 and
    # overflows, so no row has finite features
    save_model(build_mlp(3, (4,), 2, seed=0), tmp_path / "model.ckpt", seed=0)
    data = tmp_path / "e.csv"
    data.write_text("dim=3,label_col=3\n1e308,1e308,1e308,0\n-1e308,-1e308,-1e308,1\n")
    out = tmp_path / "out" / "features.csv"
    argv = ["export-features", "--checkpoint", str(tmp_path / "model.ckpt"),
            "--data", str(data), "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"error: {data}: non-finite features in the export pass\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.csv", "model.ckpt"]


def test_rows_too_large_for_the_model_warn_nowhere(tmp_path, capsys):
    # the hidden layer holds ~1e308 on these rows and the logits overflow:
    # export-features writes the finite features, eval exits 3 naming the file
    save_model(build_mlp(3, (4,), 2, seed=5), tmp_path / "model.ckpt", seed=5)
    data = tmp_path / "huge.csv"
    data.write_text("dim=3,label_col=3\n1e308,1.0,0.0,0\n-1e308,0.0,1.0,1\n0.5,0.5,0.5,0\n")
    common = ["--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(data)]
    features = tmp_path / "features.csv"
    attack = json.dumps({"epsilon": 0.1, "step_size": 0.1, "num_steps": 0})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["export-features", *common, "--out", str(features)]) == 0
        assert main(["eval", *common, "--attack", attack, "--out", str(tmp_path / "e")]) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"error: {data}: non-finite logits in the evaluation pass\n"
    assert all(math.isfinite(float(v)) for line in features.read_text().splitlines()
               for v in line.split(","))
    assert not (tmp_path / "e").exists()


def test_train_missing_config_exits_2(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2


def test_train_unknown_key_exits_2(tmp_path, capsys):
    doc = _experiment_doc(tmp_path / "x")
    doc["train"]["typo_knob"] = 1
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "typo_knob" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path",
    [("loss", "kind"), ("loss", "tau"), ("loss", "lam"), ("weighting",), ("seed",)],
    ids=".".join,
)
def test_train_missing_mandatory_loss_keys_exits_2(tmp_path, capsys, path):
    # a key is required exactly when its field has no default
    doc = _experiment_doc(tmp_path / "x")
    section = doc["train"]
    for key in path[:-1]:
        section = section[key]
    del section[path[-1]]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 2
    where = ".".join(["train", *path[:-1]])
    assert f"{where}: missing keys ['{path[-1]}']" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_integer_beyond_the_float_range_exits_2_naming_the_field(tmp_path, capsys):
    doc = _experiment_doc(tmp_path / "x")
    doc["train"]["lr"] = 10**400
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "train.lr: 1.000e+400 is beyond the float range" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_train_negative_focal_gamma_exits_2_writing_nothing(tmp_path, capsys):
    # LossConfig is the only check of the loss settings
    doc = _experiment_doc(tmp_path / "x")
    doc["train"]["loss"].update(kind="focal", focal_gamma=-1)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "train.loss: focal_gamma must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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
    [
        ({"eta": -1}, "eta"),
        ({"under_classes": [5]}, "dataset.under_classes"),
        ({"n_minority_train": 0}, "dataset: n_minority_train must be >= 1"),
        ({"n_test_per_class": 0}, "dataset: n_test_per_class must be >= 1"),
        ({"seed": -1}, "dataset: seed must be >= 0"),
    ],
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


@pytest.mark.parametrize("bound", ["clip_min", "clip_max"])
@pytest.mark.parametrize("section", ["train.attack", "eval_attack"])
def test_train_nan_attack_bound_exits_2_writing_nothing(tmp_path, capsys, section, bound):
    doc = _experiment_doc(tmp_path / "x")
    attack = doc["train"]["attack"] if section == "train.attack" else doc["eval_attack"]
    attack[bound] = float("nan")
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 2
    assert f"{section}: clip_min/clip_max must be numbers" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


_EMPTY_CLASS_BALANCED = "train.weighting: 'class_balanced' needs a training row of every class"


@pytest.mark.parametrize(
    "change,named",
    [
        ({}, _EMPTY_CLASS_BALANCED),
        ({"defer_epoch": 4}, _EMPTY_CLASS_BALANCED),
        (
            {"weighting": "none", "loss": {"kind": "ldam", "tau": 0.1, "lam": 0.5}},
            "train.loss.kind: 'ldam' needs a training row of every class",
        ),
        (
            {"weighting": "manual", "manual_weights": [1.0, 2.0]},
            "train.manual_weights: 2 weights for 3 classes",
        ),
        *(
            (
                {"weighting": "manual", "manual_weights": weights},
                "error: train.manual_weights: class weights must be positive and finite",
            )
            for weights in ([1.0, -1.0, 1.0], [0.0, 1.0, 1.0], [1.0, float("inf"), 1.0])
        ),
        # positive and finite, but the mean overflows or the smallest weight
        # underflows once divided by it
        *(
            (
                {"weighting": "manual", "manual_weights": weights},
                "error: train.manual_weights: class weights must stay positive once divided "
                "by their mean",
            )
            for weights in ([1e308, 1e308, 1e308], [5e-324, 1e300, 1.0])
        ),
    ],
    ids=[
        "class_balanced",
        "class_balanced_never_deferred",
        "ldam",
        "manual_weights",
        "manual_weights_negative",
        "manual_weights_zero",
        "manual_weights_infinite",
        "manual_weights_mean_overflows",
        "manual_weights_underflow",
    ],
)
def test_train_loss_settings_the_counts_cannot_serve_exit_2_writing_nothing(
    tmp_path, capsys, change, named
):
    doc = _csv_doc(tmp_path, tmp_path / "x")
    doc["dataset"]["num_classes"] = 3
    doc["train"].update(change)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(cfg)]) == 2
    assert [str(w.message) for w in caught] == []
    assert named in capsys.readouterr().err
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
    assert not (tmp_path / "run").exists()  # the run directory is made after training


def test_attack_rounding_past_a_tiny_epsilon_ball_trains(tmp_path):
    # near 1e10 one ULP is 1.9e-6, so x + delta rounds to a point 1.9e-6
    # from x although |delta| <= epsilon = 1.5e-6: a rounding, not a fault
    rng = derive_rng(4)
    ds = LabeledDataset(1e10 + 1e6 * rng.normal(size=(16, 3)), np.repeat([0, 1], 8), 2)
    save_csv(ds, tmp_path / "data.csv")
    doc = _experiment_doc(tmp_path / "run")
    doc["dataset"] = {
        "kind": "csv", "train_path": str(tmp_path / "data.csv"),
        "test_path": str(tmp_path / "data.csv"),
    }
    doc["train"].update(total_epochs=1, defer_epoch=1, lr_milestones=[], weighting="none")
    doc["train"]["attack"] = {
        "epsilon": 1.5e-6, "step_size": 0.1, "num_steps": 2, "random_start": False
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "run" / "model.ckpt").exists()


@pytest.mark.parametrize("width", [10**30, 2**50], ids=["past_intp", "past_memory"])
def test_train_model_too_large_exits_2_writing_nothing(tmp_path, capsys, width):
    # 10^30 is refused by build_mlp; 2^50 asks NumPy for 32 PiB, more
    # than a 47-bit address space holds, so the allocation fails at once
    doc = _experiment_doc(tmp_path / "run", model={"hidden": [width]})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("under_classes", [None, [3]])
def test_train_on_csv_dataset(tmp_path, under_classes):
    rng = derive_rng(9)
    for name, per_class in (("train", 12), ("test", 5)):
        labels = np.repeat(np.arange(4), per_class)
        ds = LabeledDataset(rng.normal(size=(4 * per_class, 3)), labels, 4)
        save_csv(ds, tmp_path / f"{name}.csv")
    spec = ImbalanceSpec("step", 3.0)
    doc = _experiment_doc(tmp_path / "run")
    doc["dataset"] = {
        "kind": "csv",
        "train_path": str(tmp_path / "train.csv"),
        "test_path": str(tmp_path / "test.csv"),
        "imbalance": dataclasses.asdict(spec),
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
    base = _experiment_doc(tmp_path / "unused")
    csv_base = _csv_doc(tmp_path, tmp_path / "unused")
    wide = _wide_test_csv(tmp_path)
    manual_base = _experiment_doc(tmp_path / "unused")
    manual_base["train"].update(weighting="manual", manual_weights=[1.0, 2.0])
    for key, values, named in [
        ("train.lr", [0.05, -1], "train: lr must be > 0"),
        ("dataset.n_test_per_class", [40, 0], "dataset: n_test_per_class must be >= 1"),
        ("dataset.seed", [3, -1], "dataset: seed must be >= 0"),
        # checks that need the run's data
        ("dataset.under_classes", [[1], [5]], "dataset.under_classes: [5] not all in [0, 2)"),
        ("train.attack.clip_min", [None, 0], "train.attack.clip_min/clip_max: the box [0.0, inf]"),
        ("dataset.num_classes", [2, 3], _EMPTY_CLASS_BALANCED),
        (
            "train.manual_weights",
            [[1.0, 2.0], [1.0, -1.0]],
            "train.manual_weights: class weights must be positive and finite",
        ),
        # a later run whose model cannot be built: too many parameters for
        # NumPy, or more bytes than the allocator gives
        (
            "model.hidden",
            [[3], [1e30]],
            f"layer widths [4, {int(1e30)}, 2] need 7.000e+30 parameters",
        ),
        ("model.hidden", [[3], [2**50]], "Unable to allocate"),
        (
            "dataset.test_path",
            [str(tmp_path / "test.csv"), str(wide)],
            f"{wide}: data of dim 4 does not match model input width 3",
        ),
    ]:
        grid = {
            "base": {
                "dataset.num_classes": csv_base,
                "dataset.test_path": csv_base,
                "train.manual_weights": manual_base,
            }.get(key, base),
            "vary": {key: values},
            "seeds": [0],
            "output_dir": str(tmp_path / "sweep"),
        }
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(grid))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert f"sweep run_001_seed0: {named}" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("key", ["train.seed", "output_dir", "train"])
def test_sweep_cannot_vary_what_it_sets_per_run(tmp_path, capsys, key):
    base = _experiment_doc(tmp_path / "unused")
    values = {
        "train.seed": [5, 6],
        "output_dir": ["a", "b"],
        "train": [{**base["train"], "seed": 5}],
    }
    grid = {
        "base": base,
        "vary": {key: values[key]},
        "seeds": [0],
        "output_dir": str(tmp_path / "sweep"),
    }
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(grid))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()
    assert not (tmp_path / "unused").exists()


def test_sweep_bad_vary_key_exits_2(tmp_path, capsys):
    # a missing key, and a key that runs through a value (train.lr is a number)
    for key in ("train.no_such.key", "train.lr.x"):
        grid = {
            "base": _experiment_doc(tmp_path / "unused"),
            "vary": {key: [1]},
            "seeds": [0],
            "output_dir": str(tmp_path / "sweep"),
        }
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(grid))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert f"vary key {key!r} does not address the base config" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_output_dir_of_another_type_exits_2_under_out(tmp_path, capsys, command):
    # --out replaces the config's output_dir, which is still checked
    doc = _experiment_doc(tmp_path / "unused", output_dir=7)
    where = "output_dir"
    if command == "sweep":
        doc = {"base": doc, "vary": {"train.loss.lam": [0.5]}, "seeds": [0], "output_dir": 7}
        where = "sweep.output_dir"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "never"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {where}: expected a string, got 7\n"
    assert not out.exists()


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


def test_sweep_repeated_seed_exits_2_naming_it(tmp_path, capsys):
    # a seed names the run directory of each config, so a repeat would
    # train and write a run twice into one directory
    grid = {
        "base": _experiment_doc(tmp_path / "unused"),
        "vary": {"train.loss.lam": [0.0, 1.0]},
        "seeds": [3, 0, 3.0],
        "output_dir": str(tmp_path / "sweep"),
    }
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(grid))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "sweep.seeds: seed 3 is given twice" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_run_without_an_under_represented_class_writes_nan_and_null(tmp_path):
    # CSV splits without imbalance or under_classes leave the partition
    # empty, and class 2 has no test row
    rng = derive_rng(4)
    for name, labels in (("train", np.repeat([0, 1, 2], 4)), ("test", np.repeat([0, 1], 4))):
        ds = LabeledDataset(rng.normal(size=(labels.size, 3)), labels, 3)
        save_csv(ds, tmp_path / f"{name}.csv")
    base = _experiment_doc(tmp_path / "unused")
    base["dataset"] = {
        "kind": "csv",
        "train_path": str(tmp_path / "train.csv"),
        "test_path": str(tmp_path / "test.csv"),
        "num_classes": 3,
    }
    base["train"].update(total_epochs=2, defer_epoch=1, lr_milestones=[], eval_every=1)
    grid = {
        "base": base,
        "vary": {"train.loss.lam": [0.5]},
        "seeds": [0],
        "output_dir": str(tmp_path / "sweep"),
    }
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(grid))
    assert main(["sweep", "--config", str(cfg)]) == 0
    [run] = (tmp_path / "sweep").glob("run_*")

    metrics = json.loads((run / "metrics.json").read_text())
    assert metrics["partition"] == [] and metrics["empty_classes"] == [2]
    assert metrics["under_represented_standard"] is None
    assert metrics["under_represented_robust"] is None
    assert metrics["per_class_standard"][2] is None and metrics["per_class_robust"][2] is None

    with (run / "history.csv").open(newline="") as f:
        history = list(csv.DictReader(f))
    assert [r["epoch"] for r in history] == ["1", "2"]
    assert all(r["eval_under_standard"] == r["eval_under_robust"] == "nan" for r in history)

    with (tmp_path / "sweep" / "sweep.csv").open(newline="") as f:
        [row] = csv.DictReader(f)
    assert row["under_standard"] == row["under_robust"] == "nan"
    assert row["per_class_standard"].split(";")[2] == "nan"
    assert row["per_class_robust"].split(";")[2] == "nan"

    assert (run / "per_class.csv").read_text().splitlines()[1:] == [
        f"0,{metrics['per_class_standard'][0]:.2f},{metrics['per_class_robust'][0]:.2f}",
        f"1,{metrics['per_class_standard'][1]:.2f},{metrics['per_class_robust'][1]:.2f}",
        "2,,",
    ]


def _json_accuracy(cell):
    """A table cell read back as metrics.json writes it: nan is null."""
    value = float(cell)
    return None if math.isnan(value) else value


def _weighted_mean(cells, counts, classes):
    """The mean of the per-class accuracy cells of ``classes``, weighted by
    their test-row counts: nan when no test row is behind them."""
    pairs = [(counts[c], float(cells[c])) for c in classes if counts[c]]
    rows = sum(n for n, _ in pairs)
    return sum(n * value for n, value in pairs) / rows if rows else math.nan


def test_sweep_and_history_read_back_each_run_metrics(tmp_path):
    # three classes, class 2 absent from the test split; the first run's
    # partition is classes 1 and 2, the second run's is empty
    rng = derive_rng(6)
    for name, labels in (("train", np.repeat([0, 1, 2], 20)), ("test", np.repeat([0, 1], 30))):
        features = rng.normal(size=(labels.size, 3)) + labels[:, None]
        save_csv(LabeledDataset(features, labels, 3), tmp_path / f"{name}.csv")
    test_counts = (30, 30, 0)
    base = _experiment_doc(tmp_path / "unused")
    base["dataset"] = {
        "kind": "csv",
        "train_path": str(tmp_path / "train.csv"),
        "test_path": str(tmp_path / "test.csv"),
        "num_classes": 3,
    }
    base["train"].update(total_epochs=2, defer_epoch=1, lr_milestones=[], eval_every=1)
    base["eval_attack"] = {"epsilon": 0.8, "step_size": 0.2, "num_steps": 6}
    grid = {
        "base": base,
        "vary": {"dataset.under_classes": [[1, 2], None]},
        "seeds": [0],
        "output_dir": str(tmp_path / "sweep"),
    }
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(grid))
    assert main(["sweep", "--config", str(cfg)]) == 0
    with (tmp_path / "sweep" / "sweep.csv").open(newline="") as f:
        rows = list(csv.DictReader(f))
    runs = [tmp_path / "sweep" / f"run_{i:03d}_seed0" for i in range(2)]
    aggregates = {
        "overall_standard": "overall_standard",
        "overall_robust": "overall_robust",
        "under_standard": "under_represented_standard",
        "under_robust": "under_represented_robust",
    }

    for row, run in zip(rows, runs, strict=True):
        metrics = json.loads((run / "metrics.json").read_text())
        with (run / "history.csv").open(newline="") as f:
            history = list(csv.DictReader(f))
        with (run / "per_class.csv").open(newline="") as f:
            per_class = list(csv.DictReader(f))
        snapshot = history[-1]
        for kind in ("standard", "robust"):
            expected = metrics[f"per_class_{kind}"]
            for table in (row[f"per_class_{kind}"], snapshot[f"eval_per_class_{kind}"]):
                assert [_json_accuracy(c) for c in table.split(";")] == expected
            assert [r[kind] for r in per_class] == [
                "" if v is None else f"{v:.2f}" for v in expected
            ]
        for column, key in aggregates.items():
            assert _json_accuracy(row[column]) == metrics[key]
            assert _json_accuracy(snapshot[f"eval_{column}"]) == metrics[key]

        # every snapshot's aggregates are its per-class accuracies weighted
        # by the test-row counts, over all classes and over the partition;
        # a class without test rows reads nan and weighs nothing
        assert len(history) == 2
        for r in history:
            for kind in ("standard", "robust"):
                cells = r[f"eval_per_class_{kind}"].split(";")
                assert [math.isnan(float(c)) for c in cells] == [n == 0 for n in test_counts]
                for scope, classes in (("overall", range(3)), ("under", metrics["partition"])):
                    mean = _weighted_mean(cells, test_counts, classes)
                    assert float(r[f"eval_{scope}_{kind}"]) == pytest.approx(mean, nan_ok=True)

    # the attack moves what the read-back must tell apart
    first, empty = (json.loads((run / "metrics.json").read_text()) for run in runs)
    assert first["per_class_standard"] != first["per_class_robust"]
    assert first["per_class_standard"][2] is None
    assert first["under_represented_standard"] != first["under_represented_robust"]
    assert empty["partition"] == [] and empty["under_represented_robust"] is None
