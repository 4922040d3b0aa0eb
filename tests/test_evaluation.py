"""Accuracy reports and feature export."""

import numpy as np
import pytest

from srat.attack import AttackConfig
from srat.data import LabeledDataset, sample_gaussian_mixture
from srat.errors import DomainError
from srat.evaluation import evaluate, export_features, per_class_csv
from srat.mlp import MlpModel, build_mlp
from srat.rand import derive_rng
from srat.theory import GaussianMixtureSpec

NO_ATTACK = AttackConfig(epsilon=0.0, step_size=0.1, num_steps=0, random_start=False)


def _mixture_classifier_model(dim):
    """Linear model realizing the all-ones zero-bias mixture rule with the
    dataset convention class 0 = +mu, class 1 = -mu."""
    w = np.ones(dim)
    W = np.column_stack([w / 2.0, -w / 2.0])
    return MlpModel.from_layers([(W, np.zeros(2))])


def test_zero_epsilon_attack_makes_robust_equal_standard():
    ds = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.0, 3, 1.0), 50, seed=0)
    model = build_mlp(3, (8,), 2, seed=1)
    cfg = AttackConfig(epsilon=0.0, step_size=0.1, num_steps=5, random_start=True)
    report = evaluate(model, ds, cfg, partition=[1], seed=0)
    assert report.per_class_standard == report.per_class_robust
    assert report.overall_standard == report.overall_robust


def test_perfect_model_on_separable_mixture_scores_100():
    ds = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1e-9, 4, 1.0), 100, seed=2)
    model = _mixture_classifier_model(4)
    cfg = AttackConfig(epsilon=1e-3, step_size=1e-3, num_steps=3, random_start=True)
    report = evaluate(model, ds, cfg, partition=[1], seed=0)
    assert report.overall_standard == 100.0
    assert report.overall_robust == 100.0
    assert report.per_class_standard == (100.0, 100.0)


def test_untrained_model_near_chance_on_balanced_data():
    rng = derive_rng(3)
    n, c = 3000, 4
    ds = LabeledDataset(rng.normal(size=(n, 6)), rng.integers(0, c, size=n))
    model = build_mlp(6, (8,), c, seed=9)
    report = evaluate(model, ds, NO_ATTACK, partition=[], seed=0)
    stderr = 100.0 * np.sqrt((1 / c) * (1 - 1 / c) / n)
    assert abs(report.overall_standard - 100.0 / c) <= 4 * stderr


def test_aggregation_identities():
    ds = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 2.0, 3, 3.0), 40, seed=4)
    model = build_mlp(3, (6,), 2, seed=5)
    report = evaluate(model, ds, NO_ATTACK, partition=[1], seed=0)
    counts = np.asarray(ds.class_counts, dtype=float)
    per_class = np.asarray(report.per_class_standard)
    weighted = float((per_class * counts).sum() / counts.sum())
    assert report.overall_standard == pytest.approx(weighted, abs=1e-9)
    assert report.under_represented_standard == pytest.approx(
        per_class[1], abs=1e-9
    )
    assert all(0.0 <= v <= 100.0 for v in per_class)


def test_empty_test_class_is_flagged_and_excluded():
    feats = derive_rng(6).normal(size=(10, 2))
    labels = np.zeros(10, dtype=np.int64)  # class 1 absent
    ds = LabeledDataset(feats, labels, 2)
    model = build_mlp(2, (4,), 2, seed=0)
    report = evaluate(model, ds, NO_ATTACK, partition=[1], seed=0)
    assert report.empty_classes == (1,)
    assert np.isnan(report.per_class_standard[1])
    assert np.isnan(report.under_represented_standard)
    assert not np.isnan(report.overall_standard)
    doc = report.to_dict()
    assert doc["per_class_standard"][1] is None


def test_zero_step_attack_keeps_wrong_predictions_wrong():
    # per example: 0 steps + no random start means the robust outcome is
    # exactly the clean outcome, including already-misclassified points
    ds = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 3.0, 2, 1.0), 100, seed=7)
    model = _mixture_classifier_model(2)
    report = evaluate(model, ds, NO_ATTACK, partition=[1], seed=0)
    assert report.per_class_standard == report.per_class_robust
    assert report.overall_standard < 100.0  # sigma is large; some are wrong


def test_partition_validation():
    ds = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.0, 2, 1.0), 5, seed=8)
    model = build_mlp(2, (4,), 2, seed=0)
    with pytest.raises(DomainError):
        evaluate(model, ds, NO_ATTACK, partition=[3], seed=0)


def test_evaluate_refuses_a_missing_attack_config():
    # robust accuracy needs an attack; export_features alone runs without one
    ds = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.0, 3, 1.0), 4, seed=0)
    with pytest.raises(DomainError, match="needs an attack config"):
        evaluate(build_mlp(3, (4,), 2, seed=0), ds, None, [], seed=0)


def test_evaluation_refuses_data_of_another_width(tmp_path):
    # checked once, where the pass enters
    ds = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.0, 3, 1.0), 5, seed=8)
    model = build_mlp(2, (4,), 2, seed=0)
    with pytest.raises(DomainError, match="data of dim 3 does not match model input width 2"):
        evaluate(model, ds, NO_ATTACK, partition=[], seed=0)
    with pytest.raises(DomainError, match="data of dim 3 does not match model input width 2"):
        export_features(model, ds, tmp_path / "features.csv", seed=0)
    assert not (tmp_path / "features.csv").exists()


def test_evaluate_deterministic_given_seed():
    ds = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 2.0, 3, 2.0), 30, seed=9)
    model = build_mlp(3, (6,), 2, seed=1)
    cfg = AttackConfig(epsilon=0.3, step_size=0.1, num_steps=5, random_start=True)
    a = evaluate(model, ds, cfg, partition=[1], seed=11)
    b = evaluate(model, ds, cfg, partition=[1], seed=11)
    assert a == b


# ---------------------------------------------------------------------------
# feature export
# ---------------------------------------------------------------------------


def test_export_row_count_and_determinism(tmp_path):
    ds = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.0, 3, 2.0), 20, seed=10)
    model = build_mlp(3, (5, 4), 2, seed=2)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    export_features(model, ds, first, seed=0)
    export_features(model, ds, second, seed=0)
    lines = first.read_text().splitlines()
    assert len(lines) == len(ds)
    assert first.read_bytes() == second.read_bytes()
    # rows carry the label then the 4 penultimate coordinates, dataset order
    cells = lines[0].split(",")
    assert int(cells[0]) == int(ds.labels[0])
    assert len(cells) == 1 + 4


def test_export_clean_vs_adversarial_differ(tmp_path):
    ds = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.0, 3, 2.0), 20, seed=11)
    model = build_mlp(3, (5, 4), 2, seed=3)
    clean = tmp_path / "clean.csv"
    adv = tmp_path / "adv.csv"
    export_features(model, ds, clean, seed=0)
    export_features(
        model,
        ds,
        adv,
        attack_config=AttackConfig(epsilon=0.3, step_size=0.1, num_steps=5),
        seed=0,
    )
    assert clean.read_bytes() != adv.read_bytes()


def test_per_class_csv_rendering(tmp_path):
    ds = sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.0, 2, 2.0), 25, seed=12)
    model = build_mlp(2, (4,), 2, seed=4)
    report = evaluate(model, ds, NO_ATTACK, partition=[1], seed=0)
    path = tmp_path / "per_class.csv"
    per_class_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "class,standard,robust"
    assert len(lines) == 3
    # two-decimal percent cells
    for cell in lines[1].split(",")[1:]:
        assert len(cell.split(".")[1]) == 2
