"""Imbalance construction, mixture sampling, CSV ingestion, batching."""

import json

import numpy as np
import pytest

from srat.data import (
    ImbalanceSpec,
    LabeledDataset,
    apply_imbalance,
    batches,
    imbalanced_counts,
    load_csv,
    reduced_classes,
    sample_gaussian_mixture,
    save_csv,
    write_manifest,
)
from srat.errors import DomainError, IngestionError
from srat.rand import derive_rng
from srat.theory import GaussianMixtureSpec


def _balanced(num_classes, per_class, dim=2, seed=0):
    rng = derive_rng(seed)
    n = num_classes * per_class
    features = rng.normal(size=(n, dim))
    labels = np.repeat(np.arange(num_classes), per_class)
    return LabeledDataset.from_arrays(features, labels, num_classes)


# ---------------------------------------------------------------------------
# imbalance profiles
# ---------------------------------------------------------------------------


def test_step_profile_matches_published_construction():
    spec = ImbalanceSpec("step", 100.0, 5000)
    counts = imbalanced_counts(spec, 10)
    assert counts == [5000] * 5 + [50] * 5
    assert reduced_classes(spec, 10) == [5, 6, 7, 8, 9]


def test_exp_profile_endpoint_and_midpoint():
    spec = ImbalanceSpec("exp", 100.0, 5000)
    counts = imbalanced_counts(spec, 10)
    assert counts[0] == 5000
    assert counts[-1] == 50  # endpoint forced by the count ratio
    # class 5 keeps round(5000 * 100**(-5/9)) = 387
    assert counts[5] == 387
    assert counts == sorted(counts, reverse=True)
    # the under-represented set is the least-frequent half, not every
    # class the decay touched
    assert reduced_classes(spec, 10) == [5, 6, 7, 8, 9]


def test_ratio_one_profiles_are_noops():
    for kind in ("step", "exp"):
        spec = ImbalanceSpec(kind, 1.0, 40)
        assert imbalanced_counts(spec, 6) == [40] * 6
        assert reduced_classes(spec, 6) == []


def test_apply_imbalance_counts_and_reproducibility():
    ds = _balanced(4, 60)
    spec = ImbalanceSpec("step", 10.0, 60)
    a = apply_imbalance(ds, spec, seed=3)
    b = apply_imbalance(ds, spec, seed=3)
    c = apply_imbalance(ds, spec, seed=4)
    assert a.class_counts == (60, 60, 6, 6)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_apply_imbalance_subsamples_without_replacement():
    ds = _balanced(2, 30, dim=1)
    spec = ImbalanceSpec("step", 15.0, 30)
    shrunk = apply_imbalance(ds, spec, seed=1)
    kept = shrunk.features[shrunk.labels == 1].ravel()
    original = ds.features[ds.labels == 1].ravel()
    assert len(np.unique(kept)) == len(kept)
    assert np.isin(kept, original).all()


def test_apply_imbalance_requires_balanced_input():
    ds = _balanced(2, 10)
    shrunk = ds.subset(np.arange(15))
    with pytest.raises(DomainError):
        apply_imbalance(shrunk, ImbalanceSpec("step", 2.0, 10), seed=0)


def test_ratio_larger_than_base_count_is_rejected():
    with pytest.raises(DomainError):
        imbalanced_counts(ImbalanceSpec("step", 20.0, 10), 4)


# ---------------------------------------------------------------------------
# Gaussian mixture sampling
# ---------------------------------------------------------------------------


def test_mixture_counts_and_label_convention():
    spec = GaussianMixtureSpec(1.0, 1.0, 3, 4.0)
    ds = sample_gaussian_mixture(spec, 10, seed=0)
    assert ds.class_counts == (40, 10)
    assert ds.num_classes == 2
    # class 0 rows sit at +mu, class 1 rows at -mu
    assert ds.features[ds.labels == 0].mean() > 0
    assert ds.features[ds.labels == 1].mean() < 0


def test_mixture_empirical_means_within_clt_bound():
    spec = GaussianMixtureSpec(1.0, 1.0, 4, 1.0)
    ds = sample_gaussian_mixture(spec, 1000, seed=5)
    bound = 4.0 * spec.sigma / np.sqrt(1000)
    for cls, sign in ((0, 1.0), (1, -1.0)):
        means = ds.features[ds.labels == cls].mean(axis=0)
        assert np.abs(means - sign * spec.eta).max() <= bound


def test_mixture_sigma_to_zero_is_separable():
    spec = GaussianMixtureSpec(1.0, 1e-9, 5, 3.0)
    ds = sample_gaussian_mixture(spec, 20, seed=1)
    scores = ds.features.sum(axis=1)  # all-ones classifier, zero bias
    predicted = np.where(scores > 0, 0, 1)
    assert np.array_equal(predicted, ds.labels)
    np.testing.assert_allclose(
        np.abs(ds.features), spec.eta, atol=1e-7
    )


def test_mixture_is_deterministic_per_seed():
    spec = GaussianMixtureSpec(1.0, 2.0, 2, 5.0)
    a = sample_gaussian_mixture(spec, 8, seed=9)
    b = sample_gaussian_mixture(spec, 8, seed=9)
    assert np.array_equal(a.features, b.features)


# ---------------------------------------------------------------------------
# CSV round trip and errors
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = derive_rng(13)
    ds = LabeledDataset.from_arrays(
        rng.normal(size=(3, 4)) * 1e-7, np.array([0, 1, 0]), 2
    )
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    loaded = load_csv(path)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)
    # a second save produces identical bytes
    again = tmp_path / "again.csv"
    save_csv(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_csv_reports_ragged_row_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("dim=2,label_col=2\n1.0,2.0,0\n1.0,0\n")
    with pytest.raises(IngestionError, match="line 3"):
        load_csv(path)


def test_csv_reports_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("dim=2,label_col=2\n1.0,x,0\n")
    with pytest.raises(IngestionError, match="line 2"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
def test_csv_reports_non_finite_cell(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"dim=2,label_col=2\n1.0,2.0,0\n1.0,{cell},1\n")
    with pytest.raises(IngestionError, match="line 3: non-finite"):
        load_csv(path)


def test_csv_reports_label_out_of_range(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("dim=1,label_col=1\n1.0,0\n2.0,7\n")
    with pytest.raises(IngestionError, match="line 3"):
        load_csv(path, num_classes=2)


def test_csv_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("dims=2\n1.0,2.0,0\n")
    with pytest.raises(IngestionError, match="line 1"):
        load_csv(path)


def test_manifest_contents(tmp_path):
    ds = _balanced(3, 5)
    spec = ImbalanceSpec("exp", 5.0, 5)
    path = tmp_path / "manifest.json"
    write_manifest(path, ds, seed=7, imbalance=spec)
    doc = json.loads(path.read_text())
    assert doc["class_counts"] == [5, 5, 5]
    assert doc["imbalance"]["kind"] == "exp"
    assert doc["seed"] == 7


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def test_single_batch_is_a_permutation():
    ds = _balanced(2, 5)
    out = batches(ds, 100, epoch_seed=0)
    assert len(out) == 1
    assert np.array_equal(np.sort(out[0]), np.arange(10))


def test_batches_cover_dataset_and_keep_partial_tail():
    ds = _balanced(2, 5)
    out = batches(ds, 4, epoch_seed=1)
    assert [len(b) for b in out] == [4, 4, 2]
    assert np.array_equal(np.sort(np.concatenate(out)), np.arange(10))


def test_batches_deterministic_per_seed():
    ds = _balanced(2, 8)
    a = batches(ds, 3, epoch_seed=5)
    b = batches(ds, 3, epoch_seed=5)
    c = batches(ds, 3, epoch_seed=6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_dataset_validation():
    with pytest.raises(DomainError):
        LabeledDataset.from_arrays(np.zeros((2, 2)), np.array([0, 5]), 2)
    with pytest.raises(DomainError):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 1]), 2, (2, 0))
