"""Imbalance construction, mixture sampling, CSV ingestion, batching."""

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
)
from srat.errors import DomainError, IngestionError
from srat.rand import derive_rng
from srat.theory import GaussianMixtureSpec


def _balanced(num_classes, per_class, dim=2, seed=0):
    rng = derive_rng(seed)
    n = num_classes * per_class
    features = rng.normal(size=(n, dim))
    labels = np.repeat(np.arange(num_classes), per_class)
    return LabeledDataset(features, labels, num_classes)


# ---------------------------------------------------------------------------
# imbalance profiles
# ---------------------------------------------------------------------------


def test_step_profile_matches_published_construction():
    spec = ImbalanceSpec("step", 100.0)
    counts = imbalanced_counts(spec, 5000, 10)
    assert counts == [5000] * 5 + [50] * 5
    assert reduced_classes(spec, 10) == [5, 6, 7, 8, 9]


def test_exp_profile_endpoint_and_midpoint():
    spec = ImbalanceSpec("exp", 100.0)
    counts = imbalanced_counts(spec, 5000, 10)
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
        spec = ImbalanceSpec(kind, 1.0)
        assert imbalanced_counts(spec, 40, 6) == [40] * 6
        assert reduced_classes(spec, 6) == []


def test_apply_imbalance_counts_and_reproducibility():
    ds = _balanced(4, 60)
    spec = ImbalanceSpec("step", 10.0)
    a = apply_imbalance(ds, spec, seed=3)
    b = apply_imbalance(ds, spec, seed=3)
    c = apply_imbalance(ds, spec, seed=4)
    assert a.class_counts == (60, 60, 6, 6)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_apply_imbalance_subsamples_without_replacement():
    ds = _balanced(2, 30, dim=1)
    spec = ImbalanceSpec("step", 15.0)
    shrunk = apply_imbalance(ds, spec, seed=1)
    kept = shrunk.features[shrunk.labels == 1].ravel()
    original = ds.features[ds.labels == 1].ravel()
    assert len(np.unique(kept)) == len(kept)
    assert np.isin(kept, original).all()


def _interleaved(num_classes, per_class):
    """A balanced dataset whose labels cycle through the classes row by
    row and whose one feature is the row index."""
    n = num_classes * per_class
    return LabeledDataset(np.arange(n, dtype=float)[:, None], np.tile(np.arange(num_classes), per_class))


@pytest.mark.parametrize("kind", ["step", "exp"])
def test_apply_imbalance_keeps_the_input_row_order(kind):
    shrunk = apply_imbalance(_interleaved(4, 60), ImbalanceSpec(kind, 10.0), seed=3)
    assert shrunk.class_counts[-1] == 6
    assert np.all(np.diff(shrunk.features[:, 0]) > 0)


def test_reduced_classes_of_equal_size_draw_their_own_rows():
    shrunk = apply_imbalance(_interleaved(4, 60), ImbalanceSpec("step", 10.0), seed=3)
    # row i is the (i // 4)-th row of its class; each class draws on its
    # own stream, so two classes of one size keep different positions
    positions = {c: (shrunk.features[shrunk.labels == c, 0] // 4).tolist() for c in (2, 3)}
    assert positions == {2: [11, 27, 31, 48, 51, 56], 3: [1, 6, 16, 42, 43, 56]}


def test_apply_imbalance_requires_balanced_input():
    ds = _balanced(2, 10)
    shrunk = LabeledDataset(ds.features[:15], ds.labels[:15], 2)
    message = r"expected a balanced dataset, got class counts \[10, 5\]"
    with pytest.raises(DomainError, match=message):
        apply_imbalance(shrunk, ImbalanceSpec("step", 2.0), seed=0)


@pytest.mark.parametrize("kind", ["step", "exp"])
def test_one_class_takes_ratio_one_only(kind):
    # one class has no tail to reduce: ratio 1 keeps every row, any other
    # ratio is refused, under both profiles alike
    one = _balanced(1, 6)
    kept = apply_imbalance(one, ImbalanceSpec(kind, 1.0), seed=0)
    assert np.array_equal(kept.features, one.features)
    assert reduced_classes(ImbalanceSpec(kind, 2.0), 1) == []
    message = r"imbalance ratio 2\.0 needs two or more classes; one class has no tail"
    with pytest.raises(DomainError, match=message):
        apply_imbalance(one, ImbalanceSpec(kind, 2.0), seed=0)


def test_ratio_larger_than_base_count_is_rejected():
    message = "ratio 20.0 exceeds the 10 rows per class"
    with pytest.raises(DomainError, match=message):
        imbalanced_counts(ImbalanceSpec("step", 20.0), 10, 4)
    with pytest.raises(DomainError, match=message):
        apply_imbalance(_balanced(4, 10), ImbalanceSpec("exp", 20.0), seed=0)
    # up to ratio = base, every class keeps a row: base / ratio >= 1 is the
    # smallest count of both profiles, and rounding cannot take it to 0
    for base in range(1, 61):
        for ratio in {1.0, base ** 0.3, base ** 0.5, base - 0.5, base * (1 - 1e-12), float(base)}:
            if not 1 <= ratio <= base:
                continue
            for kind in ("step", "exp"):
                for num_classes in range(2, 25):
                    counts = imbalanced_counts(ImbalanceSpec(kind, ratio), base, num_classes)
                    assert min(counts) >= 1, (kind, base, ratio, num_classes)


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


@pytest.mark.parametrize(
    "ratio, n_minority, dim, message",
    [
        (1e308, 50, 1, r"K \* n_minority = 1e\+308 \* 50 is not finite"),
        (2.0, 10**400, 1, "is not finite"),
        (1e300, 1, 10, r"1e\+300 rows of dim 10 exceed"),
        (3e17, 1, 4, r"3e\+17 rows of dim 4 exceed"),  # past the byte limit only
        (1.0, 10**308, 1, r"2\.000e\+308 rows of dim 1 exceed"),  # more rows than a float holds
    ],
    ids=[
        "ratio_overflows", "n_minority_beyond_float", "beyond_index_range", "beyond_bytes",
        "rows_beyond_float",
    ],
)
def test_mixture_refuses_a_row_count_numpy_cannot_hold(ratio, n_minority, dim, message):
    with pytest.raises(DomainError, match=message):
        sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.0, dim, ratio), n_minority, seed=0)


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
    ds = LabeledDataset(rng.normal(size=(3, 4)) * 1e-7, np.array([0, 1, 0]), 2)
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
    with pytest.raises(IngestionError, match="line 2: non-numeric cell"):
        load_csv(path)
    # int() and float() read these, but save_csv never writes them
    for row in ("1_0.5,2.0,0", "1.0, 2.0,0", "1.0,2.0 ,0", "1.0,2.0,1_0", "1.0,2.0, 1 ",
                "1.0,2.0,0\t", "\uff11.5,2.0,0", "1.0,2.0,\u0661", "1.0,2.0\u00a0,0"):
        path.write_text(f"dim=2,label_col=2\n1.0,2.0,0\n{row}\n", encoding="utf-8")
        with pytest.raises(IngestionError, match="bad.csv: line 3: a cell holds a blank, '_' or a"):
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


@pytest.mark.parametrize(
    "label, num_classes, message",
    [
        ("-1", None, "line 4: negative label"),
        ("7", 2, "line 4: label out of range"),
        ("99999999999999999999", None, "line 4: label 99999999999999999999 exceeds int64"),
    ],
)
def test_csv_label_errors_count_blank_lines(tmp_path, label, num_classes, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"dim=1,label_col=1\n1.0,0\n\n2.0,{label}\n")
    with pytest.raises(IngestionError, match=message):
        load_csv(path, num_classes=num_classes)


def test_csv_rejects_malformed_header(tmp_path):
    # the header holds exactly the keys dim and label_col, once each
    path = tmp_path / "bad.csv"
    for header in (
        "dims=2",
        "dim=2,label_col=2,foo=1",
        "dim=2,label_col=2,dim=2",
        "dim=2,dim=2",
        "dim=2",
        "dim=2,label_col",
        "dim=1_0,label_col=1_0",
        "dim=2,label_col=2_",
        "dim= 2,label_col=2",
        "dim=2,label_col=2 ",
        " dim=2,label_col=2",
        "dim=2,label_col=\u0662",
    ):
        path.write_text(f"{header}\n1.0,2.0,0\n", encoding="utf-8")
        with pytest.raises(IngestionError, match=f"bad.csv: line 1: bad header '{header}'"):
            load_csv(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty file"),
        ("dim=2,label_col=5\n1.0,2.0,0\n", "line 1: inconsistent header 'dim=2,label_col=5'"),
        ("dim=2,label_col=2\n\n", "no data rows"),
    ],
    ids=["empty", "label_col_past_dim", "header_only"],
)
def test_csv_without_rows_to_read_is_refused_naming_it(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(IngestionError, match=f"bad.csv: {message}"):
        load_csv(path)


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
        LabeledDataset(np.zeros((2, 2)), np.array([0, 5]), 2)
    # the one check of label values: the training and evaluation steps rely on it
    with pytest.raises(DomainError, match="labels must be integers"):
        LabeledDataset(np.zeros((3, 2)), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(DomainError, match="labels out of range"):
        LabeledDataset(np.zeros((3, 2)), np.array([0, -1, 1]))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LabeledDataset(np.zeros(3), [0, 1, 0]), "features must be a 2-D matrix"),
        (lambda: LabeledDataset(np.zeros((3, 2)), [0, 1]), "one integer per feature row"),
        (lambda: LabeledDataset(np.zeros((3, 2)), [[0, 1, 0]]), "one integer per feature row"),
        (
            lambda: sample_gaussian_mixture(GaussianMixtureSpec(1.0, 1.0, 2, 2.0), 0, seed=0),
            "n_minority must be >= 1",
        ),
        (lambda: batches(LabeledDataset(np.zeros((3, 2)), [0, 1, 0]), 0, 0),
         "batch_size must be >= 1"),
    ],
    ids=["features_1d", "labels_short", "labels_2d", "no_minority_row", "batch_size_0"],
)
def test_data_refusals(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_dataset_keeps_a_frozen_copy_of_the_features():
    f = np.zeros((3, 2))
    ds = LabeledDataset(f, [0, 1, 0])
    f[0, 0] = 1.0  # the caller's array stays writable
    assert ds.features[0, 0] == 0.0
    assert not ds.features.flags.writeable
