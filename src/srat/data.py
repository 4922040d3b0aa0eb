"""Datasets: imbalance construction, synthetic mixture sampling, CSV
ingestion, and deterministic batching.

CSV layout: one header line ``dim=<d>,label_col=<idx>`` followed by rows
of d feature cells plus one integer label cell at the declared column.
Floats are written with shortest round-trip formatting, so a save/load
cycle is bit-exact.
"""

from dataclasses import dataclass
import json
import math

import numpy as np

from srat.errors import DomainError, IngestionError
from srat.rand import derive_rng
from srat.theory import GaussianMixtureSpec

_IMBALANCE_KINDS = ("step", "exp")


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix, integer labels, and per-class counts."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    class_counts: tuple

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if feats.ndim != 2:
            raise DomainError("features must be a 2-D matrix")
        if labels.shape != (feats.shape[0],):
            raise DomainError("labels must be one integer per feature row")
        if not np.issubdtype(labels.dtype, np.integer):
            raise DomainError("labels must be integers")
        if self.num_classes < 1:
            raise DomainError("num_classes must be >= 1")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise DomainError("labels out of range")
        counts = tuple(
            int(c) for c in np.bincount(labels, minlength=self.num_classes)
        )
        if tuple(self.class_counts) != counts:
            raise DomainError("class_counts do not match the labels")
        labels = labels.astype(np.int64)
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_counts", counts)

    @classmethod
    def from_arrays(cls, features, labels, num_classes=None) -> "LabeledDataset":
        labels = np.asarray(labels)
        if num_classes is None:
            num_classes = int(labels.max()) + 1 if labels.size else 1
        counts = tuple(int(c) for c in np.bincount(labels, minlength=num_classes))
        return cls(features, labels, int(num_classes), counts)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        indices = np.asarray(indices)
        return LabeledDataset.from_arrays(
            self.features[indices], self.labels[indices], self.num_classes
        )


@dataclass(frozen=True)
class ImbalanceSpec:
    """How to shrink a balanced dataset: step or exponential profile with
    head/tail count ratio ``ratio``, starting from ``base_count`` per class."""

    kind: str
    ratio: float
    base_count: int

    def __post_init__(self) -> None:
        if self.kind not in _IMBALANCE_KINDS:
            raise DomainError(f"unknown imbalance kind {self.kind!r}")
        if not self.ratio >= 1:
            raise DomainError("ratio must be >= 1")
        if self.base_count < 1:
            raise DomainError("base_count must be >= 1")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "ratio": self.ratio, "base_count": self.base_count}


def imbalanced_counts(spec: ImbalanceSpec, num_classes: int) -> list[int]:
    """Per-class kept counts.

    step: the first ceil(C/2) classes keep base_count, the rest keep
    round(base_count / ratio). exp: class i keeps round(base_count * t^i)
    with t = ratio^(-1/(C-1)), floored at 1.
    """
    if num_classes < 1:
        raise DomainError("num_classes must be >= 1")
    base, ratio = spec.base_count, spec.ratio
    if ratio > base:
        raise DomainError(
            f"ratio {ratio} exceeds base_count {base}; a class would be empty"
        )
    if spec.kind == "step":
        head = (num_classes + 1) // 2
        reduced = max(1, round(base / ratio))
        return [base if i < head else reduced for i in range(num_classes)]
    if num_classes == 1:
        if ratio != 1:
            raise DomainError("exp imbalance with one class requires ratio = 1")
        return [base]
    decay = ratio ** (-1.0 / (num_classes - 1))
    return [max(1, round(base * decay**i)) for i in range(num_classes)]


def reduced_classes(spec: ImbalanceSpec, num_classes: int) -> list[int]:
    """The under-represented set: the floor(C/2) least frequent classes.

    Both profiles order counts non-increasingly by class index, so this is
    the tail of the class range. For the step profile it coincides with
    the classes whose counts were cut; for the exponential profile the
    mildly-shrunk head classes still count as well-represented. Empty when
    ratio is 1 (nothing was reduced).
    """
    imbalanced_counts(spec, num_classes)  # validates the profile
    if spec.ratio == 1:
        return []
    head = (num_classes + 1) // 2
    return list(range(head, num_classes))


def apply_imbalance(
    dataset: LabeledDataset, spec: ImbalanceSpec, seed: int
) -> LabeledDataset:
    """Subsample a balanced dataset down to the imbalance profile.

    Kept examples per class are a seeded draw without replacement; row
    order of the survivors follows the original dataset.
    """
    if any(c != spec.base_count for c in dataset.class_counts):
        raise DomainError(
            "apply_imbalance expects a balanced dataset with base_count rows per class"
        )
    targets = imbalanced_counts(spec, dataset.num_classes)
    keep: list[np.ndarray] = []
    for c, target in enumerate(targets):
        members = np.flatnonzero(dataset.labels == c)
        if target < len(members):
            rng = derive_rng(seed, c)
            members = rng.choice(members, size=target, replace=False)
        keep.append(members)
    order = np.sort(np.concatenate(keep))
    return dataset.subset(order)


def sample_gaussian_mixture(
    spec: GaussianMixtureSpec, n_minority: int, seed: int
) -> LabeledDataset:
    """Draw the binary mixture as a two-class dataset.

    Class 0 is the majority (y = +1, mean +mu) with round(K * n_minority)
    rows; class 1 is the minority (y = -1, mean -mu) with n_minority rows.
    """
    if n_minority < 1:
        raise DomainError("n_minority must be >= 1")
    n_major = int(round(spec.imbalance_ratio * n_minority))
    rng = derive_rng(seed)
    major = spec.eta + spec.sigma * rng.standard_normal((n_major, spec.dim))
    minor = -spec.eta + spec.sigma * rng.standard_normal((n_minority, spec.dim))
    features = np.vstack([major, minor])
    labels = np.concatenate(
        [np.zeros(n_major, dtype=np.int64), np.ones(n_minority, dtype=np.int64)]
    )
    return LabeledDataset.from_arrays(features, labels, num_classes=2)


# ---------------------------------------------------------------------------
# CSV and manifest IO
# ---------------------------------------------------------------------------


def save_csv(dataset: LabeledDataset, path) -> None:
    dim = dataset.dim
    lines = [f"dim={dim},label_col={dim}"]
    for row, label in zip(dataset.features, dataset.labels):
        cells = [repr(float(v)) for v in row]
        cells.append(str(int(label)))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path, num_classes: int | None = None) -> LabeledDataset:
    """Parse a dataset CSV, preserving row order.

    Raises IngestionError naming the offending 1-based file line on ragged
    rows, non-numeric or non-finite cells, or out-of-range labels, and
    naming the file when it is not UTF-8 text.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc})") from exc
    if not lines:
        raise IngestionError(f"{path}: empty file")
    header = lines[0].strip()
    try:
        fields = dict(part.split("=", 1) for part in header.split(","))
        dim = int(fields["dim"])
        label_col = int(fields["label_col"])
    except (ValueError, KeyError) as exc:
        raise IngestionError(f"{path}: line 1: bad header {header!r}") from exc
    if dim < 1 or not 0 <= label_col <= dim:
        raise IngestionError(f"{path}: line 1: inconsistent header {header!r}")

    features, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise IngestionError(
                f"{path}: line {lineno}: expected {dim + 1} cells, got {len(cells)}"
            )
        try:
            label = int(cells[label_col])
            row = [float(c) for c in cells[:label_col] + cells[label_col + 1 :]]
        except ValueError as exc:
            raise IngestionError(f"{path}: line {lineno}: non-numeric cell") from exc
        if not all(map(math.isfinite, row)):
            raise IngestionError(f"{path}: line {lineno}: non-finite cell")
        features.append(row)
        labels.append(label)
    if not features:
        raise IngestionError(f"{path}: no data rows")
    labels_arr = np.asarray(labels, dtype=np.int64)
    if labels_arr.min() < 0:
        bad = int(np.flatnonzero(labels_arr < 0)[0]) + 2
        raise IngestionError(f"{path}: line {bad}: negative label")
    if num_classes is not None and labels_arr.max() >= num_classes:
        bad = int(np.flatnonzero(labels_arr >= num_classes)[0]) + 2
        raise IngestionError(f"{path}: line {bad}: label out of range")
    return LabeledDataset.from_arrays(
        np.asarray(features, dtype=np.float64), labels_arr, num_classes
    )


def write_manifest(path, dataset: LabeledDataset, seed: int, imbalance=None, extra=None):
    manifest = {
        "num_examples": len(dataset),
        "dim": dataset.dim,
        "num_classes": dataset.num_classes,
        "class_counts": list(dataset.class_counts),
        "seed": seed,
        "imbalance": imbalance.to_dict() if imbalance is not None else None,
    }
    if extra:
        manifest.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def batches(dataset: LabeledDataset, batch_size: int, epoch_seed) -> list[np.ndarray]:
    """Seeded permutation of the dataset split into index slices; the last
    partial batch is kept. ``epoch_seed`` is an int or a stream key tuple."""
    if batch_size < 1:
        raise DomainError("batch_size must be >= 1")
    key = epoch_seed if isinstance(epoch_seed, (tuple, list)) else (epoch_seed,)
    perm = derive_rng(*key).permutation(len(dataset))
    return [perm[i : i + batch_size] for i in range(0, len(dataset), batch_size)]
