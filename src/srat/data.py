"""Datasets: imbalance construction, synthetic mixture sampling, CSV
ingestion, and deterministic batching, plus ``write_json``,
``write_rows`` and ``write_lines``, the one writer each for the
package's JSON files, for its CSV tables keyed by a header of field
names (and of their ``;``-joined list cells) and for its files of
``\n``-ended lines.

CSV layout: one header line ``dim=<d>,label_col=<idx>`` followed by rows
of d feature cells plus one integer label cell at the declared column.
Floats are written with shortest round-trip formatting, so a save/load
cycle is bit-exact.
"""

from dataclasses import dataclass, field
from decimal import Decimal
import csv
import json
import math
import re
import sys

import numpy as np

from srat.errors import DomainError, IngestionError
from srat.rand import derive_rng
from srat.theory import GaussianMixtureSpec

_IMBALANCE_KINDS = ("step", "exp")
# labels are stored as int64
_MAX_LABEL = np.iinfo(np.int64).max
# int() and float() also read digit-group underscores, surrounding blanks
# and non-ASCII digits, which no number that save_csv writes holds; a
# character outside printable ASCII (a blank is one) or an underscore
_NOT_WRITTEN = re.compile(r"[^!-~]|_")


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix and integer labels over ``num_classes`` classes
    (default: the largest label plus one), with the per-class counts
    derived from the labels."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int | None = None
    class_counts: tuple = field(init=False)

    def __post_init__(self) -> None:
        # a frozen copy: the caller's array stays writable, and later
        # writes to it do not reach the dataset
        feats = np.array(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if feats.ndim != 2:
            raise DomainError("features must be a 2-D matrix")
        if labels.shape != (feats.shape[0],):
            raise DomainError("labels must be one integer per feature row")
        if not np.issubdtype(labels.dtype, np.integer):
            raise DomainError("labels must be integers")
        num_classes = self.num_classes
        if num_classes is None:
            num_classes = int(labels.max()) + 1 if labels.size else 1
        if not 1 <= num_classes <= _MAX_LABEL:  # np.bincount takes a C long
            raise DomainError("num_classes must lie in [1, 2^63)")
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise DomainError("labels out of range")
        counts = tuple(int(c) for c in np.bincount(labels, minlength=num_classes))
        labels = labels.astype(np.int64)
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "num_classes", int(num_classes))
        object.__setattr__(self, "class_counts", counts)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ImbalanceSpec:
    """How to shrink a balanced dataset: step or exponential profile with
    head/tail count ratio ``ratio``, from the dataset's own class size."""

    kind: str
    ratio: float

    def __post_init__(self) -> None:
        if self.kind not in _IMBALANCE_KINDS:
            raise DomainError(f"unknown imbalance kind {self.kind!r}")
        if not self.ratio >= 1:
            raise DomainError("ratio must be >= 1")


def imbalanced_counts(spec: ImbalanceSpec, base: int, num_classes: int) -> list[int]:
    """Per-class kept counts from ``base`` rows per class.

    step: the classes of ``reduced_classes`` keep round(base / ratio), the
    others base. exp: class i keeps round(base * t^i) with
    t = ratio^(-1/(C-1)). One class has no tail to reduce, so both
    profiles take it at ratio 1 only. Since ratio <= base, every count is
    at least 1.
    """
    ratio = spec.ratio
    if ratio > base:
        raise DomainError(
            f"ratio {ratio} exceeds the {base} rows per class; a class would be empty"
        )
    if num_classes == 1:
        if ratio != 1:
            raise DomainError(
                f"imbalance ratio {ratio} needs two or more classes; one class has no tail"
            )
        return [base]
    if spec.kind == "step":
        tail = reduced_classes(spec, num_classes)
        return [round(base / ratio) if i in tail else base for i in range(num_classes)]
    decay = ratio ** (-1.0 / (num_classes - 1))
    return [round(base * decay**i) for i in range(num_classes)]


def reduced_classes(spec: ImbalanceSpec, num_classes: int) -> list[int]:
    """The under-represented set: the floor(C/2) least frequent classes.

    Both profiles order counts non-increasingly by class index, so this is
    the tail of the class range. The step profile cuts exactly these
    classes; for the exponential profile the mildly-shrunk head classes
    still count as well-represented. Empty when ratio is 1 (nothing was
    reduced). ``apply_imbalance`` checks the profile.
    """
    if spec.ratio == 1:
        return []
    head = (num_classes + 1) // 2
    return list(range(head, num_classes))


def apply_imbalance(
    dataset: LabeledDataset, spec: ImbalanceSpec, seed: int
) -> LabeledDataset:
    """Subsample a balanced dataset down to the imbalance profile, whose
    base is the dataset's per-class count; classes that differ in size
    raise DomainError. Each class keeps a draw without replacement on its
    own stream (seed, class); the survivors keep their original row order.
    """
    base = dataset.class_counts[0]
    if any(c != base for c in dataset.class_counts):
        raise DomainError(
            f"expected a balanced dataset, got class counts {list(dataset.class_counts)}"
        )
    targets = imbalanced_counts(spec, base, dataset.num_classes)
    keep: list[np.ndarray] = []
    for c, target in enumerate(targets):
        members = np.flatnonzero(dataset.labels == c)
        rng = derive_rng(seed, c)
        keep.append(rng.choice(members, size=target, replace=False))
    order = np.sort(np.concatenate(keep))
    return LabeledDataset(dataset.features[order], dataset.labels[order], dataset.num_classes)


def sample_gaussian_mixture(
    spec: GaussianMixtureSpec, n_minority: int, seed: int
) -> LabeledDataset:
    """Draw the binary mixture as a two-class dataset.

    Class 0 is the majority (y = +1, mean +mu) with round(K * n_minority)
    rows; class 1 is the minority (y = -1, mean -mu) with n_minority rows.
    Raises DomainError when that row count is not finite or the feature
    matrix has more bytes than NumPy can index.
    """
    if n_minority < 1:
        raise DomainError("n_minority must be >= 1")
    try:
        n_major = int(round(spec.imbalance_ratio * n_minority))
    except OverflowError:  # K * n_minority is inf, or n_minority exceeds a float
        raise DomainError(
            f"the majority row count K * n_minority = {spec.imbalance_ratio} * "
            f"{n_minority} is not finite"
        ) from None
    # NumPy refuses an array of more bytes (8 per float64) than intp holds
    rows = n_major + n_minority
    if rows * spec.dim * 8 > np.iinfo(np.intp).max:
        shown = rows if rows <= sys.float_info.max else Decimal(rows)  # int-safe :.4g
        raise DomainError(f"{shown:.4g} rows of dim {spec.dim} exceed NumPy's array size limit")
    rng = derive_rng(seed)
    major = spec.eta + spec.sigma * rng.standard_normal((n_major, spec.dim))
    minor = -spec.eta + spec.sigma * rng.standard_normal((n_minority, spec.dim))
    features = np.vstack([major, minor])
    labels = np.concatenate(
        [np.zeros(n_major, dtype=np.int64), np.ones(n_minority, dtype=np.int64)]
    )
    return LabeledDataset(features, labels, num_classes=2)


# ---------------------------------------------------------------------------
# CSV and JSON IO
# ---------------------------------------------------------------------------


def write_json(path, doc) -> None:
    """Write ``doc`` as JSON with indent 2, sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_lines(path, lines) -> None:
    """Write the strings ``lines``, each ended by ``\\n``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_rows(path, rows) -> None:
    """Write a non-empty list of dicts as a CSV table whose header is the
    first row's keys. A tuple is written as its items' ``repr``s joined by
    ``;``, any other value with ``str``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {k: ";".join(map(repr, v)) if isinstance(v, tuple) else v for k, v in row.items()}
            )


def save_csv(dataset: LabeledDataset, path) -> None:
    dim = dataset.dim
    lines = [f"dim={dim},label_col={dim}"]
    for row, label in zip(dataset.features, dataset.labels):
        cells = [repr(float(v)) for v in row]
        cells.append(str(int(label)))
        lines.append(",".join(cells))
    write_lines(path, lines)


def load_csv(path, num_classes: int | None = None) -> LabeledDataset:
    """Parse a dataset CSV, preserving row order.

    Raises IngestionError naming the offending 1-based file line on ragged
    rows, non-numeric or non-finite cells, out-of-range labels, or a
    header value or cell with a blank, an underscore or a non-ASCII
    character, and naming the file when it is not UTF-8 text.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc})") from exc
    if not lines:
        raise IngestionError(f"{path}: empty file")
    header = lines[0]
    pairs = [part.split("=", 1) for part in header.split(",")]
    try:
        fields = dict(pairs)
        # two pairs with both keys (no other key, none twice) and values
        # as save_csv writes them
        if len(pairs) != 2 or any(map(_NOT_WRITTEN.search, fields.values())):
            raise KeyError(header)
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
        if _NOT_WRITTEN.search(line):
            raise IngestionError(
                f"{path}: line {lineno}: a cell holds a blank, '_' or a non-ASCII character"
            )
        try:
            label = int(cells[label_col])
            row = [float(c) for c in cells[:label_col] + cells[label_col + 1 :]]
        except ValueError as exc:
            raise IngestionError(f"{path}: line {lineno}: non-numeric cell") from exc
        if not all(map(math.isfinite, row)):
            raise IngestionError(f"{path}: line {lineno}: non-finite cell")
        if label < 0:
            raise IngestionError(f"{path}: line {lineno}: negative label")
        if label > _MAX_LABEL:
            raise IngestionError(f"{path}: line {lineno}: label {label} exceeds int64")
        if num_classes is not None and label >= num_classes:
            raise IngestionError(f"{path}: line {lineno}: label out of range")
        features.append(row)
        labels.append(label)
    if not features:
        raise IngestionError(f"{path}: no data rows")
    return LabeledDataset(
        np.asarray(features, dtype=np.float64),
        np.asarray(labels, dtype=np.int64),
        num_classes,
    )


def batches(dataset: LabeledDataset, batch_size: int, epoch_seed) -> list[np.ndarray]:
    """Seeded permutation of the dataset split into index slices; the last
    partial batch is kept. ``epoch_seed`` is an int or a stream key tuple."""
    if batch_size < 1:
        raise DomainError("batch_size must be >= 1")
    perm = derive_rng(epoch_seed).permutation(len(dataset))
    return [perm[i : i + batch_size] for i in range(0, len(dataset), batch_size)]
