"""Per-class and aggregate standard/robust accuracy, plus feature export.

Standard accuracy scores clean argmax predictions; robust accuracy scores
predictions on PGD-perturbed inputs (evaluation attacks use more steps
than training ones). Argmax ties resolve to the lowest class index.
Accuracies are percentages; classes absent from the test set are flagged
and excluded from the per-class means.
"""

from dataclasses import asdict, dataclass
import math

import numpy as np

from srat.attack import AttackConfig, pgd_attack
from srat.data import LabeledDataset
from srat.errors import DomainError
from srat.losses import PredictionLoss
from srat.mlp import MlpModel, forward

_EVAL_CHUNK = 4096


@dataclass(frozen=True)
class EvalReport:
    per_class_standard: tuple  # percent, nan for empty classes
    per_class_robust: tuple
    overall_standard: float
    overall_robust: float
    under_represented_standard: float
    under_represented_robust: float
    partition: tuple  # under-represented class indices
    empty_classes: tuple

    def to_dict(self) -> dict:
        """The fields as JSON values: tuples become lists and NaN None."""
        return {k: _json_value(v) for k, v in asdict(self).items()}


def _json_value(v):
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return None if isinstance(v, float) and math.isnan(v) else v


def _predict(model: MlpModel, features: np.ndarray) -> np.ndarray:
    preds = []
    for start in range(0, features.shape[0], _EVAL_CHUNK):
        logits = forward(model, features[start : start + _EVAL_CHUNK]).logits
        preds.append(np.argmax(logits, axis=1))
    return np.concatenate(preds)


def _adversarial(model, test_set, attack_config, seed):
    out = np.empty_like(test_set.features)
    for start in range(0, len(test_set), _EVAL_CHUNK):
        stop = start + _EVAL_CHUNK
        out[start:stop] = pgd_attack(
            model,
            PredictionLoss(),
            test_set.features[start:stop],
            test_set.labels[start:stop],
            attack_config,
            seed=(seed, start),
        )
    return out


def _subgroup_accuracy(correct: np.ndarray, mask: np.ndarray) -> float:
    total = int(mask.sum())
    if total == 0:
        return float("nan")
    return 100.0 * float(correct[mask].sum()) / total


def evaluate(
    model: MlpModel,
    test_set: LabeledDataset,
    attack_config: AttackConfig,
    partition,
    seed: int = 0,
) -> EvalReport:
    """Score the model; ``partition`` lists the under-represented classes.

    Robust predictions come from a cross-entropy PGD attack configured by
    ``attack_config``; the ``seed`` pins its randomness so repeated
    evaluations are identical.
    """
    partition = tuple(int(c) for c in partition)
    if any(not 0 <= c < test_set.num_classes for c in partition):
        raise DomainError("partition contains class indices outside the test set")

    clean_preds = _predict(model, test_set.features)
    adv = _adversarial(model, test_set, attack_config, seed)
    robust_preds = _predict(model, adv)

    labels = test_set.labels
    clean_ok = clean_preds == labels
    robust_ok = robust_preds == labels

    per_std, per_rob, empty = [], [], []
    for c in range(test_set.num_classes):
        mask = labels == c
        if not mask.any():
            empty.append(c)
            per_std.append(float("nan"))
            per_rob.append(float("nan"))
            continue
        per_std.append(_subgroup_accuracy(clean_ok, mask))
        per_rob.append(_subgroup_accuracy(robust_ok, mask))

    under_mask = np.isin(labels, partition)
    return EvalReport(
        per_class_standard=tuple(per_std),
        per_class_robust=tuple(per_rob),
        overall_standard=_subgroup_accuracy(clean_ok, np.ones_like(clean_ok)),
        overall_robust=_subgroup_accuracy(robust_ok, np.ones_like(robust_ok)),
        under_represented_standard=_subgroup_accuracy(clean_ok, under_mask),
        under_represented_robust=_subgroup_accuracy(robust_ok, under_mask),
        partition=partition,
        empty_classes=tuple(empty),
    )


def per_class_csv(report: EvalReport, path) -> None:
    """Two-decimal percent table, one row per class."""
    lines = ["class,standard,robust"]
    for c, (s, r) in enumerate(
        zip(report.per_class_standard, report.per_class_robust)
    ):
        s_txt = "" if np.isnan(s) else f"{s:.2f}"
        r_txt = "" if np.isnan(r) else f"{r:.2f}"
        lines.append(f"{c},{s_txt},{r_txt}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def export_features(
    model: MlpModel,
    dataset: LabeledDataset,
    path,
    attack_config: AttackConfig | None = None,
    seed: int = 0,
) -> None:
    """Write penultimate-layer features as CSV rows: label, then
    coordinates, in dataset order. With an attack config the features of
    the perturbed inputs are exported instead."""
    inputs = dataset.features
    if attack_config is not None:
        inputs = _adversarial(model, dataset, attack_config, seed)
    lines = []
    for start in range(0, len(dataset), _EVAL_CHUNK):
        feats = forward(model, inputs[start : start + _EVAL_CHUNK]).features
        for label, row in zip(dataset.labels[start : start + _EVAL_CHUNK], feats):
            lines.append(",".join([str(int(label)), *(repr(float(v)) for v in row)]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
