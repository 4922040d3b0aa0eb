"""Reference ``evaluate`` and ``export_features``, kept as they were before
``srat.evaluation`` walked the data in one pass per chunk: a prediction
loop, a full-size adversarial array built by its own loop, a Python mask
loop over the classes and a mask per aggregate accuracy. The chunk size
is an argument here, where ``srat.evaluation`` reads ``_EVAL_CHUNK``; with
the same size the one-pass versions must match these bit for bit."""

import numpy as np

from srat.attack import pgd_attack
from srat.evaluation import EvalReport
from srat.losses import PredictionLoss
from srat.mlp import forward


def _predict(model, features, chunk):
    preds = []
    for start in range(0, features.shape[0], chunk):
        logits = forward(model, features[start : start + chunk]).logits
        preds.append(np.argmax(logits, axis=1))
    return np.concatenate(preds)


def _adversarial(model, test_set, attack_config, seed, chunk):
    out = np.empty_like(test_set.features)
    for start in range(0, len(test_set), chunk):
        stop = start + chunk
        out[start:stop] = pgd_attack(
            model,
            PredictionLoss(),
            test_set.features[start:stop],
            test_set.labels[start:stop],
            attack_config,
            seed=(seed, start),
        )
    return out


def _subgroup_accuracy(correct, mask):
    total = int(mask.sum())
    if total == 0:
        return float("nan")
    return 100.0 * float(correct[mask].sum()) / total


def evaluate(model, test_set, attack_config, partition, seed, chunk):
    partition = tuple(int(c) for c in partition)
    clean_preds = _predict(model, test_set.features, chunk)
    adv = _adversarial(model, test_set, attack_config, seed, chunk)
    robust_preds = _predict(model, adv, chunk)

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


def export_features(model, dataset, path, attack_config, seed, chunk):
    inputs = dataset.features
    if attack_config is not None:
        inputs = _adversarial(model, dataset, attack_config, seed, chunk)
    lines = []
    for start in range(0, len(dataset), chunk):
        feats = forward(model, inputs[start : start + chunk]).features
        for label, row in zip(dataset.labels[start : start + chunk], feats):
            lines.append(",".join([str(int(label)), *(repr(float(v)) for v in row)]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
