"""Per-class and aggregate standard/robust accuracy, plus feature export.

Standard accuracy scores clean argmax predictions; robust accuracy scores
predictions on PGD-perturbed inputs (evaluation attacks use more steps
than training ones). Argmax ties resolve to the lowest class index.
Accuracies are percentages; classes absent from the test set are flagged
and excluded from the per-class means.

Both ``evaluate`` and ``export_features`` make one pass over the data in
chunks of ``_EVAL_CHUNK`` rows: each chunk is attacked, if at all, right
before it is scored, and ``evaluate`` adds its hits to one per-class
``np.bincount`` tally from which, with the class counts, every accuracy
is read.
"""

from dataclasses import asdict, dataclass
import math
from pathlib import Path

import numpy as np

from srat.attack import AttackConfig, pgd_attack
from srat.data import LabeledDataset, write_lines
from srat.errors import DomainError, EvaluationError
from srat.losses import PredictionLoss
from srat.mlp import MlpModel, forward

_EVAL_CHUNK = 4096
_CROSS_ENTROPY = PredictionLoss()  # the loss every evaluation attack maximizes


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

    def columns(self) -> dict:
        """The accuracies as the ordered columns of one table row, the
        four aggregates, then the per-class tuples: a ``history.csv``
        snapshot (as ``eval_<column>``) and a ``sweep.csv`` row."""
        return {
            "overall_standard": self.overall_standard,
            "overall_robust": self.overall_robust,
            "under_standard": self.under_represented_standard,
            "under_robust": self.under_represented_robust,
            "per_class_standard": self.per_class_standard,
            "per_class_robust": self.per_class_robust,
        }


def _json_value(v):
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return None if isinstance(v, float) and math.isnan(v) else v


def check_pass(
    model: MlpModel, dataset: LabeledDataset, attack_config, where: str = "attack"
) -> None:
    """Raise DomainError unless an evaluation pass of ``model`` over
    ``dataset`` under ``attack_config`` (or None) can run: the data's width
    must be the model's input width, its labels must index the logits, and
    the attack box must contain it. ``where`` names the attack config in
    the message."""
    if dataset.dim != model.input_dim:
        raise DomainError(
            f"data of dim {dataset.dim} does not match model input width {model.input_dim}"
        )
    if len(dataset) and dataset.labels.max() >= model.num_classes:
        raise DomainError("labels out of range for the logit width")
    if attack_config is not None:
        attack_config.check_box(dataset.features, where)


def _chunks(model: MlpModel, dataset: LabeledDataset, attack_config, seed):
    """Yield (labels, clean rows, PGD rows or None) per ``_EVAL_CHUNK`` rows.

    Each chunk is attacked with cross-entropy PGD under the key
    ``(seed, start)``, so its perturbation does not depend on the others.
    The pass checks its inputs once, with ``check_pass``, before the first
    chunk.
    """
    check_pass(model, dataset, attack_config)
    for start in range(0, len(dataset), _EVAL_CHUNK):
        stop = start + _EVAL_CHUNK
        labels, rows = dataset.labels[start:stop], dataset.features[start:stop]
        adv = None
        if attack_config is not None:
            adv = pgd_attack(
                model, _CROSS_ENTROPY, rows, labels, attack_config, seed=(seed, start)
            )
        yield labels, rows, adv


def _percent(hits, total) -> float:
    return 100.0 * float(hits) / int(total) if total else float("nan")


# Rows too large for the model are reported once, as an EvaluationError
# from the explicit non-finite checks, not as NumPy overflow warnings.
@np.errstate(over="ignore", invalid="ignore")
def evaluate(
    model: MlpModel,
    test_set: LabeledDataset,
    attack_config: AttackConfig,
    partition,
    seed: int,
) -> EvalReport:
    """Score the model; ``partition`` lists the under-represented classes.

    Robust predictions come from a cross-entropy PGD attack configured by
    ``attack_config``; the ``seed`` pins its randomness so repeated
    evaluations are identical. A non-finite logit raises EvaluationError.
    """
    if attack_config is None:
        raise DomainError("evaluate needs an attack config to score robust accuracy")
    partition = tuple(int(c) for c in partition)
    if any(not 0 <= c < test_set.num_classes for c in partition):
        raise DomainError("partition contains class indices outside the test set")

    # clean and robust hits per class
    n = test_set.num_classes
    tally = np.zeros((2, n), dtype=np.int64)
    for labels, rows, adv in _chunks(model, test_set, attack_config, seed):
        for hits, x in zip(tally, (rows, adv)):
            logits = forward(model, x).logits
            if not np.isfinite(logits).all():
                raise EvaluationError("non-finite logits in the evaluation pass")
            preds = np.argmax(logits, axis=1)
            hits += np.bincount(labels[preds == labels], minlength=n)
    std, rob = tally
    totals = np.array(test_set.class_counts)
    under = np.isin(np.arange(n), partition)
    return EvalReport(
        per_class_standard=tuple(map(_percent, std, totals)),
        per_class_robust=tuple(map(_percent, rob, totals)),
        overall_standard=_percent(std.sum(), totals.sum()),
        overall_robust=_percent(rob.sum(), totals.sum()),
        under_represented_standard=_percent(std[under].sum(), totals[under].sum()),
        under_represented_robust=_percent(rob[under].sum(), totals[under].sum()),
        partition=partition,
        empty_classes=tuple(int(c) for c in np.flatnonzero(totals == 0)),
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
    write_lines(path, lines)


@np.errstate(over="ignore", invalid="ignore")
def export_features(
    model: MlpModel,
    dataset: LabeledDataset,
    path,
    attack_config: AttackConfig | None = None,
    *,
    seed: int,
) -> None:
    """Write penultimate-layer features as CSV rows: label, then
    coordinates, in dataset order. With an attack config the features of
    the perturbed inputs are exported instead; a non-finite one raises
    EvaluationError. The parent directory of ``path`` is made once the
    pass has checked the inputs."""
    lines = []
    for labels, rows, adv in _chunks(model, dataset, attack_config, seed):
        feats = forward(model, rows if adv is None else adv).features
        if not np.isfinite(feats).all():
            raise EvaluationError("non-finite features in the export pass")
        for label, row in zip(labels, feats):
            lines.append(",".join([str(int(label)), *(repr(float(v)) for v in row)]))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_lines(path, lines)
