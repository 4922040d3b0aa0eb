"""Two-phase adversarial training with deferred reweighting.

Each batch regenerates adversarial examples from the current model, then
takes one SGD step on the combined objective. Class weights are uniform
until the deferred epoch and switch to the configured scheme from there
on; the learning rate is multiplied by the decay factor at each milestone
epoch. Runs are bit-reproducible: every random decision flows through a
stream derived from the config seed.
"""

from dataclasses import dataclass, field
import csv
import math

import numpy as np

from srat.attack import AttackConfig, pgd_attack
from srat.data import LabeledDataset, batches
from srat.errors import AttackError, DomainError, TrainingError
from srat.losses import (
    ClassWeights,
    LossConfig,
    combined_objective,
    effective_number_weights,
)
from srat.mlp import (
    ModelSpec,
    backward,
    build_mlp,
    forward,
    sgd_step,
    zero_grads,
)

_WEIGHTINGS = ("none", "class_balanced", "manual")

# Stream tags for seed derivation; fixed so that reruns reproduce bits.
STREAM_MODEL_INIT = 1
STREAM_SHUFFLE = 2
STREAM_ATTACK = 3
STREAM_EVAL = 4


@dataclass(frozen=True)
class TrainConfig:
    """All training knobs for one run."""

    total_epochs: int
    defer_epoch: int
    batch_size: int
    lr: float
    loss: LossConfig
    attack: AttackConfig
    lr_milestones: tuple[int, ...] = ()
    lr_decay: float = 0.1
    weighting: str = "none"
    manual_weights: tuple[float, ...] | None = None
    momentum: float = 0.0
    seed: int = 0
    eval_every: int = 10

    def __post_init__(self) -> None:
        if self.total_epochs < 1:
            raise DomainError("total_epochs must be >= 1")
        if not 1 <= self.defer_epoch <= self.total_epochs + 1:
            raise DomainError("defer_epoch must lie in [1, total_epochs + 1]")
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise DomainError("lr must be > 0")
        if not 0.0 < self.lr_decay < 1.0:
            raise DomainError("lr_decay must lie in (0, 1)")
        if self.weighting not in _WEIGHTINGS:
            raise DomainError(f"unknown weighting {self.weighting!r}")
        if (self.weighting == "manual") != (self.manual_weights is not None):
            raise DomainError("manual_weights must be given exactly when weighting='manual'")
        if not 0.0 <= self.momentum < 1.0:
            raise DomainError("momentum must lie in [0, 1)")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        if self.eval_every < 1:
            raise DomainError("eval_every must be >= 1")
        object.__setattr__(self, "lr_milestones", tuple(int(m) for m in self.lr_milestones))
        if self.manual_weights is not None:
            object.__setattr__(
                self, "manual_weights", tuple(float(w) for w in self.manual_weights)
            )


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    phase: str  # "pre_defer" | "post_defer"
    lr: float
    prediction_loss: float
    separation_loss: float
    class_weights: tuple
    eval: dict | None = None


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self, path) -> None:
        eval_keys = sorted(
            {k for r in self.records if r.eval for k in r.eval}
        )
        fieldnames = [
            "epoch",
            "phase",
            "lr",
            "prediction_loss",
            "separation_loss",
            "class_weights",
            *(f"eval_{k}" for k in eval_keys),
        ]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            for r in self.records:
                row = {
                    "epoch": r.epoch,
                    "phase": r.phase,
                    "lr": repr(r.lr),
                    "prediction_loss": repr(r.prediction_loss),
                    "separation_loss": repr(r.separation_loss),
                    "class_weights": ";".join(repr(w) for w in r.class_weights),
                }
                for k in eval_keys:
                    row[f"eval_{k}"] = (
                        repr(r.eval[k]) if r.eval and k in r.eval else ""
                    )
                writer.writerow(row)


def weight_schedule(config: TrainConfig, epoch: int, class_counts) -> ClassWeights:
    """Class weights for ``epoch``: uniform before ``config.defer_epoch``
    (and throughout under weighting 'none'), then effective-number
    class-balanced or the normalized manual weights."""
    if config.weighting == "none" or epoch < config.defer_epoch:
        return ClassWeights.uniform(len(class_counts))
    if config.weighting == "class_balanced":
        return effective_number_weights(class_counts, config.loss.cb_beta)
    return ClassWeights.normalized(np.asarray(config.manual_weights))


def _epoch_lr(config: TrainConfig, epoch: int) -> float:
    passed = sum(1 for m in config.lr_milestones if m <= epoch)
    return config.lr * config.lr_decay**passed


def train_srat(
    dataset: LabeledDataset,
    model_spec: ModelSpec,
    config: TrainConfig,
    eval_fn=None,
):
    """Run the full schedule and return (model, history).

    ``eval_fn(model, epoch) -> dict`` is invoked every ``eval_every``
    epochs (and at the last epoch) and its result is stored in the
    history record.
    """
    if len(dataset) == 0:
        raise DomainError("dataset is empty")
    if config.manual_weights is not None and len(config.manual_weights) != dataset.num_classes:
        raise DomainError("manual_weights length must equal the number of classes")

    model = build_mlp(
        dataset.dim,
        model_spec.hidden,
        dataset.num_classes,
        seed=(config.seed, STREAM_MODEL_INIT),
    )
    counts = dataset.class_counts
    velocity = zero_grads(model) if config.momentum > 0 else None
    history = TrainHistory()

    for epoch in range(1, config.total_epochs + 1):
        lr = _epoch_lr(config, epoch)
        weights = weight_schedule(config, epoch, counts)
        epoch_batches = batches(
            dataset, config.batch_size, (config.seed, STREAM_SHUFFLE, epoch)
        )
        pred_sum = 0.0
        sep_sum = 0.0
        for b_idx, idx in enumerate(epoch_batches):
            xb = dataset.features[idx]
            yb = dataset.labels[idx]
            try:
                adv = pgd_attack(
                    model,
                    config.loss,
                    xb,
                    yb,
                    config.attack,
                    seed=(config.seed, STREAM_ATTACK, epoch, b_idx),
                    class_counts=counts,
                )
                if np.abs(adv - xb).max() > config.attack.epsilon * (1 + 1e-12) + 1e-300:
                    raise TrainingError("attack left the epsilon ball")
                trace = forward(model, adv)
                obj = combined_objective(
                    trace.logits, trace.features, yb, weights, config.loss, counts
                )
                if not math.isfinite(obj.total):
                    raise TrainingError("non-finite loss")
                d_feats = obj.d_features if config.loss.lam != 0 else None
                grads, _ = backward(model, trace, obj.d_logits, d_feats)
                if velocity is not None:
                    velocity = [
                        (config.momentum * vw + dw, config.momentum * vb + db)
                        for (vw, vb), (dw, db) in zip(velocity, grads)
                    ]
                    grads = velocity
                model = sgd_step(model, grads, lr)
            except (AttackError, TrainingError) as exc:
                raise TrainingError(f"{exc} at epoch {epoch} batch {b_idx}") from exc
            pred_sum += obj.prediction
            sep_sum += obj.separation

        snapshot = None
        if eval_fn is not None and (
            epoch % config.eval_every == 0 or epoch == config.total_epochs
        ):
            snapshot = eval_fn(model, epoch)
        history.append(
            EpochRecord(
                epoch=epoch,
                phase="pre_defer" if epoch < config.defer_epoch else "post_defer",
                lr=lr,
                prediction_loss=pred_sum / len(epoch_batches),
                separation_loss=sep_sum / len(epoch_batches),
                class_weights=tuple(float(w) for w in weights.weights),
                eval=snapshot,
            )
        )
    return model, history
