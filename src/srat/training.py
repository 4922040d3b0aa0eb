"""Two-phase adversarial training with deferred reweighting.

Each batch regenerates adversarial examples from the current model, then
takes one SGD step on the combined objective. Class weights are uniform
until the deferred epoch and switch to the configured scheme from there
on; the learning rate is multiplied by the decay factor at each milestone
epoch. Runs are bit-reproducible: every random decision flows through a
stream derived from the config seed.
"""

from dataclasses import asdict, dataclass
import math

import numpy as np

from srat.attack import AttackConfig, pgd_attack
from srat.data import LabeledDataset, batches, write_rows
from srat.errors import AttackError, DomainError, TrainingError
from srat.losses import (
    ClassWeights,
    LossConfig,
    PredictionLoss,
    combined_objective,
    effective_number_weights,
)
from srat.mlp import ModelSpec, backward, build_mlp, forward, sgd_step

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
    weighting: str
    seed: int
    lr_milestones: tuple[int, ...] = ()
    lr_decay: float = 0.1
    manual_weights: tuple[float, ...] | None = None
    momentum: float = 0.0
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
        if self.manual_weights is not None:  # start_run checks the values with ClassWeights
            object.__setattr__(self, "manual_weights", tuple(self.manual_weights))
        if not 0.0 <= self.momentum < 1.0:
            raise DomainError("momentum must lie in [0, 1)")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        if self.eval_every < 1:
            raise DomainError("eval_every must be >= 1")
        object.__setattr__(self, "lr_milestones", tuple(int(m) for m in self.lr_milestones))


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    phase: str  # "pre_defer" | "post_defer"
    lr: float
    prediction_loss: float
    separation_loss: float
    class_weights: tuple
    eval: dict | None = None


def write_history(records, path) -> None:
    """Write ``history.csv``: one row of fields per epoch record, with the
    evaluation snapshot spread over ``eval_<key>`` columns, blank where an
    epoch has no snapshot."""
    eval_keys = sorted({k for r in records if r.eval for k in r.eval})
    rows = []
    for r in records:
        row = asdict(r)
        snapshot = row.pop("eval") or {}
        rows.append(row | {f"eval_{k}": snapshot.get(k, "") for k in eval_keys})
    write_rows(path, rows)


def start_run(dataset: LabeledDataset, model_spec: ModelSpec, config: TrainConfig):
    """(model, loss, deferred) of a run of ``config`` on ``dataset``: the
    seeded initial model, the prediction loss and the class weights from
    ``config.defer_epoch`` on (uniform under weighting 'none'), built from
    the dataset so that every batch fits them.

    This is the one check of the data against the run: the dataset is not
    empty, the loss settings suit its class counts and the attack box
    contains it. A refusal raises DomainError naming its key in the
    ``train`` section of an experiment config.
    """
    if len(dataset) == 0:
        raise DomainError("dataset is empty")
    counts = dataset.class_counts
    if 0 in counts and config.loss.kind == "ldam":
        raise DomainError("train.loss.kind: 'ldam' needs a training row of every class")
    loss = PredictionLoss.resolve(config.loss, counts)
    if config.weighting == "none":
        deferred = ClassWeights.uniform(len(counts))
    elif config.weighting == "manual":
        try:
            if len(config.manual_weights) != len(counts):
                raise DomainError(f"{len(config.manual_weights)} weights for {len(counts)} classes")
            deferred = ClassWeights(config.manual_weights)
        except DomainError as exc:
            raise DomainError(f"train.manual_weights: {exc}") from None
    elif 0 in counts:
        raise DomainError("train.weighting: 'class_balanced' needs a training row of every class")
    else:
        deferred = effective_number_weights(counts, config.loss.cb_beta)
    config.attack.check_box(dataset.features, "train.attack")
    model = build_mlp(
        dataset.dim, model_spec.hidden, dataset.num_classes, seed=(config.seed, STREAM_MODEL_INIT)
    )
    return model, loss, deferred


def _train_batch(xb, yb, model, velocity, config, loss, weights, lr, seed):
    """One training step on the rows ``xb`` with labels ``yb``: a PGD attack
    drawn with ``seed``, the combined objective on the adversarial rows and
    a heavy-ball update at ``lr``. Returns (model, velocity, ObjectiveValue).
    """
    adv = pgd_attack(model, loss, xb, yb, config.attack, seed)
    trace = forward(model, adv)
    obj = combined_objective(trace.logits, trace.features, yb, weights, config.loss, loss)
    if not math.isfinite(obj.total):
        raise TrainingError("non-finite loss")
    grads, _ = backward(model, trace, obj.d_logits, obj.d_features)
    velocity = config.momentum * velocity + grads
    return sgd_step(model, velocity, lr), velocity, obj


# A diverging run is reported once, as a TrainingError from the explicit
# non-finite checks, not as NumPy overflow warnings on the way there.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_srat(
    dataset: LabeledDataset,
    model_spec: ModelSpec,
    config: TrainConfig,
    eval_fn=None,
):
    """Run the full schedule and return (model, one EpochRecord per epoch).

    ``eval_fn(model, epoch) -> dict`` is invoked every ``eval_every``
    epochs (and at the last epoch) and its result is stored in that
    epoch's record.

    The run starts with ``start_run``, which checks the data against the
    run once. The steps only stop on a fault.
    """
    model, loss, deferred = start_run(dataset, model_spec, config)
    uniform = ClassWeights.uniform(dataset.num_classes)
    # One update path: at momentum 0 the velocity equals the gradient except
    # that a zero may change sign, and the sign of a zero step matters only
    # to a -0.0 parameter, which neither the initialization nor an update
    # produces (x - y is -0.0 only when x is).
    velocity = np.zeros_like(model.params)
    history = []

    for epoch in range(1, config.total_epochs + 1):
        lr = config.lr * config.lr_decay ** sum(1 for m in config.lr_milestones if m <= epoch)
        weights = uniform if epoch < config.defer_epoch else deferred
        epoch_batches = batches(
            dataset, config.batch_size, (config.seed, STREAM_SHUFFLE, epoch)
        )
        pred_sum = 0.0
        sep_sum = 0.0
        for b_idx, idx in enumerate(epoch_batches):
            try:
                model, velocity, obj = _train_batch(
                    dataset.features[idx], dataset.labels[idx], model, velocity, config, loss,
                    weights, lr, (config.seed, STREAM_ATTACK, epoch, b_idx),
                )
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
