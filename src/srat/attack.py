"""l-infinity projected gradient ascent on a prediction loss.

The iteration is x <- project(x + step * sign(grad_x loss)), where the
projection clips x into the epsilon ball around the clean input, cut by
the data-domain box [clip_min, clip_max], whose open sides are stored as
-inf and inf. sign(0) is 0, so coordinates with zero gradient never
move. Given a seed the attack is fully deterministic, including the
optional uniform random start inside the ball. The gradient comes from
the softmax that ``srat.losses`` shares with every prediction loss: on
cross-entropy a step reads only its softmax minus one-hot, on focal and
LDAM the full ``prediction_loss``.
"""

from dataclasses import dataclass
import math

import numpy as np

from srat.errors import AttackError, DomainError
from srat.losses import ClassWeights, PredictionLoss, prediction_loss, softmax_direction
from srat.mlp import MlpModel, backward, forward
from srat.rand import derive_rng


@dataclass(frozen=True)
class AttackConfig:
    """Budget epsilon, per-step size, iteration count, and box. An absent
    bound (``None``) is open and is stored as ``-math.inf`` (``clip_min``)
    or ``math.inf`` (``clip_max``), so both bounds are always floats."""

    epsilon: float
    step_size: float
    num_steps: int
    random_start: bool = True
    clip_min: float | None = None
    clip_max: float | None = None

    def __post_init__(self) -> None:
        # the random start's uniform(-epsilon, epsilon) needs a finite width
        if not (math.isfinite(2 * self.epsilon) and self.epsilon >= 0):
            raise DomainError("epsilon must lie in [0, 2^1023)")
        # -0.0 + 0.0 is +0.0; a -0.0 budget would make the random start's
        # uniform(-epsilon, epsilon) a uniform(0.0, -0.0), which NumPy refuses
        object.__setattr__(self, "epsilon", self.epsilon + 0.0)
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise DomainError("step_size must be > 0")
        if not isinstance(self.num_steps, int) or self.num_steps < 0:
            raise DomainError("num_steps must be an integer >= 0")
        # an absent bound is open; a NaN bound would clip every row to NaN
        lo = -math.inf if self.clip_min is None else self.clip_min
        hi = math.inf if self.clip_max is None else self.clip_max
        if not lo < hi:
            raise DomainError(
                "clip_min/clip_max must be numbers with clip_min < clip_max, "
                f"got [{self.clip_min}, {self.clip_max}]"
            )
        object.__setattr__(self, "clip_min", lo)
        object.__setattr__(self, "clip_max", hi)

    def check_box(self, x: np.ndarray, where: str = "attack") -> None:
        """Raise DomainError unless every value of the clean rows ``x`` lies
        in [clip_min, clip_max]. Projecting into a box that excludes the
        data would move a clean row by more than epsilon. ``where`` names
        this config in the message."""
        if x.size == 0:
            return
        lo, hi = float(x.min()), float(x.max())
        if lo < self.clip_min or hi > self.clip_max:
            raise DomainError(
                f"{where}.clip_min/clip_max: the box [{self.clip_min}, {self.clip_max}] "
                f"does not contain the data, whose values lie in [{lo}, {hi}]"
            )


# A diverging attack is reported once, as an AttackError from the explicit
# non-finite check, not as NumPy overflow warnings on the way there.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def pgd_attack(
    model: MlpModel,
    loss: PredictionLoss,
    batch: np.ndarray,
    labels: np.ndarray,
    config: AttackConfig,
    seed,
) -> np.ndarray:
    """Adversarial counterpart of ``batch`` maximizing the prediction loss.

    ``seed`` may be an int or a tuple of ints (a derived stream key).
    Per-example loss weights are irrelevant here: they rescale each row's
    gradient positively and the update only uses its sign. So on
    cross-entropy a step skips the loss value, the weights and the 1/n.

    This is an inner-loop step and checks only the gradient. Its caller
    (``train_srat`` or the evaluation pass) guarantees the rest once per
    run: ``batch`` is a float64 n x ``model.input_dim`` matrix, ``labels``
    n int64 indices below ``model.num_classes``, the loss's margins, if
    any, ``model.num_classes`` wide, and the batch inside ``config``'s
    box. An empty batch is returned as an empty copy.
    """
    # the ball around the clean rows, cut by the box: one clip per step
    lo = batch - config.epsilon
    hi = batch + config.epsilon
    np.maximum(lo, config.clip_min, out=lo)
    np.minimum(hi, config.clip_max, out=hi)

    adv = batch.copy()
    if config.random_start:
        adv += derive_rng(seed).uniform(-config.epsilon, config.epsilon, size=batch.shape)
        np.minimum(np.maximum(adv, lo, out=adv), hi, out=adv)

    uniform = ClassWeights.uniform(model.num_classes)
    onehot = None
    if loss.gamma == 0.0 and loss.margins is None:  # cross-entropy
        onehot = (labels == np.arange(model.num_classes)[:, None]).astype(np.float64)
    for _ in range(config.num_steps):
        trace = forward(model, adv)
        if onehot is not None:
            _, d_logits = softmax_direction(trace.logits, onehot)
        else:
            _, d_logits = prediction_loss(trace.logits, labels, uniform, loss)
        _, step = backward(model, trace, d_logits, param_grads=False)
        if not np.isfinite(step).all():
            raise AttackError("non-finite input gradient during attack")
        np.sign(step, out=step)
        step *= config.step_size
        adv += step
        np.minimum(np.maximum(adv, lo, out=adv), hi, out=adv)
    return adv
