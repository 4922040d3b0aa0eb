"""l-infinity projected gradient ascent on a prediction loss.

The iteration is x <- project(x + step * sign(grad_x loss)), where the
projection clamps the perturbation into the epsilon ball around the clean
input and, when a data-domain box is configured, clips into it. sign(0)
is 0, so coordinates with zero gradient never move. Given a seed the
attack is fully deterministic, including the optional uniform random
start inside the ball.
"""

from dataclasses import dataclass
import math

import numpy as np

from srat.errors import AttackError, DomainError
from srat.losses import ClassWeights, LossConfig, check_labels, prediction_loss
from srat.mlp import MlpModel, backward, forward
from srat.rand import derive_rng


@dataclass(frozen=True)
class AttackConfig:
    """Budget epsilon, per-step size, iteration count, and optional box."""

    epsilon: float
    step_size: float
    num_steps: int
    random_start: bool = True
    clip_min: float | None = None
    clip_max: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise DomainError("epsilon must be >= 0")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise DomainError("step_size must be > 0")
        if not isinstance(self.num_steps, int) or self.num_steps < 0:
            raise DomainError("num_steps must be an integer >= 0")
        if (
            self.clip_min is not None
            and self.clip_max is not None
            and not self.clip_min < self.clip_max
        ):
            raise DomainError("clip_min must be < clip_max")

    def check_box(self, x: np.ndarray, where: str = "attack") -> None:
        """Raise DomainError unless every value of the clean rows ``x`` lies
        in [clip_min, clip_max]. Projecting into a box that excludes the
        data would move a clean row by more than epsilon. ``where`` names
        this config in the message."""
        if x.size == 0 or (self.clip_min is None and self.clip_max is None):
            return
        lo, hi = float(x.min()), float(x.max())
        if (self.clip_min is not None and lo < self.clip_min) or (
            self.clip_max is not None and hi > self.clip_max
        ):
            raise DomainError(
                f"{where}.clip_min/clip_max: the box [{self.clip_min}, {self.clip_max}] "
                f"does not contain the data, whose values lie in [{lo}, {hi}]"
            )


def _project(adv: np.ndarray, clean: np.ndarray, config: AttackConfig) -> np.ndarray:
    delta = np.clip(adv - clean, -config.epsilon, config.epsilon)
    out = clean + delta
    if config.clip_min is not None or config.clip_max is not None:
        out = np.clip(out, config.clip_min, config.clip_max)
    return out


def pgd_attack(
    model: MlpModel,
    loss: LossConfig,
    batch: np.ndarray,
    labels: np.ndarray,
    config: AttackConfig,
    seed,
    class_counts=None,
) -> np.ndarray:
    """Adversarial counterpart of ``batch`` maximizing the prediction loss.

    ``seed`` may be an int or a tuple of ints (a derived stream key).
    Per-example loss weights are irrelevant here: they rescale each row's
    gradient positively and the update only uses its sign. The batch, the
    labels and, when a box is set, the batch's place inside it are checked
    once here; the steps only check the gradient. An empty batch is
    returned as an empty copy.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise DomainError("batch shape does not match model input width")
    if np.shape(labels) != (x.shape[0],):
        raise DomainError("labels must be one integer per batch row")
    labels = check_labels(labels, model.num_classes)
    config.check_box(x)

    uniform = ClassWeights.uniform(model.num_classes)
    if x.shape[0] == 0 or (config.num_steps == 0 and not config.random_start):
        return x.copy()

    adv = x.copy()
    if config.random_start:
        key = seed if isinstance(seed, (tuple, list)) else (seed,)
        rng = derive_rng(*key)
        adv = adv + rng.uniform(-config.epsilon, config.epsilon, size=x.shape)
        adv = _project(adv, x, config)

    for _ in range(config.num_steps):
        trace = forward(model, adv)
        _, d_logits = prediction_loss(trace.logits, labels, uniform, loss, class_counts)
        _, input_grads = backward(model, trace, d_logits, param_grads=False)
        if not np.isfinite(input_grads).all():
            raise AttackError("non-finite input gradient during attack")
        adv = adv + config.step_size * np.sign(input_grads)
        adv = _project(adv, x, config)
    return adv


def linear_oracle(
    w: np.ndarray, b: float, x: np.ndarray, y, epsilon: float
) -> np.ndarray:
    """Closed-form worst case for a linear score w.x - b and labels +-1.

    Returns x - y*epsilon*sign(w): the point of the l-inf ball minimizing
    the signed margin y*(w.x' - b). Coordinates where w is 0 stay put.
    """
    if epsilon < 0:
        raise DomainError("epsilon must be >= 0")
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    y_arr = np.asarray(y)
    if not np.isin(y_arr, (-1, 1)).all():
        raise DomainError("labels must be +1 or -1")
    if x.ndim == 1:
        return x - float(y_arr) * epsilon * np.sign(w)
    return x - y_arr[:, None].astype(np.float64) * epsilon * np.sign(w)[None, :]
