"""PGD contracts: ball/box containment, linear closed form, determinism."""

import itertools
import math
import warnings

import numpy as np
import pytest

from attack_reference import linear_oracle
import srat.attack
import srat.evaluation
from srat.attack import AttackConfig, pgd_attack
from srat.data import LabeledDataset
from srat.errors import AttackError, DomainError
from srat.evaluation import evaluate, export_features
from srat.losses import ClassWeights, LossConfig, PredictionLoss, prediction_loss
from srat.mlp import MlpModel, ModelSpec, build_mlp, forward
from srat.rand import derive_rng
from srat.training import TrainConfig, train_srat

CE = PredictionLoss()


def linear_binary_model(w: np.ndarray, b: float) -> MlpModel:
    """Two-logit model with logit1 - logit0 = w.x - b, so class 1 plays the
    role of label +1 and class 0 of label -1."""
    W = np.column_stack([-w / 2.0, w / 2.0])
    bias = np.array([b / 2.0, -b / 2.0])
    return MlpModel.from_layers([(W, bias)])


def _ce_loss(model, x, y):
    trace = forward(model, x)
    return prediction_loss(trace.logits, y, ClassWeights.uniform(model.num_classes), CE)[0]


# ---------------------------------------------------------------------------
# identity cases
# ---------------------------------------------------------------------------


def test_zero_steps_no_random_start_is_identity():
    model = build_mlp(3, (4,), 2, seed=0)
    x = derive_rng(1).normal(size=(5, 3))
    y = np.array([0, 1, 0, 1, 1])
    cfg = AttackConfig(epsilon=0.5, step_size=0.1, num_steps=0, random_start=False)
    adv = pgd_attack(model, CE, x, y, cfg, seed=0)
    assert np.array_equal(adv, x)
    assert adv is not x  # a copy, never the caller's array


def test_zero_epsilon_is_identity_regardless_of_steps():
    model = build_mlp(3, (4,), 2, seed=0)
    x = derive_rng(2).normal(size=(5, 3))
    y = np.array([0, 1, 0, 1, 1])
    cfg = AttackConfig(epsilon=0.0, step_size=0.1, num_steps=7, random_start=True)
    adv = pgd_attack(model, CE, x, y, cfg, seed=3)
    assert np.array_equal(adv, x)


def test_random_start_spans_the_whole_ball():
    # zero steps leave the random start: uniform offsets in [-eps, eps],
    # which 1280 draws fill out to both ends
    model = build_mlp(10, (4,), 2, seed=0)
    x = derive_rng(4).normal(size=(128, 10))
    y = np.arange(128) % 2
    eps = 0.3
    cfg = AttackConfig(epsilon=eps, step_size=0.1, num_steps=0, random_start=True)
    adv = pgd_attack(model, CE, x, y, cfg, seed=5)
    assert (adv >= x - eps).all() and (adv <= x + eps).all()
    offsets = adv - x
    assert offsets.min() < -eps / 2 and offsets.max() > eps / 2


# ---------------------------------------------------------------------------
# linear closed form
# ---------------------------------------------------------------------------


def test_pgd_reaches_linear_optimum_coordinatewise():
    rng = derive_rng(4)
    w = rng.normal(size=6)
    w[2] = 0.0  # zero-gradient coordinate must stay put
    b = 0.4
    model = linear_binary_model(w, b)
    x = rng.normal(size=(8, 6))
    y = rng.integers(0, 2, size=8)
    y_pm = np.where(y == 1, 1, -1)
    cfg = AttackConfig(epsilon=0.25, step_size=0.1, num_steps=5, random_start=False)
    adv = pgd_attack(model, CE, x, y, cfg, seed=0)
    expected = linear_oracle(w, b, x, y_pm, 0.25)
    assert np.array_equal(adv, expected)


def test_pgd_matches_linear_oracle_loss_and_beats_random_points():
    rng = derive_rng(5)
    w = rng.normal(size=4)
    b = -0.2
    model = linear_binary_model(w, b)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 2, size=6)
    y_pm = np.where(y == 1, 1, -1)
    eps = 0.3
    cfg = AttackConfig(epsilon=eps, step_size=0.1, num_steps=4, random_start=False)
    adv = pgd_attack(model, CE, x, y, cfg, seed=0)
    pgd_loss = _ce_loss(model, adv, y)
    oracle_loss = _ce_loss(model, linear_oracle(w, b, x, y_pm, eps), y)
    assert abs(pgd_loss - oracle_loss) <= 1e-9
    for trial in range(1000):
        delta = rng.uniform(-eps, eps, size=x.shape)
        assert _ce_loss(model, x + delta, y) <= pgd_loss + 1e-12


def test_pgd_loss_monotone_in_steps_on_linear_model():
    rng = derive_rng(6)
    w = rng.normal(size=5)
    model = linear_binary_model(w, 0.1)
    x = rng.normal(size=(6, 5))
    y = rng.integers(0, 2, size=6)
    losses = []
    for steps in range(6):
        cfg = AttackConfig(epsilon=0.4, step_size=0.1, num_steps=steps, random_start=False)
        adv = pgd_attack(model, CE, x, y, cfg, seed=0)
        losses.append(_ce_loss(model, adv, y))
    assert (np.diff(losses) >= -1e-12).all()


def test_pgd_final_loss_not_below_clean_on_nonlinear_model():
    rng = derive_rng(7)
    model = build_mlp(4, (8, 8), 3, seed=1)
    x = rng.normal(size=(10, 4))
    y = rng.integers(0, 3, size=10)
    cfg = AttackConfig(epsilon=0.2, step_size=0.05, num_steps=8, random_start=False)
    adv = pgd_attack(model, CE, x, y, cfg, seed=0)
    assert _ce_loss(model, adv, y) >= _ce_loss(model, x, y) - 1e-12


# ---------------------------------------------------------------------------
# linear_oracle
# ---------------------------------------------------------------------------


def test_oracle_zero_epsilon_is_identity():
    x = np.array([0.5, -0.3])
    out = linear_oracle(np.array([1.0, -2.0]), 0.0, x, 1, 0.0)
    assert np.array_equal(out, x)


def test_oracle_coordinatewise_example():
    out = linear_oracle(np.array([1.0, 0.0]), 0.0, np.array([0.5, 0.5]), 1, 0.1)
    np.testing.assert_allclose(out, [0.4, 0.5], atol=1e-15)


def test_oracle_label_flip_negates_perturbation():
    rng = derive_rng(8)
    w = rng.normal(size=5)
    x = rng.normal(size=5)
    plus = linear_oracle(w, 0.3, x, 1, 0.2) - x
    minus = linear_oracle(w, 0.3, x, -1, 0.2) - x
    assert np.array_equal(plus, -minus)


def test_oracle_margin_is_minimal_over_random_ball_points():
    rng = derive_rng(9)
    w = rng.normal(size=4)
    b = 0.7
    x = rng.normal(size=4)
    eps = 0.25
    worst = linear_oracle(w, b, x, 1, eps)
    worst_margin = w @ worst - b
    for _ in range(10_000):
        point = x + rng.uniform(-eps, eps, size=4)
        assert w @ point - b >= worst_margin - 1e-12


def test_oracle_rejects_bad_labels():
    with pytest.raises(DomainError):
        linear_oracle(np.ones(2), 0.0, np.zeros(2), 0, 0.1)


# ---------------------------------------------------------------------------
# containment, determinism, validation
# ---------------------------------------------------------------------------


def test_ball_and_box_containment_random_models():
    rng = derive_rng(10)
    for case in range(30):
        d = int(rng.integers(2, 6))
        model = build_mlp(d, (6,), 2, seed=case)
        x = rng.uniform(0.2, 0.8, size=(7, d))
        y = rng.integers(0, 2, size=7)
        eps = float(rng.uniform(0.01, 0.4))
        clip = bool(rng.integers(0, 2))
        cfg = AttackConfig(
            epsilon=eps,
            step_size=float(rng.uniform(0.01, 0.3)),
            num_steps=int(rng.integers(1, 8)),
            random_start=True,
            clip_min=0.0 if clip else None,
            clip_max=1.0 if clip else None,
        )
        adv = pgd_attack(model, CE, x, y, cfg, seed=case)
        machine_slack = 4 * np.finfo(np.float64).eps
        assert np.abs(adv - x).max() <= eps + machine_slack
        if clip:
            assert adv.min() >= 0.0 and adv.max() <= 1.0


def _train_and_evaluate(x, y, attack):
    """One epoch of ``train_srat`` on the rows ``x`` under ``attack``, and
    ``evaluate`` on them."""
    ds = LabeledDataset(x, y)
    config = TrainConfig(
        total_epochs=1, defer_epoch=1, batch_size=1, lr=0.05,
        loss=LossConfig(kind="ce", tau=0.1, lam=0.0), attack=attack, weighting="none", seed=0,
    )
    model, _ = train_srat(ds, ModelSpec((4,)), config)
    evaluate(model, ds, attack, partition=[], seed=0)


@pytest.mark.parametrize(
    "box", [(0.0, 1.0), (0.0, None), (None, 1.0)], ids=["box", "min_only", "max_only"]
)
def test_runs_refuse_clean_rows_outside_the_box(box):
    # the box is checked where a run enters, not by pgd_attack
    y = np.array([0, 1])
    cfg = AttackConfig(0.1, 0.05, 2, clip_min=box[0], clip_max=box[1])
    for x in (np.array([[0.5, -0.2], [0.5, 0.5]]), np.array([[0.5, 0.5], [1.2, 0.5]])):
        outside = (box[0] is not None and x.min() < box[0]) or (
            box[1] is not None and x.max() > box[1]
        )
        if outside:
            with pytest.raises(DomainError, match="does not contain the data"):
                _train_and_evaluate(x, y, cfg)
            with pytest.raises(DomainError, match="does not contain the data"):
                evaluate(build_mlp(2, (4,), 2, seed=0), LabeledDataset(x, y), cfg, [], seed=0)
        else:
            _train_and_evaluate(x, y, cfg)
    # rows on the box's faces are inside it
    _train_and_evaluate(np.array([[0.0, 1.0], [1.0, 0.0]]), y, cfg)


def test_the_box_contains_an_empty_batch():
    # no value lies outside the box, and an empty array has no min or max
    AttackConfig(0.1, 0.05, 2, clip_min=0.0, clip_max=1.0).check_box(np.zeros((0, 2)))


def test_pgd_deterministic_per_seed():
    model = build_mlp(3, (5,), 2, seed=0)
    rng = derive_rng(11)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, size=6)
    cfg = AttackConfig(epsilon=0.3, step_size=0.1, num_steps=5, random_start=True)
    a = pgd_attack(model, CE, x, y, cfg, seed=77)
    b = pgd_attack(model, CE, x, y, cfg, seed=77)
    c = pgd_attack(model, CE, x, y, cfg, seed=78)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_attack_config_validation():
    with pytest.raises(DomainError):
        AttackConfig(epsilon=-0.1, step_size=0.1, num_steps=1)
    # the random start's uniform(-epsilon, epsilon) has width 2 * epsilon
    for epsilon in (1e308, float("nan")):
        with pytest.raises(DomainError, match=r"epsilon must lie in \[0, 2\^1023\)"):
            AttackConfig(epsilon=epsilon, step_size=0.1, num_steps=1)
    AttackConfig(epsilon=8.9e307, step_size=0.1, num_steps=1)
    with pytest.raises(DomainError):
        AttackConfig(epsilon=0.1, step_size=0.0, num_steps=1)
    with pytest.raises(DomainError):
        AttackConfig(epsilon=0.1, step_size=0.1, num_steps=-1)
    with pytest.raises(DomainError):
        AttackConfig(epsilon=0.1, step_size=0.1, num_steps=1, clip_min=1.0, clip_max=0.0)
    # a NaN bound fails every comparison, so it is refused alone or paired
    nan = float("nan")
    for box in [(nan, None), (None, nan), (nan, 1.0), (0.0, nan), (nan, nan)]:
        with pytest.raises(DomainError, match="clip_min/clip_max must be numbers"):
            AttackConfig(0.1, 0.1, 1, clip_min=box[0], clip_max=box[1])


def test_an_open_bound_is_stored_as_an_infinity():
    open_box = AttackConfig(0.1, 0.1, 1, clip_min=None)
    assert (open_box.clip_min, open_box.clip_max) == (-math.inf, math.inf)
    half_open = AttackConfig(0.1, 0.1, 1, clip_min=-2.0)
    assert (half_open.clip_min, half_open.clip_max) == (-2.0, math.inf)
    half_open = AttackConfig(0.1, 0.1, 1, clip_max=3.0)
    assert (half_open.clip_min, half_open.clip_max) == (-math.inf, 3.0)
    # the stored infinities check any finite data, and a bound still refuses
    open_box.check_box(np.array([[-1e308, 1e308]]))
    with pytest.raises(DomainError, match=r"the box \[-2.0, inf\]"):
        AttackConfig(0.1, 0.1, 1, clip_min=-2.0).check_box(np.array([[-3.0]]), "attack")


@pytest.mark.parametrize(
    "labels", [np.array([0.0, 1.0, 0.0]), np.array([0, -1, 1])], ids=["float", "negative"]
)
@pytest.mark.parametrize("num_steps", [0, 3])
def test_pgd_rejects_bad_labels_before_any_step(monkeypatch, labels, num_steps):
    # pgd_attack checks no labels: the LabeledDataset a run is given refuses
    # them, so neither train_srat nor evaluate reaches an attack step
    def no_step(*args, **kwargs):
        raise AssertionError("an attack step ran")

    monkeypatch.setattr(srat.attack, "forward", no_step)
    cfg = AttackConfig(epsilon=0.1, step_size=0.05, num_steps=num_steps, random_start=False)
    with pytest.raises(DomainError, match="labels"):
        _train_and_evaluate(np.zeros((3, 2)), labels, cfg)


@pytest.mark.parametrize("num_steps", [0, 3])
def test_evaluation_refuses_labels_beyond_the_logits_before_any_step(
    monkeypatch, tmp_path, num_steps
):
    def no_step(*args, **kwargs):
        raise AssertionError("a forward pass ran")

    monkeypatch.setattr(srat.attack, "forward", no_step)
    monkeypatch.setattr(srat.evaluation, "forward", no_step)
    cfg = AttackConfig(epsilon=0.1, step_size=0.05, num_steps=num_steps, random_start=False)
    model = build_mlp(2, (4,), 2, seed=0)
    ds = LabeledDataset(np.zeros((3, 2)), np.array([0, 2, 1]))
    with pytest.raises(DomainError, match="labels out of range for the logit width"):
        evaluate(model, ds, cfg, partition=[], seed=0)
    with pytest.raises(DomainError, match="labels out of range for the logit width"):
        export_features(model, ds, tmp_path / "features.csv", cfg, seed=0)
    assert not (tmp_path / "features.csv").exists()


def test_pgd_returns_an_empty_batch_as_is():
    # no special case: the general path clips, starts and steps zero rows
    model = build_mlp(2, (4,), 2, seed=0)
    empty = np.zeros((0, 2))
    focal, ldam = PredictionLoss(gamma=2.0), PredictionLoss(margins=np.array([0.5, 0.2]), scale=30.0)
    for loss, random_start in itertools.product((CE, focal, ldam), (False, True)):
        cfg = AttackConfig(epsilon=0.1, step_size=0.05, num_steps=3, random_start=random_start)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            adv = pgd_attack(model, loss, empty, np.zeros(0, dtype=int), cfg, seed=0)
        assert adv.shape == (0, 2) and adv.dtype == np.float64 and adv is not empty


@pytest.mark.parametrize("cell", [1e308, -1e308])
def test_a_diverging_attack_raises_one_attack_error_and_no_warning(cell):
    # a row of huge cells overflows the first layer; the attack reports that
    # once, by its own non-finite check, with no NumPy warning on the way
    model = build_mlp(3, (4,), 2, seed=0)
    x = derive_rng(1).normal(size=(2, 3))
    x[0] = cell
    cfg = AttackConfig(epsilon=0.1, step_size=0.05, num_steps=1, random_start=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AttackError, match="non-finite input gradient"):
            pgd_attack(model, CE, x, np.array([0, 1]), cfg, seed=0)
