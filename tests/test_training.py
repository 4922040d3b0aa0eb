"""Deferred-reweighting schedule, loop contracts, and determinism."""

import numpy as np
import pytest

import srat.evaluation
import srat.losses
import srat.training
from srat.attack import AttackConfig
from srat.data import LabeledDataset, batches, sample_gaussian_mixture
from srat.errors import DomainError, TrainingError
from srat.evaluation import evaluate
from srat.losses import (
    ClassWeights,
    LossConfig,
    PredictionLoss,
    effective_number_weights,
    prediction_loss,
)
from srat.mlp import ModelSpec, backward, build_mlp, forward, sgd_step
from srat.rand import derive_rng
from srat.theory import GaussianMixtureSpec
from srat.training import (
    STREAM_MODEL_INIT,
    STREAM_SHUFFLE,
    TrainConfig,
    train_srat,
    write_history,
)


def _small_dataset(seed=0, n_minority=12, ratio=4.0, dim=4):
    spec = GaussianMixtureSpec(1.0, 1.5, dim, ratio)
    return sample_gaussian_mixture(spec, n_minority, seed=seed)


def _config(**overrides):
    base = dict(
        total_epochs=4,
        defer_epoch=3,
        batch_size=16,
        lr=0.05,
        lr_milestones=(3,),
        lr_decay=0.1,
        loss=LossConfig(kind="ce", tau=0.1, lam=0.5),
        attack=AttackConfig(epsilon=0.1, step_size=0.05, num_steps=2),
        weighting="class_balanced",
        seed=0,
        eval_every=2,
    )
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# class weights per epoch
# ---------------------------------------------------------------------------


def _tiny_run_weights(**overrides):
    """(class counts, class_weights of each epoch) of a 4-epoch run."""
    ds = _small_dataset(n_minority=4)
    cfg = _config(batch_size=64, lr_milestones=(), **overrides)
    _, history = train_srat(ds, ModelSpec((4,)), cfg)
    return ds.class_counts, [r.class_weights for r in history]


def test_class_weights_uniform_before_defer_epoch():
    _, weights = _tiny_run_weights(defer_epoch=4)
    assert weights[:3] == [(1.0, 1.0)] * 3
    _, weights = _tiny_run_weights(weighting="none", defer_epoch=1)
    assert weights == [(1.0, 1.0)] * 4


def test_class_weights_effective_number_from_defer_epoch():
    loss = LossConfig(kind="ce", tau=0.1, lam=0.5, cb_beta=0.99)
    counts, weights = _tiny_run_weights(defer_epoch=3, loss=loss)
    expected = tuple(effective_number_weights(counts, 0.99).weights)
    assert expected[1] > expected[0]  # minority upweighted
    assert weights == [(1.0, 1.0)] * 2 + [expected] * 2


# ---------------------------------------------------------------------------
# training loop contracts
# ---------------------------------------------------------------------------


def test_disabled_knobs_reduce_to_natural_training():
    # lam = 0, uniform weights, epsilon = 0: the trajectory must equal a
    # plain natural-training reference loop driven by the same streams.
    ds = _small_dataset()
    cfg = _config(
        loss=LossConfig(kind="ce", tau=0.1, lam=0.0),
        attack=AttackConfig(epsilon=0.0, step_size=0.05, num_steps=2),
        weighting="none",
        lr_milestones=(),
    )
    model, _ = train_srat(ds, ModelSpec((6,)), cfg)

    ref = build_mlp(ds.dim, (6,), ds.num_classes, seed=(cfg.seed, STREAM_MODEL_INIT))
    uniform = ClassWeights.uniform(ds.num_classes)
    for epoch in range(1, cfg.total_epochs + 1):
        for idx in batches(ds, cfg.batch_size, (cfg.seed, STREAM_SHUFFLE, epoch)):
            trace = forward(ref, ds.features[idx])
            _, d_logits = prediction_loss(trace.logits, ds.labels[idx], uniform, PredictionLoss())
            grads, _ = backward(ref, trace, d_logits)
            ref = sgd_step(ref, grads, cfg.lr)

    assert np.array_equal(model.params, ref.params)


def test_defer_epoch_past_end_never_reweights():
    ds = _small_dataset()
    cfg = _config(total_epochs=3, defer_epoch=4, lr_milestones=())
    _, history = train_srat(ds, ModelSpec((6,)), cfg)
    for record in history:
        assert record.class_weights == (1.0, 1.0)
        assert record.phase == "pre_defer"


def test_phase_flips_once_and_weights_follow_schedule():
    ds = _small_dataset()
    cfg = _config()
    _, history = train_srat(ds, ModelSpec((6,)), cfg)
    phases = [r.phase for r in history]
    assert phases == ["pre_defer", "pre_defer", "post_defer", "post_defer"]
    cb = effective_number_weights(ds.class_counts, cfg.loss.cb_beta)
    for record in history:
        if record.epoch < cfg.defer_epoch:
            assert record.class_weights == (1.0, 1.0)
        else:
            assert record.class_weights == tuple(cb.weights)


def test_ldam_margins_are_built_once_per_run(monkeypatch):
    calls = []
    real = srat.losses.ldam_margins

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(srat.losses, "ldam_margins", spy)
    ds = _small_dataset()  # 60 rows: 20 batches of 3
    cfg = _config(
        total_epochs=6,
        batch_size=3,
        loss=LossConfig(kind="ldam", tau=0.1, lam=0.5),
        attack=AttackConfig(epsilon=0.1, step_size=0.05, num_steps=5),
    )
    train_srat(ds, ModelSpec((6,)), cfg)
    assert len(calls) == 1


def test_attack_box_is_checked_once_per_run(monkeypatch):
    # where a run enters, whatever its batch or chunk count
    calls = []
    real = AttackConfig.check_box

    def spy(self, x, *args):
        calls.append(len(x))
        return real(self, x, *args)

    monkeypatch.setattr(AttackConfig, "check_box", spy)
    ds = _small_dataset()  # 60 rows: 20 batches of 3
    cfg = _config(total_epochs=2, batch_size=3)
    model, _ = train_srat(ds, ModelSpec((6,)), cfg)
    assert calls == [len(ds)]
    calls.clear()
    monkeypatch.setattr(srat.evaluation, "_EVAL_CHUNK", 7)  # 9 chunks
    evaluate(model, ds, cfg.attack, partition=[1], seed=0)
    assert calls == [len(ds)]


def test_constant_loss_values_are_built_once(monkeypatch):
    # the attack's uniform weights, once per class count, and the
    # evaluation attack's cross-entropy, once per process
    built = []
    real = ClassWeights.__post_init__

    def spy(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(ClassWeights, "__post_init__", spy)
    ds = _small_dataset()  # 60 rows: 8 batches of 8
    model, _ = train_srat(ds, ModelSpec((6,)), _config(total_epochs=3, batch_size=8))
    assert len(built) <= 2  # the uniform and the class-balanced vector
    losses = []
    real_attack = srat.evaluation.pgd_attack

    def attack_spy(model, loss, *args, **kwargs):
        losses.append(loss)
        return real_attack(model, loss, *args, **kwargs)

    monkeypatch.setattr(srat.evaluation, "pgd_attack", attack_spy)
    monkeypatch.setattr(srat.evaluation, "_EVAL_CHUNK", 7)  # 9 chunks
    evaluate(model, ds, _config().attack, partition=[1], seed=0)
    assert len(losses) == 9 and all(loss is losses[0] for loss in losses)


def test_lr_follows_milestones():
    ds = _small_dataset()
    cfg = _config(total_epochs=5, defer_epoch=6, lr_milestones=(2, 4), lr_decay=0.5)
    _, history = train_srat(ds, ModelSpec((6,)), cfg)
    lrs = [r.lr for r in history]
    assert lrs == [0.05, 0.025, 0.025, 0.0125, 0.0125]


def test_training_is_deterministic():
    ds = _small_dataset()
    cfg = _config()
    model_a, hist_a = train_srat(ds, ModelSpec((6,)), cfg)
    model_b, hist_b = train_srat(ds, ModelSpec((6,)), cfg)
    assert np.array_equal(model_a.params, model_b.params)
    assert [r.prediction_loss for r in hist_a] == [r.prediction_loss for r in hist_b]


def test_divergence_aborts_with_context():
    ds = _small_dataset()
    cfg = _config(
        total_epochs=6,
        defer_epoch=7,
        lr=1e30,
        lr_milestones=(),
        loss=LossConfig(kind="ce", tau=0.1, lam=0.0),
        attack=AttackConfig(epsilon=0.1, step_size=0.05, num_steps=1),
        weighting="none",
    )
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingError, match="epoch"):
            train_srat(ds, ModelSpec((8, 8)), cfg)


def test_eval_snapshots_every_interval():
    ds = _small_dataset()
    cfg = _config(total_epochs=5, defer_epoch=6, eval_every=2, lr_milestones=())
    calls = []

    def eval_fn(model, epoch):
        calls.append(epoch)
        return {"overall_standard": 50.0}

    _, history = train_srat(ds, ModelSpec((6,)), cfg, eval_fn=eval_fn)
    assert calls == [2, 4, 5]
    assert [r.eval for r in history] == [
        None,
        {"overall_standard": 50.0},
        None,
        {"overall_standard": 50.0},
        {"overall_standard": 50.0},
    ]


def test_epoch_losses_are_the_mean_of_the_batch_values(monkeypatch):
    objectives = []
    real = srat.training.combined_objective

    def spy(*args):
        objectives.append(real(*args))
        return objectives[-1]

    monkeypatch.setattr(srat.training, "combined_objective", spy)
    epochs = []  # each epoch's batch objectives, cut where it is evaluated

    def eval_fn(model, epoch):
        epochs.append(objectives[:])
        objectives.clear()
        return {}

    ds = _small_dataset()  # 60 rows: 4 batches of 16
    cfg = _config(total_epochs=3, eval_every=1)
    _, history = train_srat(ds, ModelSpec((6,)), cfg, eval_fn=eval_fn)
    assert [len(values) for values in epochs] == [4] * 3
    for record, values in zip(history, epochs, strict=True):
        pred = sep = 0.0
        for v in values:
            pred += v.prediction
            sep += v.separation
        assert record.prediction_loss == pred / len(values)
        assert record.separation_loss == sep / len(values)
        assert sep > 0.0


def test_manual_weighting_applies_from_defer_epoch():
    ds = _small_dataset()
    cfg = _config(
        weighting="manual",
        manual_weights=(1.0, 9.0),
        defer_epoch=1,
        total_epochs=2,
        lr_milestones=(),
    )
    _, history = train_srat(ds, ModelSpec((6,)), cfg)
    expected = tuple(ClassWeights.normalized(np.array([1.0, 9.0])).weights)
    assert history[0].class_weights == expected


def test_momentum_accumulates_velocity():
    ds = _small_dataset()
    plain = _config(total_epochs=3, defer_epoch=4, lr_milestones=())
    with_momentum = _config(
        total_epochs=3, defer_epoch=4, lr_milestones=(), momentum=0.9
    )
    model_plain, _ = train_srat(ds, ModelSpec((6,)), plain)
    model_momentum, _ = train_srat(ds, ModelSpec((6,)), with_momentum)
    assert not np.array_equal(model_plain.params, model_momentum.params)
    # first-step equivalence: with zero initial velocity the first update
    # is identical, so divergence only accumulates afterwards
    one_plain, _ = train_srat(
        ds, ModelSpec((6,)), _config(total_epochs=1, defer_epoch=2, batch_size=1000, lr_milestones=())
    )
    one_momentum, _ = train_srat(
        ds,
        ModelSpec((6,)),
        _config(total_epochs=1, defer_epoch=2, batch_size=1000, momentum=0.9, lr_milestones=()),
    )
    assert np.array_equal(one_plain.params, one_momentum.params)


def test_history_csv_round_trip(tmp_path):
    ds = _small_dataset()
    cfg = _config(total_epochs=2, defer_epoch=3, eval_every=1, lr_milestones=())
    _, history = train_srat(
        ds, ModelSpec((6,)), cfg, eval_fn=lambda m, e: {"overall_robust": 10.0}
    )
    path = tmp_path / "history.csv"
    write_history(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "epoch,phase,lr,prediction_loss,separation_loss,class_weights,"
        "eval_overall_robust"
    )
    assert len(lines) == 3


def test_config_validation():
    loss = LossConfig(kind="ce", tau=0.1, lam=0.0)
    attack = AttackConfig(epsilon=0.1, step_size=0.1, num_steps=1)
    with pytest.raises(DomainError):
        TrainConfig(
            total_epochs=2, defer_epoch=4, batch_size=4, lr=0.1, loss=loss, attack=attack,
            weighting="none", seed=0,
        )
    with pytest.raises(DomainError):
        TrainConfig(
            total_epochs=2, defer_epoch=1, batch_size=4, lr=0.1,
            loss=loss, attack=attack, weighting="manual", seed=0,
        )
    with pytest.raises(DomainError):
        TrainConfig(
            total_epochs=2, defer_epoch=1, batch_size=4, lr=0.1,
            loss=loss, attack=attack, weighting="none", seed=0, lr_decay=1.5,
        )


def test_empty_dataset_rejected():
    feats = np.zeros((0, 3))
    labels = np.zeros(0, dtype=np.int64)
    ds = LabeledDataset(feats, labels, 2)
    with pytest.raises(DomainError):
        train_srat(ds, ModelSpec((4,)), _config())
