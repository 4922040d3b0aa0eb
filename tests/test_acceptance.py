"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they complete. The directional training arms (criterion 8) are
shared across sub-criteria through a module-scoped fixture.
"""

import ctypes
import hashlib
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from attack_reference import linear_oracle
from gradcheck import central_diff, max_rel_err
from srat.attack import AttackConfig, pgd_attack
from srat.cli import main
from srat.data import sample_gaussian_mixture
from srat.evaluation import evaluate
from srat.losses import (
    ClassWeights,
    LossConfig,
    PredictionLoss,
    combined_objective,
    prediction_loss,
)
from srat.mlp import MlpModel, ModelSpec, backward, build_mlp, forward
from srat.rand import derive_rng
from srat.theory import (
    GaussianMixtureSpec,
    LinearClassifier,
    StdConvention,
    classwise_error,
    grid_search_bias,
    monte_carlo_classwise_error,
    optimal_bias,
    verify_theorem1,
    verify_theorem2,
)
from srat.training import TrainConfig, train_srat

BOTH = (StdConvention.SUMMED, StdConvention.EXACT)


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. closed-form bias equals the brute-force risk argmin
# ---------------------------------------------------------------------------


def test_criterion_1_closed_form_bias_matches_grid_search():
    start = time.time()
    k = 20.0
    worst = 0.0
    points = 0
    for conv in BOTH:
        for eta in (0.5, 1.0, 2.0):
            for sigma in (0.5, 1.0, 2.0, 4.0):
                for d in (1, 5, 20):
                    for log_ratio in (-1.5, 0.0, 1.5):
                        spec = GaussianMixtureSpec(eta, sigma, d, k)
                        rho = k * math.exp(log_ratio)
                        closed = optimal_bias(spec, rho, conv)
                        searched, res = grid_search_bias(spec, rho, conv, 100_000)
                        worst = max(worst, abs(closed - searched) / res)
                        points += 1
                        assert abs(closed - searched) <= 2 * res
    elapsed = time.time() - start
    _criterion(
        "criterion 1 (closed-form bias vs grid argmin)",
        worst <= 2.0 and elapsed < 10.0,
        f"{points} grid points x 2 conventions, worst |diff|/resolution "
        f"{worst:.3f} <= 2, {elapsed:.1f}s < 10s",
    )


# ---------------------------------------------------------------------------
# 2. analytic class errors agree with Monte Carlo
# ---------------------------------------------------------------------------


def test_criterion_2_analytic_vs_monte_carlo():
    start = time.time()
    rng = derive_rng(7)
    n = 1_000_000
    worst = 0.0
    for case in range(20):
        d = int(rng.integers(1, 9))
        eta = float(rng.uniform(0.3, 2.0))
        sigma = float(rng.uniform(0.5, 3.0))
        k = float(np.exp(rng.uniform(0, 5)))
        spec = GaussianMixtureSpec(eta, sigma, d, k)
        scale = sigma * math.sqrt(d)
        bias = float(
            rng.uniform(-1, 1) * 2.0 * scale
            + rng.choice([-1, 1]) * eta * d * rng.uniform(0, 0.5)
        )
        clf = LinearClassifier.all_ones(d, bias)
        label = int(rng.choice([-1, 1]))
        analytic = classwise_error(clf, spec, label, StdConvention.EXACT)
        mc = monte_carlo_classwise_error(clf, spec, label, n, seed=7000 + case)
        se = math.sqrt(max(analytic * (1 - analytic), 1e-12) / n)
        worst = max(worst, abs(analytic - mc) / (3 * se))
        assert abs(analytic - mc) <= 3 * se
    elapsed = time.time() - start
    _criterion(
        "criterion 2 (analytic vs Monte Carlo class errors)",
        worst <= 1.0 and elapsed < 30.0,
        f"20 cases at 1e6 samples, worst |diff|/(3 stderr) {worst:.2f} <= 1, "
        f"{elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# 3. ordering theorems hold wherever their hypothesis holds
# ---------------------------------------------------------------------------


def test_criterion_3_theorem_grid():
    start = time.time()
    sigmas = (0.5, 1.0, 2.0, 4.0)
    met = checked = 0
    for conv in BOTH:
        for eta in (0.5, 1.0, 2.0):
            for d in (1, 5, 20):
                for log_k in (3.0, 6.0, 10.0):
                    k = math.exp(log_k)
                    for i, s1 in enumerate(sigmas):
                        for s2 in sigmas[i + 1 :]:
                            spec1 = GaussianMixtureSpec(eta, s1, d, k)
                            spec2 = GaussianMixtureSpec(eta, s2, d, k)
                            for verify in (verify_theorem1, verify_theorem2):
                                report = verify(spec1, spec2, conv)
                                checked += 1
                                if report.precondition_met:
                                    met += 1
                                    assert report.holds
                            for spec in (spec1, spec2):
                                assert optimal_bias(spec, k, conv) == 0.0
    elapsed = time.time() - start
    _criterion(
        "criterion 3 (theorem orderings + zero rebalanced bias)",
        met > 0 and elapsed < 10.0,
        f"{checked} checks, {met} with the hypothesis met, all hold; "
        f"rebalanced bias exactly 0 everywhere; {elapsed:.1f}s < 10s",
    )


# ---------------------------------------------------------------------------
# 4. gradients pass central finite differences
# ---------------------------------------------------------------------------


def _case_objective(kind, rng):
    sizes = [int(rng.integers(2, 5)), int(rng.integers(3, 7)), int(rng.integers(2, 5))]
    model = build_mlp(sizes[0], sizes[1:-1] or (4,), sizes[-1], seed=int(rng.integers(1 << 30)))
    n = int(rng.integers(3, 6))
    x = rng.normal(size=(n, model.input_dim))
    y = rng.integers(0, model.num_classes, size=n)
    weights = ClassWeights(rng.uniform(0.5, 2.0, size=model.num_classes))
    counts = tuple(int(c) for c in rng.integers(2, 60, size=model.num_classes))
    if kind == "combined":
        cfg = LossConfig(kind="ce", tau=0.4, lam=0.9)
    else:
        cfg = LossConfig(kind=kind, tau=0.4, lam=0.0, ldam_scale=5.0)
    return model, x, y, weights, cfg, PredictionLoss.resolve(cfg, counts)


def test_criterion_4_gradients_vs_finite_differences():
    start = time.time()
    rng = derive_rng(41)
    kinds = ["ce", "focal", "ldam", "combined"]
    worst = 0.0
    for case in range(50):
        kind = kinds[case % 4]
        model, x, y, weights, cfg, loss = _case_objective(kind, rng)

        def total_from_params(flat):
            trace = forward(MlpModel(model.shapes, flat), x)
            return combined_objective(
                trace.logits, trace.features, y, weights, cfg, loss
            ).total

        trace = forward(model, x)
        obj = combined_objective(trace.logits, trace.features, y, weights, cfg, loss)
        grads, input_grads = backward(model, trace, obj.d_logits, obj.d_features)
        fd = central_diff(total_from_params, model.params)
        err_params = max_rel_err(grads, fd)

        def total_from_inputs(flat):
            trace = forward(model, flat.reshape(x.shape))
            return combined_objective(
                trace.logits, trace.features, y, weights, cfg, loss
            ).total

        fd_inputs = central_diff(total_from_inputs, x.ravel())
        err_inputs = max_rel_err(input_grads.ravel(), fd_inputs)
        worst = max(worst, err_params, err_inputs)
        assert err_params <= 1e-5 and err_inputs <= 1e-5
    elapsed = time.time() - start
    _criterion(
        "criterion 4 (gradient checks)",
        worst <= 1e-5 and elapsed < 60.0,
        f"50 model/loss cases, worst relative error {worst:.2e} <= 1e-5, "
        f"{elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# 5. loss reductions are bit-exact
# ---------------------------------------------------------------------------


def test_criterion_5_reductions_bit_exact():
    rng = derive_rng(51)
    for batch in range(100):
        n = int(rng.integers(2, 9))
        c = int(rng.integers(2, 6))
        logits = 3.0 * rng.normal(size=(n, c))
        labels = rng.integers(0, c, size=n)
        weights = ClassWeights(rng.uniform(0.5, 2.0, size=c))
        counts = tuple(int(v) for v in rng.integers(1, 500, size=c))
        l_ce, g_ce = prediction_loss(logits, labels, weights, PredictionLoss())
        focal = PredictionLoss.resolve(
            LossConfig(kind="focal", tau=0.1, lam=1.0, focal_gamma=0.0), counts
        )
        l_f, g_f = prediction_loss(logits, labels, weights, focal)
        ldam = LossConfig(kind="ldam", tau=0.1, lam=1.0, ldam_max_margin=0.0, ldam_scale=1.0)
        l_m, g_m = prediction_loss(logits, labels, weights, PredictionLoss.resolve(ldam, counts))
        assert l_ce == l_f and np.array_equal(g_ce, g_f)
        assert l_ce == l_m and np.array_equal(g_ce, g_m)
    _criterion(
        "criterion 5 (focal gamma=0 and margin 0/scale 1 reduce to CE)",
        True,
        "bit-exact losses and gradients on 100 random batches",
    )


# ---------------------------------------------------------------------------
# 6. PGD containment and the linear closed form
# ---------------------------------------------------------------------------


def test_criterion_6_pgd_contracts():
    rng = derive_rng(61)
    ce = PredictionLoss()
    slack = 4 * np.finfo(np.float64).eps
    cases = 0
    for model_idx in range(100):
        d = int(rng.integers(2, 6))
        model = build_mlp(d, (6,), 2, seed=model_idx)
        x = rng.uniform(0.1, 0.9, size=(10, d))
        y = rng.integers(0, 2, size=10)
        eps = float(rng.uniform(0.01, 0.5))
        clip = bool(rng.integers(0, 2))
        cfg = AttackConfig(
            epsilon=eps,
            step_size=float(rng.uniform(0.02, 0.3)),
            num_steps=int(rng.integers(1, 9)),
            random_start=True,
            clip_min=0.0 if clip else None,
            clip_max=1.0 if clip else None,
        )
        adv = pgd_attack(model, ce, x, y, cfg, seed=model_idx)
        assert np.abs(adv - x).max() <= eps + slack
        if clip:
            assert adv.min() >= 0.0 and adv.max() <= 1.0
        cases += len(x)

    worst_gap = 0.0
    for trial in range(25):
        d = int(rng.integers(2, 7))
        w = rng.normal(size=d)
        b = float(rng.normal())
        W = np.column_stack([-w / 2.0, w / 2.0])
        model = MlpModel.from_layers([(W, np.array([b / 2.0, -b / 2.0]))])
        x = rng.normal(size=(6, d))
        y = rng.integers(0, 2, size=6)
        eps = float(rng.uniform(0.05, 0.4))
        steps = int(np.ceil(eps / 0.05)) + 1  # steps * step_size >= eps
        cfg = AttackConfig(epsilon=eps, step_size=0.05, num_steps=steps, random_start=False)
        adv = pgd_attack(model, ce, x, y, cfg, seed=0)
        uniform = ClassWeights.uniform(2)
        pgd_loss = prediction_loss(forward(model, adv).logits, y, uniform, ce)[0]
        oracle = linear_oracle(w, b, x, np.where(y == 1, 1, -1), eps)
        oracle_loss = prediction_loss(forward(model, oracle).logits, y, uniform, ce)[0]
        worst_gap = max(worst_gap, abs(pgd_loss - oracle_loss))
        assert abs(pgd_loss - oracle_loss) <= 1e-9
    _criterion(
        "criterion 6 (PGD ball/box containment + linear closed form)",
        True,
        f"{cases} attacked examples contained; 25 linear models within "
        f"{worst_gap:.1e} <= 1e-9 of the oracle loss",
    )


# ---------------------------------------------------------------------------
# 7. separation-loss invariances
# ---------------------------------------------------------------------------


def test_criterion_7_separation_invariances():
    from srat.losses import separation_loss

    rng = derive_rng(71)
    worst = 0.0
    for batch in range(100):
        n = int(rng.integers(3, 10))
        m = int(rng.integers(2, 6))
        feats = rng.normal(size=(n, m))
        labels = rng.integers(0, 3, size=n)
        base, _ = separation_loss(feats, labels, 0.25)

        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        rotated, _ = separation_loss(feats @ q, labels, 0.25)

        perm = rng.permutation(3)
        relabeled, _ = separation_loss(feats, perm[labels], 0.25)

        scales = rng.uniform(0.05, 20.0, size=n)
        scaled, _ = separation_loss(feats * scales[:, None], labels, 0.25)

        for variant in (rotated, relabeled, scaled):
            worst = max(worst, abs(variant - base))
            assert abs(variant - base) <= 1e-9

    def four_points(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, s, 0, 0], [c, -s, 0, 0], [0, 0, c, s], [0, 0, c, -s]])

    # below t = pi/4 the same-class cosine cos(2t) exceeds the cross-class
    # cosine (always 0), so grouping by true class must win strictly
    clustered_labels = np.array([0, 0, 1, 1])
    shuffled_labels = np.array([0, 1, 0, 1])
    for t in (0.1, 0.3, 0.5, 0.7):
        clustered, _ = separation_loss(four_points(t), clustered_labels, 0.4)
        shuffled, _ = separation_loss(four_points(t), shuffled_labels, 0.4)
        assert clustered < shuffled
    _criterion(
        "criterion 7 (separation-loss invariances)",
        True,
        f"100 batches invariant to 1e-9 (worst {worst:.1e}); clustered "
        "beats shuffled strictly on the 4-point family",
    )


# ---------------------------------------------------------------------------
# 8. desk-scale directional rerun
# ---------------------------------------------------------------------------

SEEDS = (101, 102, 103, 104, 105)


@pytest.fixture(scope="module")
def directional_arms():
    mixture = GaussianMixtureSpec(1.0, 2.0, 10, 100.0)
    train_set = sample_gaussian_mixture(mixture, 25, seed=11)
    test_set = sample_gaussian_mixture(
        GaussianMixtureSpec(1.0, 2.0, 10, 1.0), 500, seed=999
    )
    train_attack = AttackConfig(epsilon=0.3, step_size=0.1, num_steps=5)
    eval_attack = AttackConfig(epsilon=0.3, step_size=0.1, num_steps=10)

    def run(seed, *, weighting, lam, defer, manual=None, attack=train_attack):
        cfg = TrainConfig(
            total_epochs=60,
            defer_epoch=defer,
            batch_size=128,
            lr=0.1,
            lr_milestones=(40,),
            lr_decay=0.1,
            loss=LossConfig(kind="ce", tau=0.1, lam=lam),
            attack=attack,
            weighting=weighting,
            manual_weights=manual,
            seed=seed,
            eval_every=60,
        )
        model, _ = train_srat(train_set, ModelSpec((32, 32)), cfg)
        return evaluate(model, test_set, eval_attack, [1], seed=12345)

    arms = {}
    timings = {}
    specs = {
        # plain adversarial CE training; also the weight-1 endpoint of the
        # upweighting sweep (identical all-ones weights either way)
        "ce": dict(weighting="none", lam=0.0, defer=61),
        # the 200x minority endpoint of the upweighting sweep
        "w200": dict(weighting="manual", lam=0.0, defer=1, manual=(1.0, 200.0)),
        # deferred class-balanced reweighting + feature separation
        "srat": dict(weighting="class_balanced", lam=1.0, defer=40),
        # natural training: no attack, no weighting, no separation
        "natural": dict(weighting="none", lam=0.0, defer=61, attack=AttackConfig(
            epsilon=0.3, step_size=0.1, num_steps=0, random_start=False)),
    }
    for name, kwargs in specs.items():
        t0 = time.time()
        arms[name] = [run(seed, **kwargs) for seed in SEEDS]
        timings[name] = time.time() - t0
    return arms, timings


def _median_recall(reports, cls):
    return statistics.median(r.per_class_robust[cls] for r in reports)


def test_criterion_8a_classwise_gap(directional_arms):
    arms, timings = directional_arms
    majority = _median_recall(arms["ce"], 0)
    minority = _median_recall(arms["ce"], 1)
    gap = majority - minority
    _criterion(
        "criterion 8a (adversarial CE class-wise gap)",
        gap >= 20.0 and timings["ce"] < 600.0,
        f"median robust recall majority {majority:.1f} vs minority "
        f"{minority:.1f}, gap {gap:.1f} >= 20 points ({timings['ce']:.0f}s/arm)",
    )


def test_criterion_8b_reweighting_tension(directional_arms):
    arms, timings = directional_arms
    minority_low = _median_recall(arms["ce"], 1)  # weight-1 endpoint
    minority_high = _median_recall(arms["w200"], 1)
    majority_low = _median_recall(arms["ce"], 0)
    majority_high = _median_recall(arms["w200"], 0)
    ok = minority_high > minority_low and majority_high < majority_low
    _criterion(
        "criterion 8b (upweighting tension)",
        ok and timings["w200"] < 600.0,
        f"minority robust recall {minority_low:.1f} -> {minority_high:.1f} (up), "
        f"majority {majority_low:.1f} -> {majority_high:.1f} (down) "
        f"({timings['w200']:.0f}s/arm)",
    )


def test_criterion_8c_srat_beats_ce_on_minority(directional_arms):
    arms, timings = directional_arms
    srat = _median_recall(arms["srat"], 1)
    ce = _median_recall(arms["ce"], 1)
    _criterion(
        "criterion 8c (deferred reweighting + separation beats CE)",
        srat > ce and timings["srat"] < 600.0,
        f"median minority robust recall {srat:.1f} vs {ce:.1f}, margin "
        f"{srat - ce:.1f} > 0 ({timings['srat']:.0f}s/arm)",
    )


# Stated before the natural arm first ran: the "ce" arm's five minority
# clean recalls are 26.4, 29.8, 18.0, 23.4 and 32.4, an interquartile
# range of 6.4 points, so the natural median must clear the "ce" median by
# 6 points, not by a seed's luck.
NATURAL_MARGIN = 6.0


def test_criterion_8d_adversarial_training_costs_the_minority(directional_arms):
    arms, timings = directional_arms
    natural = statistics.median(r.per_class_standard[1] for r in arms["natural"])
    ce = statistics.median(r.per_class_standard[1] for r in arms["ce"])
    _criterion(
        "criterion 8d (adversarial training lowers minority clean recall)",
        natural > ce + NATURAL_MARGIN and timings["natural"] < 600.0,
        f"median minority clean recall natural {natural:.1f} vs ce {ce:.1f}, "
        f"margin {natural - ce:.1f} > {NATURAL_MARGIN} ({timings['natural']:.0f}s/arm)",
    )


# ---------------------------------------------------------------------------
# 9. bit-identical reruns
# ---------------------------------------------------------------------------


# The platform the criterion-9 pins were made on. Float results of
# numpy's SIMD loops and of OpenBLAS depend on the code paths the machine
# selects, so a mismatch reports both platforms.
PINNED_PLATFORM = {
    "numpy": "2.4.6",
    "simd_found": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
    "openblas_core": "SkylakeX",
}


def _openblas_core() -> str | None:
    """The core OpenBLAS selected, read through ctypes from the library a
    numpy wheel ships; None where that cannot be read."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


def _platform() -> dict:
    simd = np.__config__.CONFIG.get("SIMD Extensions", {}).get("found")
    return {"numpy": np.__version__, "simd_found": simd, "openblas_core": _openblas_core()}


def _assert_pins(hashes: dict, pins: dict) -> None:
    assert hashes == pins, f"pinned on {PINNED_PLATFORM}, ran on {_platform()}"


def _criterion_9_doc():
    return {
        "dataset": {
            "kind": "synthetic",
            "eta": 1.0,
            "sigma": 2.0,
            "dim": 6,
            "imbalance_ratio": 10.0,
            "n_minority_train": 8,
            "n_test_per_class": 50,
            "seed": 5,
        },
        "model": {"hidden": [8, 8]},
        "train": {
            "total_epochs": 8,
            "defer_epoch": 5,
            "batch_size": 32,
            "lr": 0.05,
            "lr_milestones": [5],
            "lr_decay": 0.1,
            "weighting": "class_balanced",
            "seed": 17,
            "loss": {"kind": "ce", "tau": 0.1, "lam": 1.0},
            "attack": {"epsilon": 0.2, "step_size": 0.1, "num_steps": 3},
        },
        "eval_attack": {"epsilon": 0.2, "step_size": 0.1, "num_steps": 5},
        "output_dir": "",
    }


def test_criterion_9_training_determinism(tmp_path):
    doc = _criterion_9_doc()
    blobs = []
    for name in ("first", "second"):
        run_dir = tmp_path / name
        doc["output_dir"] = str(run_dir)
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 0
        blobs.append(
            (
                (run_dir / "model.ckpt").read_bytes(),
                (run_dir / "metrics.json").read_bytes(),
            )
        )
    written = {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in ("model.ckpt", "history.csv", "metrics.json", "per_class.csv")
    }
    ok = blobs[0][0] == blobs[1][0] and blobs[0][1] == blobs[1][1]
    _criterion(
        "criterion 9 (bit-identical reruns)",
        ok,
        "checkpoint and metrics bytes identical across a repeated run",
    )
    # Golden checkpoint: numerics must not drift silently, and the files
    # written next to it keep their bytes.
    _assert_pins(
        written,
        {
            "model.ckpt": "7359dcf90fd43ab9bd37d4911159e38606d4fc87e113df02bd3aae525a0aa387",
            "history.csv": "9d50e9dc44e8a3510df8be919d37e598616f5af3d73fd3c490da416cb427cced",
            "metrics.json": "bdf77ea5826f849f2226a265d219ab4c5fc3c1922d6ebbfef45335e79caf815b",
            "per_class.csv": "973bbbb5f2a5bcadef93ef6166e6ddf8fff5902c8480187ae72c933cbe5d7823",
        },
    )


def _criterion_9_variant_sha256(tmp_path, doc) -> dict:
    """sha256 of the checkpoint and history of one ``srat train`` of ``doc``."""
    doc["output_dir"] = str(tmp_path / "run")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 0
    return {
        name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
        for name in ("model.ckpt", "history.csv")
    }


def test_criterion_9_momentum_golden_checkpoint(tmp_path):
    # criterion 9's run with momentum, a margin loss and a trailing short
    # batch: pins the SGD velocity's bits over many steps
    doc = _criterion_9_doc()
    doc["train"].update(momentum=0.9, batch_size=31)
    doc["train"]["loss"].update(kind="ldam", ldam_scale=10.0)
    pins = {
        "model.ckpt": "c89c5a72070dc1fa61bca3a0ec990f02904be6b47d8b2d718928975097b6cdf6",
        "history.csv": "6ec8a45147fb498c01bbd0fad3ac90dbc12190987aba2c5580706c96ba79248f",
    }
    _assert_pins(_criterion_9_variant_sha256(tmp_path, doc), pins)


# criterion 9's run at other depths: one hidden layer, and none, where the
# separation loss reads the logits as the features
@pytest.mark.parametrize(
    "hidden,pins",
    [
        (
            [],
            {
                "model.ckpt": "d6377079b29e6f0241d4bef5df6508d4657dc78d73566a6101cae7df66385582",
                "history.csv": "33f81562a5183b2b1a4ad91f4e8df4fb5f1937ec3ccb0a6ffc61b2326eb1d4ac",
            },
        ),
        (
            [8],
            {
                "model.ckpt": "3b5dbb8d2d1421a48b778c13271dc9e8f47160cb5f41c000d0ab37ab6ef3c8c2",
                "history.csv": "f4296e5dd5b743d5cb28ea2f42e70301b02f2b17bf6f523e8be60f4d93b7129f",
            },
        ),
    ],
    ids=["no_hidden", "one_hidden"],
)
def test_criterion_9_feature_layer_depths(tmp_path, hidden, pins):
    doc = _criterion_9_doc()
    doc["model"]["hidden"] = hidden
    _assert_pins(_criterion_9_variant_sha256(tmp_path, doc), pins)
