"""The three benchmark workloads: seeded inputs, one operation, its checks.

Each workload writes its inputs as files from the workload seed
(``generate``), then repeats one operation that goes through the public
entry points, mostly ``srat.cli.main``, and checks the operation's
outputs. Input sizes do not depend on the seed, so every seed costs the
same work; only the values change.

The public functions are looked up through their modules at call time
(``srat.cli.main``, ``srat.theory.monte_carlo_classwise_error``) so that
the traced run can wrap them without editing the package.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import srat.cli
import srat.theory
from srat.data import sample_gaussian_mixture, save_csv
from srat.mlp import build_mlp, save_model
from srat.theory import (
    GaussianMixtureSpec,
    LinearClassifier,
    StdConvention,
    classwise_error,
)

# sha256 of the train_srat model.ckpt at --seed 0 (the README experiment
# config exactly). Reported as golden_match; not a gate, because later
# changes may move bits within a stated tolerance.
GOLDEN_SEED = 0
GOLDEN_CKPT_SHA256 = "49e6b9468e443690e36219a2f6c5c8096306fe5100a1d623739988ac2889696b"


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def run_cli(argv) -> tuple[int, str]:
    """One call of ``srat.cli.main``; returns (exit code, captured stderr).

    stdout is captured so that the benchmark's own last line stays its
    result. A raised exception is a failed operation, not a crash of the
    benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = srat.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed op; keep measuring
            return -1, f"{type(exc).__name__}: {exc}"
    return int(code), err.getvalue().strip()


def _accuracy_problem(metrics: dict) -> str | None:
    """Reason a metrics.json accuracy is unusable, or None."""
    values = [*metrics["per_class_standard"], *metrics["per_class_robust"]]
    values += [metrics[k] for k in ("overall_standard", "overall_robust")]
    if metrics["partition"]:
        values += [
            metrics[k]
            for k in ("under_represented_standard", "under_represented_robust")
        ]
    for v in values:
        if v is None or not math.isfinite(v) or not 0.0 <= v <= 100.0:
            return f"accuracy {v!r} is not a finite percentage"
    return None


class TrainSrat:
    """One ``srat train`` on the README experiment config."""

    name = "train_srat"
    rate_name = "train_examples_per_s"

    def __init__(self, inputs: Path):
        self.config_path = inputs / "config.json"
        config = _read_json(self.config_path)
        ds, tr = config["dataset"], config["train"]
        rows = round(ds["imbalance_ratio"] * ds["n_minority_train"]) + ds["n_minority_train"]
        self.seed = tr["seed"]
        # rows x epochs: one adversarial example per row per epoch
        self.items_per_op = rows * tr["total_epochs"]
        self.reference = None
        self.ckpt_sha256 = None

    @staticmethod
    def generate(seed: int, scale: str, inputs: Path) -> None:
        tiny = scale == "tiny"
        milestone = 2 if tiny else 40
        _write_json(
            inputs / "config.json",
            {
                "dataset": {
                    "kind": "synthetic",
                    "eta": 1.0,
                    "sigma": 2.0,
                    "dim": 10,
                    "imbalance_ratio": 100,
                    "n_minority_train": 2 if tiny else 25,
                    "n_test_per_class": 20 if tiny else 500,
                    "seed": 7 + seed,
                },
                "model": {"hidden": [32, 32]},
                "train": {
                    "total_epochs": 3 if tiny else 60,
                    "defer_epoch": milestone,
                    "batch_size": 128,
                    "lr": 0.1,
                    "lr_milestones": [milestone],
                    "lr_decay": 0.1,
                    "weighting": "class_balanced",
                    "seed": seed,
                    "loss": {"kind": "ce", "tau": 0.1, "lam": 1.0, "cb_beta": 0.9999},
                    "attack": {
                        "epsilon": 0.3,
                        "step_size": 0.1,
                        "num_steps": 5,
                        "random_start": True,
                    },
                },
                "eval_attack": {"epsilon": 0.3, "step_size": 0.1, "num_steps": 10},
                "output_dir": "run",
            },
        )

    def run(self, out: Path):
        return run_cli(["train", "--config", str(self.config_path), "--out", str(out)])

    def check(self, out: Path) -> str | None:
        outputs = ((out / "model.ckpt").read_bytes(), (out / "metrics.json").read_bytes())
        if self.reference is None:
            self.reference = outputs
            self.ckpt_sha256 = hashlib.sha256(outputs[0]).hexdigest()
        elif outputs != self.reference:
            return "model.ckpt or metrics.json differs from the first op of this run"
        return _accuracy_problem(json.loads(outputs[1]))

    def info(self) -> dict:
        golden = None
        if self.seed == GOLDEN_SEED and self.ckpt_sha256 is not None:
            golden = self.ckpt_sha256 == GOLDEN_CKPT_SHA256
        return {"ckpt_sha256": self.ckpt_sha256, "golden_match": golden}


class EvalCsv:
    """One ``srat eval`` of a seeded checkpoint on a balanced test CSV.

    Not listed in BENCHMARK.json: on a shared 2-core machine its op time
    moved by about 26 % between two sets of ten runs, beyond the largest
    bound a gated metric may have. Run it by hand, traced or not.
    """

    name = "eval_csv"
    rate_name = "eval_rows_per_s"

    def __init__(self, inputs: Path):
        self.inputs = inputs
        self.seed = _read_json(inputs / "seed.json")["seed"]
        with open(inputs / "test.csv", encoding="utf-8") as fh:
            # every row is scored clean and under attack
            self.items_per_op = sum(1 for _ in fh) - 1
        self.reference = None

    @staticmethod
    def generate(seed: int, scale: str, inputs: Path) -> None:
        per_class = 250 if scale == "tiny" else 25_000
        spec = GaussianMixtureSpec(eta=1.0, sigma=2.0, dim=10, imbalance_ratio=1.0)
        save_csv(sample_gaussian_mixture(spec, per_class, seed=seed), inputs / "test.csv")
        model = build_mlp(10, (32, 32), 2, seed=(seed, 5))
        save_model(model, inputs / "model.ckpt", seed=seed)
        _write_json(inputs / "attack.json", {"epsilon": 0.3, "step_size": 0.1, "num_steps": 20})
        _write_json(inputs / "seed.json", {"seed": seed})

    def run(self, out: Path):
        return run_cli(
            [
                "eval",
                "--checkpoint", str(self.inputs / "model.ckpt"),
                "--data", str(self.inputs / "test.csv"),
                "--attack", str(self.inputs / "attack.json"),
                "--under", "1",
                "--seed", str(self.seed),
                "--out", str(out),
            ]
        )

    def check(self, out: Path) -> str | None:
        metrics = (out / "metrics.json").read_bytes()
        if self.reference is None:
            self.reference = metrics
        elif metrics != self.reference:
            return "metrics.json differs from the first op of this run"
        return _accuracy_problem(json.loads(metrics))

    def info(self) -> dict:
        return {}


# Monte Carlo checks: each call's standardized deviation z from the
# analytic error must stay within MC_CALL_MAX_Z, and the batch's
# root-mean-square z within MC_RMS_MAX_Z. A per-call 3-SE gate would fail
# a correct program on about 2.7 % of seeds with ten calls; 5 SE per call
# fails it on about one seed in 170 000, and the RMS gate keeps the 3-SE
# scale for a deviation the whole batch shares.
MC_CALL_MAX_Z = 5.0
MC_RMS_MAX_Z = 3.0
MC_DIMS = (1, 2, 5, 10, 20, 1, 2, 5, 10, 20)


class TheoryGrid:
    """Lemma grid, both theorem grids, and a fixed Monte Carlo batch."""

    name = "theory_grid"
    rate_name = "theory_points_per_s"

    def __init__(self, inputs: Path):
        doc = _read_json(inputs / "theory.json")
        self.argvs = doc["argvs"]
        self.mc_calls = doc["mc_calls"]
        self.points = doc["points"]
        self.items_per_op = sum(self.points.values())
        self.mc_samples_per_op = sum(c["n_samples"] for c in self.mc_calls)
        self.reference = None
        self.mc_results = None
        # per successful op: seconds of the three CLI grids, of the MC batch
        self.grid_seconds = []
        self.mc_seconds = []

    @staticmethod
    def generate(seed: int, scale: str, inputs: Path) -> None:
        tiny = scale == "tiny"
        rng = np.random.default_rng(seed)
        # lemma: the README grid; theorems: a grid of the same size whose
        # imbalance ratios come from the seed. Every sigma1 < every sigma2,
        # so each combination is a point, once per Z-score convention.
        lemma = {"--eta": ["0.5", "1", "2"], "--sigma": ["0.5", "1", "2", "4"],
                 "--d": ["1", "5", "20"], "--log-rho-over-k": ["-1.5", "0", "1.5"]}
        theorem = {"--eta": ["0.5", "1", "2"], "--sigma1": ["0.5", "1"],
                   "--sigma2": ["2", "4"], "--d": ["1", "5", "20"],
                   "--logK": [repr(float(v)) for v in np.sort(rng.uniform(2.0, 8.0, size=3))]}
        points = {"lemma": 2 * math.prod(len(v) for v in lemma.values())}
        points["thm1"] = points["thm2"] = 2 * math.prod(len(v) for v in theorem.values())

        def argv(thm, grid):
            return ["theory", "--thm", thm, "--convention", "both",
                    *(x for flag, values in grid.items() for x in (flag, *values))]

        argvs = {"lemma": argv("lemma", lemma), "thm1": argv("1", theorem),
                 "thm2": argv("2", theorem)}
        if tiny:
            argvs["lemma"] += ["--points", "1000"]
        mc_calls = []
        for i, dim in enumerate(MC_DIMS):
            # class mean eta*sqrt(d)/sigma and bias within half a deviation
            # of the boundary keep every error in about [0.07, 0.93], where
            # the normal approximation of the estimate's error holds.
            sigma = float(rng.uniform(0.5, 4.0))
            separation = float(rng.uniform(0.2, 1.0))
            spec = {
                "eta": separation * sigma / math.sqrt(dim),
                "sigma": sigma,
                "dim": dim,
                "imbalance_ratio": float(rng.uniform(2.0, 50.0)),
            }
            mc_calls.append(
                {
                    "spec": spec,
                    "bias": float(rng.uniform(-0.5, 0.5)) * sigma * math.sqrt(dim),
                    "label": 1 if i % 2 == 0 else -1,
                    "n_samples": 10_000 if tiny else 1_000_000,
                    "seed": seed * len(MC_DIMS) + i,
                }
            )
        _write_json(inputs / "theory.json",
                    {"argvs": argvs, "points": points, "mc_calls": mc_calls})

    def run(self, out: Path):
        start = time.perf_counter()
        for part, argv in self.argvs.items():
            code, err = run_cli([*argv, "--out", str(out / part)])
            if code != 0:
                return code, f"{part}: {err}"
        grid_seconds = time.perf_counter() - start
        start = time.perf_counter()
        self.mc_results = [
            srat.theory.monte_carlo_classwise_error(
                LinearClassifier.all_ones(c["spec"]["dim"], c["bias"]),
                GaussianMixtureSpec(**c["spec"]),
                c["label"],
                c["n_samples"],
                c["seed"],
            )
            for c in self.mc_calls
        ]
        self.mc_seconds.append(time.perf_counter() - start)
        self.grid_seconds.append(grid_seconds)
        return 0, ""

    def check(self, out: Path) -> str | None:
        outputs = tuple(
            (out / part / name).read_bytes()
            for part in self.argvs
            for name in ("table.csv", "reports.json")
        ) + (tuple(self.mc_results),)
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            return "theory outputs differ from the first op of this run"

        with open(out / "lemma" / "table.csv", newline="", encoding="utf-8") as fh:
            lemma = list(csv.DictReader(fh))
        if len(lemma) != self.points["lemma"]:
            return f"lemma table has {len(lemma)} points, expected {self.points['lemma']}"
        for row in lemma:
            if row["ok"] != "True":
                return f"lemma point {row} is not ok"
        for part in ("thm1", "thm2"):
            reports = _read_json(out / part / "reports.json")
            if len(reports) != self.points[part]:
                return f"{part} has {len(reports)} points, expected {self.points[part]}"
            for r in reports:
                if r["precondition_met"] and not r["holds"]:
                    return f"{part}: violation inside the hypothesis: {r}"

        zs = []
        for c, estimate in zip(self.mc_calls, self.mc_results):
            spec = GaussianMixtureSpec(**c["spec"])
            clf = LinearClassifier.all_ones(spec.dim, c["bias"])
            p = classwise_error(clf, spec, c["label"], StdConvention.EXACT)
            zs.append((estimate - p) / math.sqrt(p * (1.0 - p) / c["n_samples"]))
        worst = max(abs(z) for z in zs)
        rms = math.sqrt(sum(z * z for z in zs) / len(zs))
        if worst > MC_CALL_MAX_Z or rms > MC_RMS_MAX_Z:
            return f"Monte Carlo errors off the analytic ones: max |z| {worst:.2f}, rms z {rms:.2f}"
        return None

    def info(self) -> dict:
        return {"mc_samples_per_op": self.mc_samples_per_op}


WORKLOADS = {w.name: w for w in (TrainSrat, EvalCsv, TheoryGrid)}
