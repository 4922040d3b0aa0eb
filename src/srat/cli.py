"""Config-driven command line: theory sweeps, training, evaluation,
experiment grids, dataset construction, and feature export.

Exit codes: 0 success, 1 a verified inequality failed inside its
hypothesis, 2 usage/config/ingestion problems, 3 numeric failure during
training. Configs are JSON; unknown keys are rejected up front. All
artifacts land inside the designated output directory; the environment
variable SRAT_OUTPUT_ROOT re-roots relative output paths.
"""

import argparse
import contextlib
import copy
import csv
import dataclasses
import itertools
import json
import os
import sys
import types
from pathlib import Path

import numpy as np

from srat.attack import AttackConfig
from srat.data import (
    ImbalanceSpec,
    apply_imbalance,
    load_csv,
    reduced_classes,
    sample_gaussian_mixture,
    save_csv,
    write_manifest,
)
from srat.errors import ConfigError, DomainError, IngestionError, SratError, TrainingError
from srat.evaluation import evaluate, export_features, per_class_csv
from srat.losses import LossConfig
from srat.mlp import ModelSpec, load_model, save_model
from srat.theory import (
    GaussianMixtureSpec,
    StdConvention,
    grid_search_bias,
    optimal_bias,
    verify_theorem1,
    verify_theorem2,
)
from srat.training import STREAM_EVAL, TrainConfig, train_srat

OUTPUT_ROOT_ENV = "SRAT_OUTPUT_ROOT"


# ---------------------------------------------------------------------------
# Config parsing (strict: unknown keys are errors)
# ---------------------------------------------------------------------------


def _check_keys(doc: dict, required, optional, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(doc)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


# Keys the CLI requires although the dataclass has a default, so that no
# silent default enters a reported run.
_MANDATORY = {LossConfig: ("kind", "tau", "lam"), TrainConfig: ("weighting", "seed")}
_JSON_NAMES = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}


def _value(tp, value, where: str):
    """``value`` converted to the field annotation ``tp``.

    Conversions that would change the value (1.7 -> 1, "false" -> True,
    "ten" -> a number) are refused. Nested dataclasses recurse; a
    ``tuple[T, ...]`` field takes a JSON list and converts each item to T.
    """
    if isinstance(tp, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = [t for t in tp.__args__ if t is not type(None)]
    if dataclasses.is_dataclass(tp):
        return _from_dict(tp, value, where)
    if isinstance(tp, types.GenericAlias):  # tuple[T, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(_value(tp.__args__[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if type(value) is tp or (tp is float and type(value) is int):
        return tp(value)
    if tp is int and type(value) is float and value.is_integer():
        return int(value)
    raise ConfigError(f"{where}: expected {_JSON_NAMES[tp]}, got {value!r}")


def _from_dict(cls, doc, where: str):
    """Build the dataclass ``cls`` from a JSON object whose keys are its
    fields. Fields without a default are required, and so are the keys
    ``_MANDATORY`` lists; every default lives in the dataclass."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    required = [n for n, f in fields.items() if f.default is dataclasses.MISSING]
    _check_keys(doc, required + list(_MANDATORY.get(cls, ())), fields, where)
    kwargs = {k: _value(fields[k].type, v, f"{where}.{k}") for k, v in doc.items()}
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _synthetic_splits(spec: GaussianMixtureSpec, n_minority: int, n_test_per_class, seed: int):
    """The imbalanced train split drawn on ``seed`` and the balanced test
    split on ``seed + 1`` (None when ``n_test_per_class`` is None)."""
    train_set = sample_gaussian_mixture(spec, n_minority, seed=seed)
    if n_test_per_class is None:
        return train_set, None
    balanced = dataclasses.replace(spec, imbalance_ratio=1.0)
    return train_set, sample_gaussian_mixture(balanced, n_test_per_class, seed=seed + 1)


@dataclasses.dataclass(frozen=True)
class SyntheticData:
    """``dataset.kind: "synthetic"``: the binary Gaussian mixture, with an
    imbalanced train split and a balanced test split."""

    kind: str
    eta: float
    sigma: float
    dim: int
    imbalance_ratio: float
    n_minority_train: int
    n_test_per_class: int
    seed: int
    under_classes: tuple[int, ...] = (1,)  # the minority (y = -1) class

    def __post_init__(self) -> None:
        self.mixture  # raises DomainError on invalid mixture values

    @property
    def mixture(self) -> GaussianMixtureSpec:
        return GaussianMixtureSpec(self.eta, self.sigma, self.dim, self.imbalance_ratio)

    def build(self):
        """Returns (train_set, test_set, under-represented classes)."""
        train_set, test_set = _synthetic_splits(
            self.mixture, self.n_minority_train, self.n_test_per_class, self.seed
        )
        return train_set, test_set, self.under_classes


@dataclasses.dataclass(frozen=True)
class CsvData:
    """``dataset.kind: "csv"``: train and test CSV files. ``imbalance``
    shrinks the balanced train file, drawing on ``seed``. The
    under-represented classes default to those the imbalance reduced
    (none without one)."""

    kind: str
    train_path: str
    test_path: str
    num_classes: int | None = None
    imbalance: ImbalanceSpec | None = None
    seed: int = 0
    under_classes: tuple[int, ...] | None = None

    def build(self):
        """Returns (train_set, test_set, under-represented classes)."""
        train_set = load_csv(self.train_path, self.num_classes)
        test_set = load_csv(self.test_path, self.num_classes or train_set.num_classes)
        partition = []
        if self.imbalance is not None:
            train_set = apply_imbalance(train_set, self.imbalance, self.seed)
            partition = reduced_classes(self.imbalance, train_set.num_classes)
        return train_set, test_set, partition if self.under_classes is None else self.under_classes


class ExperimentConfig:
    """Validated bundle: dataset + model + training + evaluation attack."""

    def __init__(self, doc: dict):
        _check_keys(
            doc,
            required=("dataset", "model", "train", "eval_attack", "output_dir"),
            optional=(),
            where="experiment",
        )
        self.raw = copy.deepcopy(doc)
        section = doc["dataset"]
        kind = section.get("kind") if isinstance(section, dict) else None
        if kind not in ("synthetic", "csv"):
            raise ConfigError("dataset.kind: expected 'synthetic' or 'csv'")
        cls = SyntheticData if kind == "synthetic" else CsvData
        self.dataset = _from_dict(cls, section, "dataset")
        self.model = _from_dict(ModelSpec, doc["model"], "model")
        self.train = _from_dict(TrainConfig, doc["train"], "train")
        self.eval_attack = _from_dict(AttackConfig, doc["eval_attack"], "eval_attack")
        self.output_dir = _value(str, doc["output_dir"], "output_dir")


def _resolve_out(path: str) -> Path:
    p = Path(path)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not p.is_absolute():
        p = Path(root) / p
    return p


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # a JSON syntax error, or bytes that are not UTF-8
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def _attack_arg(text: str) -> AttackConfig:
    """Attack given inline as JSON or as a path to a JSON file."""
    candidate = Path(text)
    if candidate.suffix == ".json" and candidate.exists():
        doc = _load_json(candidate)
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--attack: invalid JSON ({exc})") from exc
    return _from_dict(AttackConfig, doc, "attack")


# ---------------------------------------------------------------------------
# Experiment runner shared by train and sweep
# ---------------------------------------------------------------------------


def _run_experiment(cfg: ExperimentConfig, run_dir: Path):
    train_set, test_set, partition = cfg.dataset.build()
    n = test_set.num_classes
    if any(not 0 <= c < n for c in partition):
        raise ConfigError(f"dataset.under_classes: {list(partition)} not all in [0, {n})")
    cfg.train.attack.check_box(train_set.features, "train.attack")
    cfg.eval_attack.check_box(test_set.features, "eval_attack")
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(cfg.raw, fh, indent=2, sort_keys=True)
        fh.write("\n")

    eval_seed = (cfg.train.seed, STREAM_EVAL)
    reports = []

    def eval_fn(model, epoch):
        report = evaluate(model, test_set, cfg.eval_attack, partition, seed=eval_seed)
        reports.append(report)
        return {
            "overall_standard": report.overall_standard,
            "overall_robust": report.overall_robust,
            "under_standard": report.under_represented_standard,
            "under_robust": report.under_represented_robust,
        }

    model, history = train_srat(train_set, cfg.model, cfg.train, eval_fn=eval_fn)

    save_model(model, run_dir / "model.ckpt", seed=cfg.train.seed)
    history.to_csv(run_dir / "history.csv")
    report = reports[-1]  # train_srat evaluates the final model last
    report.to_json(run_dir / "metrics.json")
    per_class_csv(report, run_dir / "per_class.csv")
    return report


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = ExperimentConfig(_load_json(args.config))
    run_dir = _resolve_out(args.out if args.out else cfg.output_dir)
    report = _run_experiment(cfg, run_dir)
    print(
        f"run dir: {run_dir}\n"
        f"overall standard {report.overall_standard:.2f} | "
        f"robust {report.overall_robust:.2f} | "
        f"under standard {report.under_represented_standard:.2f} | "
        f"under robust {report.under_represented_robust:.2f}"
    )
    return 0


def _model_and_data(args):
    """The checkpoint and the CSV to score it on, read with the model's
    class count so that classes absent from the file show as empty."""
    model = load_model(args.checkpoint)
    data = load_csv(args.data, model.num_classes)
    if data.dim != model.input_dim:
        raise IngestionError(
            f"{args.data}: {data.dim} feature columns, the model takes {model.input_dim}"
        )
    return model, data


def cmd_eval(args) -> int:
    model, data = _model_and_data(args)
    attack = _attack_arg(args.attack)
    try:
        partition = [int(c) for c in args.under.split(",") if c != ""]
    except ValueError:
        raise ConfigError(f"--under: expected class indices, got {args.under!r}") from None
    attack.check_box(data.features)
    out_dir = _resolve_out(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = evaluate(model, data, attack, partition, seed=args.seed)
    report.to_json(out_dir / "metrics.json")
    per_class_csv(report, out_dir / "per_class.csv")
    print(
        f"overall standard {report.overall_standard:.2f} | "
        f"robust {report.overall_robust:.2f}"
    )
    return 0


def cmd_export_features(args) -> int:
    model, data = _model_and_data(args)
    attack = _attack_arg(args.attack) if args.attack else None
    if attack is not None:
        attack.check_box(data.features)
    out = _resolve_out(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    export_features(model, data, out, attack_config=attack, seed=args.seed)
    print(f"wrote {out}")
    return 0


def cmd_make_dataset(args) -> int:
    out_dir = _resolve_out(args.out)
    if args.kind == "synthetic":
        spec = GaussianMixtureSpec(
            eta=args.eta, sigma=args.sigma, dim=args.dim, imbalance_ratio=args.ratio
        )
        train_set, test_set = _synthetic_splits(
            spec, args.n_minority, args.n_test_per_class or None, args.seed
        )
        imbalance, extra = None, {"mixture": spec.to_dict()}
    else:
        if not args.input:
            raise ConfigError("--input is required for step/exp imbalance")
        balanced = load_csv(args.input)
        base = balanced.class_counts[0]
        imbalance = ImbalanceSpec(kind=args.kind, ratio=args.ratio, base_count=base)
        train_set = apply_imbalance(balanced, imbalance, seed=args.seed)
        test_set, extra = None, None
    out_dir.mkdir(parents=True, exist_ok=True)
    save_csv(train_set, out_dir / "train.csv")
    write_manifest(
        out_dir / "manifest.json", train_set, seed=args.seed, imbalance=imbalance, extra=extra
    )
    if test_set is not None:
        save_csv(test_set, out_dir / "test.csv")
    print(f"wrote {out_dir}")
    return 0


def _conventions(name: str):
    if name == "both":
        return [StdConvention.SUMMED, StdConvention.EXACT]
    return [StdConvention(name)]


@contextlib.contextmanager
def _grid_point(**point):
    """Adds the grid point to the message of a DomainError raised inside."""
    try:
        yield
    except DomainError as exc:
        where = " ".join(f"{k}={v}" for k, v in point.items())
        raise DomainError(f"grid point {where}: {exc}") from None


# np.exp of a large log ratio is inf, which the mixture and bias checks
# reject naming the grid point
@np.errstate(over="ignore")
def cmd_theory(args) -> int:
    out_dir = _resolve_out(args.out)
    convs = _conventions(args.convention)
    rows: list[dict] = []
    reports: list[dict] = []
    failures = 0

    if args.thm == "lemma":
        for conv, eta, sigma, d, log_ratio in itertools.product(
            convs, args.eta, args.sigma, args.d, args.log_rho_over_k
        ):
            with _grid_point(
                convention=conv.value, eta=eta, sigma=sigma, d=d, K=args.K,
                log_rho_over_k=log_ratio,
            ):
                spec = GaussianMixtureSpec(eta, sigma, d, args.K)
                rho = args.K * float(np.exp(log_ratio))
                closed = optimal_bias(spec, rho, conv)
                searched, resolution = grid_search_bias(spec, rho, conv, args.points)
            ok = abs(closed - searched) <= 2 * resolution
            failures += 0 if ok else 1
            rows.append(
                {
                    "convention": conv.value,
                    "eta": eta,
                    "sigma": sigma,
                    "d": d,
                    "K": args.K,
                    "rho": rho,
                    "bias_closed": closed,
                    "bias_grid": searched,
                    "resolution": resolution,
                    "ok": ok,
                }
            )
    else:
        verify = verify_theorem1 if args.thm == "1" else verify_theorem2
        for conv, eta, d, log_k, s1, s2 in itertools.product(
            convs, args.eta, args.d, args.logK, args.sigma1, args.sigma2
        ):
            if not s1 < s2:
                continue
            with _grid_point(
                convention=conv.value, eta=eta, d=d, logK=log_k, sigma1=s1, sigma2=s2
            ):
                k = float(np.exp(log_k))
                spec1 = GaussianMixtureSpec(eta, s1, d, k)
                spec2 = GaussianMixtureSpec(eta, s2, d, k)
                report = verify(spec1, spec2, conv)
                biases = {
                    f"bias{i}_rho{name}": optimal_bias(spec, rho, conv)
                    for name, rho in (("1", 1.0), ("K", k))
                    for i, spec in ((1, spec1), (2, spec2))
                }
            if report.precondition_met and not report.holds:
                failures += 1
            reports.append(report.to_dict())
            rows.append(
                {
                    "thm": args.thm,
                    "convention": conv.value,
                    "eta": eta,
                    "sigma1": s1,
                    "sigma2": s2,
                    "d": d,
                    "K": k,
                    "lhs": report.lhs,
                    "rhs": report.rhs,
                    "holds": report.holds,
                    "precondition_met": report.precondition_met,
                    **biases,
                }
            )

    if not rows:
        raise ConfigError("the requested grid is empty")
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "reports.json", "w", encoding="utf-8") as fh:
        json.dump(reports if reports else rows, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "table.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"{len(rows)} grid points, {failures} violation(s); wrote {out_dir}")
    return 1 if failures else 0


def _set_dotted(doc: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"vary key {dotted!r} does not address the base config")
        node = node[part]
    if not isinstance(node, dict):
        raise ConfigError(f"vary key {dotted!r} does not address the base config")
    node[parts[-1]] = value


def cmd_sweep(args) -> int:
    grid = _load_json(args.config)
    _check_keys(
        grid,
        required=("base", "vary", "seeds", "output_dir"),
        optional=(),
        where="sweep",
    )
    vary = grid["vary"]
    if not isinstance(vary, dict) or not all(isinstance(v, list) and v for v in vary.values()):
        raise ConfigError("sweep.vary must map dotted keys to non-empty value lists")
    seeds = _value(tuple[int, ...], grid["seeds"], "sweep.seeds")
    if not seeds:
        raise ConfigError("sweep.seeds must not be empty")
    out_dir = _resolve_out(args.out or _value(str, grid["output_dir"], "sweep.output_dir"))

    # Every run's config is checked before anything is written.
    keys = sorted(vary)
    runs = []
    for combo_idx, values in enumerate(itertools.product(*(vary[k] for k in keys))):
        for seed in seeds:
            doc = copy.deepcopy(grid["base"])
            for key, value in zip(keys, values):
                _set_dotted(doc, key, value)
            _set_dotted(doc, "train.seed", seed)
            run_dir = out_dir / f"run_{combo_idx:03d}_seed{seed}"
            doc["output_dir"] = str(run_dir)
            try:
                cfg = ExperimentConfig(doc)
            except ConfigError as exc:
                raise ConfigError(f"sweep {run_dir.name}: {exc}") from exc
            runs.append((cfg, run_dir, dict(zip(keys, values), seed=seed)))

    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for cfg, run_dir, row in runs:
        report = _run_experiment(cfg, run_dir)
        row.update(
            overall_standard=report.overall_standard,
            overall_robust=report.overall_robust,
            under_standard=report.under_represented_standard,
            under_robust=report.under_represented_robust,
            per_class_standard=";".join(repr(v) for v in report.per_class_standard),
            per_class_robust=";".join(repr(v) for v in report.per_class_robust),
        )
        rows.append(row)

    with open(out_dir / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"{len(rows)} runs; wrote {out_dir / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srat",
        description="Reweighted adversarial training workbench with feature "
        "separation and closed-form mixture analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theory", help="verify closed-form bias and ordering claims")
    p.add_argument("--thm", choices=["lemma", "1", "2"], required=True)
    p.add_argument("--convention", choices=["summed", "exact", "both"], default="both")
    p.add_argument("--eta", type=float, nargs="+", default=[1.0])
    p.add_argument("--d", type=int, nargs="+", default=[5])
    p.add_argument("--sigma", type=float, nargs="+", default=[1.0], help="lemma mode")
    p.add_argument("--sigma1", type=float, nargs="+", default=[1.0])
    p.add_argument("--sigma2", type=float, nargs="+", default=[2.0])
    p.add_argument("--logK", type=float, nargs="+", default=[4.0])
    p.add_argument(
        "--log-rho-over-k",
        dest="log_rho_over_k",
        type=float,
        nargs="+",
        default=[-1.5, 0.0, 1.5],
        help="lemma mode reweighting offsets",
    )
    p.add_argument("--K", type=float, default=20.0, help="lemma mode imbalance ratio")
    p.add_argument("--points", type=int, default=100_000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("train", help="run one training config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config's output_dir")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a CSV dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--attack", required=True, help="JSON literal or .json file")
    p.add_argument("--under", default="", help="comma-separated class indices")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run a grid of configs and aggregate a CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-features", help="dump penultimate features to CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--attack", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_features)

    p = sub.add_parser("make-dataset", help="construct synthetic or imbalanced data")
    p.add_argument("--kind", choices=["synthetic", "step", "exp"], required=True)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--ratio", type=float, default=10.0)
    p.add_argument("--n-minority", dest="n_minority", type=int, default=50)
    p.add_argument(
        "--n-test-per-class", dest="n_test_per_class", type=int, default=0
    )
    p.add_argument("--input", default=None, help="balanced CSV for step/exp")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_dataset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingError as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, IngestionError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # an OSError names its path
        return 2
    except SratError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
