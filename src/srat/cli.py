"""Config-driven command line: theory sweeps, training, evaluation,
experiment grids, dataset construction, and feature export.

Exit codes: 0 success, 1 a verified inequality failed inside its
hypothesis, 2 usage/config/ingestion problems, 3 numeric failure during
training or evaluation. Configs are JSON; unknown keys are rejected up
front. All artifacts land inside the designated output directory; the
environment variable SRAT_OUTPUT_ROOT re-roots relative output paths.
"""

import argparse
import contextlib
import copy
import dataclasses
from decimal import Decimal
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
    write_json,
    write_rows,
)
from srat.errors import ConfigError, DomainError, IngestionError, SratError, TrainingError
from srat.evaluation import check_pass, evaluate, export_features, per_class_csv
from srat.mlp import ModelSpec, load_model, save_model
from srat.theory import (
    GaussianMixtureSpec,
    StdConvention,
    grid_search_bias,
    optimal_bias,
    verify_theorem1,
    verify_theorem2,
)
from srat.training import STREAM_EVAL, TrainConfig, start_run, train_srat, write_history

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
    if tp is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:  # a JSON integer beyond the float range
            raise ConfigError(f"{where}: {Decimal(value):.4g} is beyond the float range") from None
    if type(value) is tp:
        return value
    if tp is int and type(value) is float and value.is_integer():
        return int(value)
    raise ConfigError(f"{where}: expected {_JSON_NAMES[tp]}, got {value!r}")


def _from_dict(cls, doc, where: str):
    """Build the dataclass ``cls`` from a JSON object whose keys are its
    fields. A key is required exactly when its field has no default;
    every default lives in the dataclass."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    required = [n for n, f in fields.items() if f.default is dataclasses.MISSING]
    _check_keys(doc, required, fields, where)
    kwargs = {k: _value(fields[k].type, v, f"{where}.{k}") for k, v in doc.items()}
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@contextlib.contextmanager
def _prefixed(prefix: str, **point):
    """Puts ``prefix`` and the ``key=value`` pairs of ``point`` in front of
    the message of an SratError or MemoryError raised inside, keeping its
    exit code: the source of the refusal, such as the file a dataset was
    read from, "grid point" and the point, or a sweep run. An SratError
    keeps its type; a MemoryError becomes a plain one, since NumPy's
    subclass cannot be rebuilt from a message."""
    try:
        yield
    except (SratError, MemoryError) as exc:
        where = " ".join([prefix, *(f"{k}={v}" for k, v in point.items())])
        kind = type(exc) if isinstance(exc, SratError) else MemoryError
        raise kind(f"{where}: {exc}") from None


def _check_at_least(section, **minimum) -> None:
    """Raise DomainError naming the first field of ``section`` that is
    below its ``minimum``."""
    for name, least in minimum.items():
        if getattr(section, name) < least:
            raise DomainError(f"{name} must be >= {least}")


@dataclasses.dataclass(frozen=True)
class SyntheticData:
    """``dataset.kind: "synthetic"``: the binary Gaussian mixture, with an
    imbalanced train split and a balanced test split. ``srat make-dataset
    --kind synthetic`` builds one from its flags."""

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
        _check_at_least(self, n_minority_train=1, n_test_per_class=1, seed=0)

    @property
    def mixture(self) -> GaussianMixtureSpec:
        return GaussianMixtureSpec(self.eta, self.sigma, self.dim, self.imbalance_ratio)

    def build(self):
        """Returns (train_set, test_set, under-represented classes): the
        imbalanced train split drawn on ``seed`` and the balanced test split
        on ``seed + 1``."""
        balanced = GaussianMixtureSpec(self.eta, self.sigma, self.dim, 1.0)
        return (
            sample_gaussian_mixture(self.mixture, self.n_minority_train, seed=self.seed),
            sample_gaussian_mixture(balanced, self.n_test_per_class, seed=self.seed + 1),
            self.under_classes,
        )


@dataclasses.dataclass(frozen=True)
class CsvData:
    """``dataset.kind: "csv"``: train and test CSV files. ``imbalance``
    shrinks the balanced train file, drawing on ``seed``. The
    under-represented classes default to those the imbalance reduced
    (none without one)."""

    train_path: str
    test_path: str
    num_classes: int | None = None
    imbalance: ImbalanceSpec | None = None
    seed: int = 0
    under_classes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _check_at_least(self, seed=0)

    def build(self):
        """Returns (train_set, test_set, under-represented classes)."""
        train_set = load_csv(self.train_path, self.num_classes)
        test_set = load_csv(self.test_path, self.num_classes or train_set.num_classes)
        partition = []
        if self.imbalance is not None:
            with _prefixed(self.train_path):
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
        # the kind picks the class; its other keys are the class's fields
        section = dict(doc["dataset"]) if isinstance(doc["dataset"], dict) else {}
        kind = section.pop("kind", None)
        if kind not in ("synthetic", "csv"):
            raise ConfigError("dataset.kind: expected 'synthetic' or 'csv'")
        cls = SyntheticData if kind == "synthetic" else CsvData
        self.dataset = _from_dict(cls, section, "dataset")
        self.model = _from_dict(ModelSpec, doc["model"], "model")
        self.train = _from_dict(TrainConfig, doc["train"], "train")
        self.eval_attack = _from_dict(AttackConfig, doc["eval_attack"], "eval_attack")
        self.output_dir = _value(str, doc["output_dir"], "output_dir")


def _check_classes(classes, n: int, where: str) -> None:
    if any(not 0 <= c < n for c in classes):
        raise ConfigError(f"{where}: {list(classes)} not all in [0, {n})")


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
    """Attack given inline as JSON or as a path to a JSON file: any value
    with a ``.json`` suffix is read as a path, so a missing file is named."""
    if Path(text).suffix == ".json":
        doc = _load_json(text)
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--attack: invalid JSON ({exc})") from exc
    return _from_dict(AttackConfig, doc, "attack")


# ---------------------------------------------------------------------------
# Experiment runner shared by train and sweep
# ---------------------------------------------------------------------------


def _build_run_data(cfg: ExperimentConfig):
    """(train_set, test_set, under-represented classes) of ``cfg``, after
    the checks that need the data. The run's own checks make them: its
    start on the training split, then the evaluation pass's check of the
    test split, named by its file, against the model the run starts from.
    Only the under-represented classes are checked here."""
    train_set, test_set, partition = cfg.dataset.build()
    _check_classes(partition, test_set.num_classes, "dataset.under_classes")
    model, _, _ = start_run(train_set, cfg.model, cfg.train)
    csv = isinstance(cfg.dataset, CsvData)
    with _prefixed(cfg.dataset.test_path) if csv else contextlib.nullcontext():
        check_pass(model, test_set, cfg.eval_attack, "eval_attack")
    return train_set, test_set, partition


def _run_experiment(cfg: ExperimentConfig, run_dir: Path, data):
    """Train and evaluate on ``data`` from ``_build_run_data(cfg)``, then
    create ``run_dir`` and write the run's files into it: a run that fails
    writes nothing."""
    train_set, test_set, partition = data
    eval_seed = (cfg.train.seed, STREAM_EVAL)
    reports = []

    def eval_fn(model, epoch):
        report = evaluate(model, test_set, cfg.eval_attack, partition, seed=eval_seed)
        reports.append(report)
        return report.columns()

    model, history = train_srat(train_set, cfg.model, cfg.train, eval_fn=eval_fn)

    run_dir.mkdir(parents=True, exist_ok=True)
    write_json(run_dir / "config.json", cfg.raw)
    save_model(model, run_dir / "model.ckpt", seed=cfg.train.seed)
    write_history(history, run_dir / "history.csv")
    report = reports[-1]  # train_srat evaluates the final model last
    write_json(run_dir / "metrics.json", report.to_dict())
    per_class_csv(report, run_dir / "per_class.csv")
    return report


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = ExperimentConfig(_load_json(args.config))
    run_dir = _resolve_out(args.out if args.out else cfg.output_dir)
    report = _run_experiment(cfg, run_dir, _build_run_data(cfg))
    print(
        f"run dir: {run_dir}\n"
        f"overall standard {report.overall_standard:.2f} | "
        f"robust {report.overall_robust:.2f} | "
        f"under standard {report.under_represented_standard:.2f} | "
        f"under robust {report.under_represented_robust:.2f}"
    )
    return 0


def cmd_eval(args) -> int:
    # read with the model's class count, so that classes absent from the
    # file show as empty; the evaluation pass checks the rest of the data
    model = load_model(args.checkpoint)
    data = load_csv(args.data, model.num_classes)
    attack = _attack_arg(args.attack)
    try:
        partition = [int(c) for c in args.under.split(",") if c != ""]
    except ValueError:
        raise ConfigError(f"--under: expected class indices, got {args.under!r}") from None
    _check_classes(partition, model.num_classes, "--under")
    with _prefixed(args.data):
        report = evaluate(model, data, attack, partition, seed=args.seed)
    out_dir = _resolve_out(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "metrics.json", report.to_dict())
    per_class_csv(report, out_dir / "per_class.csv")
    print(
        f"overall standard {report.overall_standard:.2f} | "
        f"robust {report.overall_robust:.2f}"
    )
    return 0


def cmd_export_features(args) -> int:
    model = load_model(args.checkpoint)
    data = load_csv(args.data, model.num_classes)
    attack = _attack_arg(args.attack) if args.attack else None
    out = _resolve_out(args.out)
    with _prefixed(args.data):
        export_features(model, data, out, attack_config=attack, seed=args.seed)
    print(f"wrote {out}")
    return 0


# The flags that apply to some modes of a subcommand only, with their
# defaults there. Given in another mode, a flag exits 2 naming it.
_THEORY_MODE_FLAGS = {
    ("lemma",): {
        "sigma": [1.0], "log_rho_over_k": [-1.5, 0.0, 1.5], "K": 20.0, "points": 100_000
    },
    ("1", "2"): {"sigma1": [1.0], "sigma2": [2.0], "logK": [4.0]},
}
_DATASET_MODE_FLAGS = {
    ("synthetic",): {"eta": 1.0, "sigma": 1.0, "dim": 10, "n_minority": 50, "n_test_per_class": 0},
    ("step", "exp"): {"input": None},
}


def _fill_mode_flags(args, mode_flag: str, mode: str, table: dict) -> None:
    """Set the unset flags of ``mode`` to their defaults in ``table``;
    raise ConfigError naming a flag of another mode that was given."""
    for modes, defaults in table.items():
        for dest, default in defaults.items():
            if mode in modes:
                if getattr(args, dest) is None:
                    setattr(args, dest, default)
            elif getattr(args, dest) is not None:
                flag = "--" + dest.replace("_", "-")
                raise ConfigError(f"{flag} applies to {mode_flag} {' and '.join(modes)} only")


def cmd_make_dataset(args) -> int:
    _fill_mode_flags(args, "--kind", args.kind, _DATASET_MODE_FLAGS)
    out_dir = _resolve_out(args.out)
    if args.kind == "synthetic":
        # --n-test-per-class 0 writes no test split: a one-row-per-class
        # split is drawn on its own stream and dropped
        data = SyntheticData(
            args.eta, args.sigma, args.dim, args.ratio, args.n_minority,
            args.n_test_per_class or 1, args.seed,
        )
        train_set, test_set, _ = data.build()
        test_set = test_set if args.n_test_per_class else None
        source = {"imbalance": None, "mixture": dataclasses.asdict(data.mixture)}
    else:
        if not args.input:
            raise ConfigError("--input is required for step/exp imbalance")
        balanced = load_csv(args.input)
        imbalance = ImbalanceSpec(args.kind, args.ratio)
        with _prefixed(args.input):
            train_set = apply_imbalance(balanced, imbalance, seed=args.seed)
        test_set, source = None, {"imbalance": dataclasses.asdict(imbalance)}
    out_dir.mkdir(parents=True, exist_ok=True)
    save_csv(train_set, out_dir / "train.csv")
    write_json(out_dir / "manifest.json", {
        "num_examples": len(train_set),
        "dim": train_set.dim,
        "num_classes": train_set.num_classes,
        "class_counts": list(train_set.class_counts),
        "seed": args.seed,
        **source,
    })
    if test_set is not None:
        save_csv(test_set, out_dir / "test.csv")
    print(f"wrote {out_dir}")
    return 0


# np.exp of a large log ratio is inf, which the mixture and bias checks
# reject naming the grid point
@np.errstate(over="ignore")
def cmd_theory(args) -> int:
    _fill_mode_flags(args, "--thm", args.thm, _THEORY_MODE_FLAGS)
    out_dir = _resolve_out(args.out)
    convs = list(StdConvention) if args.convention == "both" else [StdConvention(args.convention)]
    rows: list[dict] = []
    reports: list[dict] = []
    failures = 0

    if args.thm == "lemma":
        for conv, eta, sigma, d, log_ratio in itertools.product(
            convs, args.eta, args.sigma, args.d, args.log_rho_over_k
        ):
            with _prefixed(
                "grid point", convention=conv.value, eta=eta, sigma=sigma, d=d, K=args.K,
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
            with _prefixed(
                "grid point", convention=conv.value, eta=eta, d=d, logK=log_k, sigma1=s1,
                sigma2=s2,
            ):
                k = float(np.exp(log_k))
                spec1 = GaussianMixtureSpec(eta, s1, d, k)
                spec2 = GaussianMixtureSpec(eta, s2, d, k)
                # every value is checked above; only valid pairs out of
                # order are skipped
                if not s1 < s2:
                    continue
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
    write_json(out_dir / "reports.json", reports if reports else rows)
    write_rows(out_dir / "table.csv", rows)
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
    for key in ("train", "train.seed", "output_dir"):
        if key in vary:
            raise ConfigError(
                f"sweep.vary: {key!r} cannot be varied; the sweep sets train.seed and "
                "output_dir for each run"
            )
    seeds = _value(tuple[int, ...], grid["seeds"], "sweep.seeds")
    if not seeds or max(seeds) >= 2**64:  # each seed names a run directory
        raise ConfigError("sweep.seeds must be a non-empty list of integers below 2^64")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ConfigError(f"sweep.seeds: seed {seed} is given twice; it names one run per config")
    output_dir = _value(str, grid["output_dir"], "sweep.output_dir")  # checked under --out too
    out_dir = _resolve_out(args.out or output_dir)

    # Every run's config and data are checked before anything is written.
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
            with _prefixed(f"sweep {run_dir.name}"):
                cfg = ExperimentConfig(doc)
                data = _build_run_data(cfg)
            runs.append((cfg, run_dir, data, dict(zip(keys, values), seed=seed)))

    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for cfg, run_dir, data, row in runs:
        rows.append(row | _run_experiment(cfg, run_dir, data).columns())

    write_rows(out_dir / "sweep.csv", rows)
    print(f"{len(rows)} runs; wrote {out_dir / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _int_at_least(minimum: int):
    """The argparse type of an integer flag of at least ``minimum``: any
    other value exits 2 naming the flag, before any output exists."""

    def parse(text: str) -> int:
        if not (text.isdecimal() and int(text) >= minimum):
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return int(text)

    return parse


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
    p.add_argument("--sigma", type=float, nargs="+", help="lemma mode")
    p.add_argument("--sigma1", type=float, nargs="+", help="theorem modes")
    p.add_argument("--sigma2", type=float, nargs="+", help="theorem modes")
    p.add_argument("--logK", type=float, nargs="+", help="theorem modes")
    p.add_argument(
        "--log-rho-over-k",
        dest="log_rho_over_k",
        type=float,
        nargs="+",
        help="lemma mode reweighting offsets",
    )
    p.add_argument("--K", type=float, help="lemma mode imbalance ratio")
    p.add_argument("--points", type=_int_at_least(3), help="lemma mode grid size")
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
    p.add_argument("--seed", type=_int_at_least(0), default=0)
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
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_features)

    p = sub.add_parser("make-dataset", help="construct synthetic or imbalanced data")
    p.add_argument("--kind", choices=["synthetic", "step", "exp"], required=True)
    p.add_argument("--eta", type=float, help="synthetic")
    p.add_argument("--sigma", type=float, help="synthetic")
    p.add_argument("--dim", type=int, help="synthetic")
    p.add_argument("--ratio", type=float, default=10.0)
    p.add_argument("--n-minority", dest="n_minority", type=_int_at_least(1), help="synthetic")
    p.add_argument(
        "--n-test-per-class", dest="n_test_per_class", type=_int_at_least(0),
        help="synthetic; 0 writes no test split",
    )
    p.add_argument("--input", default=None, help="balanced CSV for step/exp")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
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
    # an OSError names its path, and NumPy's MemoryError the size asked for
    except (ConfigError, IngestionError, DomainError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SratError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
