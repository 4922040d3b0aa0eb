"""Mutation check of the tier-1 suite.

    python3 tests/mutants.py
    python3 tests/mutants.py --sample 24 --seed 11

Each listed mutant below is a one-line change to the package that breaks
one behaviour the tests are meant to judge by its meaning, not by a hash.
For each mutant the runner copies the tree to a temporary directory,
applies the mutant there, and runs tier-1 with ``-x`` and every byte pin
and ``LIST_CHECK`` deselected. It prints ``killed`` with the first failing
test, or ``survived``; a run still going after ``TIMEOUT`` seconds (tier-1
takes about 40) is stopped and counts as killed, since a mutant can make a
loop never end. Exits 1 when a mutant survives or its text does not occur
exactly once in its file, 0 when every mutant is killed.

With ``--sample N --seed S`` the runner makes its own mutants instead: it
swaps N operators (``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``+``/``-``,
``*``/``/`` and their augmented forms) drawn with seed S from the
functions in ``SAMPLED``, and runs each the same way. A survivor listed in
``EQUIVALENT`` is reported with the reason it cannot change a result and
does not fail the run; any other survivor does.

Pytest does not collect this file: its name does not start with ``test_``.
"""

import argparse
import ast
import io
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# every byte pin: the criterion-9 checkpoints, the theory, manifest and
# profile hashes and the eval metrics hash; a mutant must fail a test of
# the meaning
BYTE_PINS = ("criterion_9", "pinned", "test_make_dataset_keeps_the_rows_it_kept",
             "test_eval_flags_classes_missing_from_the_csv")
# the check that each mutant's text occurs in the source, which a mutant of
# that text fails without judging a behaviour
LIST_CHECK = "test_mutants_and_sampled_functions_are_in_the_source"
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-k", " and ".join(f"not {name}" for name in (*BYTE_PINS, LIST_CHECK))]
TIMEOUT = 300
# what building, testing and running leave in a tree; not copied
_LEFTOVERS = shutil.ignore_patterns(
    ".git", "__pycache__", "*.pyc", "*.egg-info", ".pytest_cache", ".hypothesis", ".bench_*"
)


@dataclass(frozen=True)
class Mutant:
    file: str  # under src/srat
    text: str  # must occur exactly once in the file
    replacement: str
    breaks: str


MUTANTS = [
    Mutant("attack.py", "step *= config.step_size", "step *= -config.step_size",
           "a PGD step ascends the loss (sign negated: it descends)"),
    Mutant("losses.py", "ClassWeights((1.0 - beta) / (1.0 - beta**counts))",
           "ClassWeights((1.0 - beta**counts) / (1.0 - beta))",
           "class-balanced weights fall with the effective number (inverted)"),
    Mutant("training.py", "weights = uniform if epoch < config.defer_epoch else deferred",
           "weights = uniform if epoch <= config.defer_epoch else deferred",
           "deferred weights start at defer_epoch (one epoch late)"),
    Mutant("training.py", 'phase="pre_defer" if epoch < config.defer_epoch else "post_defer"',
           'phase="pre_defer" if epoch <= config.defer_epoch else "post_defer"',
           "history's phase flips at defer_epoch (one epoch late)"),
    Mutant("training.py", "(config.seed, STREAM_SHUFFLE, epoch)", "(config.seed, STREAM_SHUFFLE, 1)",
           "each epoch draws its own shuffle (the same one every epoch)"),
    Mutant("evaluation.py", "100.0 * float(hits) / int(total) if total",
           "100.0 * float(hits) / (int(total) + 1) if total",
           "an accuracy divides by its row count (by the count plus one)"),
    Mutant("attack.py", "uniform(-config.epsilon, config.epsilon, size=batch.shape)",
           "uniform(0.0, config.epsilon, size=batch.shape)",
           "the random start spans [-epsilon, epsilon] (only [0, epsilon))"),
    Mutant("training.py", "separation_loss=sep_sum / len(epoch_batches),",
           "separation_loss=sep_sum,",
           "an epoch's separation loss is the batch mean (the sum)"),
    Mutant("evaluation.py",
           '"under_standard": self.under_represented_standard,\n'
           '            "under_robust": self.under_represented_robust,',
           '"under_standard": self.under_represented_robust,\n'
           '            "under_robust": self.under_represented_standard,',
           "EvalReport.columns() puts each under-represented accuracy in its column (swapped)"),
    Mutant("evaluation.py", '"per_class_robust": self.per_class_robust,',
           '"per_class_robust": self.per_class_standard,',
           "EvalReport.columns()' per_class_robust holds the robust values (the standard ones)"),
    Mutant("data.py", "rng = derive_rng(seed, c)", "rng = derive_rng(seed, 0)",
           "each class of apply_imbalance draws on its own stream (all on one)"),
    Mutant("data.py", "order = np.sort(np.concatenate(keep))", "order = np.concatenate(keep)",
           "apply_imbalance keeps the input row order (groups rows by class)"),
    Mutant("data.py", "return list(range(head, num_classes))",
           "return list(range(0, num_classes - head))",
           "the reduced classes are the tail of the class range (taken from the head)"),
    Mutant("data.py", "round(base * decay**i)", "round(base * decay**(i + 1))",
           "exp class i keeps base * t^i (one decay step ahead)"),
    Mutant("data.py", "if i in tail else base", "if i not in tail else base",
           "the step profile cuts the tail classes (the head ones)"),
    Mutant("data.py", "if ratio != 1:", "if False:",
           "one class takes ratio 1 only (any ratio, keeping every row)"),
    Mutant("theory.py", "(label * bias - spec.eta * d) / scale", "(label * bias + spec.eta * d) / scale",
           "a Z-score subtracts the class mean (adds it)"),
    Mutant("theory.py", "2.15311535474403846e-8", "2.15311535474403846e-7",
           "the erfc rational's numerator coefficient (ten times too large)"),
    Mutant("losses.py", "logits[rows, labels] -= loss.margins[labels]",
           "logits[rows, labels] += loss.margins[labels]",
           "LDAM subtracts each label's margin from its logit (adds it)"),
    Mutant("losses.py", "modulator = one_minus**gamma", "modulator = one_minus**(gamma + 1.0)",
           "the focal modulator is (1 - p_t)^gamma (one power higher)"),
    Mutant("losses.py", "d_z /= tau", "d_z /= tau * tau",
           "the separation gradient scales by 1/tau (by 1/tau^2)"),
    Mutant("mlp.py", 'model.params.astype("<f8")', 'model.params.astype(">f8")',
           "a checkpoint stores its blob little-endian (big-endian)"),
    Mutant("attack.py", "lo = batch - config.epsilon", "lo = batch - 2 * config.epsilon",
           "the ball's lower edge lies epsilon below the clean rows (2 epsilon)"),
    Mutant("training.py", "if m <= epoch)", "if m < epoch)",
           "the learning rate decays at its milestone epoch (one epoch late)"),
    Mutant("evaluation.py", "seed=(seed, start)", "seed=(seed, 0)",
           "each evaluation chunk draws its attack on its own stream (all on one)"),
    Mutant("theory.py", "if risk[i] < best:", "if risk[i] <= best:",
           "the grid search keeps the first of tied minima (a later tie wins)"),
    Mutant("theory.py", "stop = int(ends[run[-1]])", "stop = int(starts[run[-1]])",
           "a kept run of the grid search ends with its last sub-block (one sub-block early)"),
    Mutant("theory.py", "points[idx == num_points - 1] = hi", "points[idx == num_points] = hi",
           "the grid's last index holds hi, as in np.linspace (the index past the grid does)"),
    Mutant("theory.py", "best + _PRUNE_SLACK * best + floor", "best + _PRUNE_SLACK * best - floor",
           "the prune threshold adds the subnormal floor (subtracts it)"),
    Mutant("training.py", "velocity = config.momentum * velocity + grads",
           "velocity = config.momentum * config.momentum * velocity + grads",
           "heavy-ball momentum scales the velocity by m (by m squared)"),
    Mutant("theory.py", "holds=margin > 0.0,", "holds=margin >= 0.0,",
           "a theorem holds only on a positive margin (also on a tie)"),
    Mutant("theory.py", "dm - dp,", "dm + dp,",
           "Theorem 1's margin subtracts the +1 error difference (adds it)"),
    Mutant("theory.py", "ra - rb if a + b > 0.0", "ra + rb if a + b > 0.0",
           "a right-tail CDF difference subtracts the reflected tails (adds them)"),
    Mutant("theory.py", "(rho * spec.minority_prior + spec.majority_prior)",
           "(rho * spec.minority_prior - spec.majority_prior)",
           "the prune floor adds the majority weight (subtracts it)"),
    Mutant("attack.py", "if not lo < hi:", "if lo >= hi:",
           "an attack box refuses a NaN bound (NaN fails every comparison and passes)"),
    Mutant("attack.py", 'object.__setattr__(self, "epsilon", self.epsilon + 0.0)',
           'object.__setattr__(self, "epsilon", self.epsilon)',
           "an epsilon of -0.0 is stored as +0.0 (kept as -0.0)"),
    Mutant("attack.py", '@np.errstate(over="ignore", invalid="ignore", divide="ignore")\n', "",
           "pgd_attack keeps NumPy's warnings in (lets them out)"),
    Mutant("cli.py", 'output_dir = _value(str, grid["output_dir"], "sweep.output_dir")',
           'output_dir = grid["output_dir"]',
           "a sweep checks its output_dir under --out too (not at all)"),
    Mutant("theory.py", "np.less_equal if label == 1 else np.greater_equal",
           "np.less if label == 1 else np.greater",
           "the Monte Carlo oracle counts a score on the bias as an error (as correct)"),
    Mutant("theory.py", "np.subtract(mean, drawn[:k - m], out=samples[m:k])",
           "np.add(mean, drawn[:k - m], out=samples[m:k])",
           "a Monte Carlo reflection is label*mu - sigma*z (a copy of its sample)"),
    Mutant("losses.py", "(onehot.T @ z)[labels]", "(onehot.T @ z)[np.sort(labels)]",
           "each anchor's positives are gathered from its own class sum (from a sorted label's)"),
    Mutant("attack.py", "np.maximum(lo, config.clip_min, out=lo)",
           "np.minimum(lo, config.clip_min, out=lo)",
           "the ball's lower edge is cut by clip_min from below (opened to clip_min and beyond)"),
    Mutant("attack.py", 'object.__setattr__(self, "clip_max", hi)',
           'object.__setattr__(self, "clip_max", lo)',
           "an attack config stores its upper bound as clip_max (as the lower bound)"),
    Mutant("losses.py", "w / w.mean()", "w / w.max()",
           "class weights are divided by their mean (by their largest weight)"),
    Mutant("losses.py", "(w > 0).all()", "(w >= 0).all()",
           "a class weight that underflows to 0 once divided is refused (kept)"),
    Mutant("losses.py", "if n_valid == 0:", "if n_valid < 0:",
           "a batch with no same-class pair has a zero separation term (0 / 0)"),
    Mutant("evaluation.py", "if not np.isfinite(feats).all():", "if False:",
           "export-features refuses non-finite features (writes them)"),
]


def _source(root: Path, mutant: Mutant) -> str:
    """The mutant's file under ``root``, checked to hold its text once."""
    source = (root / "src" / "srat" / mutant.file).read_text(encoding="utf-8")
    count = source.count(mutant.text)
    if count != 1:
        raise SystemExit(f"{mutant.file}: mutant text occurs {count} times: {mutant.text!r}")
    return source


# --sample draws from the operators of these functions (nested ones
# included): the inner loop, the data rules and the theory
SAMPLED = {
    "attack.py": ("check_box", "pgd_attack"),
    "data.py": ("imbalanced_counts", "reduced_classes", "apply_imbalance",
                "sample_gaussian_mixture", "batches"),
    "evaluation.py": ("_percent", "evaluate", "export_features"),
    "losses.py": ("softmax_direction", "ldam_margins", "effective_number_weights",
                  "separation_loss", "prediction_loss", "combined_objective"),
    "mlp.py": ("build_mlp", "forward", "backward", "sgd_step"),
    "training.py": ("_train_batch", "train_srat"),
    "theory.py": ("_times_exp_neg_square", "_rational_parts", "_erfc_nonneg", "normal_cdf",
                  "_zscore", "optimal_bias", "_weighted_risk", "_grid_points", "grid_search_bias",
                  "monte_carlo_classwise_error", "_precondition", "_cdf_pairs",
                  "verify_theorem1", "verify_theorem2"),
}
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "+": "-", "-": "+", "*": "/", "/": "*", "+=": "-=", "-=": "+=", "*=": "/=", "/=": "*="}
_BIN_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)
_CMP_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)

# Sampled survivors that no test can kill, keyed by (file, stripped line,
# column of the operator in the stripped line), with the reason.
EQUIVALENT = {
    ("mlp.py", "if needed * 8 > np.iinfo(np.intp).max:", 14):
        "needed * 8 is a multiple of 8 and intp's maximum is odd: they are never equal",
    ("theory.py", "kept = np.flatnonzero(bounds <= best + _PRUNE_SLACK * best + floor)", 29):
        "the bound of a sub-block holding a minimum exceeds it by a few ULPs at most, "
        "far less than the slack, so it lies strictly below the threshold",
}


@dataclass(frozen=True)
class Site:
    """One swappable operator: ``op`` at 1-based ``line``, 0-based character
    ``col`` of ``file`` under src/srat, inside ``function``."""

    file: str
    function: str
    line: int
    col: int
    op: str

    def key(self, source: str) -> tuple:
        text = source.splitlines()[self.line - 1]
        return self.file, text.strip(), self.col - (len(text) - len(text.lstrip()))

    def mutate(self, source: str) -> str:
        lines = source.splitlines(keepends=True)
        text = lines[self.line - 1]
        assert text[self.col:self.col + len(self.op)] == self.op
        lines[self.line - 1] = text[:self.col] + SWAPS[self.op] + text[self.col + len(self.op):]
        return "".join(lines)


def _operands(node):
    """The left operand of each operator of ``node`` that ``SWAPS`` swaps."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BIN_OPS):
        yield node.left
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, _BIN_OPS):
        yield node.target
    elif isinstance(node, ast.Compare):
        for left, op in zip([node.left, *node.comparators], node.ops):
            if isinstance(op, _CMP_OPS):
                yield left


def sites(file: str, source: str) -> list[Site]:
    """Every swappable operator in the ``SAMPLED`` functions of ``file``.
    An operator is the first token after its left operand that is not a
    closing bracket."""
    lines = source.splitlines()
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type == tokenize.OP]
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in SAMPLED[file]):
            continue
        for node in ast.walk(fn):
            for left in _operands(node):
                # AST columns count UTF-8 bytes, token columns characters
                row = left.end_lineno
                col = len(lines[row - 1].encode()[:left.end_col_offset].decode())
                op = next(t for t in tokens if t.start >= (row, col) and t.string not in ")]")
                assert op.string in SWAPS, (file, op)
                found.setdefault(op.start, Site(file, fn.name, *op.start, op.string))
    return sorted(found.values(), key=lambda s: (s.line, s.col))


def run(file: str, mutated: str) -> str | None:
    """The first failing test of tier-1 on a copy of the tree whose
    ``file`` under src/srat holds ``mutated``, or None."""
    with tempfile.TemporaryDirectory(prefix="srat-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_LEFTOVERS)
        (tree / "src" / "srat" / file).write_text(mutated, encoding="utf-8")
        try:
            result = subprocess.run(
                [sys.executable, *TIER1], cwd=tree, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": "src"}, timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return f"timeout after {TIMEOUT} s"
    if result.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", result.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"exit {result.returncode}"


def run_listed() -> int:
    sources = [_source(ROOT, mutant) for mutant in MUTANTS]
    start = time.perf_counter()
    survivors = 0
    for mutant, source in zip(MUTANTS, sources):
        first = run(mutant.file, source.replace(mutant.text, mutant.replacement))
        survivors += first is None
        verdict = "survived" if first is None else f"killed by {first}"
        print(f"{mutant.file}: {mutant.breaks}: {verdict}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


def run_sample(n: int, seed: int) -> int:
    sources = {f: (ROOT / "src" / "srat" / f).read_text(encoding="utf-8") for f in SAMPLED}
    pool = [site for f, source in sources.items() for site in sites(f, source)]
    drawn = random.Random(seed).sample(pool, n)
    print(f"{n} of {len(pool)} operators in {sum(map(len, SAMPLED.values()))} functions, "
          f"seed {seed}", flush=True)
    start = time.perf_counter()
    killed = survivors = 0
    for site in drawn:
        source = sources[site.file]
        first = run(site.file, site.mutate(source))
        key = site.key(source)
        if first is not None:
            killed += 1
            verdict = f"killed by {first}"
        elif key in EQUIVALENT:
            verdict = f"survived, equivalent: {EQUIVALENT[key]}"
        else:
            survivors += 1
            verdict = "survived"
        print(f"{site.file}:{site.line} {site.function}: {key[1]!r} col {key[2]} "
              f"{site.op} -> {SWAPS[site.op]}: {verdict}", flush=True)
    print(f"{killed} of {n} killed, {n - killed - survivors} equivalent, {survivors} survived "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Mutation check of the tier-1 suite.")
    parser.add_argument("--sample", type=int, metavar="N",
                        help="swap N operators drawn from SAMPLED in place of the listed mutants")
    parser.add_argument("--seed", type=int, default=0, help="the draw's seed (with --sample)")
    args = parser.parse_args()
    return run_listed() if args.sample is None else run_sample(args.sample, args.seed)


if __name__ == "__main__":
    sys.exit(main())
