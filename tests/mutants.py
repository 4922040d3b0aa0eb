"""Mutation check of the tier-1 suite.

    python3 tests/mutants.py

Each mutant below is a one-line change to the package that breaks one
behaviour the tests are meant to judge by its meaning, not by a hash. For
each mutant the runner copies the tree to a temporary directory, applies
the mutant there, and runs tier-1 with ``-x`` and every byte pin
deselected. It prints ``killed`` with the first failing test, or
``survived``. Exits 1 when a mutant survives or its text does not occur
exactly once in its file, 0 when every mutant is killed.

Pytest does not collect this file: its name does not start with ``test_``.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# every byte pin: the criterion-9 checkpoints, the theory, manifest and
# profile hashes and the eval metrics hash; a mutant must fail a test of
# the meaning
BYTE_PINS = ("criterion_9", "pinned", "test_make_dataset_keeps_the_rows_it_kept",
             "test_eval_flags_classes_missing_from_the_csv")
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-k", " and ".join(f"not {pin}" for pin in BYTE_PINS)]
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
    Mutant("losses.py", "normalized((1.0 - beta) / (1.0 - beta**counts))",
           "normalized((1.0 - beta**counts) / (1.0 - beta))",
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
]


def _source(root: Path, mutant: Mutant) -> str:
    """The mutant's file under ``root``, checked to hold its text once."""
    source = (root / "src" / "srat" / mutant.file).read_text(encoding="utf-8")
    count = source.count(mutant.text)
    if count != 1:
        raise SystemExit(f"{mutant.file}: mutant text occurs {count} times: {mutant.text!r}")
    return source


def run(mutant: Mutant) -> str | None:
    """The first failing test of tier-1 on the mutated tree, or None."""
    with tempfile.TemporaryDirectory(prefix="srat-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_LEFTOVERS)
        mutated = _source(tree, mutant).replace(mutant.text, mutant.replacement)
        (tree / "src" / "srat" / mutant.file).write_text(mutated, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, *TIER1], cwd=tree, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
    if result.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", result.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"exit {result.returncode}"


def main() -> int:
    for mutant in MUTANTS:
        _source(ROOT, mutant)
    start = time.perf_counter()
    survivors = 0
    for mutant in MUTANTS:
        first = run(mutant)
        survivors += first is None
        verdict = "survived" if first is None else f"killed by {first}"
        print(f"{mutant.file}: {mutant.breaks}: {verdict}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
