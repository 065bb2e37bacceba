"""Mutation probe: does tier-1 notice a one-line fault at each boundary?

Each mutant replaces one source line of ``src/polycast`` with a wrong
variant.  For each, the probe copies ``src/``, ``tests/`` and the files the
tests read to a temporary directory, applies the mutant there, and runs
tier-1 (``python -X dev -W error -m pytest -x -q``).  A mutant survives
when tier-1 still passes.  The real tree is never edited.

Run from anywhere:

    python tools/mutation_probe.py

It exits 0 when every mutant is killed or marked equivalent, 1 when one
survives, and 2 when the unmutated copy fails tier-1 or a mutant's old
line is not found exactly once.  Needs pytest and numpy, nothing else.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# what tier-1 reads: the package, the tests, the README key table and
# pytest's settings
COPIED = ("src", "tests", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    file: str  # relative to src/polycast
    old: str  # the whole line, without its indentation
    new: str
    note: str
    equivalent: str | None = None  # why the mutant cannot be killed


MUTANTS = (
    Mutant("correction.py",
           "if mags[k - first_k] <= mags[k + 1 - first_k]:",
           "if mags[k - first_k] < mags[k + 1 - first_k]:",
           "find_plateau: a tie no longer ends the search"),
    Mutant("correction.py",
           "searching[mags[-2] <= mags[-1]] = False",
           "searching[mags[-2] < mags[-1]] = False",
           "correct_block: a tie no longer ends the search"),
    Mutant("correction.py",
           "return before[ends + 1] - before[ends - window]",
           "return before[ends + 1] - before[ends - window + 1]",
           "window counts miss a window's oldest flag"),
    Mutant("correction.py",
           "return before[ends + 1] - before[ends - window]",
           "return before[ends + 1] - before[ends - window - 1]",
           "window counts reach one flag before the window"),
    Mutant("fitting.py",
           "return PolynomialMap(basis, np.mean(per_fold, axis=0))",
           "return PolynomialMap(basis, np.median(per_fold, axis=0))",
           "fold median in place of the fold mean"),
    Mutant("evaluate.py",
           "errors = np.where(finite, errors, 0.0)",
           "errors = errors",
           "non-finite errors outside every window are not zeroed"),
    Mutant("io.py",
           "if mono in terms:",
           "if False:",
           "load_map accepts a repeated monomial"),
    Mutant("evaluate.py",
           "check_anchors(entries, first + span + 2, last + span + 2, space, window)",
           "check_anchors(entries, first + span + 3, last + span + 2, space, window)",
           "a batch accepts the anchor one before the first valid one"),
    Mutant("fitting.py",
           "if len(rows) < basis.size:",
           "if len(rows) < basis.size - 1:",
           "fit_kfold leaves one missing row to the solver"),
    Mutant("io.py",
           "if len(terms) != basis.size:",
           "if len(terms) > basis.size:",
           "load_map accepts a map with a missing term line"),
    Mutant("io.py",
           "if not math.isfinite(coeff):",
           "if False:",
           "load_map accepts a non-finite coefficient"),
    Mutant("cli.py",
           "if fmap.basis.variable_count != config.dimension:",
           "if False:",
           "a map over the wrong number of variables reaches the forecast"),
    # the tolerance and limit are scaled where they are used: the tests
    # read the constants, so scaling a definition would move both sides
    Mutant("fitting.py",
           "if singular[0] == 0.0 or singular[-1] / singular[0] < RANK_TOLERANCE:",
           "if singular[0] == 0.0 or singular[-1] / singular[0] < RANK_TOLERANCE * 10:",
           "rank tolerance x 10"),
    Mutant("fitting.py",
           "if singular[0] == 0.0 or singular[-1] / singular[0] < RANK_TOLERANCE:",
           "if singular[0] == 0.0 or singular[-1] / singular[0] < RANK_TOLERANCE * 0.1:",
           "rank tolerance x 0.1"),
    Mutant("dynamics.py",
           "if not all(abs(v) <= BLOWUP_LIMIT for v in state):",
           "if not all(abs(v) <= BLOWUP_LIMIT * 10 for v in state):",
           "blow-up limit x 10"),
    Mutant("dynamics.py",
           "if not all(abs(v) <= BLOWUP_LIMIT for v in state):",
           "if not all(abs(v) < BLOWUP_LIMIT for v in state):",
           "a state exactly at the blow-up limit is refused"),
    Mutant("cli.py",
           "if entry <= train_stop:",
           "if entry < train_stop:",
           "no in-sample warning at the last training entry"),
    Mutant("cli.py",
           "if entry <= train_stop:",
           "if entry <= train_stop + 1:",
           "in-sample warning one entry past the training range"),
    Mutant("evaluate.py",
           "if abs(actual) < NEAR_ZERO_THRESHOLD:",
           "if abs(actual) <= NEAR_ZERO_THRESHOLD:",
           "an actual exactly at the near-zero threshold is flagged"),
    Mutant("evaluate.py",
           "check_anchors((entry,), entry, entry, space, window)",
           "pass",
           "error_window checks no anchor"),
    Mutant("evaluate.py",
           "if lo > hi:",
           "if lo >= hi:",
           "a single valid anchor reads as none"),
    Mutant("fitting.py",
           "if not np.isfinite(matrix).all():",
           "if False:",
           "an overflowing design matrix reaches LAPACK"),
    Mutant("evaluate.py",
           "capped = abs(value) > LOG_RATIO_CAP",
           "capped = abs(value) >= LOG_RATIO_CAP",
           "a log ratio exactly at the cap is marked capped"),
    Mutant("evaluate.py",
           "known = [error for error in errors if error is not None]",
           "known = list(errors)",
           "survey means include records without an actual"),
)


def mutated(mutant: Mutant, package: Path) -> str:
    """The text of the mutant's file with its old line replaced.  The old
    line must occur exactly once."""
    lines = (package / mutant.file).read_text().splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == mutant.old]
    if len(hits) != 1:
        raise LookupError(
            f"{mutant.file}: expected one line {mutant.old!r}, found {len(hits)}"
        )
    line = lines[hits[0]]
    indent = line[: len(line) - len(line.lstrip())]
    lines[hits[0]] = indent + mutant.new + "\n"
    return "".join(lines)


def tier1(tree: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-x", "-q",
         "-p", "no:cacheprovider"],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=900,
    )
    return done.returncode == 0


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutation_probe_") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".pytest_cache"))
            else:
                shutil.copy2(source, tree / name)
        package = tree / "src" / "polycast"
        for mutant in MUTANTS:  # a stale old line fails before any run
            mutated(mutant, package)
        if not tier1(tree):
            print("tier-1 fails on the unmutated copy; no mutant was run")
            return 2
        for number, mutant in enumerate(MUTANTS, 1):
            path = package / mutant.file
            original = path.read_text()
            path.write_text(mutated(mutant, package))
            start = time.perf_counter()
            try:
                killed = not tier1(tree)
            finally:
                path.write_text(original)
            if killed:
                verdict = "killed"
            elif mutant.equivalent:
                verdict = f"survived, equivalent: {mutant.equivalent}"
            else:
                verdict = "SURVIVED"
                survivors.append(mutant)
            print(f"{number:2d} {mutant.file}: {mutant.note}: {verdict} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survive tier-1")
        return 1
    print(f"all {len(MUTANTS)} mutants are killed or equivalent")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
