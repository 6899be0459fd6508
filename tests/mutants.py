"""Run the fast test suite against hand-written mutants of src/qperm and
fail if one that changes an outcome survives.

    python tests/mutants.py [mutant name ...]

Each mutant replaces one exact source text of a file under src/qperm: a
single operator, constant or statement change.  For each, the script copies
src/, tests/, pyproject.toml and README.md to a scratch directory, applies
the mutant there and runs the suite as `python -m pytest -q -x
--hypothesis-seed=0` does, with the scratch src/ first on the path and a
hypothesis example database of its own, so no saved failure passes between
mutants or into the repository.  An unmutated copy runs first and must pass.

A mutant is killed when the suite fails.  The gate fails when a text does
not occur exactly once, when a mutant not declared equivalent survives, or
when a mutant declared equivalent is killed.  The method is mutation
analysis (DeMillo, Lipton and Sayward, "Hints on Test Data Selection",
IEEE Computer 11(4), 1978).  Uses the standard library and pytest only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")
PYTEST = ["-m", "pytest", "-q", "-x", "--hypothesis-seed=0", "-p", "no:cacheprovider"]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/qperm
    text: str  # occurs exactly once in the file
    replacement: str
    equivalent: Optional[str] = None  # why no outcome changes, if none does


MUTANTS = (
    Mutant(
        "stop-test-takes-a-zero-gain",
        "hopfield.py",
        "            if gain >= 0.0:\n                break\n",
        "            if gain > 0.0:\n                break\n",
    ),
    Mutant(
        "free-line-stop-ignores-the-bound",
        "hopfield.py",
        "if gain >= 0.0 and bound >= 0.0:",
        "if gain >= 0.0:",
    ),
    Mutant(
        "free-line-phase-ignores-the-bound",
        "hopfield.py",
        "if free and not (gain < bound and bound > _TIED):",
        "if free and not (bound > _TIED):",
    ),
    Mutant(
        "crossing-field-constant",
        "hopfield.py",
        "w_c * (3.0 - n), w_r * (3.0 - n)",
        "w_c * (2.0 - n), w_r * (2.0 - n)",
    ),
    Mutant(
        "bound-of-all-lines-taken",
        "hopfield.py",
        "bound_all = float(low - taken[2])",
        "bound_all = float(low - taken[1])",
    ),
    Mutant(
        "bound-never-moves-to-all-lines-taken",
        "hopfield.py",
        "bound = bound_some if len(flipped) < n else bound_all",
        "bound = bound_some",
    ),
    Mutant(
        "tie-rule-never-applies",
        "hopfield.py",
        "            if gain <= _TIED:\n",
        "            if gain < -math.inf:\n",
    ),
    Mutant(
        "energy-test-not-strict",
        "hopfield.py",
        "if not e < last:",
        "if not e <= last:",
    ),
    Mutant(
        "budget-checked-before-the-energy-test",
        "hopfield.py",
        "            if not e < last:  # a rounded gain or energy shows no decrease\n"
        "                break\n"
        "            if len(flipped) >= budget:\n"
        '                raise MaxStepsExceeded(f"no stable state within {budget} flips")\n',
        "            if len(flipped) >= budget:\n"
        '                raise MaxStepsExceeded(f"no stable state within {budget} flips")\n'
        "            if not e < last:  # a rounded gain or energy shows no decrease\n"
        "                break\n",
    ),
    Mutant(
        "budget-off-by-one",
        "hopfield.py",
        "if len(flipped) >= budget:",
        "if len(flipped) > budget:",
    ),
    Mutant(
        "dyadic-without-the-single-exponent-branch",
        "hopfield.py",
        "    if exponents.max() == low:\n",
        "    if False:\n",
        equivalent="saves time only: the bincount path returns the same (m, v)",
    ),
    Mutant(
        "fold-subtracts-the-diagonal",
        "conversions.py",
        "instance.vector_r + R.self_coupling",
        "instance.vector_r - R.self_coupling",
    ),
    Mutant(
        "ising-same-row-halved",
        "conversions.py",
        "R.same_row / 4.0",
        "R.same_row / 2.0",
    ),
    Mutant(
        "ising-same-col-halved",
        "conversions.py",
        "R.same_col / 4.0",
        "R.same_col / 2.0",
    ),
    Mutant(
        "ising-row-sum-counts-every-row-cell",
        "conversions.py",
        "R.same_row * (R.n - 1)",
        "R.same_row * R.n",
    ),
    Mutant(
        "ising-row-sum-counts-every-column-cell",
        "conversions.py",
        "R.same_col * (R.n - 1)",
        "R.same_col * R.n",
    ),
    Mutant(
        "hopfield-same-row-sign",
        "conversions.py",
        "-2.0 * Q.same_row",
        "2.0 * Q.same_row",
    ),
    Mutant(
        "hopfield-same-col-sign",
        "conversions.py",
        "-2.0 * Q.same_col",
        "2.0 * Q.same_col",
    ),
    Mutant(
        "certify-order-check-strict",
        "oracle.py",
        "by_rank[1:] >= by_rank[:-1]",
        "by_rank[1:] > by_rank[:-1]",
    ),
    Mutant(
        "certify-skips-its-size-check",
        "oracle.py",
        "        if p.n != x.n:\n"
        '            raise NotAPermutation(f"state encodes {p.n} slots but x has {x.n} entries")\n',
        "",
    ),
    Mutant(
        "tie-note-needs-every-value-equal",
        "oracle.py",
        "if (ordered[1:] == ordered[:-1]).any():",
        "if (ordered[1:] == ordered[:-1]).all():",
    ),
    Mutant(
        "sort-optimum-sign",
        "oracle.py",
        "return -float(ordered[ranks - 1]",
        "return float(ordered[ranks - 1]",
    ),
    Mutant(
        "bst-check-strict",
        "programs.py",
        "(read[:-1] <= read[1:])",
        "(read[:-1] < read[1:])",
    ),
    Mutant(
        "bst-check-passes-nan",
        "programs.py",
        "return bool((read[:-1] <= read[1:]).all()) and not np.isnan(vals).any()",
        "return bool((read[:-1] <= read[1:]).all())",
    ),
    Mutant(
        "heap-check-strict",
        "programs.py",
        "(vals[1:] <= vals[parents])",
        "(vals[1:] < vals[parents])",
    ),
    Mutant(
        "heap-check-passes-nan",
        "programs.py",
        "return bool((vals[1:] <= vals[parents]).all()) and not np.isnan(vals).any()",
        "return bool((vals[1:] <= vals[parents]).all())",
    ),
    Mutant(
        "heap-parents-of-a-binary-tree",
        "programs.py",
        "// min(branching, vals.size)",
        "// 2",
    ),
    Mutant(
        "heap-parents-of-an-unclamped-arity",
        "programs.py",
        "min(branching, vals.size)",
        "branching",
    ),
    Mutant(
        "tree-of-no-slots",
        "programs.py",
        '    if vals.size < 1:\n        raise InvalidSize("a tree needs at least one slot")\n',
        "",
    ),
    Mutant(
        "arity-of-one",
        "model.py",
        "    if branching < 2:\n",
        "    if branching < 1:\n",
    ),
    Mutant(
        "bst-takes-any-arity-of-two-or-more",
        "model.py",
        'if self.kind == "bst" and branching != 2:',
        'if self.kind == "bst" and branching < 2:',
    ),
    Mutant(
        "zero-diagonal-lets-a-negative-through",
        "model.py",
        "if matrix.self_coupling != 0.0:",
        "if matrix.self_coupling > 0.0:",
    ),
    Mutant(
        "trace-last-energy-unchecked",
        "model.py",
        "math.isfinite(energies[0]) and math.isfinite(energies[-1])",
        "math.isfinite(energies[0])",
    ),
    Mutant(
        "decode-lets-a-row-repeat",
        "model.py",
        " or np.bincount(rows).max() > 1:",
        ":",
    ),
    Mutant(
        "decode-skips-the-count-of-ones",
        "model.py",
        "if ones.size != n or (columns",
        "if (columns",
    ),
    Mutant(
        "decode-lets-a-column-repeat",
        "model.py",
        " or (columns != np.arange(n)).any()",
        "",
    ),
    Mutant(
        "decode-takes-any-positive-entry",
        "model.py",
        "if not (flat[ones] == 1).all():",
        "if not (flat[ones] > 0).all():",
    ),
    Mutant(
        "decode-takes-any-length",
        "model.py",
        "    if z.size == 0 or n * n != z.size:\n"
        '        raise NotAPermutation(f"length {z.size} is not a positive perfect square")\n',
        "",
    ),
    Mutant(
        "value-shrink-exponent-one-less",
        "model.py",
        "-(2 + entries.size.bit_length())",
        "-(1 + entries.size.bit_length())",
        equivalent="the shifted sum stays below n max|x| 2^-bits, within the float range, "
        "and a power-of-two scale is exact above the subnormals; a difference that "
        "underflows normalizes to 0 either way",
    ),
)


def scratch_copy(directory: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, directory / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(source, directory / name)


def apply(directory: Path, mutant: Mutant) -> None:
    path = directory / "src" / "qperm" / mutant.file
    source = path.read_text(encoding="utf-8")
    count = source.count(mutant.text)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name}: its text occurs {count} times in {mutant.file}")
    path.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")


def suite_passes(mutant: Optional[Mutant]) -> bool:
    """Whether the suite passes on a scratch copy with mutant applied."""
    with tempfile.TemporaryDirectory(prefix="qperm-mutant-") as tmp:
        directory = Path(tmp)
        scratch_copy(directory)
        if mutant is not None:
            apply(directory, mutant)
        env = {
            **os.environ,
            "PYTHONPATH": str(directory / "src"),
            "HYPOTHESIS_STORAGE_DIRECTORY": str(directory / ".hypothesis"),
            "PYTHONDONTWRITEBYTECODE": "1",
        }
        where = subprocess.run(
            [sys.executable, "-c", "import qperm; print(qperm.__file__)"],
            cwd=directory, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(directory.resolve()):
            raise SystemExit(f"qperm was imported from {where}, not from the scratch copy")
        done = subprocess.run([sys.executable, *PYTEST], cwd=directory, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return done.returncode == 0


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    if not suite_passes(None):
        print("the unmutated suite fails; no mutant can be judged")
        return 1
    failures = []
    for mutant in chosen:
        started = time.perf_counter()
        killed = not suite_passes(mutant)
        seconds = time.perf_counter() - started
        if killed == (mutant.equivalent is None):
            verdict = "killed" if killed else f"equivalent, survives: {mutant.equivalent}"
        else:
            verdict = "KILLED, though declared equivalent" if killed else "SURVIVED"
            failures.append(mutant.name)
        print(f"{mutant.name:<45} {seconds:6.1f} s  {verdict}", flush=True)
    print(f"mutants: {len(chosen)} run, {len(failures)} failing the gate")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
