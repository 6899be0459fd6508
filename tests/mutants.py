"""Run the fast test suite against hand-written mutants of src/qperm and
fail if one that changes an outcome survives.

    python tests/mutants.py [mutant name ...]

Each mutant replaces one exact source text of a file under src/qperm: a
single operator, constant or statement change.  For each, the script copies
src/, tests/, pyproject.toml, README.md and BENCH_pipeline.json to a scratch
directory, applies the mutant there and runs the suite as `python -m pytest
-q -x --hypothesis-seed=0` does, with the scratch src/ first on the path and a
hypothesis example database of its own, so no saved failure passes between
mutants or into the repository.  The test files are given in order: the
mutated module's own, tests/test_<module>.py, first, then every other
tests/test_*.py by name.  pytest keeps that order and collects the same tests
as from tests/, so a kill comes sooner and no verdict changes: a survivor
still runs every test.  An unmutated copy runs first and must pass.
Then os.cpu_count() mutants run at a time, each in its own copy and
subprocess, and their lines print in the order of the table.

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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md", "BENCH_pipeline.json")
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
        "bound_all = low - taken[2]",
        "bound_all = low - taken[1]",
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
        "budget-takes-minus-one",
        "hopfield.py",
        "    if budget < 0:\n",
        "    if budget < -1:\n",
    ),
    Mutant(
        "dyadic-without-the-single-exponent-branch",
        "hopfield.py",
        "    if exponents.max() == low:\n",
        "    if False:\n",
        equivalent=(
            "saves time only: the bincount path returns the same (m, v).  On the"
            " default build's theta at n = 40, _dyadic took 10-12 us with the branch"
            " and 21-24 us without it, against 108-121 us for the whole solve (best"
            " of 5 timeit runs; 2-vCPU Xeon, Python 3.11.7, numpy 2.4.6)"
        ),
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
        "certify-compares-only-the-multisets",
        "oracle.py",
        "optimal = np.array_equal(arranged, best)",
        "optimal = np.array_equal(np.sort(arranged), ordered)",
    ),
    Mutant(
        "out-of-order-note-on-every-certificate",
        "oracle.py",
        "    if not optimal:\n",
        "    if True:\n",
    ),
    Mutant(
        "out-of-order-note-names-the-last-wrong-slot",
        "oracle.py",
        "np.flatnonzero(arranged != best)[0]",
        "np.flatnonzero(arranged != best)[-1]",
    ),
    Mutant(
        "out-of-order-gap-never-halved",
        "oracle.py",
        "scale = 1.0 if high - low < math.inf else 0.5",
        "scale = 1.0",
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
        "objective-sign",
        "oracle.py",
        "value = -float(y @",
        "value = float(y @",
    ),
    Mutant(
        "objective-without-the-exact-fallback",
        "oracle.py",
        "    if math.isfinite(value):\n        return value\n",
        "    return value\n",
    ),
    Mutant(
        "objective-fallback-infinity-sign-swapped",
        "oracle.py",
        "return math.inf if exact > 0 else -math.inf",
        "return -math.inf if exact > 0 else math.inf",
    ),
    Mutant(
        "oracle-budget-off-by-one",
        "oracle.py",
        "if n > MAX_ORACLE_N:",
        "if n >= MAX_ORACLE_N:",
    ),
    Mutant(
        "enumeration-never-rescales",
        "oracle.py",
        "    if not np.isfinite(scores).all():",
        "    if False:",
    ),
    Mutant(
        "enumeration-picks-the-least-score",
        "oracle.py",
        "k = scores.argmax()",
        "k = scores.argmin()",
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
        "inorder-visits-the-slot-first",
        "programs.py",
        "        walk(2 * slot + 1)\n        order.append(slot)\n",
        "        order.append(slot)\n        walk(2 * slot + 1)\n",
    ),
    Mutant(
        "postorder-skips-the-last-child",
        "programs.py",
        "min(first + branching, n)",
        "min(first + branching - 1, n)",
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
        'if kind == "bst" and branching != 2:',
        'if kind == "bst" and branching < 2:',
    ),
    Mutant(
        "bst-program-takes-any-arity",
        "programs.py",
        '_arity(branching, "bst")',
        "_arity(branching)",
    ),
    Mutant(
        "bipolar-takes-any-magnitude",
        "model.py",
        "unit = np.abs(given) == 1",
        "unit = np.abs(given) > 0",
    ),
    Mutant(
        "formed-vector-writable",
        "model.py",
        "    vector.setflags(write=False)\n    instance = object.__new__(cls)\n",
        "    instance = object.__new__(cls)\n",
    ),
    Mutant(
        "folded-r-unchecked",
        "model.py",
        '        _require_finite(vector_r, "vector_r")\n',
        "",
    ),
    Mutant(
        "ising-q-unchecked",
        "model.py",
        '        _require_finite(vector_q, "vector_q")\n',
        "",
    ),
    Mutant(
        "arranged-values-writable",
        "model.py",
        "    arranged.setflags(write=False)\n",
        "",
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
        " or np.bincount(rows).max() > 1):",
        "):",
    ),
    Mutant(
        "decode-skips-the-count-of-ones",
        "model.py",
        "    if nonzeros == n:\n",
        "    if True:\n",
    ),
    Mutant(
        "decode-lets-a-column-repeat",
        "model.py",
        "(columns != np.arange(n)).any() or ",
        "",
    ),
    Mutant(
        "decode-names-the-rows-before-the-columns",
        "model.py",
        "(np.bincount(columns, minlength=n), np.bincount(rows, minlength=n))",
        "(np.bincount(rows, minlength=n), np.bincount(columns, minlength=n))",
    ),
    Mutant(
        "decode-names-the-rows-first-beyond-n-nonzeros",
        "model.py",
        "(np.count_nonzero(grid, axis=1), np.count_nonzero(grid, axis=0))",
        "(np.count_nonzero(grid, axis=0), np.count_nonzero(grid, axis=1))",
    ),
    Mutant(
        "decode-takes-any-entry-beyond-n-nonzeros",
        "model.py",
        "    elif np.count_nonzero(flat == 1) != nonzeros:\n",
        "    elif False:\n",
    ),
    Mutant(
        "decode-calls-row-0-the-last-column",
        "model.py",
        'line = "column" if k < n else "row"',
        'line = "column" if k <= n else "row"',
    ),
    Mutant(
        "slots-let-a-shorter-x-through",
        "model.py",
        "if x.n != program.n:",
        "if x.n > program.n:",
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
        "penalty-weights-swapped",
        "builder.py",
        "PenaltyMatrix(n, lambda_r, lambda_c, lambda_r + lambda_c)",
        "PenaltyMatrix(n, lambda_c, lambda_r, lambda_r + lambda_c)",
    ),
    Mutant(
        "weight-check-takes-zero",
        "builder.py",
        "0.0 < w < math.inf",
        "0.0 <= w < math.inf",
    ),
    Mutant(
        "offset-unchecked",
        "builder.py",
        "    if not math.isfinite(offset):\n"
        "        raise DomainError(\n"
        '            "lambda_r and lambda_c are too large: the reward offset "\n'
        '            "2 * (lambda_r + lambda_c) overflows the float range"\n'
        "        )\n",
        "",
    ),
    Mutant(
        "reward-corners-unchecked",
        "builder.py",
        '        _finite(corner, "vector_r")  # Python floats, which overflow with no warning\n',
        "        pass\n",
    ),
    Mutant(
        "zero-spread-divided",
        "builder.py",
        "if scale > 0.0:",
        "if scale >= 0.0:",
    ),
    Mutant(
        "spread-beyond-floats-not-pre-scaled",
        "builder.py",
        "if not math.isfinite(scale):",
        "if False:",
    ),
    Mutant(
        "value-shrink-exponent-one-less",
        "builder.py",
        "-(2 + entries.size.bit_length())",
        "-(1 + entries.size.bit_length())",
        equivalent="the shifted sum stays below n max|x| 2^-bits, within the float range, "
        "and a power-of-two scale is exact above the subnormals; a difference that "
        "underflows normalizes to 0 either way",
    ),
    Mutant(
        "verify-exits-0-on-a-failed-certificate",
        "cli.py",
        "return EXIT_OK if report.passed else EXIT_FAILED_CERTIFICATE",
        "return EXIT_OK",
    ),
    Mutant(
        "step-budget-exits-2",
        "cli.py",
        "        return EXIT_INFEASIBLE\n    except (QpermError, OSError, ValueError)",
        "        return EXIT_USAGE\n    except (QpermError, OSError, ValueError)",
    ),
    Mutant(
        "closed-pipe-exits-2",
        "cli.py",
        "        return EXIT_PIPE\n    except MaxStepsExceeded",
        "        return EXIT_USAGE\n    except MaxStepsExceeded",
    ),
    Mutant(
        "dense-R-taken-unchecked",
        "cli.py",
        "if np.array_equal(np.asarray(penalty), R):",
        "if True:",
    ),
    Mutant(
        "both-term-keys-accepted",
        "cli.py",
        "if (structured in data) == (dense in data):",
        "if structured not in data and dense not in data:",
    ),
    Mutant(
        "reward-overflow-names-no-file",
        "cli.py",
        'raise QpermError(f"{args.x_file}: {exc}") from None',
        "raise",
    ),
    Mutant(
        "weights-checked-with-the-x-files-values",
        "cli.py",
        "    _penalty(program.n, args.lambda_r, args.lambda_c)  # a flag's error names no file\n",
        "",
    ),
    Mutant(
        "solve-command-leaves-the-budget-to-solve",
        "cli.py",
        "    if args.max_steps is not None:\n"
        "        _budget(args.max_steps)  # a flag's error names no file\n",
        "",
    ),
    Mutant(
        "longer-file-not-cut",
        "cli.py",
        "os.ftruncate(fd, written)",
        "pass",
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


def mutated(mutant: Mutant) -> str:
    """The source of the mutant's file with its text replaced."""
    source = (ROOT / "src" / "qperm" / mutant.file).read_text(encoding="utf-8")
    count = source.count(mutant.text)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name}: its text occurs {count} times in {mutant.file}")
    return source.replace(mutant.text, mutant.replacement)


def suite_files(mutant: Optional[Mutant]) -> list[str]:
    """The test files, the mutated module's own first, then the rest by name."""
    own = f"test_{Path(mutant.file).stem}.py" if mutant else None
    names = (path.name for path in (ROOT / "tests").glob("test_*.py"))
    return [f"tests/{name}" for name in sorted(names, key=lambda name: (name != own, name))]


def suite_passes(mutant: Optional[Mutant]) -> bool:
    """Whether the suite passes on a scratch copy with mutant applied."""
    with tempfile.TemporaryDirectory(prefix="qperm-mutant-") as tmp:
        directory = Path(tmp)
        scratch_copy(directory)
        if mutant is not None:
            (directory / "src" / "qperm" / mutant.file).write_text(mutated(mutant), encoding="utf-8")
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
        done = subprocess.run([sys.executable, *PYTEST, *suite_files(mutant)], cwd=directory,
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return done.returncode == 0


def judged(mutant: Mutant) -> tuple[bool, float]:
    """(whether the suite kills the mutant, the seconds that took)."""
    started = time.perf_counter()
    killed = not suite_passes(mutant)
    return killed, time.perf_counter() - started


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    for mutant in chosen:  # every text occurs once, before any suite runs
        mutated(mutant)
    if not suite_passes(None):
        print("the unmutated suite fails; no mutant can be judged")
        return 1
    failures = []
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for mutant, (killed, seconds) in zip(chosen, pool.map(judged, chosen)):
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
