"""The three benchmark workloads: their inputs, one instance each, and its check.

Every workload is a closed loop with one client over a fixed list of
cases.  The list's length is the workload's ``nominal_rate`` (instances per
second on the reference host) times ``--seconds``, so a seed always runs
the same instances and ``failed`` repeats exactly.  Case i alternates between
the paper's regime (distinct non-negative integers, even i) and signed
Gaussian reals (odd i), and cycles its program kind through ascending, bst
and heap.  The signed half carries the documented descent defect, so on the
current solver about half the instances miss the optimum; they are counted,
never filtered.

An instance calls qperm through module attributes looked up at call time
(``qperm.build_qubo``, ``qperm.cli.main``), so the wrappers that
``perfbench.tracing`` installs see every call.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

import qperm
import qperm.cli

from . import sort_oracle

KINDS = ("ascending", "bst", "heap")


@dataclass(frozen=True)
class Case:
    """One generated input: values, program kind and ranks, and for CLI workloads its file."""

    index: int
    kind: str
    ranks: tuple[int, ...]
    signed: bool
    x: np.ndarray
    x_path: Optional[str]


@dataclass(frozen=True)
class Outcome:
    """The benchmark's verdict on one instance.

    optimal: the output rearranges x and reaches the sort oracle's optimum.
    consistent: nothing contradicts the solver's documented behaviour: no
    exception, no unexpected exit code, every paper-regime instance optimal,
    and every PASS/FAIL the CLI prints agrees with the sort oracle.
    """

    optimal: bool
    consistent: bool
    note: str = ""


def make_cases(n: int, count: int, seed: int, work_dir: Optional[str]) -> list[Case]:
    """Generate `count` cases from `seed`; write each x as JSON when work_dir is given."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        signed = i % 2 == 1
        if signed:
            x = rng.standard_normal(n)
        else:
            x = rng.choice(10 * n, size=n, replace=False).astype(float)
        x_path = None
        if work_dir is not None:
            x_path = os.path.join(work_dir, f"x{i}.json")
            with open(x_path, "w", encoding="utf-8") as handle:
                json.dump(x.tolist(), handle)
        kind = KINDS[i % len(KINDS)]
        cases.append(Case(i, kind, _program(kind, n).ranks, signed, x, x_path))
    return cases


def _program(kind: str, n: int):
    return getattr(qperm, f"{kind}_program")(n)


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run qperm's CLI in process and return (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qperm.cli.main(argv)
    return code, out.getvalue()


def _paper_rule(case: Case, optimal: bool, note: str) -> Outcome:
    """Paper-regime instances must be optimal; signed ones may miss (documented defect)."""
    consistent = optimal or case.signed
    return Outcome(optimal, consistent, "" if consistent else note)


class DenseChain:
    """Library chain build_qubo -> fold -> Ising -> Hopfield -> solve -> decode -> apply."""

    name = "dense-n40"
    n = 40
    nominal_rate = 3
    probe_mb = 32

    def prepare(self, work_dir: str) -> None:
        pass

    def run(self, case: Case):
        x = qperm.ValueVector(case.x)
        program = _program(case.kind, self.n)
        instance = qperm.build_qubo(x, program)
        network = qperm.to_hopfield(qperm.to_ising(qperm.fold_diagonal(instance)))
        state, _ = qperm.solve(network)
        p = qperm.decode_permutation(qperm.bipolar_to_binary(state))
        return qperm.apply_permutation(p, x)

    def check(self, case: Case, result) -> Outcome:
        optimal = sort_oracle.is_optimal(result, case.x, case.ranks)
        return _paper_rule(case, optimal, "paper-regime miss")


class VerifyCli:
    """In-process ``qperm program`` then ``qperm verify`` on a written x file.

    The state that verify certifies is captured from its call to ``certify``,
    so the benchmark can score it with its own oracle and compare the verdict
    with verify's exit code (0 pass, 5 failed certificate).
    """

    name = "verify-n8"
    n = 8
    nominal_rate = 7
    probe_mb = 8

    def __init__(self):
        self._captured: list = []
        self._prog_path = ""

    def prepare(self, work_dir: str) -> None:
        self._prog_path = os.path.join(work_dir, "prog.json")
        certify = qperm.cli.certify
        signature = inspect.signature(inspect.unwrap(certify))
        captured = self._captured

        def capture(*args, **kwargs):
            captured.append(signature.bind(*args, **kwargs).arguments["solver_state"])
            return certify(*args, **kwargs)

        capture.__wrapped__ = certify
        qperm.cli.certify = capture

    def run(self, case: Case):
        self._captured.clear()
        program_code, _ = _cli(["program", "--kind", case.kind, "--n", str(self.n),
                                "-o", self._prog_path])
        verify_code, _ = _cli(["verify", case.x_path, self._prog_path])
        state = self._captured[-1] if self._captured else None
        return program_code, verify_code, state

    def check(self, case: Case, result) -> Outcome:
        program_code, verify_code, state = result
        if program_code != 0 or verify_code not in (0, 5) or state is None:
            return Outcome(False, False, f"exit codes {program_code}/{verify_code}")
        mapping = sort_oracle.decode_mapping(state)
        optimal = mapping is not None and sort_oracle.is_optimal(
            case.x[mapping], case.x, case.ranks
        )
        if (verify_code == 0) != optimal:
            return Outcome(False, False, f"verify exit {verify_code} but oracle optimal={optimal}")
        return _paper_rule(case, optimal, "paper-regime miss")


class BuildSolveCli:
    """In-process ``qperm program``, ``build -o qubo.json`` and ``solve qubo.json``."""

    name = "cli-n24"
    n = 24
    nominal_rate = 5
    probe_mb = 8

    def __init__(self):
        self._prog_path = ""
        self._qubo_path = ""

    def prepare(self, work_dir: str) -> None:
        self._prog_path = os.path.join(work_dir, "prog.json")
        self._qubo_path = os.path.join(work_dir, "qubo.json")

    def run(self, case: Case):
        codes = [
            _cli(["program", "--kind", case.kind, "--n", str(self.n), "-o", self._prog_path])[0],
            _cli(["build", case.x_path, self._prog_path, "-o", self._qubo_path])[0],
        ]
        code, text = _cli(["solve", self._qubo_path])
        codes.append(code)
        return codes, text

    def check(self, case: Case, result) -> Outcome:
        codes, text = result
        if any(codes):
            return Outcome(False, False, f"exit codes {codes}")
        line = next((ln for ln in text.splitlines() if ln.startswith("permutation:")), None)
        if line is None:
            return Outcome(False, False, "solve printed no permutation")
        mapping = np.array([int(tok) for tok in line.split()[1:]], dtype=np.intp)
        if sorted(mapping.tolist()) != list(range(self.n)):
            return Outcome(False, False, "solve printed a non-permutation")
        optimal = sort_oracle.is_optimal(case.x[mapping], case.x, case.ranks)
        return _paper_rule(case, optimal, "paper-regime miss")


WORKLOADS = {w.name: w for w in (DenseChain, VerifyCli, BuildSolveCli)}
