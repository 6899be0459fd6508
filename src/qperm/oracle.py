"""Exact optima and certification.

sort_optimum reads the optimal objective off one sort, at any n, by the
rearrangement inequality, and certify compares a solver state exactly
with the arrangement that inequality names.  Neither knows anything about
how the solver searches, and neither enumerates anything.
best_permutation, which scores every one of the n! arrangements, n <= 8,
on the raw input values, stays beside them as a reference for the tests
of sort_optimum and for the benchmark's own tests; the enumeration of the
2^N binary states of a compiled instance lives in the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import InvalidSize, NotAPermutation
from .model import OrderProgram, PermutationMatrix, ValueVector, _reals, _slots
from .model import apply_permutation, decode_permutation
from .programs import validate_bst, validate_heap

MAX_ORACLE_N = 8


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of checking one solver state against the sort optimum.

    structure_valid is None when the program kind carries no tree
    structure to check.  achieved_objective and mapping are None when the
    state does not decode to a permutation.
    """

    feasible: bool
    optimal: bool
    achieved_objective: Optional[float]
    best_objective: float
    mapping: Optional[tuple[int, ...]]
    structure_valid: Optional[bool]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.feasible and self.optimal and self.structure_valid is not False


def best_permutation(x: ValueVector, program: OrderProgram) -> tuple[PermutationMatrix, float]:
    """Enumerate all n! mappings and return one minimizing -x^T P^T ranks.

    Ties go to the lexicographically smallest mapping.  Raises InvalidSize
    for n > 8.  The value returned is sort_optimum's objective of the
    chosen arrangement.  It stays as an independent reference for the
    tests of sort_optimum, and because the benchmark's tests (perfbench)
    check their own sort oracle against qperm.best_permutation.
    """
    n = _slots(x, program)
    if n > MAX_ORACLE_N:
        raise InvalidSize(f"n={n} exceeds the n<={MAX_ORACLE_N} enumeration budget")
    ranks = np.asarray(program.ranks, dtype=float)
    mappings = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    arranged = x.entries[mappings]
    with np.errstate(over="ignore", invalid="ignore"):
        scores = arranged @ ranks
    if not np.isfinite(scores).all():  # 2^-8 keeps sums of n <= 8 products in range
        scores = (arranged * 2.0**-8) @ ranks
    k = scores.argmax()  # first maximum: lexicographically smallest
    return PermutationMatrix._of(tuple(mappings[k].tolist())), _objective(arranged[k], program)


def sort_optimum(x: ValueVector, program: OrderProgram) -> float:
    """The minimum of -x^T P^T ranks over all permutations P, in O(n log n).

    By the rearrangement inequality, sum_i ranks[i] * y[i] is largest when
    slot i holds the ranks[i]-th smallest value, so the optimum is
    -sum_i ranks[i] * sorted(x)[ranks[i] - 1].  No size guard applies.
    """
    return _objective(_arrangements(x, program)[1], program)


def _arrangements(x: ValueVector, program: OrderProgram) -> tuple[np.ndarray, np.ndarray]:
    """(the entries of x sorted, the optimal arrangement: slot i holds the ranks[i]-th smallest)."""
    _slots(x, program)
    ordered = np.sort(x.entries)
    return ordered, ordered[np.asarray(program.ranks) - 1]


def _objective(y: np.ndarray, program: OrderProgram) -> float:
    """-y^T ranks: the float sum if finite, else the exact sum rounded once
    (a float filter with an exact fallback, as in Shewchuk 1997)."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = -float(y @ np.asarray(program.ranks, dtype=float))
    if math.isfinite(value):
        return value
    exact = -sum(Fraction(v) * k for v, k in zip(y.tolist(), program.ranks))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def certify(x: ValueVector, program: OrderProgram, solver_state) -> CertificateReport:
    """Check a binary solver state for feasibility, optimality, and structure.

    A state that fails to decode yields a failed certificate rather than
    an exception; one with an entry that is no real number is refused
    with DomainError.  Optimality is an exact order check: the ranks are
    distinct, so by the rearrangement inequality an arrangement y is
    optimal exactly when y read in increasing rank order never decreases,
    that is, when slot i holds sorted(x)[ranks[i] - 1] (-0.0 == 0.0); any
    pair out of order raises the objective by (r_j - r_i)(y_i - y_j) > 0.
    No tolerance and no size guard apply.  The report keeps the achieved
    -x^T P^T ranks and sort_optimum as information only: never NaN, and
    an infinity only when the exact value lies beyond the float range.
    A state out of order gets one note: its first slot out of place, both
    values and their gap as a share of max(x) - min(x).  For bst and heap
    programs the arranged values must also pass the matching structure
    validator; other kinds skip that check (structure_valid is None).
    """
    ordered, best = _arrangements(x, program)
    best_value = _objective(best, program)
    notes: list[str] = []
    if (ordered[1:] == ordered[:-1]).any():  # equal values sort next to each other; -0.0 == 0.0
        notes.append("objective-tie: duplicate input values admit several optimal arrangements")
    try:
        p = decode_permutation(_reals(solver_state, "solver_state"))
        if p.n != x.n:
            raise NotAPermutation(f"state encodes {p.n} slots but x has {x.n} entries")
    except NotAPermutation as exc:
        notes.append(f"decode failed: {exc}")
        return CertificateReport(
            feasible=False,
            optimal=False,
            achieved_objective=None,
            best_objective=best_value,
            mapping=None,
            structure_valid=None,
            notes=tuple(notes),
        )
    arranged = apply_permutation(p, x)
    structure_valid: Optional[bool] = None
    if program.kind == "bst":
        structure_valid = validate_bst(arranged)
    elif program.kind == "heap":
        structure_valid = validate_heap(arranged, program.branching)
    optimal = np.array_equal(arranged, best)
    if not optimal:
        i = int(np.flatnonzero(arranged != best)[0])
        got, want, low, high = (float(v) for v in (arranged[i], best[i], ordered[0], ordered[-1]))
        scale = 1.0 if high - low < math.inf else 0.5  # halves keep the spread in range
        gap = abs(got * scale - want * scale) / (high * scale - low * scale)
        notes.append(
            f"out of order: slot {i} holds {got!r}, not {want!r}, a gap of {gap:.2g} of the spread"
        )
    return CertificateReport(
        feasible=True,
        optimal=optimal,
        achieved_objective=_objective(arranged, program),
        best_objective=best_value,
        mapping=p.as_mapping,
        structure_valid=structure_valid,
        notes=tuple(notes),
    )
