"""Exact optima and certification.

sort_optimum reads the optimal objective off one sort, at any n, by the
rearrangement inequality, and certify checks a solver state exactly
against the order that inequality demands.  Neither knows anything about
how the solver searches, and neither enumerates anything.
best_permutation, which scores every one of the n! arrangements on the
raw input values, stays beside them as a reference for the tests of
sort_optimum and for the benchmark's own tests; the enumeration of the
2^N binary states of a compiled instance lives in the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InvalidSize, NotAPermutation
from .model import (
    OrderProgram,
    PermutationMatrix,
    ValueVector,
    _reals,
    apply_permutation,
    decode_permutation,
)
from .programs import validate_bst, validate_heap

MAX_ORACLE_N = 10

_PERM_CHUNK = 40320


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
    for n > 10.  Nothing in the package calls it: sort_optimum and certify
    replaced it.  It stays as an independent reference for the tests of
    sort_optimum, and because the benchmark's tests (perfbench) check
    their own sort oracle against qperm.best_permutation.
    """
    n = x.n
    if program.n != n:
        raise DimensionMismatch(f"x has {n} entries but the program has {program.n} slots")
    if n > MAX_ORACLE_N:
        raise InvalidSize(f"n={n} exceeds the n<={MAX_ORACLE_N} enumeration budget")
    values = x.entries
    ranks = np.asarray(program.ranks, dtype=float)
    best_value = math.inf
    best_mapping: Optional[tuple[int, ...]] = None
    mappings = itertools.permutations(range(n))
    while True:
        chunk = tuple(itertools.islice(mappings, _PERM_CHUNK))
        if not chunk:
            break
        arr = np.array(chunk, dtype=np.intp)
        scores = -(values[arr] @ ranks)
        k = int(np.argmin(scores))  # first minimum: lexicographically smallest
        if float(scores[k]) < best_value:
            best_value = float(scores[k])
            best_mapping = tuple(int(c) for c in chunk[k])
    return PermutationMatrix._of(best_mapping), best_value


def sort_optimum(x: ValueVector, program: OrderProgram) -> float:
    """The minimum of -x^T P^T ranks over all permutations P, in O(n log n).

    By the rearrangement inequality, sum_i ranks[i] * y[i] is largest when
    slot i holds the ranks[i]-th smallest value, so the optimum is
    -sum_i ranks[i] * sorted(x)[ranks[i] - 1].  No size guard applies.
    """
    return _sort_optimum(x, program)[0]


def _sort_optimum(x: ValueVector, program: OrderProgram) -> tuple[float, np.ndarray]:
    """(sort_optimum(x, program), the entries of x sorted)."""
    if program.n != x.n:
        raise DimensionMismatch(f"x has {x.n} entries but the program has {program.n} slots")
    ordered = np.sort(x.entries)
    ranks = np.asarray(program.ranks)
    return -float(ordered[ranks - 1] @ ranks.astype(float)), ordered


def certify(x: ValueVector, program: OrderProgram, solver_state) -> CertificateReport:
    """Check a binary solver state for feasibility, optimality, and structure.

    A state that fails to decode yields a failed certificate rather than
    an exception; one with an entry that is no real number is refused
    with DomainError.  Optimality is an exact order check: the ranks are
    distinct, so by the rearrangement inequality an arrangement y is
    optimal exactly when ranks[i] < ranks[j] implies y[i] <= y[j], that
    is, when y read in increasing rank order never decreases; any pair
    that breaks this raises the objective by (r_j - r_i)(y_i - y_j) > 0
    when swapped.  No tolerance and no size guard apply.  The report
    keeps the achieved -x^T P^T ranks and sort_optimum as information
    only; either may overflow to an infinity.  For bst and heap programs the
    arranged values must also pass the matching structure validator;
    other kinds skip that check (structure_valid is None).
    """
    ranks = np.asarray(program.ranks, dtype=float)
    with np.errstate(over="ignore"):
        best_value, ordered = _sort_optimum(x, program)
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
    with np.errstate(over="ignore"):
        achieved = -float(arranged @ ranks)
    by_rank = arranged[np.argsort(ranks)]
    optimal = bool((by_rank[1:] >= by_rank[:-1]).all())
    structure_valid: Optional[bool] = None
    if program.kind == "bst":
        structure_valid = validate_bst(arranged)
    elif program.kind == "heap":
        structure_valid = validate_heap(arranged, program.branching)
    return CertificateReport(
        feasible=True,
        optimal=optimal,
        achieved_objective=achieved,
        best_objective=best_value,
        mapping=p.as_mapping,
        structure_valid=structure_valid,
        notes=tuple(notes),
    )
