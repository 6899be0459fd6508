"""Ordering tasks compiled to QUBO form and solved by Hopfield descent.

Pick a target arrangement (sorted order, search-tree layout, heap
layout), compile it together with an input vector into a quadratic
binary objective, relax that objective on a Hopfield network by steepest
single-flip descent, and certify the decoded permutation against the
exact optimum, which one sort gives.
"""

from .builder import build_qubo
from .conversions import bipolar_to_binary, fold_diagonal, to_hopfield, to_ising
from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidSize,
    MaxStepsExceeded,
    NonSquareLength,
    NonZeroDiagonal,
    NotAPermutation,
    QpermError,
    SizeBudgetExceeded,
    UnsupportedBranching,
)
from .hopfield import energy, solve, solve_qubo
from .model import (
    HopfieldInstance,
    IsingInstance,
    OrderProgram,
    PenaltyMatrix,
    PermutationMatrix,
    QuboInstance,
    SolverTrace,
    TraceStep,
    ValueVector,
    apply_permutation,
    decode_permutation,
)
from .oracle import CertificateReport, best_permutation, certify, sort_optimum
from .programs import (
    ascending_program,
    bst_program,
    descending_program,
    heap_program,
    validate_bst,
    validate_heap,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateReport",
    "DimensionMismatch",
    "DomainError",
    "HopfieldInstance",
    "InvalidSize",
    "IsingInstance",
    "MaxStepsExceeded",
    "NonSquareLength",
    "NonZeroDiagonal",
    "NotAPermutation",
    "OrderProgram",
    "PenaltyMatrix",
    "PermutationMatrix",
    "QpermError",
    "QuboInstance",
    "SizeBudgetExceeded",
    "SolverTrace",
    "TraceStep",
    "UnsupportedBranching",
    "ValueVector",
    "apply_permutation",
    "ascending_program",
    "best_permutation",
    "bipolar_to_binary",
    "bst_program",
    "build_qubo",
    "certify",
    "decode_permutation",
    "descending_program",
    "energy",
    "fold_diagonal",
    "heap_program",
    "solve",
    "solve_qubo",
    "sort_optimum",
    "to_hopfield",
    "to_ising",
    "validate_bst",
    "validate_heap",
]
