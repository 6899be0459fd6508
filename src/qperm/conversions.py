"""Lossless moves between the QUBO, Ising, and Hopfield forms.

fold_diagonal uses z*z = z on binary states to push the diagonal of R
into the linear term.  to_ising substitutes z = (s+1)/2 on a zero
diagonal.  to_hopfield only renames: W = -2Q and theta = q, which makes
-1/2 s^T W s + theta^T s literally equal to s^T Q s + q^T s.  Each hop
shifts the objective by a state-independent constant at most, so
minimizers carry over through the whole chain.

A PenaltyMatrix stays one through every hop: each hop applies its
elementwise operation to the three coefficients, fold_diagonal adds
self_coupling to r as the scalar that every diagonal entry is, to_ising
takes R @ 1 as row_sum, the one number every row sums to, and every
zero-diagonal check reads self_coupling (model._nonzero_diagonal), so
each hop is O(n^2) and none forms the N-length diagonal.  The matrices
materialize bit for bit as the dense hop's; so do the vectors wherever
the dense R @ 1 sums exactly, as it does for integer penalty weights.
Dense matrices, such as a QUBO file's dense "R", take the dense code,
which stays as the reference.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NonZeroDiagonal
from .model import (
    HopfieldInstance,
    IsingInstance,
    PenaltyMatrix,
    QuboInstance,
    _all_in,
    _nonzero_diagonal,
)


def fold_diagonal(instance: QuboInstance) -> QuboInstance:
    """Zero the diagonal of R, compensating in r; exact on binary states."""
    R = instance.matrix_R
    if isinstance(R, PenaltyMatrix):
        # Adding the scalar is the same add, entry by entry, as adding its diagonal.
        diag = R.self_coupling
        folded = PenaltyMatrix(R.n, R.same_row, R.same_col, 0.0)
    else:
        diag = R.diagonal()
        folded = R.copy()
        np.fill_diagonal(folded, 0.0)
    with np.errstate(over="ignore"):  # an overflow is the inf QuboInstance names
        vector_r = instance.vector_r + diag
    return QuboInstance(matrix_R=folded, vector_r=vector_r)


def to_ising(instance: QuboInstance) -> IsingInstance:
    """Substitute z = (s+1)/2: Q = R/4 and q = R@1/2 + r/2.

    Requires an exactly zero diagonal; apply fold_diagonal first.  The
    dropped constant is 1^T R 1 / 4 + r^T 1 / 2.
    """
    R = instance.matrix_R
    if _nonzero_diagonal(R):
        raise NonZeroDiagonal("fold_diagonal must run before the bipolar substitution")
    if isinstance(R, PenaltyMatrix):
        row_sums = R.row_sum()  # one number, every entry of R @ 1
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # IsingInstance names it
            row_sums = R @ np.ones(instance.dimension)
    return IsingInstance(matrix_Q=R / 4.0, vector_q=0.5 * row_sums + 0.5 * instance.vector_r)


def to_hopfield(instance: IsingInstance) -> HopfieldInstance:
    """Rename to network form: W = -2Q, theta = q; energies are identical."""
    return HopfieldInstance(weights_W=-2.0 * instance.matrix_Q, bias_theta=instance.vector_q)


def binary_to_bipolar(z) -> np.ndarray:
    """Map {0,1} to {-1,+1} via s = 2z - 1."""
    zv = np.asarray(z)
    if not _all_in(zv, (0, 1)):
        raise DomainError("expected entries in {0, 1}")
    return (2 * zv.astype(int) - 1).astype(np.int8)


def bipolar_to_binary(s) -> np.ndarray:
    """Map {-1,+1} to {0,1} via z = (s + 1) / 2."""
    sv = np.asarray(s)
    if not _all_in(sv, (-1, 1)):
        raise DomainError("expected entries in {-1, +1}")
    return (sv > 0).astype(np.int8)
