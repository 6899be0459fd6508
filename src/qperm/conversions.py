"""Lossless moves between the QUBO, Ising, and Hopfield forms.

fold_diagonal uses z*z = z on binary states to push the diagonal of R
into the linear term.  to_ising substitutes z = (s+1)/2 on a zero
diagonal.  to_hopfield only renames: W = -2Q and theta = q, which makes
-1/2 s^T W s + theta^T s literally equal to s^T Q s + q^T s.  Each hop
shifts the objective by a state-independent constant at most, so
minimizers carry over through the whole chain.

The matrix stays a PenaltyMatrix through every hop: each hop applies its
elementwise operation to the three coefficients, fold_diagonal adds
self_coupling to r as the scalar that every diagonal entry is, to_ising
takes R @ 1 as row_sum, the one number every row sums to, and every
zero-diagonal check reads self_coupling, so each hop is O(n^2) and none
forms the N-length diagonal.  The matrices materialize bit for bit as
the paper's dense hops make them; so do the vectors wherever the dense
R @ 1 sums exactly, as it does for integer penalty weights.
"""

from __future__ import annotations

import numpy as np

from .errors import NonZeroDiagonal
from .model import HopfieldInstance, IsingInstance, PenaltyMatrix, QuboInstance, _bipolar


def fold_diagonal(instance: QuboInstance) -> QuboInstance:
    """Zero the diagonal of R, compensating in r; exact on binary states."""
    R = instance.matrix_R
    # Adding the scalar is the same add, entry by entry, as adding its diagonal.
    with np.errstate(over="ignore"):  # an overflow is the inf QuboInstance names
        vector_r = instance.vector_r + R.self_coupling
    folded = PenaltyMatrix(R.n, R.same_row, R.same_col, 0.0)
    return QuboInstance(matrix_R=folded, vector_r=vector_r)


def to_ising(instance: QuboInstance) -> IsingInstance:
    """Substitute z = (s+1)/2: Q = R/4 and q = R@1/2 + r/2.

    Requires an exactly zero diagonal; apply fold_diagonal first.  The
    dropped constant is 1^T R 1 / 4 + r^T 1 / 2.
    """
    R = instance.matrix_R
    if R.self_coupling != 0.0:  # -0.0 is a zero diagonal
        raise NonZeroDiagonal("fold_diagonal must run before the bipolar substitution")
    # row_sum() is one number, every entry of R @ 1
    return IsingInstance(matrix_Q=R / 4.0, vector_q=0.5 * R.row_sum() + 0.5 * instance.vector_r)


def to_hopfield(instance: IsingInstance) -> HopfieldInstance:
    """Rename to network form: W = -2Q, theta = q; energies are identical."""
    return HopfieldInstance(weights_W=-2.0 * instance.matrix_Q, bias_theta=instance.vector_q)


def bipolar_to_binary(s) -> np.ndarray:
    """Map {-1,+1} to {0,1} via z = (s + 1) / 2."""
    return (_bipolar(s, "s") > 0).astype(np.int8)
