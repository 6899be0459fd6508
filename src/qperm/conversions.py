"""Lossless moves between the QUBO, Ising, and Hopfield forms.

fold_diagonal uses z*z = z on binary states to push the diagonal of R
into the linear term.  to_ising substitutes z = (s+1)/2 on a zero
diagonal.  to_hopfield only renames: W = -2Q and theta = q, which makes
-1/2 s^T W s + theta^T s literally equal to s^T Q s + q^T s.  Each hop
shifts the objective by a state-independent constant at most, so
minimizers carry over through the whole chain.

Each hop writes the next PenaltyMatrix from the last one's three
numbers: fold_diagonal zeroes self_coupling and adds it to r as the
scalar every diagonal entry is, to_ising divides each by 4 and forms
R @ 1 as the one number every row sums to, to_hopfield multiplies each
by -2, and every zero-diagonal check reads self_coupling, so each hop
is O(n^2) and none forms the N-length diagonal.  The matrices
materialize bit for bit as the paper's dense hops make them; so do the
vectors wherever the dense R @ 1 sums exactly, as for integer weights.
"""

from __future__ import annotations

import numpy as np

from .model import HopfieldInstance, IsingInstance, PenaltyMatrix, QuboInstance
from .model import _bipolar, _zero_diagonal


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
    # Checked on R: a subnormal self_coupling divided by 4 is 0.
    _zero_diagonal(R, "fold_diagonal must run before the bipolar substitution")
    Q = PenaltyMatrix(R.n, R.same_row / 4.0, R.same_col / 4.0, R.self_coupling / 4.0)
    # Every entry of R @ 1, added in the order R @ 1 adds a row.
    row_sum = R.self_coupling * 1.0 + R.same_row * (R.n - 1) + R.same_col * (R.n - 1)
    return IsingInstance(matrix_Q=Q, vector_q=0.5 * row_sum + 0.5 * instance.vector_r)


def to_hopfield(instance: IsingInstance) -> HopfieldInstance:
    """Rename to network form: W = -2Q, theta = q; energies are identical."""
    Q = instance.matrix_Q
    W = PenaltyMatrix(Q.n, -2.0 * Q.same_row, -2.0 * Q.same_col, -2.0 * Q.self_coupling)
    return HopfieldInstance(weights_W=W, bias_theta=instance.vector_q)


def bipolar_to_binary(s) -> np.ndarray:
    """Map {-1,+1} to {0,1} via z = (s + 1) / 2."""
    return (_bipolar(s, "s") > 0).astype(np.int8)
