"""Compile an input vector and an order program into a QUBO.

A candidate arrangement is a binary matrix Z with one 1 per row and per
column, flattened column-wise into z.  The compiled objective

    f(z) = z^T R z + r^T z

rewards activating cell (row b, column a) with -x[a] * ranks[b], so the
minimizer pairs the largest values with the highest ranks, and penalizes
row and column sums away from one.  The paper writes the pieces as
Kronecker products:

    N   = I (x) ranks^T          rank reward,     N @ z = Z^T @ ranks
    C_r = 1^T (x) I              row sums,      C_r @ z = Z @ 1
    C_c = I (x) 1^T              column sums,   C_c @ z = Z^T @ 1
    R   = lam_r C_r^T C_r + lam_c C_c^T C_c
    r   = -N^T x - 2 (lam_r C_r + lam_c C_c)^T 1

R couples cells of one row with lam_r and cells of one column with
lam_c, so build_qubo returns it as PenaltyMatrix(n, lam_r, lam_c,
lam_r + lam_c), three numbers in place of n^4 entries; np.asarray(R)
gives the dense matrix above, which the tests build from the Kronecker
products and hold build_qubo to.  Every column of C_r and of C_c holds a
single 1 and N^T x puts x[a] * ranks[b] at z[a*n + b], so r is the
outer product of the values and the ranks less one offset,
2 (lam_r + lam_c), which is twice R's diagonal: 2n + 1 numbers.
reward_vector forms r from them; build_qubo and QUBO files that store
those numbers (see cli) both call it, so the two give the same r bit
for bit.

Both penalty weights default to n, and by default x enters shifted by
its minimum and L1-normalized (ValueVector.normalized_entries).  The
shift changes no optimum and makes every reward non-negative, which is
what lets descent from the all-inactive state find the optimum.  With
normalize=False the raw x enters as given: that is the paper's
formulation, and the route that the frozen reference run takes with x
scaled by sum(|x|) beforehand.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, DomainError
from .model import OrderProgram, PenaltyMatrix, QuboInstance, ValueVector, _real


def build_qubo(
    x: ValueVector,
    program: OrderProgram,
    lambda_r: Optional[float] = None,
    lambda_c: Optional[float] = None,
    normalize: bool = True,
) -> QuboInstance:
    """Assemble the QUBO whose binary minimizer encodes the programmed order.

    Parameters
    ----------
    x : ValueVector
        Input values; the shifted, L1-normalized copy feeds the reward
        unless normalize is False.
    program : OrderProgram
        Rank vector of the same length as x.
    lambda_r, lambda_c : float, optional
        Row and column penalty weights; None means n.

    Raises
    ------
    DomainError
        If a weight is not a positive and finite real number, or
        2 (lambda_r + lambda_c) overflows the float range.
    DimensionMismatch
        If x and the program disagree on n.
    """
    n = program.n
    lambda_r = float(n) if lambda_r is None else lambda_r
    lambda_c = float(n) if lambda_c is None else lambda_c
    if not all(_real(w) and 0.0 < w < math.inf for w in (lambda_r, lambda_c)):
        raise DomainError("penalty weights must be positive and finite")
    try:  # in Python floats, which overflow without a numpy warning
        offset = 2.0 * (float(lambda_r) + float(lambda_c))
    except OverflowError:  # an integer weight beyond the float range
        offset = math.inf
    if not math.isfinite(offset):
        raise DomainError(
            "lambda_r and lambda_c are too large: the reward offset "
            "2 * (lambda_r + lambda_c) overflows the float range"
        )
    if x.n != n:
        raise DimensionMismatch(f"x has {x.n} entries but the program has {n} slots")
    values = x.normalized_entries if normalize else x.entries

    R = PenaltyMatrix(n, lambda_r, lambda_c, lambda_r + lambda_c)
    r = reward_vector(values, np.asarray(program.ranks, dtype=float), 2.0 * R.self_coupling)
    return QuboInstance(matrix_R=R, vector_r=r)


def reward_vector(values: np.ndarray, ranks: np.ndarray, offset: float) -> np.ndarray:
    """r = -outer(values, ranks).ravel() - offset, the reward at z[a*n + b].

    An entry beyond the float range, or inf * 0 from a hand-made file,
    comes out non-finite with no numpy warning, and QuboInstance then
    rejects r as not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return -np.outer(values, ranks).ravel() - offset
