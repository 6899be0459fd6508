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
qubo_terms gives R and those numbers, deciding how x enters them;
reward_vector forms r from them for build_qubo and for the QUBO files
that store them (see cli), so the two give the same r bit for bit.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DomainError
from .model import OrderProgram, PenaltyMatrix, QuboInstance, ValueVector
from .model import _finite, _real, _slots


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
        Input values; they enter the reward as qubo_terms gives them,
        shifted and L1-normalized unless normalize is False.
    program : OrderProgram
        Rank vector of the same length as x.
    lambda_r, lambda_c : float, optional
        Row and column penalty weights; None means n.

    Raises
    ------
    DomainError
        If a weight is not a positive and finite real number, if
        2 (lambda_r + lambda_c) overflows the float range, or if an entry
        of r does (possible with normalize=False only).
    DimensionMismatch
        If x and the program disagree on n.
    """
    R, *reward = qubo_terms(x, program, lambda_r, lambda_c, normalize)
    return QuboInstance._of(R, reward_vector(*reward))


def qubo_terms(
    x: ValueVector,
    program: OrderProgram,
    lambda_r: Optional[float] = None,
    lambda_c: Optional[float] = None,
    normalize: bool = True,
) -> tuple[PenaltyMatrix, np.ndarray, np.ndarray, float]:
    """build_qubo's terms and checks without r: the penalty R and the
    values, ranks and offset that reward_vector forms r from.

    R is the module docstring's PenaltyMatrix, the ranks are the program's
    as floats and the offset is 2 * R.self_coupling.
    With normalize=False the values are x.entries: the paper's
    formulation, which the frozen reference run takes with x scaled by
    sum(|x|) beforehand.  By default they are (x - min) / sum(x - min),
    read-only: every entry lies in [0, 1], the smallest is 0 and they sum
    to 1.  A constant vector has no spread to scale and gives all zeros;
    any arrangement of it is optimal.  When the shift or its sum would
    overflow (a spread beyond the float range), x is first scaled by a
    power of two, which keeps every order.

    The shift changes no optimum.  The objective -x^T P^T ranks of every
    arrangement P moves by min(x) * sum(ranks), the same constant for all
    of them, and the positive scale multiplies them all alike.  So by the
    rearrangement inequality the optimum is still the sorted pairing, now
    of non-negative values.  That is what makes descent from the
    all-inactive state exact, in two steps:

    1. every reward v * rank is now >= 0, since v >= 0 and rank >= 1;
    2. hence the greedy choice of the largest v * rank over the free rows
       and columns is (largest free value) * (largest free rank), and
       taking these in turn is the sorted pairing.  Equal products only
       arise between equal values, or when every free value is 0, and
       either way the pairing stays optimal.

    With a negative entry a product can be largest for the smallest value
    and the smallest rank, so the same greedy pairing is no longer sorted.

    The argument holds in exact arithmetic.  Distinct values close
    together look equal to the descent's gains, and may come back out of
    order; certify checks the order exactly, fails such an arrangement and
    names its first slot out of place.  How close is far more than 2^-52
    of the spread, and grows with n: the README tabulates it.
    """
    R = _penalty(program.n, lambda_r, lambda_c)
    n = _slots(x, program)
    values = entries = x.entries
    if normalize:
        with np.errstate(over="ignore"):
            values = entries - entries.min()
            scale = float(values.sum())
        if not math.isfinite(scale):
            # The spread or its sum is beyond the float range.  Scaling by a
            # power of two keeps every order; 2^-(2 + bits of n) brings the
            # largest spread, 2 * max|x|, summed n times, back within it.
            shrunk = np.ldexp(entries, -(2 + entries.size.bit_length()))
            values = shrunk - shrunk.min()
            scale = float(values.sum())
        if scale > 0.0:
            values /= scale
        values.setflags(write=False)
    offset = 2.0 * R.self_coupling
    # r = fl(-fl(v * rank) - offset) is monotone in v and, for each v, in the rank,
    # so its extremes lie at the smallest and largest v against the ranks 1 and n.
    low, high = float(values.min()), float(values.max())
    for corner in (-(v * k) - offset for v in (low, high) for k in (1.0, n)):
        _finite(corner, "vector_r")  # Python floats, which overflow with no warning
    return R, values, np.asarray(program.ranks, dtype=float), offset


def _penalty(n: int, lambda_r: Optional[float], lambda_c: Optional[float]) -> PenaltyMatrix:
    """qubo_terms's R for n slots and the checks of its weights (None means n)."""
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
    return PenaltyMatrix(n, lambda_r, lambda_c, lambda_r + lambda_c)


def reward_vector(values: np.ndarray, ranks: np.ndarray, offset: float) -> np.ndarray:
    """r = -outer(values, ranks).ravel() - offset, the reward at z[a*n + b],
    formed in place in one N-vector.

    An entry beyond the float range, or inf * 0 from a hand-made file,
    comes out non-finite with no numpy warning, and QuboInstance then
    rejects r as not finite.
    """
    r = np.empty(values.size * ranks.size)
    with np.errstate(over="ignore", invalid="ignore"):
        # the outer product as np.outer forms it, without its Python wrapper
        np.multiply(values[:, None], ranks, out=r.reshape(values.size, ranks.size))
        np.negative(r, out=r)
        np.subtract(r, offset, out=r)
    return r
