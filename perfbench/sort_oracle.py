"""The benchmark's own optimum check, independent of ``qperm.oracle``.

An arrangement y of x scores -sum(ranks[i] * y[i]).  By the rearrangement
inequality that sum is smallest when slot i holds the ranks[i]-th smallest
value, so the optimum is -sum(ranks[i] * sorted(x)[ranks[i] - 1]).  Sorting
makes the check O(n log n) at every n, with no enumeration.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

REL_TOL = 1e-9


def optimal_arrangement(x, ranks) -> np.ndarray:
    """Slot i receives the ranks[i]-th smallest entry of x."""
    return np.sort(np.asarray(x, dtype=float))[np.asarray(ranks, dtype=np.intp) - 1]


def objective(y, ranks) -> float:
    """-sum(ranks * y), the quantity every qperm arrangement minimizes."""
    return -float(np.dot(np.asarray(y, dtype=float), np.asarray(ranks, dtype=float)))


def optimum(x, ranks) -> float:
    return objective(optimal_arrangement(x, ranks), ranks)


def is_optimal(y, x, ranks) -> bool:
    """True when y rearranges x and scores the optimum to 1e-9 relative.

    The tolerance is relative to sum(ranks * |y|), the magnitude of the terms
    being summed, so it stays meaningful when the optimum itself is near zero.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape or not np.array_equal(np.sort(y), np.sort(x)):
        return False
    scale = float(np.dot(np.asarray(ranks, dtype=float), np.abs(y)))
    return abs(objective(y, ranks) - optimum(x, ranks)) <= REL_TOL * scale


def decode_mapping(z) -> Optional[np.ndarray]:
    """Read a column-stacked binary state as a slot-to-entry mapping.

    Slot i takes entry mapping[i], which is the column of the single 1 in
    row i of the n x n matrix.  Returns None when the state is not a
    permutation encoding.
    """
    zv = np.asarray(z).ravel()
    n = math.isqrt(zv.size)
    if zv.size == 0 or n * n != zv.size:
        return None
    Z = zv.reshape((n, n), order="F")
    if not np.isin(Z, (0, 1)).all() or (Z.sum(axis=0) != 1).any() or (Z.sum(axis=1) != 1).any():
        return None
    return Z.argmax(axis=1)
