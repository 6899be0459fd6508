"""Steepest single-flip descent on a Hopfield energy.

The energy is E(s) = -1/2 s^T W s + theta^T s over bipolar states.  Each
step flips the coordinate whose flip lowers the energy the most, ties
going to the lowest index, and descent stops at the first state where no
flip has negative gain.  Because every accepted flip strictly lowers the
energy, no state repeats and termination is guaranteed; the step budget
is a safety net for hand-crafted instances.

Descent keeps the field h = W s and the gains it implies, exact or
fresh.  When the weights are a PenaltyMatrix with exact fields (what the
conversions make of build_qubo's penalty with short dyadic weights,
integers among them, such as the default lambda = n;
PenaltyMatrix.exact_fields says when, and proves it), h is formed once.
Viewed as the (n, n) grid of the PenaltyMatrix layout, flipping
coordinate i adds twice row i of W to the two lines of h that row
reaches, and the gains of those 2n - 1 cells are computed again, in
O(n); h stays equal to a fresh W @ s.  Otherwise (a dense W, or weights
such as lambda = 1.1001 * n) h = W @ s and every gain are formed afresh
after each flip, O(N) for a PenaltyMatrix and O(N^2) for a dense W.  The
argmin over all gains is O(N) per flip either way, and descent never
materializes a PenaltyMatrix, so it needs O(N) memory where a dense
network holds N^2 weights.

With exact fields, descent also keeps Q = s^T W s as an integer number
of steps 2^-k (PenaltyMatrix.field_exponent): formed once by an integer
sum over the first field, and changed by -4 s_i h_i per flip, with the
old s_i and h_i, since W_ii = 0.  Q is exact at every size, so an energy
is -1/2 Q + theta.s, with theta.s the one O(N) product a flip forms.  It
equals the -1/2 s.h + theta.s of the fresh path bit for bit wherever
s.h sums exactly, which holds while N S 2^k < 2^53 (S the absolute row
sum), at lambda = n for every n up to about 8000; beyond, Q is the
better sum.  Otherwise every energy comes from the fresh h, -1/2 s.h +
theta.s, save that a dense W forms s @ W afresh, as energy() does.  An
energy that overflows the float range is left to SolverTrace to name,
with no numpy warning.  A flip stands only if its energy is strictly
below the one before it.  A gain that is 0 in exact arithmetic can
round negative; the flip it picks does not lower the energy, and
descent undoes it and stops there.  Flip sequences and outcomes are
thereby exactly those of recomputing W @ s at every step and stopping
at the first flip that fails to lower that energy.  With integer
penalty weights the descent on the structured network agrees bit for
bit in flips, states and energies with the one on its materialized
form.

solve always starts from the all-inactive state.  The trace it returns
holds that start, the coordinate of every accepted flip and the energy
before and after each, O(N + flips) numbers; its steps rebuild every
visited state, plus one repeated final row that makes the stability of
the endpoint visible in renderings of the run, only when read.

On the ordering instances produced by the builder, every feasible
permutation encoding is single-flip stable, so the landscape has n! local
minima and descent cannot cross between them.  Descent from the
all-inactive state pairs values with ranks greedily, largest reward
first.  With the builder's default input, shifted by its minimum and
L1-normalized, every reward is non-negative and that greedy pairing is
the sorted, optimal one (see ValueVector), so one descent is all that
solve runs.  With normalize=False or custom penalty weights that
guarantee is gone, and a descent can stop in a stable non-optimal or
infeasible state; certify says which.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    IndexOutOfRange,
    MaxStepsExceeded,
)
from .model import HopfieldInstance, PenaltyMatrix, SolverTrace, _all_in, _integral


def energy(instance: HopfieldInstance, s) -> float:
    """Evaluate -1/2 s^T W s + theta^T s at a bipolar state; W dense or a PenaltyMatrix."""
    sv = _check_state(instance, s)
    return float(-0.5 * (sv @ instance.weights_W @ sv) + instance.bias_theta @ sv)


def flip_gain(instance: HopfieldInstance, s, i: int) -> float:
    """Energy change from flipping coordinate i of s, in O(N) time.

    Equals energy(s with s[i] negated) - energy(s).
    """
    sv = _check_state(instance, s)
    i = _integral(i, "coordinate")
    if not 0 <= i < instance.dimension:
        raise IndexOutOfRange(f"coordinate {i} outside 0..{instance.dimension - 1}")
    return float(2.0 * sv[i] * (instance.weights_W[i] @ sv - instance.bias_theta[i]))


def solve(
    instance: HopfieldInstance, max_steps: Optional[int] = None
) -> tuple[np.ndarray, SolverTrace]:
    """Run steepest descent from the all-inactive state to a stable state.

    Parameters
    ----------
    instance : HopfieldInstance
    max_steps : int, optional
        Bounds the number of accepted flips; defaults to N*N.  It must
        equal a non-negative integer: strings, booleans and fractions
        are rejected, never truncated.

    Returns
    -------
    (state, trace)
        The final bipolar state and the trace of the descent.

    Raises
    ------
    InvalidSize
        If max_steps is not an integer.
    MaxStepsExceeded
        If descent uses up its flip budget without reaching a stable
        state.
    DomainError
        If max_steps is negative, or an energy overflows the float range.
    """
    N = instance.dimension
    if max_steps is None:
        budget = N * N
    else:
        budget = _integral(max_steps, "max_steps")
        if budget < 0:
            raise DomainError("max_steps must be non-negative")
    return _descend(instance, np.full(N, -1, dtype=np.int8), budget)


def _descend(
    instance: HopfieldInstance, start: np.ndarray, budget: int
) -> tuple[np.ndarray, SolverTrace]:
    """Descend from start; the returned SolverTrace checks that start is bipolar."""
    W = instance.weights_W
    theta = instance.bias_theta
    k = W.field_exponent() if isinstance(W, PenaltyMatrix) else None
    s = start.astype(float)
    two_s = 2.0 * s
    flipped: list[int] = []
    # An overflowing product leaves an energy SolverTrace names, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        h = W @ s
        gains = two_s * (h - theta)
        if k is None:
            energies = [_energy(W, theta, s, h)]
        else:
            # Exact fields: Q = s^T W s in steps of 2^-k, an integer.  Each
            # field is below 2^51 steps, so a block of 2^12 sums below 2^63;
            # blocks also keep the temporaries small.
            n = W.n
            Q = 0
            for j in range(0, n * n, 2**12):
                block = np.ldexp(h[j : j + 2**12] * s[j : j + 2**12], k)
                Q += int(block.astype(np.int64).sum())
            # Halving -Q rounds as negating half of Q does, but Q = 0 gives
            # +0.0, as -1/2 s.h does on a one-cell network's fresh field.
            energies = [0.5 * math.ldexp(-Q, -k) + float(theta.dot(s))]
            H, G, T, S2 = (v.reshape(n, n) for v in (h, gains, theta, two_s))
            # A flip to s[i] = -1 or +1 adds -2 or +2 times same_col and
            # same_row; 0-d arrays spare the in-place adds a scalar conversion.
            updates = tuple(
                (np.array(f * W.same_col), np.array(f * W.same_row)) for f in (-2.0, 2.0)
            )
        while True:
            i = int(gains.argmin())  # ties: lowest index
            if gains[i] >= 0.0:
                break
            if len(flipped) >= budget:
                raise MaxStepsExceeded(f"no stable state within {budget} flips")
            s[i] = -s[i]
            two_s[i] = -two_s[i]
            if k is None:
                h = W @ s
                gains = two_s * (h - theta)
                e = _energy(W, theta, s, h)
            else:
                # Flipping s[i], i = a*n + b, adds 2 s[i] times row i to the
                # field, on G[a] and G[:, b] (see PenaltyMatrix), and only
                # there are gains computed again.  W_ii = 0 keeps the
                # crossing's field h_i, and Q gains 4 s[i] h_i.
                factor = two_s.item(i)
                a, b = divmod(i, n)
                crossing = h.item(i)
                Q += int(math.ldexp(factor * crossing, k + 1))
                col_step, row_step = updates[factor > 0.0]
                column, row = H[a], H[:, b]
                column += col_step
                row += row_step
                h[i] = crossing
                out = G[a]
                np.subtract(column, T[a], out=out)
                out *= S2[a]
                out = G[:, b]
                np.subtract(row, T[:, b], out=out)
                out *= S2[:, b]
                e = 0.5 * math.ldexp(-Q, -k) + float(theta.dot(s))
            if not e < energies[-1]:  # a gain that is 0 in exact arithmetic rounded negative
                s[i] = -s[i]
                break
            flipped.append(i)
            energies.append(e)
    return s.astype(np.int8), SolverTrace(start, flipped, energies)


def _energy(W, theta: np.ndarray, s: np.ndarray, h: np.ndarray) -> float:
    """-1/2 s^T W s + theta^T s, given h = W @ s.

    On a PenaltyMatrix s @ W is W @ s bit for bit, so h serves; a dense W
    forms s @ W afresh, as energy() does.
    """
    sW = h if isinstance(W, PenaltyMatrix) else s @ W
    return -0.5 * float(sW @ s) + float(theta @ s)


def _check_state(instance: HopfieldInstance, s) -> np.ndarray:
    sv = np.asarray(s, dtype=float).ravel()
    if sv.size != instance.dimension:
        raise DimensionMismatch(
            f"state has {sv.size} coordinates, instance has {instance.dimension}"
        )
    if not _all_in(sv, (-1.0, 1.0)):
        raise DomainError("state must be bipolar")
    return sv
