"""Steepest single-flip descent on a Hopfield energy.

The energy is E(s) = -1/2 s^T W s + theta^T s over bipolar states.  Each
step flips the coordinate whose flip lowers the energy the most, ties
going to the lowest index, and descent stops at the first state where no
flip has negative gain.  Because every accepted flip strictly lowers the
energy, no state repeats and termination is guaranteed; the step budget
is a safety net for hand-crafted instances.

Flipping s_i changes the energy by 2 s_i (h_i - theta_i), h = W s, as
W_ii = 0.  Descent keeps half of each gain, which orders the flips as the
gains do and overflows no sooner.  On a dense W, h = W @ s and every gain
are formed afresh after each flip, O(N^2).  On a PenaltyMatrix, fields are
read off counts, as in Hopfield and Tank's permutation networks: on the
(n, n) grid of the PenaltyMatrix layout, cell (a, b) has the field
w_r (R_b - s_ab) + w_c (C_a - s_ab), where R_b sums s over grid column b
(row b of Z) and C_a over grid row a (column a of Z).  PenaltyMatrix @ s
evaluates that expression, so every field is a fresh W @ s bit for bit at
any finite weights.  Descent keeps the 2n counts and forms no W @ s: a
flip at (a, b) recomputes grid row a and grid column b only, in O(n).  A
line whose other cells are all inactive, as every line is while descent
from the all-inactive state pairs free rows with free columns, takes one
numpy call.  Its fields are w_r (R_b + 1) + w_c (C_a + 1), and the
line's own term can then be only w_c (1 - n), when the flip cleared its
cell, or w_c (3 - n), when it set it (w_r for a column), so descent keeps
the four sums as n-vectors and moves each by one float add per flip.
The argmin over all gains is O(N) per flip either way, and no
PenaltyMatrix is materialized.

Every energy, in the trace and from energy(), is E(s) correctly rounded,
the same on any BLAS and on either form of W.  2 E(s) is kept as an
integer count of 2^u, u at or below the last significand bit of every
entry of theta and W: theta.s is summed exactly once (_dyadic) and moves
by 2 s_i theta_i per flip; s^T W s is w_r sum_b (R_b^2 - n) + w_c sum_a
(C_a^2 - n) on a PenaltyMatrix, and on a dense W an exact sum that moves
by 4 s_i (W s)_i per flip, that row summed exactly.  One int / int
division, which Python rounds correctly, gives each energy; one beyond
the float range is an infinity, which SolverTrace names.  A flip stands
only if its energy is strictly below the one before it: a gain that is 0
in exact arithmetic can round negative, and a true decrease can be below
half an ulp of the energy, and descent undoes such a flip and stops.

solve always starts from the all-inactive state.  The trace it returns
holds that start, the coordinate of every accepted flip and the energy
before and after each, O(N + flips) numbers; its steps rebuild every
visited state, plus one repeated final row that makes the stability of
the endpoint visible in renderings of the run, only when read.

solve_qubo is the whole chain from a QuboInstance to a binary endpoint:
fold_diagonal, to_ising, to_hopfield, solve, then bipolar_to_binary.

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

from .conversions import bipolar_to_binary, fold_diagonal, to_hopfield, to_ising
from .errors import (
    DimensionMismatch,
    DomainError,
    IndexOutOfRange,
    MaxStepsExceeded,
)
from .model import (
    HopfieldInstance,
    PenaltyMatrix,
    QuboInstance,
    SolverTrace,
    _all_in,
    _integral,
    _readonly,
)


def energy(instance: HopfieldInstance, s) -> float:
    """-1/2 s^T W s + theta^T s at a bipolar state, correctly rounded, as descent records it."""
    sv = _check_state(instance, s)
    return next(_descent(instance, sv, np.empty(sv.size)))


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


def solve_qubo(
    instance: QuboInstance, max_steps: Optional[int] = None
) -> tuple[np.ndarray, SolverTrace]:
    """Fold, convert to the Hopfield network and descend once, as solve does.

    Returns the binary endpoint z, which decode_permutation reads, and the
    trace of the descent.  max_steps and the errors raised are solve's.
    """
    state, trace = solve(to_hopfield(to_ising(fold_diagonal(instance))), max_steps)
    return bipolar_to_binary(state), trace


def _descend(
    instance: HopfieldInstance, start: np.ndarray, budget: int
) -> tuple[np.ndarray, SolverTrace]:
    """Descend from a bipolar start."""
    if not _all_in(start, (-1, 1)):
        raise DomainError("the start state must be a bipolar vector")
    s = start.astype(float)
    flipped: list[int] = []
    # An overflowing field or gain is left to the energies, whose overflow
    # SolverTrace names, with no numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.empty(s.size)  # half the gain of each flip
        descent = _descent(instance, s, half)
        energies = [next(descent)]
        while True:
            i = int(half.argmin())  # ties: lowest index
            gain = half.item(i)
            if gain >= 0.0:
                break
            if gain <= -(2.0**1023):  # doubled, such gains are -inf and tie
                i = int((half <= -(2.0**1023)).argmax())
            if len(flipped) >= budget:
                raise MaxStepsExceeded(f"no stable state within {budget} flips")
            e = descent.send(i)
            if not e < energies[-1]:  # a rounded gain or energy shows no decrease
                s[i] = -s[i]
                break
            flipped.append(i)
            energies.append(e)
    return s.astype(np.int8), SolverTrace(start, np.array(flipped, dtype=np.intp), energies)


def _descent(instance: HopfieldInstance, s: np.ndarray, half: np.ndarray):
    """The descent generator for the form of the weights: _counts on a
    PenaltyMatrix, _dense on a dense W."""
    W = instance.weights_W
    descent = _counts if isinstance(W, PenaltyMatrix) else _dense
    return descent(W, instance.bias_theta, s, half)


def _counts(W: PenaltyMatrix, theta: np.ndarray, s: np.ndarray, half: np.ndarray):
    """Descent on a PenaltyMatrix: fills half and yields E(s), then, sent each
    coordinate i, flips s_i, brings half up to date and yields the energy
    after the flip.  The first value is energy()'s."""
    n, w_r, w_c = W.n, W.same_row, W.same_col
    S, G, T = s.reshape(n, n), half.reshape(n, n), theta.reshape(n, n)
    R, C = S.sum(axis=0), S.sum(axis=1)
    np.multiply(S, w_r * (R - S) + w_c * (C[:, None] - S) - T, G)
    # 2^u divides both weights: their denominators are powers of two.
    dot, u = _dyadic(theta * s, 1 - max(w.as_integer_ratio()[1] for w in (w_r, w_c)).bit_length())
    units_r, units_c = _scaled(w_r, u), _scaled(w_c, u)
    # s^T W s = w_r sum_b (R_b^2 - n) + w_c sum_a (C_a^2 - n), as W_ii = 0
    twice = 2 * dot - units_r * (int(R @ R) - n * n) - units_c * (int(C @ C) - n * n)
    i = yield _rounded(twice, u - 1)

    GT, TT, ST = G.T, T.T, S.T
    # An inactive cell (a, b) has the field w_r (R_b + 1) + w_c (C_a + 1).
    # On a line whose other cells are all inactive, the flipped cell's count
    # is 1 - n after a clear (d = -1) and 3 - n after a set, so the crossing
    # term is one of two numbers: rows[d > 0][b] holds the field of every
    # inactive cell of grid row a, and cols[d > 0][a] of grid column b.
    crossing_c = w_c * (1.0 - n), w_c * (3.0 - n)
    crossing_r = w_r * (1.0 - n), w_r * (3.0 - n)
    rows = tuple(w_r * (R + 1.0) + k for k in crossing_c)
    cols = tuple(w_c * (C + 1.0) + k for k in crossing_r)
    while True:
        a, b = divmod(i, n)
        s[i] = d = -s.item(i)
        r, c = R.item(b) + 2.0 * d, C.item(a) + 2.0 * d
        # 2E gains 4 d (theta_i - (W s)_i), where (W s)_i = w_r (r - d) + w_c (c - d).
        field = units_r * int(r - d) + units_c * int(c - d)
        twice += 4 * int(d) * (_scaled(theta.item(i), u) - field)
        gain = half.item(i)
        R[b], C[a] = r, c
        p, q = w_r * (r + 1.0), w_c * (c + 1.0)
        rows[0][b], rows[1][b] = p + crossing_c[0], p + crossing_c[1]
        cols[0][a], cols[1][a] = q + crossing_r[0], q + crossing_r[1]
        if c - d == 1 - n:  # grid row a, its other cells all inactive
            np.subtract(T[a], rows[d > 0], G[a])
        else:
            _line(G[a], T[a], S[a], R, w_r, c, w_c)
        if r - d == 1 - n:  # grid column b, likewise
            np.subtract(TT[b], cols[d > 0], GT[b])
        else:
            _line(GT[b], TT[b], ST[b], C, w_c, r, w_r)
        half[i] = -gain  # W_ii = 0: flipping s_i leaves h_i as it was
        i = yield _rounded(twice, u - 1)


def _line(out, t, states, counts, w, count, v):
    """Half gains of a line whose sum is count, weight v, crossed by counts, weight w."""
    h = w * (counts - states) + v * (count - states)
    np.multiply(states, h - t, out)


def _dense(W: np.ndarray, theta: np.ndarray, s: np.ndarray, half: np.ndarray):
    """As _counts, on a dense W: half is formed afresh after each flip."""
    np.multiply(s, W @ s - theta, out=half)
    pairs, u = _dyadic((s[:, None] * W * s).ravel())  # s^T W s
    dot, v = _dyadic(theta * s, u)
    twice, u = 2 * dot - (pairs << (u - v)), v
    i = yield _rounded(twice, u - 1)
    while True:
        field, _ = _dyadic(W[i] * s, u)  # (W s)_i exactly, s_i aside as W_ii = 0
        s[i] = d = -s.item(i)
        twice += 4 * int(d) * (_scaled(theta.item(i), u) - field)
        np.multiply(s, W @ s - theta, out=half)
        i = yield _rounded(twice, u - 1)


def _dyadic(values: np.ndarray, u: int = 0) -> tuple[int, int]:
    """(m, v): the sum of values is m * 2^v exactly, with v the least of u
    and the exponents of the values' last significand bits.

    np.frexp makes each value a 53-bit fraction times a power of two.  Split
    in halves of 26 and 27 bits, the fractions of one power sum exactly in
    float64, in any order, up to 2^26 terms: the high halves are integers
    whose sum stays below 2^52, the rest multiples of 2^-27 whose sum stays
    below 2^26.  When every value has the same power, as theta.s of the
    default build has at n = 8, 24 and 40, one .sum() adds each half;
    otherwise np.bincount adds them power by power, and Python ints add
    the sums.
    """
    fractions, exponents = np.frexp(values)
    low = int(exponents.min())
    scaled = np.ldexp(fractions, 26)
    high = np.trunc(scaled)
    rest = scaled - high  # 27 bits below the point
    if exponents.max() == low:
        m = (int(high.sum()) << 27) + int(rest.sum() * 2**27)
    else:
        powers = exponents - low
        high, rest = (np.bincount(powers, weights=x).tolist() for x in (high, rest))
        m = sum((int(h) << 27) + int(r * 2**27) << k for k, (h, r) in enumerate(zip(high, rest)))
    v = min(u, low - 53)
    return m << (low - 53 - v), v


def _scaled(x: float, u: int) -> int:
    """x / 2^u, for 2^u <= 1 that divides x."""
    numerator, denominator = x.as_integer_ratio()
    return numerator << (1 - denominator.bit_length() - u)


def _rounded(m: int, u: int) -> float:
    """m * 2^u correctly rounded, for u <= 0; beyond the float range, an infinity."""
    try:
        return m / (1 << -u)
    except OverflowError:
        return math.inf if m > 0 else -math.inf


def _check_state(instance: HopfieldInstance, s) -> np.ndarray:
    sv = _readonly(s, "state").ravel()
    if sv.size != instance.dimension:
        raise DimensionMismatch(
            f"state has {sv.size} coordinates, instance has {instance.dimension}"
        )
    if not _all_in(sv, (-1.0, 1.0)):
        raise DomainError("state must be bipolar")
    return sv
