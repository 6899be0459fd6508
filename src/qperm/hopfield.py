"""Steepest single-flip descent on a Hopfield energy.

The energy is E(s) = -1/2 s^T W s + theta^T s over bipolar states.  Each
step flips the coordinate whose flip lowers the energy the most, ties
going to the lowest index, and descent stops at the first state where no
flip has negative gain.  Because every accepted flip strictly lowers the
energy, no state repeats and termination is guaranteed; the step budget
is a safety net for hand-crafted instances.

Flipping s_i changes the energy by 2 s_i (h_i - theta_i), h = W s, as
W_ii = 0.  Descent keeps half of each gain, which orders the flips as the
gains do and overflows no sooner.  W is a PenaltyMatrix, and fields are
read off counts, as in Hopfield and Tank's permutation networks: on the
(n, n) grid of the PenaltyMatrix layout, cell (a, b) has the field
w_r (R_b - s_ab) + w_c (C_a - s_ab), where R_b sums s over grid column b
(row b of Z) and C_a over grid row a (column a of Z).  Descent keeps the
2n counts and forms no W @ s: a flip at (a, b) forms the gains of grid
row a and grid column b from their cells, its own among them, in O(n).
The argmin over all gains is O(N) per flip, and no PenaltyMatrix is
materialized.

Every energy in the trace is E(s) correctly rounded, the same on any
BLAS.  2 E(s) is kept as an integer count of 2^u, u at or below the last
significand bit of every entry of theta and W: theta.s is summed exactly
once (_dyadic) and moves by 2 s_i theta_i per flip, and s^T W s is
w_r sum_b (R_b^2 - n) + w_c sum_a (C_a^2 - n).  One int / int
division, which Python rounds correctly, gives each energy; one beyond
the float range is an infinity, which SolverTrace names.  A flip is taken
only after its exact energy, rounded, is seen to fall strictly: a gain
that is 0 in exact arithmetic can round negative, and a true decrease can
be below half an ulp of the energy, and descent stops before such a flip.

solve always starts from the all-inactive state, and descent sets it up in
closed form: every line sums to -n, so 2 E = -2 sum(theta) - (w_r + w_c)
(n^3 - n^2), with sum(theta) summed exactly once, and every half gain is
theta_i - h_0, h_0 = w_r (1 - n) + w_c (1 - n).  Its free-line phase lasts
while every flip sets a cell in a free grid row and a free grid column.
Every line then sums to -n or 2 - n, so an inactive cell of a taken line
has one of three fields, and its half gain, rounding being monotone, is
at least the bound min(theta) less the largest of them (once all n lines
are taken, the field of a taken row and a taken column alone); an active
cell's is above 0.  So a flip's line sums without its cell are 1 - n, and
the flip writes +inf over its grid row and column and keeps no counts:
the least gain left is the argmin of all when it is below the bound, and
the state is stable when it and the bound are both at least 0.
Otherwise, a NaN or a tie below -2^1023 included, descent leaves the
phase: it forms every gain and the 2n counts from the state once, and the
same loop goes on flip by flip as above.  That rebuild is the only way
into the general phase.  Default builds never leave the free-line phase;
normalize=False builds mostly do, many after the first flip.  Both
phases run one loop, which differs between them only in the exit test,
the step's line sums (1 - n, or the counts) and the rewrite of the flip's
grid row and column (+inf, or their gains).

The trace solve returns holds N, the coordinate of every accepted flip and
the energy before and after each, O(flips) numbers; its steps rebuild
every visited state from the all-inactive start, plus one repeated final
row that makes the stability of the endpoint visible in renderings of the
run, only when read.

On the builder's instances every feasible permutation encoding is
single-flip stable, so descent cannot cross between the n! local minima.
From the all-inactive state it pairs values with ranks greedily, largest
reward first, which on default builds is the sorted pairing (see
builder.qubo_terms), so solve runs one descent.  Other builds can stop in
a stable non-optimal or infeasible state; certify says which.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .conversions import bipolar_to_binary, fold_diagonal, to_hopfield, to_ising
from .errors import DomainError, MaxStepsExceeded
from .model import HopfieldInstance, QuboInstance, SolverTrace, _integral

_TIED = -(2.0**1023)  # doubled, half gains at or below this are -inf and tie


def solve(
    instance: HopfieldInstance, max_steps: Optional[int] = None
) -> tuple[np.ndarray, SolverTrace]:
    """Run steepest descent from the all-inactive state to a stable state.

    Parameters
    ----------
    instance : HopfieldInstance
    max_steps : int, optional
        Bounds the number of committed flips; defaults to N*N.  It must
        equal a non-negative integer.  A descent that stops by itself
        after k flips runs the same with max_steps=k and raises with k - 1.

    Returns
    -------
    (state, trace)
        The final bipolar state and the trace of the descent.

    Raises
    ------
    InvalidSize
        If max_steps is not an integer.
    MaxStepsExceeded
        If descent would commit a flip beyond its budget.
    DomainError
        If max_steps is negative, or an energy overflows the float range.
    """
    N = instance.dimension
    budget = N * N if max_steps is None else _budget(max_steps)
    W, theta = instance.weights_W, instance.bias_theta
    n, w_r, w_c = W.n, W.same_row, W.same_col
    s = np.full(N, -1.0)
    # Every line sums to -n: theta.s = -sum(theta), s^T W s = (w_r + w_c)(n^3 - n^2)
    total, u, units_r, units_c = _units(W, theta)
    twice = -2 * total - (units_r + units_c) * (n**3 - n**2)
    # An overflowing field or gain is left to the energies, whose overflow
    # SolverTrace names, with no numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        free_c, free_r = w_c * (1.0 - n), w_r * (1.0 - n)  # w (R + 1) with R = -n
        crossing_c, crossing_r = w_c * (3.0 - n), w_r * (3.0 - n)  # and with R = 2 - n
        half = theta - (free_r + free_c)  # half the gain of each flip
        bound = math.inf  # no line is taken
        S, G, T = s.reshape(n, n), half.reshape(n, n), theta.reshape(n, n)
        GT, TT, ST = G.T, T.T, S.T
        # While free, only free cells keep their gains.  An inactive cell (a, b)
        # has the field w_r (R_b + 1) + w_c (C_a + 1), in a taken line one of
        # taken, so its half gain is at least bound_some, or bound_all once all
        # n lines are taken and only taken[2] is left.
        low = float(theta.min())
        taken = (free_r + crossing_c, crossing_r + free_c, crossing_r + crossing_c)
        # A field is NaN only as the sum of two opposite infinities.  Then, at
        # n >= 4, so is the free field and every half gain, and descent leaves
        # the phase before it reads bound_some; at n = 1 it reads bound_all only.
        # So bound_some is read only when none is NaN, which Python's min may skip.
        bound_some = min(low - t for t in taken)
        bound_all = low - taken[2]
        paired = (units_r + units_c) * (1 - n)  # w_r r + w_c c in units of 2^u, r = c = 1 - n
        free = True  # descent starts in its free-line phase
        energies = [_rounded(twice, u - 1)]
        flipped: list[int] = []
        shift = 1 - u  # _scaled(x, u) and _rounded(m, u - 1), inline, both shift by 1 - u
        scale = 1 << shift
        argmin, s_item, theta_item = half.argmin, s.item, theta.item
        last = energies[0]
        while True:
            i = int(argmin())  # ties: lowest index
            gain = half.item(i)
            if gain <= _TIED:
                i = int((half <= _TIED).argmax())
                gain = half.item(i)
            if free and not (gain < bound and bound > _TIED):  # a taken line's cell may be lower
                if gain >= 0.0 and bound >= 0.0:
                    break
                # Leave the free-line phase: form every gain from the state, once.
                free = False
                # After each flip, _line forms the gains of its grid row and column.
                R, C = _gains(G, S, T, w_r, w_c)
                continue
            if gain >= 0.0:
                break
            a, b = divmod(i, n)
            if free:  # a free row and a free column: it sets the cell
                d, lines = 1.0, paired
            else:
                d = -s_item(i)
                r, c = R.item(b) + d, C.item(a) + d  # the line sums without cell i
                lines = units_r * int(r) + units_c * int(c)
            # 2E gains 4 d (theta_i - (W s)_i), where (W s)_i = w_r r + w_c c.
            numerator, denominator = theta_item(i).as_integer_ratio()
            t = numerator << (shift - denominator.bit_length())  # _scaled(theta_i, u)
            step = 4 * (t - lines)
            m = twice + step if d > 0.0 else twice - step
            try:
                e = m / scale
            except OverflowError:
                e = _rounded(m, u - 1)
            if not e < last:  # a rounded gain or energy shows no decrease
                break
            if len(flipped) >= budget:
                raise MaxStepsExceeded(f"no stable state within {budget} flips")
            twice, last = m, e
            flipped.append(i)
            energies.append(e)
            s[i] = d
            if free:  # its line's other cells are taken: keep no gain there
                G[a] = GT[b] = math.inf
                bound = bound_some if len(flipped) < n else bound_all
                continue
            r, c = r + d, c + d  # the line sums after the flip
            R[b], C[a] = r, c
            _line(G[a], T[a], S[a], R, w_r, c, w_c)
            _line(GT[b], TT[b], ST[b], C, w_c, r, w_r)
    return s.astype(np.int8), SolverTrace._of(N, flipped, energies)


def solve_qubo(
    instance: QuboInstance, max_steps: Optional[int] = None
) -> tuple[np.ndarray, SolverTrace]:
    """Fold, convert to the Hopfield network and descend once, as solve does.

    Returns the binary endpoint z, which decode_permutation reads, and the
    trace of the descent.  max_steps and the errors raised are solve's.
    """
    state, trace = solve(to_hopfield(to_ising(fold_diagonal(instance))), max_steps)
    return bipolar_to_binary(state), trace


def _budget(max_steps) -> int:
    """max_steps as an int, which must equal an integer of at least 0."""
    budget = _integral(max_steps, "max_steps")
    if budget < 0:
        raise DomainError("max_steps must be non-negative")
    return budget


def _gains(G, S, T, w_r, w_c):
    """Write half the gain of every flip at the grid state S into G; return
    the line sums R (grid columns) and C (grid rows)."""
    R, C = S.sum(axis=0), S.sum(axis=1)
    _line(G, T, S, R, w_r, C[:, None], w_c)
    return R, C


def _units(W, values: np.ndarray) -> tuple[int, int, int, int]:
    """(m, u, units_r, units_c): the sum of values, w_r and w_c, exactly, in units of 2^u."""
    # 2^u divides both weights: their denominators are powers of two.
    u = 1 - max(w.as_integer_ratio()[1] for w in (W.same_row, W.same_col)).bit_length()
    m, u = _dyadic(values, u)
    return m, u, _scaled(W.same_row, u), _scaled(W.same_col, u)


def _line(out, t, states, counts, w, count, v):
    """Half gains of a line whose sum is count, weight v, crossed by counts,
    weight w; of the whole grid when count is a column of the grid rows' sums."""
    h = w * (counts - states) + v * (count - states)
    np.multiply(states, h - t, out)


def _dyadic(values: np.ndarray, u: int = 0) -> tuple[int, int]:
    """(m, v): the sum of values is m * 2^v exactly, with v the least of u
    and the exponents of the values' last significand bits.

    np.frexp makes each value a 53-bit fraction times a power of two.  Split
    in halves of 26 and 27 bits, the fractions of one power sum exactly in
    float64, in any order, up to 2^26 terms: the high halves are integers
    whose sum stays below 2^52, the rest multiples of 2^-27 whose sum stays
    below 2^26.  When every value has the same power, as theta.s of the
    default build has on the benchmark's inputs, one .sum() adds each half;
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
