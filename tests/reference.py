"""The paper's dense formulation: the reference the library is held to.

qperm keeps the penalty as a PenaltyMatrix, three numbers, through every
stage.  This module writes the same pipeline as the paper does ("QUBOs
for Sorting Lists and Building Trees", sections 3 and 4), on plain numpy
arrays of n^2 x n^2 matrices and n^2 vectors:

* the Kronecker builders N, C_r and C_c, and the QUBO (R, r) they give;
* the product of a PenaltyMatrix with a vector or stacked rows, in O(N)
  per row, and the permutation matrix of a mapping;
* fold -> Ising -> Hopfield on (matrix, vector) pairs;
* steepest single-flip descent on a dense W, which forms W s afresh
  after every flip and records every energy E(s) correctly rounded from
  exact integers, as the library's descent does, with its own copies of
  the exact sums, so a change to the library's moves no reference energy;
* the record of a reference descent, which may start anywhere (Descent),
  and the states a descent visits, rebuilt from its start and flips
  (replay), for the reference's records and solve's alike;
* exact energies in Fractions;
* exhaustive_qubo_min, the global minimizer of a QUBO over all 2^N
  binary states, guarded at N <= 20;
* the structure checks as the tree definitions state them: validate_bst
  bounds every slot by its ancestors, validate_heap compares every slot
  with each of its children;
* the comparators of the library's solve with the dense descent, bit for
  bit (assert_bitwise_same_descent), and with the earlier descent that
  forms two products per step (compare_descents).

dense(stage) materializes a library instance as its (matrix, vector)
pair, so a test runs the reference on the same input as the library.
Nothing here validates its input: the library does that.
"""

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest

from qperm import (
    DomainError,
    HopfieldInstance,
    InvalidSize,
    MaxStepsExceeded,
    PenaltyMatrix,
    solve,
)

# --- states and the column-stacking convention ------------------------------


def vectorize(matrix) -> np.ndarray:
    """Stack the columns of a square matrix into one vector."""
    return np.asarray(matrix, dtype=float).ravel(order="F")


def matricize(vector) -> np.ndarray:
    """Invert vectorize: rebuild the n x n matrix column by column."""
    v = np.asarray(vector, dtype=float).ravel()
    n = math.isqrt(v.size)
    return v.reshape((n, n), order="F")


def binary_to_bipolar(z) -> np.ndarray:
    """Map {0,1} to {-1,+1} via s = 2z - 1."""
    return (2 * np.asarray(z).astype(int) - 1).astype(np.int8)


def permutation_matrix(mapping) -> np.ndarray:
    """The n x n 0/1 matrix whose row i holds its 1 in column mapping[i]."""
    n = len(mapping)
    matrix = np.zeros((n, n))
    matrix[np.arange(n), list(mapping)] = 1.0
    return matrix


def product(M, v) -> np.ndarray:
    """M v for a PenaltyMatrix M and a vector v, or each of stacked rows v
    times M, in O(N) per row.

    M is symmetric, so each row times M is M times that row; it is read off
    the row and column sums of the row's (n, n) grid of cells.
    """
    v = np.asarray(v, dtype=float)
    n = M.n
    cells = v.reshape(v.shape[:-1] + (n, n))  # cells[..., a, b] = v[..., a*n + b]
    row_sums = cells.sum(axis=-2, keepdims=True)
    col_sums = cells.sum(axis=-1, keepdims=True)
    out = (
        M.self_coupling * cells
        + M.same_row * (row_sums - cells)
        + M.same_col * (col_sums - cells)
    )
    return out.reshape(v.shape)


# --- the Kronecker build ----------------------------------------------------


def build_N(program) -> np.ndarray:
    """Rank reward matrix, n rows by n*n columns: build_N(p) @ vectorize(Z)
    equals Z.T @ ranks."""
    ranks = np.asarray(program.ranks, dtype=float)
    return np.kron(np.eye(program.n), ranks[None, :])


def build_Cr(n: int) -> np.ndarray:
    """Row-sum reader: build_Cr(n) @ vectorize(Z) equals Z @ 1."""
    return np.kron(np.ones((1, n)), np.eye(n))


def build_Cc(n: int) -> np.ndarray:
    """Column-sum reader: build_Cc(n) @ vectorize(Z) equals Z.T @ 1."""
    return np.kron(np.eye(n), np.ones((1, n)))


def kronecker_qubo(values, program, lambda_r: float, lambda_c: float) -> tuple:
    """(R, r) with R = lam_r C_r^T C_r + lam_c C_c^T C_c and
    r = -N^T x - 2 (lam_r C_r + lam_c C_c)^T 1, x the given values."""
    n = program.n
    Cr, Cc = build_Cr(n), build_Cc(n)
    R = lambda_r * (Cr.T @ Cr) + lambda_c * (Cc.T @ Cc)
    penalty = (lambda_r * Cr + lambda_c * Cc).T @ np.ones(n)
    r = -(build_N(program).T @ np.asarray(values, dtype=float)) - 2.0 * penalty
    return R, r


def qubo_objective(R, r, z) -> float:
    """z^T R z + r^T z at a binary state z."""
    zv = np.asarray(z, dtype=float).ravel()
    return float(zv @ R @ zv + r @ zv)


MAX_EXHAUSTIVE_BITS = 20
_STATE_CHUNK = 1 << 16


def exhaustive_qubo_min(instance) -> tuple:
    """Enumerate all 2^N binary states of a QuboInstance and return a global
    minimizer and its value.

    State k has coordinate j equal to bit j of k; ties go to the
    smallest k.  Guarded at N <= 20.
    """
    N = instance.dimension
    if N > MAX_EXHAUSTIVE_BITS:
        raise InvalidSize(f"N={N} exceeds the N<={MAX_EXHAUSTIVE_BITS} enumeration budget")
    R = instance.matrix_R
    r = instance.vector_r
    bits = np.arange(N)
    total = 1 << N
    best_value = math.inf
    best_state = None
    for start in range(0, total, _STATE_CHUNK):
        ks = np.arange(start, min(start + _STATE_CHUNK, total), dtype=np.int64)
        Z = ((ks[:, None] >> bits) & 1).astype(float)
        values = (product(R, Z) * Z).sum(axis=1) + Z @ r
        k = int(np.argmin(values))
        if float(values[k]) < best_value:
            best_value = float(values[k])
            best_state = Z[k].astype(int)
    return best_state, best_value


# --- the dense chain --------------------------------------------------------


def dense(stage) -> tuple:
    """(matrix, vector) of a QuboInstance, IsingInstance or HopfieldInstance,
    its PenaltyMatrix materialized."""
    matrix, vector = vars(stage).values()
    return np.asarray(matrix), vector


def fold_diagonal(R, r) -> tuple:
    """Zero the diagonal of a copy of R and add it to r."""
    folded = R.copy()
    np.fill_diagonal(folded, 0.0)
    with np.errstate(over="ignore"):
        return folded, r + R.diagonal()


def to_ising(R, r) -> tuple:
    """Q = R/4 and q = R@1/2 + r/2, on a zero diagonal."""
    with np.errstate(over="ignore", invalid="ignore"):
        row_sums = R @ np.ones(r.size)
    return R / 4.0, 0.5 * row_sums + 0.5 * r


def to_hopfield(Q, q) -> tuple:
    """W = -2Q, theta = q."""
    return -2.0 * Q, q


def chain(R, r) -> tuple:
    """fold -> Ising -> Hopfield; returns the three (matrix, vector) pairs."""
    folded = fold_diagonal(R, r)
    ising = to_ising(*folded)
    return folded, ising, to_hopfield(*ising)


# --- descent records ----------------------------------------------------


class Descent(namedtuple("Descent", "start flipped energies")):
    """The record of a reference descent: the state it started from, the
    coordinate of every flip and the energy before and after each."""

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return self.start.size


def _recorded(start, flipped, energies) -> Descent:
    """A Descent of strictly decreasing energies; as solve does, it names an
    energy beyond the float range, which can only be the first or the last."""
    if not np.isfinite([energies[0], energies[-1]]).all():
        raise DomainError("trace energies must be finite: the energy overflows the float range")
    return Descent(start, np.array(flipped, dtype=np.intp), np.array(energies))


def replay(trace, start=None) -> list:
    """Every state a descent visits, as int8 copies: start, all inactive if
    None as solve's always is, then the state after each of trace.flipped,
    the last being the endpoint.  trace is a Descent or solve's trace."""
    state = np.full(trace.dimension, -1, dtype=np.int8) if start is None else start
    states = [np.array(state, dtype=np.int8)]
    for i in trace.flipped.tolist():
        state = states[-1].copy()
        state[i] = -state[i]
        states.append(state)
    return states


# --- the dense descent ------------------------------------------------------


def energy(W, theta, s) -> float:
    """-1/2 s^T W s + theta^T s, correctly rounded, as descent records it."""
    s = np.asarray(s, dtype=float)
    return next(_descent(W, theta, s.copy(), np.empty(s.size)))


def flip_gain(W, theta, s, i: int) -> float:
    """2 s_i ((W s)_i - theta_i), the energy change from flipping s_i, as W_ii = 0."""
    s = np.asarray(s, dtype=float)
    return float(2.0 * s[i] * (W[i] @ s - theta[i]))


def descend(W, theta, start=None, budget=None) -> tuple:
    """Steepest descent on a dense W, as hopfield.solve runs it on a
    PenaltyMatrix: from start (all inactive if None, the only start solve
    takes), with a budget of N*N flips if None; returns the final bipolar
    state and the trace."""
    N = theta.size
    start = np.full(N, -1, dtype=np.int8) if start is None else start
    budget = N * N if budget is None else budget
    s = start.astype(float)
    flipped: list[int] = []
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.empty(N)  # half the gain of each flip
        descent = _descent(W, theta, s, half)
        energies = [next(descent)]
        while True:
            i = int(half.argmin())  # ties: lowest index
            gain = half.item(i)
            if gain >= 0.0:
                break
            if gain <= -(2.0**1023):  # doubled, such gains are -inf and tie
                i = int((half <= -(2.0**1023)).argmax())
            e = descent.send(i)
            if not e < energies[-1]:  # a rounded gain or energy shows no decrease
                s[i] = -s[i]
                break
            if len(flipped) >= budget:
                raise MaxStepsExceeded(f"no stable state within {budget} flips")
            flipped.append(i)
            energies.append(e)
    return s.astype(np.int8), _recorded(start, flipped, energies)


def _descent(W, theta, s, half):
    """Fills half and yields E(s), then, sent each coordinate i, flips s_i,
    forms half afresh from W @ s, O(N^2), and yields the energy after the flip.

    2 E(s) is an exact integer count of 2^u: s^T W s summed exactly once,
    theta.s too, and each flip adds 4 s_i (theta_i - (W s)_i), that row
    summed exactly.
    """
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


# --- exact sums, frozen apart from the library's --------------------------


def _dyadic(values: np.ndarray, u: int = 0) -> tuple:
    """(m, v): the sum of values is m * 2^v exactly, with v the least of u
    and the exponents of the values' last significand bits.

    Each value is a 53-bit fraction times a power of two.  Split in halves
    of 26 and 27 bits, the fractions of one power sum exactly in float64,
    in any order, up to 2^26 terms; np.bincount adds them power by power,
    and Python ints add the sums.
    """
    fractions, exponents = np.frexp(values)
    low = int(exponents.min())
    scaled = np.ldexp(fractions, 26)
    high = np.trunc(scaled)
    rest = scaled - high  # 27 bits below the point
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


# --- exact energies ---------------------------------------------------------


def exact_sum(values) -> Fraction:
    """The sum of an array of floats, in exact arithmetic."""
    ratios = [v.as_integer_ratio() for v in np.ravel(values).tolist()]
    scale = max(q for _, q in ratios)  # every denominator is a power of two
    return Fraction(sum(p * (scale // q) for p, q in ratios), scale)


def fraction_energy(W, theta, s) -> Fraction:
    """E(s) = -1/2 s^T W s + theta^T s in exact arithmetic, from every entry of W."""
    s = np.asarray(s, dtype=float)
    products = np.outer(s, s) * W  # exact: s is bipolar
    return exact_sum(theta * s) - exact_sum(products) / 2


def fraction_energies(W, theta, states) -> list[float]:
    """float(Fraction(E(s))) for each of states, consecutive ones equal or one
    flip apart: E of the first from every entry of W, and flipping s_i to s'_i
    adds 2 s'_i (theta_i - (W s)_i) exactly, since W_ii = 0.  An energy
    beyond the float range is an infinity, as descent records it."""
    states = [np.asarray(state, dtype=float) for state in states]
    E = fraction_energy(W, theta, states[0])
    energies = [_float(E)]
    for before, after in zip(states, states[1:]):
        for i in np.flatnonzero(before != after).tolist():  # at most one
            E += 2 * int(after[i]) * (Fraction(theta[i]) - exact_sum(W[i] * before))
        energies.append(_float(E))
    return energies


def _float(E: Fraction) -> float:
    """E correctly rounded; beyond the float range, an infinity."""
    try:
        return float(E)
    except OverflowError:
        return math.inf if E > 0 else -math.inf


# --- structure checks -------------------------------------------------------


def validate_bst(values, size: int) -> bool:
    """True when every slot of the binary tree lies between the bounds its
    ancestors set: no value in a left subtree above the slot's, none in a
    right subtree below it.  Any comparison with NaN fails."""
    vals = np.asarray(values, dtype=float).ravel()

    def within(slot: int, low: float, high: float) -> bool:
        if slot >= size:
            return True
        v = vals[slot]
        if not (low <= v <= high):
            return False
        return within(2 * slot + 1, low, v) and within(2 * slot + 2, v, high)

    return within(0, -np.inf, np.inf)


def validate_heap(values, size: int, branching: int) -> bool:
    """True when every slot's value is >= each of its children's values.  A
    lone slot has no child, so it passes whatever it holds, NaN included."""
    vals = np.asarray(values, dtype=float).ravel()
    return all(
        vals[slot] >= vals[child]
        for slot in range(size)
        for child in range(branching * slot + 1, min(branching * slot + branching + 1, size))
    )


# --- solve against the dense descents ---------------------------------------


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def assert_bitwise_same_descent(network, budget=None, against=None):
    """solve on the library network takes the same flips through the same
    states at the same energies as descend on against, by default the
    network's materialized form, both from the all-inactive state, or raises
    the same error.  Returns solve's trace, or None when both raise."""
    budget = network.dimension ** 2 if budget is None else budget
    try:
        dense_run = descend(*(dense(network) if against is None else against), None, budget)
    except MaxStepsExceeded:
        with pytest.raises(MaxStepsExceeded):
            solve(network, budget)
        return None
    state, trace = solve(network, budget)
    dense_state, dense_trace = dense_run
    assert state.dtype == dense_state.dtype and state.tobytes() == dense_state.tobytes()
    assert trace.flipped.tolist() == dense_trace.flipped.tolist()
    assert bits(trace.energies) == bits(dense_trace.energies)
    assert replay(trace)[-1].tobytes() == state.tobytes()
    return trace


def assert_own_budget_suffices(network):
    """solve within a budget of its own flip count takes the same descent, bit
    for bit, and within one flip fewer raises; returns (state, trace)."""
    state, trace = solve(network)
    again, capped = solve(network, trace.flips)
    assert again.tobytes() == state.tobytes()
    assert capped.flipped.tolist() == trace.flipped.tolist()
    assert capped.energies.tobytes() == trace.energies.tobytes()
    if trace.flips:
        with pytest.raises(MaxStepsExceeded):
            solve(network, trace.flips - 1)
    return state, trace


# A row of the earlier descent, kept even when its energy overflowed its
# products, so the states of such a run can be compared.
Row = namedtuple("Row", "index state energy")


def descend_two_products(W, theta, start, budget: int, steps: list) -> tuple:
    """The earlier descent, its loop as it was but for its budget check and
    its products: it forms W @ s and the energy afresh at every step,
    through product on a PenaltyMatrix.  It appends each row it builds to
    steps, the row it would flip to past its budget included, and packages
    them as a Descent only on return."""
    left, right = _products(W)
    s = start.astype(float)
    e = float(-0.5 * (left(s) @ s) + theta @ s)
    steps.append(Row(0, start, e))
    flips = 0
    while True:
        gains = 2.0 * s * (right(s) - theta)
        i = int(np.argmin(gains))  # ties: lowest index
        if gains[i] >= 0.0:
            final = s.astype(np.int8)
            steps.append(Row(len(steps), final, e))
            return final, _packaged(steps)
        s[i] = -s[i]
        e = float(-0.5 * (left(s) @ s) + theta @ s)
        steps.append(Row(len(steps), s.astype(np.int8), e))
        if flips >= budget:  # the row it would flip to next is kept
            raise MaxStepsExceeded(f"no stable state within {budget} flips")
        flips += 1


def _products(W) -> tuple:
    """s @ W and W @ s, as functions of s, for a dense W or a PenaltyMatrix."""
    if isinstance(W, PenaltyMatrix):
        return (lambda s: product(W, s),) * 2
    return (lambda s: s @ W), (lambda s: W @ s)


def _packaged(steps: list) -> Descent:
    """The rows of a descent, the last repeating its predecessor, as a
    Descent; as the earlier descent's record did, it refuses energies that
    fail to fall."""
    flipped = []
    for before, after in zip(steps[:-2], steps[1:-1]):
        (i,) = np.flatnonzero(before.state != after.state)  # exactly one flip per row
        flipped.append(int(i))
    energies = [step.energy for step in steps[:-1]]
    if not all(later < earlier for earlier, later in zip(energies, energies[1:])):
        raise DomainError("trace energies must strictly decrease")
    return _recorded(steps[0].state, flipped, energies)


def compare_descents(network, start=None, budget=None):
    """The current descent takes the earlier one's flips and stops before the
    first flip whose correctly rounded energy fails to fall; its energies are
    float(Fraction(E(s))), and one beyond the float range at either end of
    the run is named.

    network is a library HopfieldInstance, which solve takes, or a dense
    (W, theta) pair, which descend takes.  solve descends from the
    all-inactive state, the start when start is None; only descend takes
    another.  The earlier descent takes a flip whose true gain is 0 when
    that gain rounds negative, and one whose true decrease is below half an
    ulp of the energy.  Runs without such a flip are the same, or both raise
    MaxStepsExceeded.  Past its budget the earlier descent keeps the row it
    would flip to, so a current descent whose budget runs out right before
    a flip it rejects stops there and does not raise.  Returns the trace of
    the current descent, or None when it raises.
    """
    library = isinstance(network, HopfieldInstance)
    # the earlier descent forms its products on the form the current one takes
    products, theta = (network.weights_W, network.bias_theta) if library else network
    start = np.full(theta.size, -1, dtype=np.int8) if start is None else start
    budget = theta.size**2 if budget is None else budget
    assert not library or (start == -1).all()
    W = np.asarray(products)

    def current():
        if library:
            return solve(network, budget)
        return descend(W, theta, start, budget)

    old_steps = []  # every row the earlier descent builds, kept even when it raises
    exhausted = False
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # its energies name an overflow
            descend_two_products(products, theta, start, budget, old_steps)
    except MaxStepsExceeded:
        exhausted = True
    except DomainError:  # its own energies failed to fall; the states are what count
        pass
    states = [step.state for step in old_steps]
    energies = fraction_energies(W, theta, states)
    rejected = next(
        (
            k
            for k in range(1, len(states))
            if not energies[k] < energies[k - 1] and not np.array_equal(states[k], states[k - 1])
        ),
        None,
    )
    if rejected is None and exhausted:
        with pytest.raises(MaxStepsExceeded):
            current()
        return None
    # Without a rejected flip, the rows are all but the repeated endpoint.
    kept = len(states) - 1 if rejected is None else rejected
    if not np.isfinite([energies[0], energies[kept - 1]]).all():
        with pytest.raises(DomainError, match="overflows the float range"):
            current()
        return None
    state, trace = current()
    visited = replay(trace, start)
    assert len(visited) == kept
    for seen, old_state in zip(visited, states[:kept]):
        assert np.array_equal(seen, old_state)
    assert np.array_equal(state, states[kept - 1])
    assert [e.hex() for e in trace.energies.tolist()] == [float(e).hex() for e in energies[:kept]]
    return trace
