"""The paper's dense formulation: the reference the library is held to.

qperm keeps the penalty as a PenaltyMatrix, three numbers, through every
stage.  This module writes the same pipeline as the paper does ("QUBOs
for Sorting Lists and Building Trees", sections 3 and 4), on plain numpy
arrays of n^2 x n^2 matrices and n^2 vectors:

* the Kronecker builders N, C_r and C_c, and the QUBO (R, r) they give;
* fold -> Ising -> Hopfield on (matrix, vector) pairs;
* steepest single-flip descent on a dense W, which forms W s afresh
  after every flip and records every energy E(s) correctly rounded from
  exact integers, as the library's descent does;
* exact energies in Fractions;
* exhaustive_qubo_min, the global minimizer of a QUBO over all 2^N
  binary states, guarded at N <= 20;
* the structure checks as the tree definitions state them: validate_bst
  bounds every slot by its ancestors, validate_heap compares every slot
  with each of its children.

dense(stage) materializes a library instance as its (matrix, vector)
pair, so a test runs the reference on the same input as the library.
Nothing here validates its input: the library does that.
"""

import math
from fractions import Fraction

import numpy as np

from qperm import MaxStepsExceeded, SizeBudgetExceeded, SolverTrace
from qperm.hopfield import _dyadic, _rounded, _scaled

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
        raise SizeBudgetExceeded(f"N={N} exceeds the N<={MAX_EXHAUSTIVE_BITS} enumeration budget")
    R = instance.matrix_R
    r = instance.vector_r
    bits = np.arange(N)
    total = 1 << N
    best_value = math.inf
    best_state = None
    for start in range(0, total, _STATE_CHUNK):
        ks = np.arange(start, min(start + _STATE_CHUNK, total), dtype=np.int64)
        Z = ((ks[:, None] >> bits) & 1).astype(float)
        values = ((Z @ R) * Z).sum(axis=1) + Z @ r
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
    return s.astype(np.int8), SolverTrace(start, np.array(flipped, dtype=np.intp), energies)


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
