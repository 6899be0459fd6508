"""Core value types and encoding conventions for the ordering pipeline.

Every other module (builder, conversions, solver, oracle, CLI) speaks in
terms of these types.  Instances are frozen, and each copies the arrays it
is given and marks the copy read-only, so no caller can change what an
instance holds and instances can be shared freely between threads and
calls.  On the library chain those copies are O(N) vectors; only a dense
matrix, the reference path, is copied whole.

Each instance takes its matrix in one of two forms.  A dense ndarray must
be symmetric to within SYMMETRY_TOL and, like the vectors beside it,
finite; NaN or infinite entries raise DomainError.  A PenaltyMatrix is the
row/column penalty of the ordering QUBO held as three coefficients: it is
symmetric by construction, so validating it checks that n is a positive
integer and those three are finite, and it needs no n^4 memory.
build_qubo produces one and every conversion keeps it; np.asarray
materializes it as the dense matrix the same stage builds from a dense
input.  It answers the few ndarray calls the pipeline makes of its
matrices (products, rows and scaling) in the ndarray's spelling, so only a
few places ask which form they hold: constructing an instance;
_nonzero_diagonal, which tests the one diagonal entry self_coupling
where a dense matrix has its diagonal compared, so the structured chain
forms no N-length diagonal; fold_diagonal, which adds self_coupling to
r and zeroes it; to_ising, which takes its one row sum; and descent,
which reads its fields off the row and column counts of the (n, n) grid
of the PenaltyMatrix layout.  M.diagonal() stays for callers that want
the diagonal as an array.

Conventions fixed here once and relied on everywhere:

* vectorization stacks matrix columns (Fortran order), and matricization
  is its exact inverse;
* a solver state z of length n*n encodes the permutation matrix
  P = matricize(z), whose row i holds its single 1 in column
  as_mapping[i], so applying P reads y[i] = x[as_mapping[i]];
* binary vectors live in {0, 1}, bipolar states in {-1, +1}.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidSize,
    NonSquareLength,
    NonZeroDiagonal,
    NotAPermutation,
    UnsupportedBranching,
)

SYMMETRY_TOL = 1e-12

PROGRAM_KINDS = ("ascending", "descending", "bst", "heap", "custom")


@dataclass(frozen=True)
class PenaltyMatrix:
    """The N x N matrix, N = n*n, that couples cells of one row or one column of Z.

    Coordinate i = a*n + b is cell (row b, column a) of Z, as vectorize
    stacks columns.  Entry (i, j) is self_coupling when i == j, same_row
    when cells i and j are distinct cells of one row of Z, same_col when
    they are distinct cells of one column, and 0 elsewhere.  The builder's
    penalty lam_r C_r^T C_r + lam_c C_c^T C_c is PenaltyMatrix(n, lam_r,
    lam_c, lam_r + lam_c), a Kronecker sum fixed by three numbers.

    It stands in for the dense matrix where the pipeline needs one, with
    the same spelling, so callers need not ask which form they hold:
    np.asarray materializes it; M @ v, v @ M and Z @ M (for stacked rows
    Z) multiply in O(N) per vector; M[i] is row i and M.diagonal() the
    diagonal, in O(N); multiplying or dividing by a scalar applies to the
    three coefficients what the dense operation applies to every entry.
    shape and ndim are those of the dense matrix.  Every entry these return is
    bit for bit the entry np.asarray(M) holds.

    Row i has only 2n - 1 nonzeros: viewed as the (n, n) grid G[a, b] =
    v[a*n + b], it reaches G[a], the cells of column a of Z, with
    same_col, and G[:, b], those of row b, with same_row, the two
    crossing at i.  M @ v forms each entry from the sums of v over those
    two lines, and descent, which keeps the sums of a bipolar state, forms
    the same expression there, in O(n) per flip.  row_sum is the one
    number every row sums to.
    """

    n: int
    same_row: float
    same_col: float
    self_coupling: float

    # Binary numpy operations with a PenaltyMatrix defer to its own methods
    # instead of materializing it.
    __array_ufunc__ = None
    ndim = 2

    def __post_init__(self):
        n = _integral(self.n, "n")
        if n < 1:
            raise InvalidSize("n must be at least 1")
        object.__setattr__(self, "n", n)
        for name in ("same_row", "same_col", "self_coupling"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))

    @property
    def shape(self) -> tuple[int, int]:
        N = self.n * self.n
        return (N, N)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The dense matrix, written in place through a 4-D view.

        Viewed as cells[a, b, a', b'] for z[a*n + b], same_row sits where
        b = b' and same_col where a = a'.  The zeros elsewhere take the sign
        of same_row, as 0 times each coefficient's factor does in the dense
        stages, so every stage materializes bit for bit as its dense
        counterpart (to_hopfield's W = -2Q holds -0.0 there).
        """
        n = self.n
        dense = np.full(self.shape, 0.0 * self.same_row)
        cells = dense.reshape(n, n, n, n)
        k = np.arange(n)
        cells[:, k, :, k] = self.same_row
        cells[k, :, k, :] = self.same_col
        np.fill_diagonal(dense, self.self_coupling)
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def __getitem__(self, i) -> np.ndarray:
        """Row i, written as __array__ writes it."""
        N = self.n * self.n
        i = operator.index(i)
        if not -N <= i < N:
            raise IndexError(f"row {i} outside a {self.shape} penalty")
        i %= N
        a, b = divmod(i, self.n)
        row = np.full(N, 0.0 * self.same_row)
        cells = row.reshape(self.n, self.n)
        cells[:, b] = self.same_row
        cells[a, :] = self.same_col
        row[i] = self.self_coupling
        return row

    def diagonal(self) -> np.ndarray:
        return np.full(self.n * self.n, self.self_coupling)

    def row_sum(self) -> float:
        """The sum of every row, M @ 1 entry by entry, bit for bit, in O(1).

        M @ 1 adds self_coupling * 1, same_row * (n - 1) and same_col *
        (n - 1) in that order, as __rmatmul__ does.
        """
        others = self.n - 1
        return self.self_coupling * 1.0 + self.same_row * others + self.same_col * others

    def __matmul__(self, other) -> np.ndarray:
        """M @ v for a vector v."""
        v = np.asarray(other, dtype=float)
        if v.ndim != 1:
            raise DimensionMismatch("M @ v takes a vector; multiply stacked rows as Z @ M")
        return self.__rmatmul__(v)

    def __rmatmul__(self, other) -> np.ndarray:
        """v @ M, row by row for stacked rows, in O(N) per row.

        M is symmetric, so each row times M is M times that row; it is
        read off the row and column sums of the row's cells.
        """
        v = np.asarray(other, dtype=float)
        n = self.n
        if v.ndim == 0 or v.shape[-1] != n * n:
            raise DimensionMismatch(f"cannot multiply shape {v.shape} by a {self.shape} penalty")
        cells = v.reshape(v.shape[:-1] + (n, n))  # cells[..., a, b] = v[..., a*n + b]
        row_sums = cells.sum(axis=-2, keepdims=True)
        col_sums = cells.sum(axis=-1, keepdims=True)
        out = (
            self.self_coupling * cells
            + self.same_row * (row_sums - cells)
            + self.same_col * (col_sums - cells)
        )
        return out.reshape(v.shape)

    def __mul__(self, factor):
        if not isinstance(factor, numbers.Real):
            return NotImplemented
        return PenaltyMatrix(
            self.n, factor * self.same_row, factor * self.same_col, factor * self.self_coupling
        )

    __rmul__ = __mul__

    def __truediv__(self, divisor):
        if not isinstance(divisor, numbers.Real):
            return NotImplemented
        return PenaltyMatrix(
            self.n, self.same_row / divisor, self.same_col / divisor, self.self_coupling / divisor
        )


# Values that int() reads as integers but that are no integers.
_NOT_INTEGERS = (str, bytes, bool, np.bool_)
_BOOLEANS = frozenset((bool, np.bool_))  # neither type can be subclassed


def _integral(value, name: str) -> int:
    """value as an int, which it must equal: strings, booleans and fractions
    are rejected, never truncated or read as 0 and 1."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidSize(f"{name} must be an integer") from None
    if isinstance(value, _NOT_INTEGERS) or as_int != value:
        raise InvalidSize(f"{name} must be an integer, not {value!r}")
    return as_int


def _finite(value, name: str) -> float:
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite")
    return value


def _readonly(values, name: str, dtype=float) -> np.ndarray:
    """A read-only copy of values as an array of dtype; an integer beyond
    the range of dtype is a DomainError that names the field."""
    try:
        arr = np.array(values, dtype=dtype)
    except OverflowError:
        raise DomainError(f"{name} holds an integer beyond the {np.dtype(dtype)} range") from None
    arr.setflags(write=False)
    return arr


def _checked(matrix, vector, matrix_name: str, vector_name: str) -> tuple:
    """Read-only copies of an instance's matrix and vector, checked.

    The matrix must be square and match the vector, hold at least one
    entry, the vector finite and the matrix symmetric.  A PenaltyMatrix is
    immutable, symmetric by construction and finite by its own check, so
    it is kept as it is.  A dense matrix is compared with its transpose,
    entry by entry; the test is written `not gap <= tol` so that a NaN gap
    (from NaN or infinite entries) fails, and a gap that overflows is
    infinite and fails too, without a numpy warning.
    """
    dense = not isinstance(matrix, PenaltyMatrix)
    M = _readonly(matrix, matrix_name) if dense else matrix
    v = _readonly(vector, vector_name)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or v.shape != (M.shape[0],):
        raise DimensionMismatch(f"{matrix_name} must be square and match {vector_name}")
    if v.size == 0:
        raise InvalidSize(f"{vector_name} needs at least one entry")
    _require_finite(v, vector_name)
    if dense:
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is the NaN we look for
            diff = M - M.T
        gap = float(np.abs(diff, out=diff).max())
        if not gap <= SYMMETRY_TOL:
            raise DomainError(f"{matrix_name} must be symmetric and finite; asymmetry {gap:.3e}")
    return M, v


def _nonzero_diagonal(matrix) -> bool:
    """Whether a diagonal entry of matrix differs from 0; -0.0 does not.  On a
    PenaltyMatrix every one is self_coupling, so this forms no diagonal."""
    if isinstance(matrix, PenaltyMatrix):
        return matrix.self_coupling != 0.0
    return bool(np.any(matrix.diagonal() != 0.0))


def _all_in(values: np.ndarray, pair: tuple) -> bool:
    """Whether every entry equals one of the two values in pair; NaN and
    non-numeric entries equal neither.  Two comparisons, where np.isin sorts."""
    low, high = pair
    return bool(np.logical_or(values == low, values == high).all())


def _require_finite(vector: np.ndarray, name: str) -> None:
    if not np.isfinite(vector).all():
        raise DomainError(f"{name} must be finite")


@dataclass(frozen=True, eq=False)
class ValueVector:
    """An input vector together with its shifted, L1-normalized copy.

    normalized_entries equals (entries - min) / sum(entries - min): every
    entry lies in [0, 1], the smallest is 0 and they sum to 1.  A constant
    vector has no spread to scale and normalizes to all zeros; any
    arrangement of it is optimal.  The field is derived in the
    constructor.  When the shift or its sum would overflow (a spread
    beyond the float range), x is first scaled by a power of two, which
    keeps every order; every other input normalizes without it.

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

    The argument holds in exact arithmetic.  Distinct values closer than
    about 2^-52 of the spread look equal to the descent's gains, and may
    come back out of order; certify checks the order exactly and fails
    such an arrangement.
    """

    entries: np.ndarray
    normalized_entries: np.ndarray = field(init=False)

    def __post_init__(self):
        entries = _readonly(self.entries, "entries")
        if entries.ndim != 1 or entries.size == 0:
            raise InvalidSize("need a one-dimensional vector with at least one entry")
        _require_finite(entries, "entries")
        with np.errstate(over="ignore"):
            shifted = entries - entries.min()
            scale = float(shifted.sum())
        if not math.isfinite(scale):
            # The spread or its sum is beyond the float range.  Scaling by a
            # power of two keeps every order; 2^-(2 + bits of n) brings the
            # largest spread, 2 * max|x|, summed n times, back within it.
            shrunk = np.ldexp(entries, -(2 + entries.size.bit_length()))
            shifted = shrunk - shrunk.min()
            scale = float(shifted.sum())
        if scale > 0.0:
            shifted /= scale
        shifted.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "normalized_entries", shifted)

    @property
    def n(self) -> int:
        return int(self.entries.size)


@dataclass(frozen=True)
class OrderProgram:
    """A target arrangement, given as the rank each output slot receives.

    ranks is a permutation of 1..n; output slot i is meant to hold the
    ranks[i]-th smallest input value.  Each rank must equal its integer
    value: strings, booleans and fractions are rejected, never truncated.  kind
    records how the vector was generated; branching is the tree arity
    where that applies, an integer of at least 2, checked as the ranks are,
    and 2 for a bst program.
    """

    ranks: tuple[int, ...]
    kind: str = "custom"
    branching: int = 2

    def __post_init__(self):
        try:
            given = tuple(self.ranks)
            ranks = tuple(int(v) for v in given)
        except (TypeError, ValueError, OverflowError):
            raise NotAPermutation("ranks must be a sequence of integers") from None
        if any(isinstance(v, _NOT_INTEGERS) or r != v for r, v in zip(ranks, given)):
            raise NotAPermutation("ranks must be integers, not strings, booleans or fractions")
        if len(ranks) < 1:
            raise InvalidSize("a program needs at least one slot")
        if sorted(ranks) != list(range(1, len(ranks) + 1)):
            raise NotAPermutation("ranks must be a permutation of 1..n")
        if self.kind not in PROGRAM_KINDS:
            raise DomainError(f"unknown program kind {self.kind!r}")
        branching = _integral(self.branching, "branching")
        if branching < 2:
            raise DomainError("branching must be at least 2")
        if self.kind == "bst" and branching != 2:
            raise UnsupportedBranching("search-tree programs exist for branching 2 only")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "branching", branching)

    @property
    def n(self) -> int:
        return len(self.ranks)


@dataclass(frozen=True, eq=False)
class QuboInstance:
    """Minimize z^T R z + r^T z over binary z of length n squared.

    matrix_R is a dense ndarray or a PenaltyMatrix, which holds the
    penalty weights as same_row and same_col.  z encodes an n x n matrix,
    so the dimension must be a perfect square; n is its root.
    """

    matrix_R: Union[np.ndarray, PenaltyMatrix]
    vector_r: np.ndarray

    def __post_init__(self):
        R, r = _checked(self.matrix_R, self.vector_r, "matrix_R", "vector_r")
        if math.isqrt(r.size) ** 2 != r.size:
            raise DimensionMismatch(f"dimension {r.size} is not the square of an integer n")
        object.__setattr__(self, "matrix_R", R)
        object.__setattr__(self, "vector_r", r)

    @property
    def dimension(self) -> int:
        return int(self.vector_r.size)

    @property
    def n(self) -> int:
        return math.isqrt(self.dimension)


@dataclass(frozen=True, eq=False)
class IsingInstance:
    """Energy s^T Q s + q^T s over bipolar s; Q keeps an exactly zero diagonal.

    matrix_Q is a dense ndarray or a PenaltyMatrix.
    """

    matrix_Q: Union[np.ndarray, PenaltyMatrix]
    vector_q: np.ndarray

    def __post_init__(self):
        Q, q = _checked(self.matrix_Q, self.vector_q, "matrix_Q", "vector_q")
        if _nonzero_diagonal(Q):
            raise NonZeroDiagonal("matrix_Q must have an exactly zero diagonal")
        object.__setattr__(self, "matrix_Q", Q)
        object.__setattr__(self, "vector_q", q)

    @property
    def dimension(self) -> int:
        return int(self.vector_q.size)


@dataclass(frozen=True, eq=False)
class HopfieldInstance:
    """Energy -1/2 s^T W s + theta^T s over bipolar s, with zero self-coupling.

    weights_W is a dense ndarray or a PenaltyMatrix; solve runs the same
    descent on either.
    """

    weights_W: Union[np.ndarray, PenaltyMatrix]
    bias_theta: np.ndarray

    def __post_init__(self):
        W, theta = _checked(self.weights_W, self.bias_theta, "weights_W", "bias_theta")
        if _nonzero_diagonal(W):
            raise DomainError("weights_W must have an exactly zero diagonal")
        object.__setattr__(self, "weights_W", W)
        object.__setattr__(self, "bias_theta", theta)

    @property
    def dimension(self) -> int:
        return int(self.bias_theta.size)


class _NotBinary(NotAPermutation):
    """A matrix entry that is neither 0 nor 1; decode_permutation names the state."""


@dataclass(frozen=True, eq=False)
class PermutationMatrix:
    """An n x n binary matrix with exactly one 1 per row and per column.

    as_mapping[i] is the column of the 1 in row i; it is derived from the
    matrix on construction.
    """

    matrix: np.ndarray
    as_mapping: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        M = np.asarray(self.matrix)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
            raise NotAPermutation("need a non-empty square matrix")
        if not _all_in(M, (0, 1)):
            raise _NotBinary("entries must be 0 or 1")
        M = _readonly(M, "matrix", dtype=int)
        if not ((M.sum(axis=0) == 1).all() and (M.sum(axis=1) == 1).all()):
            raise NotAPermutation("every row and column must contain exactly one 1")
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "as_mapping", tuple(M.argmax(axis=1).tolist()))

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True, eq=False)
class TraceStep:
    """One row of a descent record: step index, bipolar state, energy."""

    index: int
    state: np.ndarray
    energy: float

    def __post_init__(self):
        state = _readonly(self.state, "state", dtype=np.int8)
        if not _all_in(state, (-1, 1)):
            raise DomainError("trace states must be bipolar")
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "energy", float(self.energy))


@dataclass(frozen=True, eq=False)
class SolverTrace:
    """A descent record: the start state, the flipped coordinates, the energies.

    start is the bipolar state descent began from, flipped[k] the
    coordinate flipped at step k + 1, and energies[k] the energy after k
    flips, so energies holds one entry more than flipped and strictly
    decreases.  The record holds O(N + flips) numbers; steps rebuilds the
    full rows on demand, one state per row, and repeats the stable
    endpoint once to make its stability visible in renderings of the run.
    """

    start: np.ndarray
    flipped: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        given = np.asarray(self.start)
        if given.ndim != 1 or not _all_in(given, (-1, 1)):
            raise DomainError("the start state must be a bipolar vector")
        start = _readonly(given, "start", dtype=np.int8)
        flipped = np.asarray(self.flipped)
        if (
            flipped.dtype.kind not in "iuf"
            or (flipped.dtype.kind == "f" and (flipped != np.trunc(flipped)).any())
            # np.asarray reads [0, True] as integers, so look at the elements
            or (
                flipped.ndim == 1
                and not isinstance(self.flipped, np.ndarray)
                and not _BOOLEANS.isdisjoint(map(type, self.flipped))
            )
        ):
            raise InvalidSize(
                "flipped coordinates must be integers, not strings, booleans or fractions"
            )
        if flipped.ndim != 1 or not ((flipped >= 0) & (flipped < start.size)).all():
            raise DomainError(f"flipped coordinates must lie in 0..{start.size - 1}")
        flipped = _readonly(flipped, "flipped", dtype=np.intp)
        energies = _readonly(self.energies, "energies")
        if energies.shape != (flipped.size + 1,):
            raise DomainError(
                f"{flipped.size} flips need {flipped.size + 1} energies, got {energies.size}"
            )
        if not np.isfinite(energies).all():
            raise DomainError(
                "trace energies must be finite: the energy overflows the float range"
            )
        if not (energies[1:] < energies[:-1]).all():  # no difference to overflow
            raise DomainError("trace energies must strictly decrease")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "flipped", flipped)
        object.__setattr__(self, "energies", energies)

    @property
    def flips(self) -> int:
        return int(self.flipped.size)

    @property
    def final_state(self) -> np.ndarray:
        odd = np.bincount(self.flipped, minlength=self.start.size) % 2 == 1
        return _readonly(np.where(odd, -self.start, self.start), "final_state", dtype=np.int8)

    @property
    def final_energy(self) -> float:
        return float(self.energies[-1])

    @property
    def steps(self) -> tuple[TraceStep, ...]:
        """Every visited state with its energy, then the endpoint once more."""
        state = self.start.copy()
        rows = [TraceStep(0, state, self.energies[0])]  # each row copies the state
        for k, i in enumerate(self.flipped, start=1):
            state[i] = -state[i]
            rows.append(TraceStep(k, state, self.energies[k]))
        rows.append(TraceStep(len(rows), rows[-1].state, rows[-1].energy))
        return tuple(rows)


def vectorize(matrix) -> np.ndarray:
    """Stack the columns of a square matrix into one vector."""
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch("vectorize expects a square matrix")
    return M.ravel(order="F")


def matricize(vector) -> np.ndarray:
    """Invert vectorize: rebuild the n x n matrix column by column."""
    v = np.asarray(vector, dtype=float).ravel()
    n = math.isqrt(v.size)
    if v.size == 0 or n * n != v.size:
        raise NonSquareLength(f"length {v.size} is not a positive perfect square")
    return v.reshape((n, n), order="F")


def decode_permutation(z_star) -> PermutationMatrix:
    """Read the permutation matrix P encoded by a binary solver state.

    Parameters
    ----------
    z_star : array_like
        Binary vector of length n*n, column-stacked.

    Returns
    -------
    PermutationMatrix
        P = matricize(z_star).  P acts on the original input vector as
        y = P x, i.e. y[i] = x[P.as_mapping[i]].

    Raises
    ------
    NonSquareLength
        If the length is not a positive perfect square.
    NotAPermutation
        If the state is not binary or the matrix is not a permutation.
        The state is never repaired.
    """
    # One conversion, to float; PermutationMatrix makes the one 0/1 check
    # and the one int copy, which it seals and keeps.
    M = matricize(z_star)
    try:
        return PermutationMatrix(M)
    except _NotBinary:
        raise NotAPermutation("state entries must be 0 or 1") from None


def apply_permutation(p: PermutationMatrix, x: ValueVector) -> np.ndarray:
    """Arrange x by p: output slot i receives x.entries[p.as_mapping[i]].

    Always reads the raw (un-normalized) entries.
    """
    if p.n != x.n:
        raise DimensionMismatch(f"permutation is {p.n}x{p.n} but x has {x.n} entries")
    return _readonly(x.entries[list(p.as_mapping)], "arranged values")
