"""Core value types and encoding conventions for the ordering pipeline.

Every other module (builder, conversions, solver, oracle, CLI) speaks in
terms of these types.  Instances are frozen and their vectors read-only, so
no caller can change what an instance holds and instances can be shared
freely between threads and calls.  An array a caller passes is copied, an
O(N) vector; a vector that build_qubo or a conversion forms is kept as it
is, marked read-only, and to_hopfield's theta is the Ising instance's q.

Every instance holds its matrix as a PenaltyMatrix: the row/column penalty
of the ordering QUBO held as three coefficients, in place of the n^4
entries of the paper's dense matrix.  It is symmetric by construction, so
validating it checks that n is a positive integer and those three are
finite; any other matrix, an ndarray included, is refused with a
DomainError that names the field.  The vector beside it must be finite.
build_qubo produces one and every conversion keeps it; np.asarray
materializes it as the dense matrix, which the tests hold every stage to.
Descent reads its fields off the row and column counts of the (n, n) grid
of the PenaltyMatrix layout, and no stage forms the N-length diagonal: a
zero-diagonal check reads self_coupling.

One rule, stated here only, reads every scalar, vector, state and index
list a caller gives: each entry must be a real number, so strings,
booleans, None and ragged nestings are refused, never parsed or read as 0
and 1; sizes, ranks, coordinates and step budgets must equal integers,
never truncated; a bipolar state must hold exactly -1 and +1, checked
before any cast.  Each refusal is a QpermError that names the field.

Conventions fixed here once and relied on everywhere:

* a solver state z of length n*n stacks the columns of an n x n matrix
  (Fortran order), and encodes the permutation matrix
  P = z.reshape((n, n), order="F"), whose row i holds its single 1 in
  column as_mapping[i], so applying P reads y[i] = x[as_mapping[i]];
* binary vectors live in {0, 1}, bipolar states in {-1, +1}.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, InvalidSize, NotAPermutation

PROGRAM_KINDS = ("ascending", "descending", "bst", "heap", "custom")


@dataclass(frozen=True)
class PenaltyMatrix:
    """The N x N matrix, N = n*n, that couples cells of one row or one column of Z.

    Coordinate i = a*n + b is cell (row b, column a) of Z, as z stacks
    the columns of Z.  Entry (i, j) is self_coupling when i == j, same_row
    when cells i and j are distinct cells of one row of Z, same_col when
    they are distinct cells of one column, and 0 elsewhere.  The builder's
    penalty lam_r C_r^T C_r + lam_c C_c^T C_c is PenaltyMatrix(n, lam_r,
    lam_c, lam_r + lam_c), a Kronecker sum fixed by three numbers.

    np.asarray materializes it, bit for bit as the paper's dense matrix,
    and shape is that matrix's; every other numpy operation on it, a
    product included, is refused.  The conversions write each stage's
    three coefficients from the last stage's, so it has no arithmetic.

    Row i has only 2n - 1 nonzeros: viewed as the (n, n) grid G[a, b] =
    v[a*n + b], it reaches G[a], the cells of column a of Z, with
    same_col, and G[:, b], those of row b, with same_row, the two
    crossing at i.  Descent keeps the sums of a bipolar state over those
    lines and forms each entry of W s from them, in O(n) per flip.
    """

    n: int
    same_row: float
    same_col: float
    self_coupling: float

    __array_ufunc__ = None  # numpy refuses every operator and ufunc on M

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
        of same_row, as 0 times each coefficient's factor does in the
        paper's dense stages, so every stage materializes bit for bit as its
        dense counterpart (to_hopfield's W = -2Q holds -0.0 there).
        """
        n = self.n
        dense = np.full(self.shape, 0.0 * self.same_row)
        cells = dense.reshape(n, n, n, n)
        k = np.arange(n)
        cells[:, k, :, k] = self.same_row
        cells[k, :, k, :] = self.same_col
        np.fill_diagonal(dense, self.self_coupling)
        return dense if dtype is None else dense.astype(dtype, copy=False)


def _integral(value, name: str) -> int:
    """value as an int, which it must equal (see the module docstring)."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidSize(f"{name} must be an integer") from None
    if not _real(value) or as_int != value:
        raise InvalidSize(f"{name} must be an integer, not {value!r}")
    return as_int


def _arity(branching, kind: str = "custom") -> int:
    """branching as an int tree arity, which must equal an integer of at
    least 2, and 2 for a bst program."""
    branching = _integral(branching, "branching")
    if branching < 2:
        raise InvalidSize("branching must be at least 2")
    if kind == "bst" and branching != 2:
        raise InvalidSize("search-tree programs exist for branching 2 only")
    return branching


def _real(value) -> bool:
    """Whether value is a real number; a bool is none."""
    if isinstance(value, (int, float)):  # the common case, without the slower ABC check
        return not isinstance(value, bool)
    return isinstance(value, numbers.Real)


def _finite(value, name: str) -> float:
    """value, a real number, as a finite float."""
    if not _real(value):
        raise DomainError(f"{name} must be a finite number, not {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite")
    return value


_PLAIN_REALS = frozenset((int, float))


def _reals(values, name: str, *, error=DomainError, want: str = "real numbers") -> np.ndarray:
    """values as an ndarray of _real entries, else error naming the field.

    An ndarray of an integer or float dtype is returned as it is, with no
    pass over its entries.  A plain list or tuple whose entries are all of
    type int or float, such as a JSON list of numbers, is read in one numpy
    call.  Anything else is read as objects, one entry of each type is
    checked, and a new array of integers or floats is returned.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values
    if type(values) in (list, tuple) and _PLAIN_REALS.issuperset(map(type, values)):
        entries, shape = values, (len(values),)
    else:
        try:
            items = np.array(values, dtype=object)
        except ValueError:  # nested arrays whose shapes disagree
            raise error(f"{name} must be {want}, not a ragged nesting") from None
        entries, shape = items.ravel().tolist(), items.shape
        for entry in dict(zip(map(type, entries), entries)).values():
            if not _real(entry):
                nested = isinstance(entry, (list, tuple)) or np.ndim(entry) > 0  # a ragged row
                what = "a ragged nesting" if nested else type(entry).__name__
                raise error(f"{name} must be {want}, not {what}")
    try:
        reals = np.array(entries)
        if reals.dtype.kind not in "iuf":  # integers beyond 64 bits, fractions.Fraction
            reals = np.array(entries, dtype=float)
        return reals.reshape(shape)
    except OverflowError:
        raise error(f"{name} holds an integer beyond the float64 range") from None


def _readonly(values, name: str, dtype=float) -> np.ndarray:
    """A read-only copy of _reals(values) as dtype, which the entries must fit."""
    arr = np.array(_reals(values, name), dtype=dtype)
    arr.setflags(write=False)
    return arr


def _integers(values, name: str) -> np.ndarray:
    """_integral over an array, as a read-only np.intp copy, else
    NotAPermutation.  Entries that are read as floats must be below 2^53 in
    magnitude, where floats are exact."""
    given = _reals(values, name, error=NotAPermutation, want="integers")
    if not np.can_cast(given.dtype, np.intp):
        whole = (given == np.trunc(given)) & (np.abs(given) < 2.0**53)  # NaN and inf are not
        if not whole.all():
            bad = given[~whole][0].item()
            raise NotAPermutation(f"{name} must be integers below 2^53 in magnitude, not {bad!r}")
    return _readonly(given, name, np.intp)


def _bipolar(values, name: str) -> np.ndarray:
    """The state vector as _reals reads it, once every entry is seen to be
    exactly -1 or +1: uncast, so none is ever truncated or wrapped.  An
    ndarray of numbers is returned as it is, which the caller only reads."""
    given = _reals(values, name, want="a bipolar vector")
    unit = np.abs(given) == 1  # NaN is not
    if not unit.all():
        raise DomainError(f"{name} must be a bipolar vector, not {given[~unit][0].item()!r}")
    if given.ndim != 1:
        raise DomainError(f"{name} must be a bipolar vector, not of shape {given.shape}")
    return given


def _checked(matrix, vector, matrix_name: str, vector_name: str) -> np.ndarray:
    """A read-only copy of the vector a caller gives an instance, checked
    with its matrix.

    The matrix must be a PenaltyMatrix, which is immutable, symmetric by
    construction and finite by its own check, so the instance keeps it as
    it is.  The vector must match it and be finite.
    """
    if not isinstance(matrix, PenaltyMatrix):
        raise DomainError(f"{matrix_name} must be a PenaltyMatrix, not {type(matrix).__name__}")
    v = _readonly(vector, vector_name)
    N = matrix.shape[0]
    if v.shape != (N,):
        raise DimensionMismatch(f"{matrix_name} is {N}x{N} but {vector_name} has shape {v.shape}")
    _require_finite(v, vector_name)
    return v


def _zero_diagonal(matrix: PenaltyMatrix, message: str) -> None:
    """Raise DomainError(message) unless matrix has an exactly zero diagonal."""
    if matrix.self_coupling != 0.0:  # -0.0 is a zero diagonal
        raise DomainError(message)


def _require_finite(vector: np.ndarray, name: str) -> None:
    if not np.isfinite(vector).all():
        raise DomainError(f"{name} must be finite")


def _formed(cls, matrix: PenaltyMatrix, vector: np.ndarray):
    """An instance of cls holding matrix and vector, a float vector of
    matrix's size that qperm has just formed, marked read-only and kept
    with no copy.  Each _of checks what its type requires first."""
    vector.setflags(write=False)
    instance = object.__new__(cls)
    matrix_name, vector_name = cls.__dataclass_fields__
    object.__setattr__(instance, matrix_name, matrix)
    object.__setattr__(instance, vector_name, vector)
    return instance


@dataclass(frozen=True, eq=False)
class ValueVector:
    """An input vector: finite real numbers, one dimension, at least one entry.

    The builder decides how they enter the reward (see
    builder.qubo_terms); every other reader takes them as they are.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = _readonly(self.entries, "entries")
        if entries.ndim != 1 or entries.size == 0:
            raise InvalidSize("need a one-dimensional vector with at least one entry")
        _require_finite(entries, "entries")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return int(self.entries.size)


@dataclass(frozen=True)
class OrderProgram:
    """A target arrangement, given as the rank each output slot receives.

    ranks is a permutation of 1..n; output slot i is meant to hold the
    ranks[i]-th smallest input value.  kind records how the vector was
    generated; branching is the tree arity where that applies, an integer
    of at least 2, and 2 for a bst program.
    """

    ranks: tuple[int, ...]
    kind: str = "custom"
    branching: int = 2

    def __post_init__(self):
        given = _integers(self.ranks, "ranks")
        if given.ndim != 1:
            raise NotAPermutation("ranks must be a sequence of integers")
        ranks = tuple(given.tolist())
        if len(ranks) < 1:
            raise InvalidSize("a program needs at least one slot")
        if sorted(ranks) != list(range(1, len(ranks) + 1)):
            raise NotAPermutation("ranks must be a permutation of 1..n")
        if self.kind not in PROGRAM_KINDS:
            raise DomainError(f"unknown program kind {self.kind!r}")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "branching", _arity(self.branching, self.kind))

    @classmethod
    def _of(cls, ranks: tuple[int, ...], kind: str, branching: int) -> OrderProgram:
        """The program of a built-in maker, which forms ranks as a tuple of
        ints that permutes 1..n and checks its n and arity itself."""
        program = object.__new__(cls)
        object.__setattr__(program, "ranks", ranks)
        object.__setattr__(program, "kind", kind)
        object.__setattr__(program, "branching", branching)
        return program

    @property
    def n(self) -> int:
        return len(self.ranks)


def _slots(x: ValueVector, program: OrderProgram) -> int:
    """The n that x and the program agree on, else DimensionMismatch."""
    if x.n != program.n:
        raise DimensionMismatch(f"x has {x.n} entries but the program has {program.n} slots")
    return program.n


@dataclass(frozen=True, eq=False)
class QuboInstance:
    """Minimize z^T R z + r^T z over binary z of length n squared.

    matrix_R is a PenaltyMatrix, which holds the penalty weights as
    same_row and same_col.  z encodes an n x n matrix, so the dimension
    is n squared.
    """

    matrix_R: PenaltyMatrix
    vector_r: np.ndarray

    def __post_init__(self):
        r = _checked(self.matrix_R, self.vector_r, "matrix_R", "vector_r")
        object.__setattr__(self, "vector_r", r)

    @classmethod
    def _of(cls, matrix_R: PenaltyMatrix, vector_r: np.ndarray) -> QuboInstance:
        """The instance of an r that build_qubo or fold_diagonal has just formed."""
        _require_finite(vector_r, "vector_r")
        return _formed(cls, matrix_R, vector_r)

    @property
    def dimension(self) -> int:
        return int(self.vector_r.size)

    @property
    def n(self) -> int:
        return self.matrix_R.n


_ZERO_Q_DIAGONAL = "matrix_Q must have an exactly zero diagonal"
_ZERO_W_DIAGONAL = "weights_W must have an exactly zero diagonal"


@dataclass(frozen=True, eq=False)
class IsingInstance:
    """Energy s^T Q s + q^T s over bipolar s; Q keeps an exactly zero diagonal."""

    matrix_Q: PenaltyMatrix
    vector_q: np.ndarray

    def __post_init__(self):
        q = _checked(self.matrix_Q, self.vector_q, "matrix_Q", "vector_q")
        _zero_diagonal(self.matrix_Q, _ZERO_Q_DIAGONAL)
        object.__setattr__(self, "vector_q", q)

    @classmethod
    def _of(cls, matrix_Q: PenaltyMatrix, vector_q: np.ndarray) -> IsingInstance:
        """The instance of a q that to_ising has just formed."""
        _require_finite(vector_q, "vector_q")
        _zero_diagonal(matrix_Q, _ZERO_Q_DIAGONAL)
        return _formed(cls, matrix_Q, vector_q)

    @property
    def dimension(self) -> int:
        return int(self.vector_q.size)


@dataclass(frozen=True, eq=False)
class HopfieldInstance:
    """Energy -1/2 s^T W s + theta^T s over bipolar s, with zero self-coupling."""

    weights_W: PenaltyMatrix
    bias_theta: np.ndarray

    def __post_init__(self):
        theta = _checked(self.weights_W, self.bias_theta, "weights_W", "bias_theta")
        _zero_diagonal(self.weights_W, _ZERO_W_DIAGONAL)
        object.__setattr__(self, "bias_theta", theta)

    @classmethod
    def _of(cls, weights_W: PenaltyMatrix, bias_theta: np.ndarray) -> HopfieldInstance:
        """The instance to_hopfield renames an Ising instance to: theta is
        its q, finite and read-only already, and kept as it is."""
        _zero_diagonal(weights_W, _ZERO_W_DIAGONAL)
        return _formed(cls, weights_W, bias_theta)

    @property
    def dimension(self) -> int:
        return int(self.bias_theta.size)


@dataclass(frozen=True, eq=False, init=False)
class PermutationMatrix:
    """An n x n binary matrix with exactly one 1 per row and per column.

    It holds only as_mapping, where as_mapping[i] is the column of the 1
    in row i.  decode_permutation reads one from a solver state, checking
    every line of its matrix; there is no other constructor.
    """

    as_mapping: tuple[int, ...]

    def __init__(self, *args, **kwargs):
        raise TypeError("a PermutationMatrix is read from a solver state by decode_permutation")

    @classmethod
    def _of(cls, mapping: tuple[int, ...]) -> PermutationMatrix:
        p = object.__new__(cls)
        object.__setattr__(p, "as_mapping", mapping)
        return p

    @property
    def n(self) -> int:
        return len(self.as_mapping)


def _one_per_line(flat: np.ndarray, n: int):
    """The mapping of the n x n permutation matrix that flat holds column by
    column.  Every nonzero entry must be exactly 1 (NaN, inf, 2 and 0.5 are
    not), and a refusal names the first column, else the first row, whose
    count of ones is not 1.

    A state with n nonzeros is read in O(n) memory: nonzero() lists them
    in order, so each column holds one when their column numbers are
    0..n-1, and each row when no row number repeats among theirs.  Any
    other state is refused from counts, which allocate at most N bools at
    a time: of its ones, then of the ones on each line of its (n, n) view.
    """
    nonzeros = np.count_nonzero(flat)
    if nonzeros == n:
        ones = flat.nonzero()[0]  # np.flatnonzero, as flat is 1-D, without its Python wrapper
        if not (flat[ones] == 1).all():
            raise NotAPermutation("state entries must be 0 or 1")
        columns, rows = divmod(ones, n)
        if not ((columns != np.arange(n)).any() or np.bincount(rows).max() > 1):
            return tuple(rows.argsort().tolist())
        counts = (np.bincount(columns, minlength=n), np.bincount(rows, minlength=n))
    elif np.count_nonzero(flat == 1) != nonzeros:
        raise NotAPermutation("state entries must be 0 or 1")
    else:
        grid = flat.reshape(n, n)  # grid row a holds column a of the matrix
        counts = (np.count_nonzero(grid, axis=1), np.count_nonzero(grid, axis=0))
    counts = np.concatenate(counts)
    k = int((counts != 1).argmax())  # the first column at fault, else the first row
    line = "column" if k < n else "row"
    raise NotAPermutation(
        f"every row and column must contain exactly one 1; {line} {k % n} holds {counts[k]} ones"
    )


@dataclass(frozen=True, eq=False)
class TraceStep:
    """One row of SolverTrace.steps: step index, bipolar state, energy."""

    index: int
    state: np.ndarray
    energy: float


@dataclass(frozen=True, eq=False, init=False)
class SolverTrace:
    """The record of one descent of solve: its size, flipped coordinates and energies.

    Descent starts from the all-inactive state of dimension N; flipped[k]
    is the coordinate flipped at step k + 1, and energies[k] the energy
    after k flips, so energies holds one entry more than flipped and
    strictly decreases.  The record holds O(flips) numbers; steps rebuilds
    the full rows on demand, one state per row, and repeats the stable
    endpoint once to make its stability visible in renderings of the run.

    solve makes every SolverTrace, with the private _of; there is no other
    constructor.
    """

    dimension: int
    flipped: np.ndarray
    energies: np.ndarray

    def __init__(self, *args, **kwargs):
        raise TypeError("a SolverTrace is the record solve makes of its descent")

    @classmethod
    def _of(cls, dimension: int, flipped: list[int], energies: list[float]) -> SolverTrace:
        """The record of a descent, which gives flips in range and strictly
        decreasing energies: only an overflow, which leaves the first or the
        last energy infinite, is checked."""
        if not (math.isfinite(energies[0]) and math.isfinite(energies[-1])):
            raise DomainError("trace energies must be finite: the energy overflows the float range")
        flips, values = np.array(flipped, dtype=np.intp), np.array(energies)
        flips.setflags(write=False)
        values.setflags(write=False)
        trace = object.__new__(cls)
        object.__setattr__(trace, "dimension", dimension)
        object.__setattr__(trace, "flipped", flips)
        object.__setattr__(trace, "energies", values)
        return trace

    @property
    def flips(self) -> int:
        return int(self.flipped.size)

    @property
    def final_energy(self) -> float:
        return float(self.energies[-1])

    @property
    def steps(self) -> tuple[TraceStep, ...]:
        """Every visited state with its energy, then the endpoint once more;
        each state is a read-only int8 copy."""
        state = np.full(self.dimension, -1, dtype=np.int8)
        energies = self.energies.tolist()
        rows = [TraceStep(0, _readonly(state, "state", np.int8), energies[0])]
        for k, i in enumerate(self.flipped.tolist(), start=1):
            state[i] = -state[i]
            rows.append(TraceStep(k, _readonly(state, "state", np.int8), energies[k]))
        rows.append(TraceStep(len(rows), rows[-1].state, rows[-1].energy))
        return tuple(rows)


def decode_permutation(z_star) -> PermutationMatrix:
    """Read the permutation matrix P encoded by a binary solver state.

    The state is read in place, column by column, and only the mapping is
    kept, so a state with n nonzero entries takes O(n) memory besides the
    state, refused or not; refusing any other takes N bools at most.

    Parameters
    ----------
    z_star : array_like
        Binary vector of length n*n, column-stacked.

    Returns
    -------
    PermutationMatrix
        P = z_star.reshape((n, n), order="F").  P acts on the original
        input vector as y = P x, i.e. y[i] = x[P.as_mapping[i]].

    Raises
    ------
    NotAPermutation
        If the length is not a positive perfect square, or the state is not
        one-dimensional, is not binary, or its matrix is not a permutation.
        The state is never repaired.
    """
    z = _reals(z_star, "state entries", error=NotAPermutation, want="0 or 1")
    n = math.isqrt(z.size)
    if z.size == 0 or n * n != z.size:
        raise NotAPermutation(f"length {z.size} is not a positive perfect square")
    if z.ndim != 1:  # an n x n matrix is no column-stacked state
        raise NotAPermutation(f"state must be a one-dimensional vector, not of shape {z.shape}")
    return PermutationMatrix._of(_one_per_line(z, n))


def apply_permutation(p: PermutationMatrix, x: ValueVector) -> np.ndarray:
    """Arrange x by p: output slot i receives x.entries[p.as_mapping[i]]."""
    if p.n != x.n:
        raise DimensionMismatch(f"permutation is {p.n}x{p.n} but x has {x.n} entries")
    arranged = x.entries[list(p.as_mapping)]  # a new array, which no caller holds yet
    arranged.setflags(write=False)
    return arranged
