import dataclasses
import math
import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qperm
from qperm import (
    DimensionMismatch,
    DomainError,
    InvalidSize,
    NotAPermutation,
    HopfieldInstance,
    IsingInstance,
    OrderProgram,
    PenaltyMatrix,
    PermutationMatrix,
    QpermError,
    QuboInstance,
    SolverTrace,
    ValueVector,
    apply_permutation,
    ascending_program,
    bipolar_to_binary,
    bst_program,
    build_qubo,
    certify,
    decode_permutation,
    heap_program,
    solve,
    validate_bst,
    validate_heap,
)
from qperm.model import _reals

from .reference import matricize, permutation_matrix, vectorize


class TestValueVector:
    def test_entries_is_the_only_field(self):
        # the builder derives the reward's values (builder.qubo_terms)
        assert [f.name for f in dataclasses.fields(ValueVector)] == ["entries"]
        assert ValueVector([3.0, -1.0, 1.0]).n == 3

    def test_empty_rejected(self):
        with pytest.raises(InvalidSize):
            ValueVector([])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            ValueVector([1.0, float("nan")])
        with pytest.raises(DomainError):
            ValueVector([float("inf")])

    def test_entries_read_only(self):
        x = ValueVector([1.0, 2.0])
        with pytest.raises(ValueError):
            x.entries[0] = 5.0


class TestOrderProgram:
    def test_ranks_must_be_permutation(self):
        with pytest.raises(NotAPermutation):
            OrderProgram(ranks=(1, 1, 3), kind="custom", branching=2)
        with pytest.raises(NotAPermutation):
            OrderProgram(ranks=(0, 1, 2), kind="custom", branching=2)

    def test_kind_checked(self):
        with pytest.raises(DomainError):
            OrderProgram(ranks=(1, 2), kind="sorted", branching=2)

    def test_needs_a_slot(self):
        with pytest.raises(InvalidSize, match="^a program needs at least one slot$"):
            OrderProgram(())

    @pytest.mark.parametrize(
        "make",
        [
            lambda: OrderProgram(ranks=(1, 2), kind="custom", branching=1),
            lambda: heap_program(5, 1),
            lambda: bst_program(5, 1),
            lambda: validate_heap([3, 1, 2], 1),
        ],
        ids=["OrderProgram", "heap_program", "bst_program", "validate_heap"],
    )
    def test_branching_checked(self, make):
        """One fault, one error type, one message: OrderProgram once raised
        DomainError."""
        with pytest.raises(InvalidSize, match="^branching must be at least 2$"):
            make()

    @pytest.mark.parametrize("branching", [2.9, "3", None, True])
    def test_branching_is_never_truncated_or_parsed(self, branching):
        """heap_program and validate_heap read the arity by the same rule."""
        with pytest.raises(InvalidSize, match="^branching must be an integer"):
            OrderProgram(ranks=(1, 2), kind="heap", branching=branching)
        with pytest.raises(InvalidSize, match="^branching must be an integer"):
            heap_program(4, branching)
        with pytest.raises(InvalidSize, match="^branching must be an integer"):
            validate_heap([3, 1, 2], branching)
        assert OrderProgram(ranks=(1, 2), kind="heap", branching=3.0).branching == 3
        assert heap_program(4, 3.0) == heap_program(4, 3)

    def test_search_tree_is_binary(self):
        """A bst program of branching 3 once constructed, and certify then raised."""
        with pytest.raises(InvalidSize, match="branching 2 only"):
            OrderProgram(ranks=(2, 1, 3), kind="bst", branching=3)
        assert OrderProgram(ranks=(2, 1, 3), kind="heap", branching=3).branching == 3

    def test_n(self):
        assert OrderProgram(ranks=(2, 1), kind="custom", branching=2).n == 2

    @pytest.mark.parametrize(
        "ranks",
        [(1.9, 2.2, 3.7), (1.5, 2, 3), "123", ("1", "2", "3"), (1, 2, float("inf")), 3,
         (True, 2), (np.True_, 2), (True,)],
    )
    def test_ranks_are_never_truncated_or_parsed(self, ranks):
        with pytest.raises(NotAPermutation):
            OrderProgram(ranks=ranks)

    def test_integral_floats_are_ranks(self):
        assert OrderProgram(ranks=(2.0, 1.0, 3.0)).ranks == (2, 1, 3)
        assert OrderProgram(ranks=np.array([3, 1, 2])).ranks == (3, 1, 2)


class TestVectorizeMatricize:
    """The reference's column stacking, which decode_permutation reads."""

    def test_column_stacking(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert vectorize(m).tolist() == [1.0, 3.0, 2.0, 4.0]

    def test_round_trip(self):
        m = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(matricize(vectorize(m)), m)

    @pytest.mark.parametrize("size", [0, 5])
    def test_non_square_length(self, size):
        """decode_permutation stacks columns as matricize does, and refuses a
        length that is no positive square."""
        with pytest.raises(NotAPermutation, match=f"^length {size} is not"):
            decode_permutation(np.zeros(size))

    @given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
    def test_round_trip_random(self, n, rnd):
        m = np.array([[rnd.random() for _ in range(n)] for _ in range(n)])
        assert np.array_equal(matricize(vectorize(m)), m)


class TestDecodePermutation:
    def test_identity(self):
        z = vectorize(np.eye(3))
        assert decode_permutation(z).as_mapping == (0, 1, 2)

    def test_decode_inverts_vectorize(self):
        mapping = (2, 0, 3, 1)
        m = permutation_matrix(mapping)
        p = decode_permutation(vectorize(m))
        assert np.array_equal(permutation_matrix(p.as_mapping), m)
        assert p.as_mapping == mapping

    def test_row_deficit_rejected(self):
        m = permutation_matrix((0, 1, 2))
        m[1, 1] = 0.0
        with pytest.raises(NotAPermutation):
            decode_permutation(vectorize(m))

    def test_double_entry_rejected(self):
        m = permutation_matrix((0, 1, 2))
        m[1, 2] = 1.0
        with pytest.raises(NotAPermutation):
            decode_permutation(vectorize(m))

    def test_non_binary_rejected(self):
        z = vectorize(np.eye(2)) * 0.5
        with pytest.raises(NotAPermutation):
            decode_permutation(z)

    def test_non_square_rejected(self):
        with pytest.raises(NotAPermutation):
            decode_permutation(np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize(
        "z, message",
        [
            ([0.5, 0.0, 0.0, 1.0], "state entries must be 0 or 1"),
            ([np.nan, 0.0, 0.0, 1.0], "state entries must be 0 or 1"),
            ([2, 0, 0, 0], "state entries must be 0 or 1"),
            ([1, 1, 0, 0], "every row and column must contain exactly one 1"),
            ([1, 0, 0], "length 3 is not a positive perfect square"),
            (["a", "b", "c", "d"], "state entries must be 0 or 1"),
        ],
    )
    def test_errors_and_messages(self, z, message):
        with pytest.raises(NotAPermutation, match=message) as raised:
            decode_permutation(z)
        assert type(raised.value) is NotAPermutation

    @pytest.mark.parametrize(
        "state", [permutation_matrix((1, 2, 0)), [[1, 0, 0, 1]], [[0], [1], [1], [0]], np.eye(1)]
    )
    def test_a_state_of_more_than_one_dimension_is_refused(self, state):
        """The matrix of the mapping (1, 2, 0) once decoded as its transpose,
        (2, 0, 1), and certify reported that mapping."""
        message = f"state must be a one-dimensional vector, not of shape {np.shape(state)}"
        with pytest.raises(NotAPermutation) as raised:
            decode_permutation(state)
        assert str(raised.value) == message
        x = ValueVector([3.0, 1.0, 2.0][: math.isqrt(np.size(state))])
        report = certify(x, ascending_program(x.n), state)
        assert not report.feasible and report.mapping is None
        assert report.notes == (f"decode failed: {message}",)

    def test_the_one_int_copy_is_kept(self):
        """The state is read once, in place, and only the mapping is kept."""
        p = decode_permutation(np.array([0, 1, 1, 0], dtype=np.int8))
        assert vars(p) == {"as_mapping": (1, 0)}
        with pytest.raises(NotAPermutation, match="^state entries must be 0 or 1$"):
            decode_permutation(np.array([2, -1, -1, 2], dtype=np.int8))

    @given(st.permutations(list(range(5))))
    @settings(max_examples=50)
    def test_round_trip_random_permutations(self, mapping):
        m = permutation_matrix(mapping)
        assert decode_permutation(vectorize(m)).as_mapping == tuple(mapping)

    def test_decode_and_certify_keep_no_matrix_at_n2000(self):
        """Both read the 32 MB state in place: decode once kept a 31 MiB int
        copy of it and peaked at 61 MiB, and so did certify."""
        n = 2000
        x = ValueVector(np.random.default_rng(n).normal(size=n))
        mapping = np.argsort(x.entries)
        z = np.zeros(n * n)
        z[mapping * n + np.arange(n)] = 1.0  # column mapping[i] holds row i's 1
        tracemalloc.start()
        try:
            p = decode_permutation(z)
            _, decode_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            report = certify(x, ascending_program(n), z)
            _, certify_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p.as_mapping == report.mapping == tuple(mapping.tolist())
        assert report.passed
        assert decode_peak < 8 * 2**20 and certify_peak < 8 * 2**20
        assert not any(isinstance(v, np.ndarray) for v in vars(p).values())
        assert all(type(c) is int for c in p.as_mapping)


def _edited(cells):
    """The matrix of the mapping (1, 2, 0) with the given cells set."""
    m = permutation_matrix((1, 2, 0))
    for (row, col), entry in cells.items():
        m[row, col] = entry
    return m


NOT_BINARY = "state entries must be 0 or 1"
NOT_ONE_PER_LINE = "every row and column must contain exactly one 1"

# name -> (a 3 x 3 matrix, or the 2 x 2 one named, that no permutation is;
# the end of its refusal message)
REFUSED_MATRICES = {
    **{
        f"{entry} for a 0": (_edited({(0, 0): entry}), NOT_BINARY)
        for entry in (2.0, -1.0, 0.5, math.nan, math.inf, -math.inf)
    },
    **{
        f"{entry} for a 1": (_edited({(0, 1): entry}), NOT_BINARY)
        for entry in (2.0, -1.0, 0.5, math.nan, math.inf)
    },
    "two 1s in a row": (_edited({(0, 0): 1.0}), f"{NOT_ONE_PER_LINE}; column 0 holds 2 ones"),
    "two 1s in a column": (_edited({(1, 1): 1.0}), f"{NOT_ONE_PER_LINE}; column 1 holds 2 ones"),
    "a -0.0 for the 1": (_edited({(0, 1): -0.0}), f"{NOT_ONE_PER_LINE}; column 1 holds 0 ones"),
    "all zero": (np.zeros((3, 3)), f"{NOT_ONE_PER_LINE}; column 0 holds 0 ones"),
    "all one": (np.ones((3, 3)), f"{NOT_ONE_PER_LINE}; column 0 holds 3 ones"),
    "a 1 in every column, all in one row": (
        np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        f"{NOT_ONE_PER_LINE}; row 0 holds 3 ones",
    ),
    "a 2 and two 1s in a row": (np.array([[1.0, 1.0], [2.0, 0.0]]), NOT_BINARY),
}


class TestDecodeRefusals:
    """Every refusal of decode_permutation and the decode inside certify, by
    exception type and whole message."""

    @pytest.mark.parametrize("name", sorted(REFUSED_MATRICES))
    def test_decode(self, name):
        matrix, message = REFUSED_MATRICES[name]
        with pytest.raises(NotAPermutation, match=f"^{message}$") as raised:
            decode_permutation(vectorize(matrix))
        assert type(raised.value) is NotAPermutation

    @pytest.mark.parametrize("name", sorted(REFUSED_MATRICES))
    def test_decode_a_list(self, name):
        """The same refusals for the state as a plain list of floats, which
        is read in one numpy call; PermutationMatrix(matrix) once read the
        matrix itself, with the same line check."""
        matrix, message = REFUSED_MATRICES[name]
        with pytest.raises(NotAPermutation, match=f"^{message}$") as raised:
            decode_permutation(vectorize(matrix).tolist())
        assert type(raised.value) is NotAPermutation

    @pytest.mark.parametrize("name", sorted(REFUSED_MATRICES))
    def test_certify(self, name):
        matrix, message = REFUSED_MATRICES[name]
        x = ValueVector([3.0, 1.0, 2.0][: len(matrix)])
        report = certify(x, ascending_program(x.n), vectorize(matrix))
        assert not report.feasible and report.mapping is None
        assert report.notes == (f"decode failed: {message}",)

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(st.booleans(), min_size=n * n,
                                                       max_size=n * n)))
    @settings(max_examples=200)
    def test_the_named_line_is_the_first_at_fault(self, cells):
        """Columns come first, then rows: the named line's count is not 1 and
        every line before it holds exactly one 1."""
        matrix = matricize(np.array(cells, dtype=float))
        counts = [*matrix.sum(axis=0), *matrix.sum(axis=1)]  # columns, then rows
        if counts == [1] * len(counts):
            assert decode_permutation(vectorize(matrix)).n == len(matrix)
            return
        with pytest.raises(NotAPermutation) as raised:
            decode_permutation(vectorize(matrix))
        line, k, held = re.fullmatch(
            f"{NOT_ONE_PER_LINE}; (column|row) ([0-9]+) holds ([0-9]+) ones", str(raised.value)
        ).groups()
        at = int(k) + (len(matrix) if line == "row" else 0)
        assert counts[at] == int(held) != 1
        assert counts[:at] == [1] * at

    @pytest.mark.parametrize("ones, fault", [("row 0", "row 0"), ("all", "column 0")],
                             ids=["n-ones", "all-ones"])
    def test_a_refused_state_at_n2000_is_read_in_place(self, ones, fault):
        """Naming the line at fault keeps decode in O(n) memory for n ones,
        and within N bools for any other count: the 4 million ones of the
        all-ones state were once listed three times, a 91.6 MiB peak."""
        n = 2000
        if ones == "all":
            z = np.ones(n * n)
        else:
            z = np.zeros(n * n)
            z[np.arange(n) * n] = 1.0  # every column holds its 1 in row 0
        tracemalloc.start()
        try:
            with pytest.raises(NotAPermutation) as raised:
                decode_permutation(z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(raised.value) == f"{NOT_ONE_PER_LINE}; {fault} holds 2000 ones"
        assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "state", [[], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [math.nan] * 5, np.zeros((2, 3))]
    )
    def test_decode_non_square_length(self, state):
        """The length is checked before any entry."""
        size = np.size(state)
        with pytest.raises(
            NotAPermutation, match=f"^length {size} is not a positive perfect square$"
        ) as raised:
            decode_permutation(state)
        assert type(raised.value) is NotAPermutation

    @pytest.mark.parametrize(
        "matrix",
        [np.zeros((0, 0)), [[1, 0, 0], [0, 1, 0]], [[2, 0, 0], [0, 1, 0]]],
        ids=["empty", "2x3", "2x3-with-a-2"],
    )
    def test_decode_non_square_matrix(self, matrix):
        """The columns of a matrix that is not square stack to a length that
        is no positive square, which is checked before any entry."""
        state = vectorize(matrix)
        with pytest.raises(
            NotAPermutation, match=f"^length {state.size} is not a positive perfect square$"
        ) as raised:
            decode_permutation(state)
        assert type(raised.value) is NotAPermutation


class TestApplyPermutation:
    def test_reorders_by_mapping(self):
        p = decode_permutation(vectorize(permutation_matrix((2, 0, 1))))
        x = ValueVector([10.0, 20.0, 30.0])
        assert apply_permutation(p, x).tolist() == [30.0, 10.0, 20.0]

    def test_dimension_mismatch(self):
        p = decode_permutation(vectorize(permutation_matrix((0, 1))))
        with pytest.raises(DimensionMismatch):
            apply_permutation(p, ValueVector([1.0, 2.0, 3.0]))

    def test_the_arranged_values_are_new_and_read_only(self):
        p = decode_permutation(vectorize(permutation_matrix((2, 0, 1))))
        x = ValueVector([10.0, 20.0, 30.0])
        y = apply_permutation(p, x)
        assert not y.flags.writeable and y.flags.owndata
        assert not np.shares_memory(y, x.entries)


class TestPermutationMatrix:
    def test_mapping_derived_from_rows(self):
        p = decode_permutation(vectorize(permutation_matrix((1, 0))))
        assert p.as_mapping == (1, 0)
        assert p.n == 2

    @pytest.mark.parametrize(
        "args", [(np.eye(2),), (np.ones((2, 2)),), ()], ids=["identity", "ones", "none"]
    )
    def test_there_is_no_constructor(self, args):
        """PermutationMatrix(matrix) once read a matrix; only tests called it."""
        with pytest.raises(TypeError) as raised:
            PermutationMatrix(*args)
        assert str(raised.value) == (
            "a PermutationMatrix is read from a solver state by decode_permutation"
        )
        assert not hasattr(PermutationMatrix, "matrix")

    def test_mapping_is_not_an_argument(self):
        # read from a solver state; a given mapping is refused
        with pytest.raises(TypeError):
            PermutationMatrix(np.eye(2), as_mapping=(1, 0))


class TestInstanceValidation:
    def test_qubo_requires_a_penalty_matrix(self):
        R = np.zeros((4, 4))
        R[0, 1] = 1.0
        with pytest.raises(DomainError, match="^matrix_R must be a PenaltyMatrix, not ndarray$"):
            QuboInstance(matrix_R=R, vector_r=np.zeros(4))

    def test_qubo_requires_a_vector_of_its_dimension(self):
        with pytest.raises(DimensionMismatch, match="matrix_R is 4x4 but vector_r has shape"):
            QuboInstance(matrix_R=PenaltyMatrix(2, 1.0, 1.0, 2.0), vector_r=np.zeros(2))

    def test_qubo_n_is_the_root_of_its_dimension(self):
        assert QuboInstance(matrix_R=PenaltyMatrix(3, 1.0, 1.0, 2.0), vector_r=np.zeros(9)).n == 3
        assert QuboInstance(matrix_R=PenaltyMatrix(4, 1.0, 1.0, 2.0), vector_r=np.zeros(16)).n == 4

    def test_ising_requires_zero_diagonal(self):
        with pytest.raises(DomainError):
            IsingInstance(matrix_Q=PenaltyMatrix(2, 0.0, 0.0, 1.0), vector_q=np.zeros(4))

    def test_hopfield_requires_zero_diagonal(self):
        with pytest.raises(DomainError):
            HopfieldInstance(weights_W=PenaltyMatrix(2, 0.0, 0.0, 1.0), bias_theta=np.zeros(4))

    @pytest.mark.parametrize("self_coupling", [1.0, -2.5, 5e-324])
    def test_one_zero_diagonal_error_for_both_stages(self, self_coupling):
        """Both stages raise DomainError itself, no subclass of it."""
        M = PenaltyMatrix(2, 1.0, 1.0, self_coupling)
        with pytest.raises(
            DomainError, match="^matrix_Q must have an exactly zero diagonal$"
        ) as raised:
            IsingInstance(matrix_Q=M, vector_q=np.zeros(4))
        assert type(raised.value) is DomainError
        with pytest.raises(
            DomainError, match="^weights_W must have an exactly zero diagonal$"
        ) as raised:
            HopfieldInstance(weights_W=M, bias_theta=np.zeros(4))
        assert type(raised.value) is DomainError

    def test_ising_dimension_is_its_vector_length(self):
        assert IsingInstance(PenaltyMatrix(3, 1.0, 1.0, -0.0), np.zeros(9)).dimension == 9


class TestSolverTrace:
    @pytest.mark.parametrize(
        "args",
        [(), ([-1, -1], [0], [0.0, -1.0]), (2, [0], [0.0, -1.0])],
        ids=["none", "start-flipped-energies", "dimension-flipped-energies"],
    )
    def test_there_is_no_constructor(self, args):
        """SolverTrace(start, flipped, energies) once checked every field of a
        record only tests handed in; solve makes every one."""
        with pytest.raises(TypeError) as raised:
            SolverTrace(*args)
        assert str(raised.value) == "a SolverTrace is the record solve makes of its descent"
        assert not hasattr(SolverTrace, "final_state")
        assert [f.name for f in dataclasses.fields(SolverTrace)] == [
            "dimension", "flipped", "energies"
        ]

    def test_fields_are_not_arguments(self):
        with pytest.raises(TypeError):
            SolverTrace(dimension=2, flipped=[0], energies=[0.0, -1.0])

    def test_steps_rebuild_every_row_then_repeat_the_endpoint(self):
        network = HopfieldInstance(PenaltyMatrix(2, -1.0, -1.0, 0.0), [-1.0, 1.0, 1.0, -1.0])
        state, trace = solve(network)
        assert trace.flipped.tolist() == [0, 3]
        rows = trace.steps
        assert [row.index for row in rows] == [0, 1, 2, 3]
        states = [[-1, -1, -1, -1], [1, -1, -1, -1], [1, -1, -1, 1], [1, -1, -1, 1]]
        assert [row.state.tolist() for row in rows] == states
        assert [row.energy for row in rows] == [*trace.energies.tolist(), trace.final_energy]
        assert all(row.state.dtype == np.int8 and not row.state.flags.writeable for row in rows)
        assert rows[-1].state.tobytes() == state.tobytes()
        stable = solve(HopfieldInstance(PenaltyMatrix(1, 0.0, 0.0, 0.0), [0.5]))[1]
        assert [row.state.tolist() for row in stable.steps] == [[-1], [-1]]
        assert stable.flips == 0 and [row.energy for row in stable.steps] == [-0.5, -0.5]


def penalty(seed=0):
    """A PenaltyMatrix on a 2 x 2 grid with a zero diagonal."""
    return PenaltyMatrix(2, *np.random.default_rng(seed).normal(size=2), 0.0)


# name -> (build from the caller's arguments, fresh caller arguments, array fields)
FROZEN_TYPES = {
    "ValueVector": (
        lambda a: ValueVector(a[0]),
        lambda: [np.array([3.0, -1.0, 2.0])],
        ("entries",),
    ),
    "QuboInstance": (
        lambda a: QuboInstance(matrix_R=a[0], vector_r=a[1]),
        lambda: [penalty(), np.arange(4.0)],
        ("vector_r",),
    ),
    "IsingInstance": (
        lambda a: IsingInstance(matrix_Q=a[0], vector_q=a[1]),
        lambda: [penalty(), np.arange(4.0)],
        ("vector_q",),
    ),
    "HopfieldInstance": (
        lambda a: HopfieldInstance(weights_W=a[0], bias_theta=a[1]),
        lambda: [penalty(), np.arange(4.0)],
        ("bias_theta",),
    ),
}


class TestImmutability:
    @pytest.mark.parametrize("name", sorted(FROZEN_TYPES))
    def test_caller_mutation_does_not_reach_the_instance(self, name):
        make, arrays, fields = FROZEN_TYPES[name]
        given_arrays = arrays()
        instance = make(given_arrays)
        before = {f: getattr(instance, f).copy() for f in fields}
        for arr in given_arrays:
            if isinstance(arr, np.ndarray):  # a PenaltyMatrix is frozen
                arr[...] = -7
        for f in fields:
            assert np.array_equal(getattr(instance, f), before[f])
            assert not getattr(instance, f).flags.writeable

    def test_views_and_other_dtypes_are_copied(self):
        base = np.array([0.0, 3.0, -1.0, 2.0])
        base.setflags(write=False)
        view = base[1:]
        assert ValueVector(view).entries is not view
        ints = np.array([3, -1, 2])
        ints.setflags(write=False)
        x = ValueVector(ints)
        assert x.entries is not ints
        assert x.entries.dtype == float


class TestMatrixForm:
    """Instances once took a dense matrix, symmetric to within 1e-12 and
    compared with its transpose in strips; now each takes a PenaltyMatrix
    only, symmetric by construction, and refuses any other matrix with one
    error that names the field."""

    @pytest.mark.parametrize("name", ["QuboInstance", "IsingInstance", "HopfieldInstance"])
    @pytest.mark.parametrize(
        "matrix",
        [
            np.zeros((4, 4)),
            np.asarray(PenaltyMatrix(2, 1.0, 1.0, 0.0)),
            [[0.0] * 4] * 4,
            np.zeros((0, 0)),
        ],
        ids=["zeros", "materialized", "list", "empty"],
    )
    def test_any_other_matrix_is_refused(self, name, matrix):
        make, arrays, _ = FROZEN_TYPES[name]
        given = arrays()
        field = dataclasses.fields(getattr(qperm, name))[0].name
        with pytest.raises(DomainError, match=f"^{field} must be a PenaltyMatrix, not "):
            make([matrix, given[1]])

    def test_the_library_chain_takes_no_dense_matrix(self):
        x = ValueVector(np.random.default_rng(5).normal(size=5))
        instance = build_qubo(x, heap_program(5))
        assert isinstance(instance.matrix_R, PenaltyMatrix)
        with pytest.raises(DomainError, match="^matrix_R must be a PenaltyMatrix"):
            QuboInstance(np.asarray(instance.matrix_R), instance.vector_r)


# name -> (a call that takes one scalar, the start of its error)
SCALAR_CHECKS = {
    "PenaltyMatrix-same_row": (lambda v: PenaltyMatrix(2, v, 1.0, 1.0), "^same_row must be"),
    "PenaltyMatrix-self_coupling": (
        lambda v: PenaltyMatrix(2, 1.0, 1.0, v), "^self_coupling must be"
    ),
    "build_qubo-lambda_r": (
        lambda v: build_qubo(ValueVector([3.0, 1.0]), heap_program(2), lambda_r=v),
        "^(penalty weights must be positive|lambda_r and lambda_c are too large)",
    ),
    "build_qubo-lambda_c": (
        lambda v: build_qubo(ValueVector([3.0, 1.0]), heap_program(2), lambda_c=v),
        "^(penalty weights must be positive|lambda_r and lambda_c are too large)",
    ),
}
BAD_SCALARS = {
    "int-beyond-float": 10**400,
    "None": None,
    "word": "x",
    "numeral": "3",
    "True": True,
    "np.True_": np.True_,
    "list": [1.0],
    "complex": 1j,
    "decimal": Decimal("3"),
}


class TestNonFiniteData:
    @pytest.mark.parametrize("name", ["same_row", "same_col", "self_coupling"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_matrix_rejected(self, name, bad):
        coefficients = dict(same_row=1.0, same_col=-0.5, self_coupling=0.0)
        with pytest.raises(DomainError, match=f"^{name} must be finite$"):
            PenaltyMatrix(2, **{**coefficients, name: bad})

    @pytest.mark.parametrize("name", ["QuboInstance", "IsingInstance", "HopfieldInstance"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_vector_rejected(self, name, bad):
        make, arrays, _ = FROZEN_TYPES[name]
        given_arrays = arrays()
        given_arrays[1][3] = bad
        with pytest.raises(DomainError):
            make(given_arrays)

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: ValueVector([10**400, 1]), "entries"),
            (lambda: QuboInstance(PenaltyMatrix(1, 0.0, 0.0, 0.0), [10**400]), "vector_r"),
            (lambda: bipolar_to_binary([10**400]), "s"),
        ],
        ids=["ValueVector", "QuboInstance-r", "bipolar_to_binary"],
    )
    def test_integer_beyond_range_rejected(self, make, field):
        """Each raised a bare OverflowError, not a QpermError."""
        with pytest.raises(DomainError, match=f"^{field} holds an integer beyond"):
            make()

    def test_nan_on_the_diagonal_rejected(self):
        with pytest.raises(DomainError, match="^self_coupling must be finite$"):
            PenaltyMatrix(2, 1.0, 1.0, np.nan)

    @pytest.mark.parametrize(
        "check, value",
        [
            (check, value)
            for check in SCALAR_CHECKS
            for value in BAD_SCALARS
            if not (check.startswith("build_qubo") and value == "None")  # None means n
        ],
    )
    def test_scalars_are_never_parsed_or_coerced(self, check, value):
        """Each once raised a bare OverflowError, TypeError or ValueError, or
        read "3" as 3.0 and True as 1.0."""
        make, message = SCALAR_CHECKS[check]
        with pytest.raises(DomainError, match=message):
            make(BAD_SCALARS[value])


# name -> (a call that takes one array, an array it accepts, the field its
# errors start with, whether the entries must be integers or +-1)
ARRAY_READERS = {
    "ValueVector": (ValueVector, [3.0, 1.0], "entries", False),
    "QuboInstance": (
        lambda v: QuboInstance(PenaltyMatrix(2, 1.0, 1.0, 2.0), v), [0.0] * 4, "vector_r", False
    ),
    "IsingInstance": (
        lambda v: IsingInstance(PenaltyMatrix(2, 1.0, 1.0, 0.0), v), [0.0] * 4, "vector_q", False
    ),
    "HopfieldInstance": (
        lambda v: HopfieldInstance(PenaltyMatrix(2, 1.0, 1.0, 0.0), v), [0.0] * 4, "bias_theta",
        False,
    ),
    "OrderProgram": (lambda v: OrderProgram(ranks=v), [2, 1, 3], "ranks", True),
    "bipolar_to_binary": (bipolar_to_binary, [1, -1], "s", True),
    "decode_permutation": (decode_permutation, [1, 0, 0, 1], "state", False),
    "certify": (
        lambda v: certify(ValueVector([3.0, 1.0]), ascending_program(2), v), [0, 1, 1, 0],
        "solver_state", False,
    ),
    "validate_bst": (validate_bst, [2, 1, 3], "values", False),
    "validate_heap": (validate_heap, [3, 1, 2], "values", False),
}

# name -> (the error an ARRAY_READERS reader raises for an array that is not
# a vector, its message for a given shape); validate_bst and validate_heap
# are in test_programs, and certify reports a failed decode
VECTOR_MESSAGES = {
    "ValueVector": (InvalidSize, "need a one-dimensional vector with at least one entry"),
    "QuboInstance": (DimensionMismatch, "matrix_R is 4x4 but vector_r has shape {shape}"),
    "IsingInstance": (DimensionMismatch, "matrix_Q is 4x4 but vector_q has shape {shape}"),
    "HopfieldInstance": (DimensionMismatch, "weights_W is 4x4 but bias_theta has shape {shape}"),
    "OrderProgram": (NotAPermutation, "ranks must be a sequence of integers"),
    "bipolar_to_binary": (DomainError, "s must be a bipolar vector, not of shape {shape}"),
    "decode_permutation": (
        NotAPermutation, "state must be a one-dimensional vector, not of shape {shape}"
    ),
}


@pytest.mark.parametrize("reader", sorted(VECTOR_MESSAGES))
@pytest.mark.parametrize(
    "values, shape", [([[1, -1], [-1, 1]], (2, 2)), ([[1, -1, -1, 1]], (1, 4)), (1, ())],
    ids=["grid", "row", "scalar"],
)
def test_every_vector_reader_refuses_other_shapes(reader, values, shape):
    """A grid, a row or a scalar of entries each reader accepts is refused,
    never flattened, even where it holds as many entries as the vector."""
    error, message = VECTOR_MESSAGES[reader]
    with pytest.raises(error) as raised:
        ARRAY_READERS[reader][0](values)
    assert type(raised.value) is error
    assert str(raised.value) == message.format(shape=shape)


def _first_replaced(values, entry):
    """values with its first scalar entry replaced by entry."""
    head = values[0]
    return [_first_replaced(head, entry) if isinstance(head, list) else entry, *values[1:]]


def _last_replaced(values, entry):
    """values with its last scalar entry replaced by entry."""
    tail = values[-1]
    return [*values[:-1], _last_replaced(tail, entry) if isinstance(tail, list) else entry]


# name -> (make the bad array from an accepted one, whether only integer and
# +-1 entries refuse it)
BAD_ARRAYS = {
    "word": (lambda v: _first_replaced(v, "x"), False),
    "numeral": (lambda v: _first_replaced(v, "1"), False),
    "True": (lambda v: True, False),
    "np.True_": (lambda v: _first_replaced(v, np.True_), False),
    "bool-ndarray": (lambda v: np.ones(np.shape(v), dtype=bool), False),
    "int-then-True": (lambda v: _last_replaced(v, True), False),
    "int-then-False": (lambda v: _last_replaced(v, False), False),
    "1.5": (lambda v: _first_replaced(v, 1.5), True),
    "None": (lambda v: _first_replaced(v, None), False),
    "ragged": (lambda v: [[1, 2], [3]], False),
}


class TestArrayEntries:
    """One rule for every array an entry point reads: strings and booleans
    are refused, never parsed or read as 0 and 1, and so are None and
    ragged nestings; integers and +-1 are never truncated into."""

    @pytest.mark.parametrize("reader", sorted(ARRAY_READERS))
    def test_the_accepted_array_is_accepted(self, reader):
        make, accepted, _, _ = ARRAY_READERS[reader]
        make(accepted)

    @pytest.mark.parametrize(
        "reader, bad",
        [
            (reader, bad)
            for reader in sorted(ARRAY_READERS)
            for bad in BAD_ARRAYS
            if ARRAY_READERS[reader][3] or not BAD_ARRAYS[bad][1]
        ],
    )
    def test_bad_entries_are_refused_naming_the_field(self, reader, bad):
        """Strings, booleans, None, 1.5 and ragged lists were each accepted by
        some of these, or raised a bare numpy error."""
        make, accepted, field, _ = ARRAY_READERS[reader]
        with pytest.raises(QpermError, match=rf"^{field}\b"):
            make(BAD_ARRAYS[bad][0](accepted))

    @pytest.mark.parametrize("side", ["M @ v", "v @ M"])
    @pytest.mark.parametrize("operand", ["accepted", *BAD_ARRAYS])
    def test_a_penalty_matrix_has_no_product(self, side, operand):
        """M @ v and v @ M once read v by this rule; only tests multiplied a
        PenaltyMatrix, and every product is now refused, whatever v holds."""
        M = PenaltyMatrix(2, 1.0, 2.0, 3.0)
        v = [1, 0, 0, 1] if operand == "accepted" else BAD_ARRAYS[operand][0]([1, 0, 0, 1])
        with pytest.raises(TypeError):
            M @ v if side == "M @ v" else v @ M

    @pytest.mark.parametrize(
        "nesting",
        [[[1, 2], [3]], ((1, 2), (3,)), [np.ones(2), [1.0]], [np.ones(2), np.ones((2, 2))]],
        ids=["lists", "tuples", "array-and-list", "arrays"],
    )
    @pytest.mark.parametrize(
        "read, message",
        [
            (ValueVector, "entries must be real numbers, not a ragged nesting"),
            (lambda v: OrderProgram(ranks=v), "ranks must be integers, not a ragged nesting"),
        ],
        ids=["ValueVector", "OrderProgram"],
    )
    def test_a_ragged_nesting_is_named(self, read, message, nesting):
        """numpy reads rows of unequal lengths as entries, and [[1, 2], [3]]
        was refused as "not list"; only nested arrays were named ragged."""
        with pytest.raises(QpermError) as raised:
            read(nesting)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "values, what",
        [
            ([1.0, np.array(2.0)], "ndarray"),
            ([np.array(1.0), np.array(2.0)], "ndarray"),
            ([[1, 2], [3]], "a ragged nesting"),
            ([np.ones(2), np.ones(3)], "a ragged nesting"),
        ],
        ids=["number-and-0d", "0d-arrays", "lists", "arrays"],
    )
    @pytest.mark.parametrize(
        "read, field",
        [
            (ValueVector, "entries must be real numbers"),
            (lambda v: OrderProgram(ranks=v), "ranks must be integers"),
        ],
        ids=["ValueVector", "OrderProgram"],
    )
    def test_a_0d_array_entry_is_named_by_its_type(self, read, field, values, what):
        """A 0-d array among the entries is refused by its type, as an entry
        of no real number type; it was named a ragged nesting."""
        with pytest.raises(QpermError) as raised:
            read(values)
        assert str(raised.value) == f"{field}, not {what}"

    def test_a_state_is_checked_before_the_int8_cast(self):
        """An int64 257 was once cast to int8 first, as 1, and passed the +-1
        check; 300 was refused as beyond the int8 range, not as no +-1."""
        with pytest.raises(DomainError, match="^s must be a bipolar vector, not 300"):
            bipolar_to_binary([300, 1, 1, 1])
        with pytest.raises(DomainError, match="^s must be a bipolar vector, not 257"):
            bipolar_to_binary(np.array([257, 1, 1, 1], dtype=np.int64))

    def test_numeric_arrays_of_any_dtype_are_read(self):
        assert bipolar_to_binary(np.array([1.0, -1.0], dtype=np.float32)).tolist() == [1, 0]
        assert OrderProgram(ranks=np.array([2, 1], dtype=np.uint8)).ranks == (2, 1)
        assert OrderProgram(ranks=np.array([1], dtype=np.uint64)).ranks == (1,)
        assert ValueVector([1, 2**70]).entries.tolist() == [1.0, 2.0**70]

    @given(
        st.lists(
            st.one_of(
                st.integers(),
                st.sampled_from([2**63, 2**64, -(2**63) - 1, 10**400]),
                st.floats(),
                st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
                st.sampled_from([True, False, np.float64(2.5), None, "3"]),
            ),
            max_size=6,
        ),
        st.booleans(),
    )
    @example([], False)
    @example([], True)
    @example([0, True], False)
    @example([1, 2**64, -0.0, math.nan, math.inf], True)
    @example([10**400, 1.5], False)
    @settings(max_examples=300, deadline=None)
    def test_flat_lists_read_as_their_object_array(self, entries, as_tuple):
        """A flat list or tuple gives what its object array gives: the same
        dtype, shape and bytes, or the same error."""
        seq = tuple(entries) if as_tuple else entries

        def outcome(values):
            try:
                reals = _reals(values, "v")
            except Exception as exc:  # compared by type and message below
                return type(exc), str(exc)
            return reals.dtype, reals.shape, reals.tobytes()

        assert outcome(seq) == outcome(np.array(seq, dtype=object))
