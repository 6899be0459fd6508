import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperm import (
    DimensionMismatch,
    DomainError,
    InvalidSize,
    NonSquareLength,
    NonZeroDiagonal,
    NotAPermutation,
    HopfieldInstance,
    IsingInstance,
    OrderProgram,
    PenaltyMatrix,
    PermutationMatrix,
    QuboInstance,
    SolverTrace,
    TraceStep,
    UnsupportedBranching,
    ValueVector,
    apply_permutation,
    decode_permutation,
    energy,
    matricize,
    vectorize,
)


def perm_matrix(mapping):
    n = len(mapping)
    m = np.zeros((n, n))
    for row, col in enumerate(mapping):
        m[row, col] = 1.0
    return m


class TestValueVector:
    def test_normalization_is_l1(self):
        x = ValueVector([3.0, -1.0, 1.0])
        assert np.allclose(x.normalized_entries, [4 / 6, 0.0, 2 / 6])
        assert x.normalized_entries.sum() == pytest.approx(1.0)
        assert x.n == 3

    def test_normalization_shifts_by_the_minimum(self):
        # the shift is exact for distinct integers offset far from zero
        x = ValueVector(np.array([2.0, 0.0, 3.0, 1.0]) + 1e15)
        assert x.normalized_entries.tolist() == [2 / 6, 0.0, 3 / 6, 1 / 6]
        assert ValueVector([-4.0, -1.0]).normalized_entries.tolist() == [0.0, 1.0]

    def test_normalized_entries_are_not_an_argument(self):
        # derived from the entries; given entries would be ignored
        with pytest.raises(TypeError):
            ValueVector([1.0, 2.0], normalized_entries=[9.0, 9.0])

    @pytest.mark.parametrize("value", [0.0, -3.5, 1e12])
    def test_constant_vector_normalizes_to_zeros(self, value):
        x = ValueVector([value] * 3)
        assert x.normalized_entries.tolist() == [0.0, 0.0, 0.0]
        assert not x.normalized_entries.flags.writeable

    @pytest.mark.parametrize(
        "values",
        [
            [1e308, -1e308, 0.0],  # the shift overflows
            [1e308, 1.5e308, 0.0],  # the shifted sum overflows
            [-1.7e308, 1.7e308, 1e307, -5e307],
        ],
    )
    def test_spread_beyond_float_range_keeps_the_order(self, values):
        with np.errstate(all="raise"):
            x = ValueVector(values)
        v = x.normalized_entries
        assert np.isfinite(v).all() and v.min() == 0.0
        assert v.sum() == pytest.approx(1.0)
        assert np.argsort(v, kind="stable").tolist() == np.argsort(values, kind="stable").tolist()

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

    def test_branching_checked(self):
        with pytest.raises(DomainError):
            OrderProgram(ranks=(1, 2), kind="custom", branching=1)

    @pytest.mark.parametrize("branching", [2.9, "3", None, True])
    def test_branching_is_never_truncated_or_parsed(self, branching):
        with pytest.raises(InvalidSize):
            OrderProgram(ranks=(1, 2), kind="heap", branching=branching)
        assert OrderProgram(ranks=(1, 2), kind="heap", branching=3.0).branching == 3

    def test_search_tree_is_binary(self):
        """A bst program of branching 3 once constructed, and certify then raised."""
        with pytest.raises(UnsupportedBranching, match="branching 2 only"):
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
    def test_column_stacking(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert vectorize(m).tolist() == [1.0, 3.0, 2.0, 4.0]

    def test_round_trip(self):
        m = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(matricize(vectorize(m)), m)

    def test_non_square_length(self):
        with pytest.raises(NonSquareLength):
            matricize(np.zeros(5))

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
        m = perm_matrix(mapping)
        p = decode_permutation(vectorize(m))
        assert np.array_equal(p.matrix, m)
        assert p.as_mapping == mapping

    def test_row_deficit_rejected(self):
        m = perm_matrix((0, 1, 2))
        m[1, 1] = 0.0
        with pytest.raises(NotAPermutation):
            decode_permutation(vectorize(m))

    def test_double_entry_rejected(self):
        m = perm_matrix((0, 1, 2))
        m[1, 2] = 1.0
        with pytest.raises(NotAPermutation):
            decode_permutation(vectorize(m))

    def test_non_binary_rejected(self):
        z = vectorize(np.eye(2)) * 0.5
        with pytest.raises(NotAPermutation):
            decode_permutation(z)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareLength):
            decode_permutation(np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize(
        "z, error, message",
        [
            ([0.5, 0.0, 0.0, 1.0], NotAPermutation, "state entries must be 0 or 1"),
            ([np.nan, 0.0, 0.0, 1.0], NotAPermutation, "state entries must be 0 or 1"),
            ([2, 0, 0, 0], NotAPermutation, "state entries must be 0 or 1"),
            ([1, 1, 0, 0], NotAPermutation, "every row and column must contain exactly one 1"),
            ([1, 0, 0], NonSquareLength, "length 3 is not a positive perfect square"),
            (["a", "b", "c", "d"], ValueError, "could not convert string to float"),
        ],
    )
    def test_errors_and_messages(self, z, error, message):
        with pytest.raises(error, match=message) as raised:
            decode_permutation(z)
        assert type(raised.value) is error

    def test_the_one_int_copy_is_kept(self):
        """The state is converted once; PermutationMatrix seals the int copy it
        makes and keeps it."""
        p = decode_permutation(np.array([0, 1, 1, 0], dtype=np.int8))
        assert p.as_mapping == (1, 0)
        assert p.matrix.dtype == int and not p.matrix.flags.writeable
        with pytest.raises(NotAPermutation, match="^entries must be 0 or 1$"):
            PermutationMatrix(np.array([[2, -1], [-1, 2]]))

    @given(st.permutations(list(range(5))))
    @settings(max_examples=50)
    def test_round_trip_random_permutations(self, mapping):
        m = perm_matrix(mapping)
        assert decode_permutation(vectorize(m)).as_mapping == tuple(mapping)


class TestApplyPermutation:
    def test_reorders_by_mapping(self):
        p = PermutationMatrix(perm_matrix((2, 0, 1)))
        x = ValueVector([10.0, 20.0, 30.0])
        assert apply_permutation(p, x).tolist() == [30.0, 10.0, 20.0]

    def test_dimension_mismatch(self):
        p = PermutationMatrix(perm_matrix((0, 1)))
        with pytest.raises(DimensionMismatch):
            apply_permutation(p, ValueVector([1.0, 2.0, 3.0]))


class TestPermutationMatrix:
    def test_mapping_derived_from_rows(self):
        p = PermutationMatrix(perm_matrix((1, 0)))
        assert p.as_mapping == (1, 0)
        assert p.n == 2

    def test_invalid_matrix_rejected(self):
        with pytest.raises(NotAPermutation):
            PermutationMatrix(np.ones((2, 2)))

    def test_mapping_is_not_an_argument(self):
        # derived from the matrix; a given mapping would be ignored
        with pytest.raises(TypeError):
            PermutationMatrix(np.eye(2), as_mapping=(1, 0))


class TestInstanceValidation:
    def test_qubo_requires_symmetry(self):
        R = np.zeros((4, 4))
        R[0, 1] = 1.0
        with pytest.raises(DomainError):
            QuboInstance(matrix_R=R, vector_r=np.zeros(4))

    def test_qubo_requires_square_dimension(self):
        with pytest.raises(DimensionMismatch):
            QuboInstance(matrix_R=np.zeros((2, 2)), vector_r=np.zeros(2))

    def test_qubo_n_is_the_root_of_its_dimension(self):
        assert QuboInstance(matrix_R=np.zeros((9, 9)), vector_r=np.zeros(9)).n == 3
        assert QuboInstance(matrix_R=PenaltyMatrix(4, 1.0, 1.0, 2.0), vector_r=np.zeros(16)).n == 4

    def test_ising_requires_zero_diagonal(self):
        with pytest.raises(NonZeroDiagonal):
            IsingInstance(matrix_Q=np.eye(2), vector_q=np.zeros(2))

    def test_hopfield_requires_zero_diagonal(self):
        with pytest.raises(DomainError):
            HopfieldInstance(weights_W=np.eye(2), bias_theta=np.zeros(2))


class TestSolverTrace:
    def test_valid_trace(self):
        trace = SolverTrace([-1, -1, 1], [0, 2, 2, 1], [0.0, -1.0, -1.5, -2.0, -3.0])
        assert trace.flips == 4
        assert trace.final_energy == -3.0
        assert trace.final_state.tolist() == [1, 1, 1]
        assert not trace.final_state.flags.writeable

    def test_steps_rebuild_every_row_then_repeat_the_endpoint(self):
        trace = SolverTrace([-1, -1], [0, 1], [0.0, -1.0, -2.0])
        rows = trace.steps
        assert [row.index for row in rows] == [0, 1, 2, 3]
        assert [row.state.tolist() for row in rows] == [[-1, -1], [1, -1], [1, 1], [1, 1]]
        assert [row.energy for row in rows] == [0.0, -1.0, -2.0, -2.0]
        stable = SolverTrace([1, -1], [], [0.5])
        assert [row.state.tolist() for row in stable.steps] == [[1, -1], [1, -1]]
        assert stable.flips == 0 and stable.final_state.tolist() == [1, -1]

    def test_start_must_be_bipolar(self):
        for start in ([0, 1], [2, -1], [0.5, 1.0], [[1, -1]]):
            with pytest.raises(DomainError):
                SolverTrace(start, [], [0.0])

    def test_flip_index_out_of_range_rejected(self):
        for flipped in ([2], [-1]):
            with pytest.raises(DomainError):
                SolverTrace([-1, -1], flipped, [0.0, -1.0])

    @pytest.mark.parametrize("flipped", [[0.5], [1.7], [True], ["1"]])
    def test_flips_are_never_truncated_or_parsed(self, flipped):
        """0.5 was once read as coordinate 0, and 1.7, True and "1" as 1."""
        with pytest.raises(InvalidSize, match="must be integers"):
            SolverTrace([1, -1], flipped, [1.0, 0.0])

    @pytest.mark.parametrize(
        "flipped", [[0, True], [1, False], (0, True), [np.bool_(True), 0], [0.0, True]]
    )
    def test_booleans_among_integers_rejected(self, flipped):
        """np.asarray reads [0, True] as the integers [0, 1]."""
        with pytest.raises(InvalidSize, match="must be integers"):
            SolverTrace([1, -1, 1], flipped, [2.0, 1.0, 0.0])

    def test_integral_flips_are_kept_as_ints(self):
        trace = SolverTrace([1, -1], [1.0], [1.0, 0.0])
        assert trace.flipped.tolist() == [1]
        assert trace.flipped.dtype == np.intp

    def test_energy_increase_rejected(self):
        for energies in ([0.0, 1.0], [0.0, 0.0], [0.0, float("nan")]):
            with pytest.raises(DomainError):
                SolverTrace([-1, -1], [0], energies)

    def test_non_finite_energy_names_the_overflow(self):
        for energies in ([float("-inf")], [0.0, float("-inf")], [float("inf"), 0.0]):
            with pytest.raises(DomainError, match="overflows the float range"):
                SolverTrace([-1, -1], [0] * (len(energies) - 1), energies)

    def test_flip_count_must_match(self):
        """One energy per flip, plus the start's."""
        for energies in ([0.0], [0.0, -1.0, -2.0], []):
            with pytest.raises(DomainError):
                SolverTrace([-1, -1], [0], energies)

    def test_trace_step_requires_bipolar_state(self):
        with pytest.raises(DomainError):
            TraceStep(0, np.array([0, 1], dtype=np.int8), 0.0)


def symmetric(N, seed=0):
    rnd = np.random.default_rng(seed)
    A = rnd.normal(size=(N, N))
    A = A + A.T
    np.fill_diagonal(A, 0.0)
    return A


# name -> (build from the caller's arrays, fresh caller arrays, array fields)
FROZEN_TYPES = {
    "ValueVector": (
        lambda a: ValueVector(a[0]),
        lambda: [np.array([3.0, -1.0, 2.0])],
        ("entries", "normalized_entries"),
    ),
    "QuboInstance": (
        lambda a: QuboInstance(matrix_R=a[0], vector_r=a[1]),
        lambda: [symmetric(4), np.arange(4.0)],
        ("matrix_R", "vector_r"),
    ),
    "IsingInstance": (
        lambda a: IsingInstance(matrix_Q=a[0], vector_q=a[1]),
        lambda: [symmetric(4), np.arange(4.0)],
        ("matrix_Q", "vector_q"),
    ),
    "HopfieldInstance": (
        lambda a: HopfieldInstance(weights_W=a[0], bias_theta=a[1]),
        lambda: [symmetric(4), np.arange(4.0)],
        ("weights_W", "bias_theta"),
    ),
    "PermutationMatrix": (
        lambda a: PermutationMatrix(a[0]),
        lambda: [np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])],
        ("matrix",),
    ),
    "TraceStep": (
        lambda a: TraceStep(0, a[0], 0.0),
        lambda: [np.array([1, -1, 1], dtype=np.int8)],
        ("state",),
    ),
    "SolverTrace": (
        lambda a: SolverTrace(*a),
        lambda: [np.array([1, -1, 1], dtype=np.int8), np.array([2], dtype=np.intp),
                 np.array([0.0, -1.0])],
        ("start", "flipped", "energies"),
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


class TestSymmetryCheck:
    # pairs among the first, middle and last rows of a 150 x 150 matrix
    N = 150
    ROWS = (0, 1, 63, 64, 100, 127, 128, 140, 149)

    def pairs(self):
        for i in self.ROWS:
            for j in self.ROWS:
                if i != j:
                    yield i, j

    @pytest.mark.parametrize("build", ["ising", "hopfield"])
    def test_gap_above_tolerance_rejected_in_every_strip(self, build):
        base = symmetric(self.N, seed=3)
        theta = np.zeros(self.N)
        make = (
            (lambda W: IsingInstance(matrix_Q=W, vector_q=theta))
            if build == "ising"
            else (lambda W: HopfieldInstance(weights_W=W, bias_theta=theta))
        )
        make(base)
        for i, j in self.pairs():
            W = base.copy()
            W[i, j] += 1.5e-12
            with pytest.raises(DomainError):
                make(W)
            W = base.copy()
            W[i, j] += 0.5e-12
            make(W)

    @pytest.mark.parametrize("make", [QuboInstance, IsingInstance, HopfieldInstance])
    def test_an_empty_instance_is_refused(self, make):
        """A 0 x 0 instance was once accepted, and solve and energy then
        raised a bare numpy ValueError."""
        with pytest.raises(InvalidSize, match="at least one entry"):
            make(np.zeros((0, 0)), np.zeros(0))

    def test_qubo_gap_in_last_partial_strip(self):
        n = 12  # N = 144
        R = symmetric(n * n, seed=4) + np.eye(n * n)
        r = np.zeros(n * n)

        def make(M):
            return QuboInstance(matrix_R=M, vector_r=r)

        make(R)
        for i, j in [(143, 130), (130, 143), (140, 5), (5, 140), (64, 143)]:
            M = R.copy()
            M[i, j] += 1.5e-12
            with pytest.raises(DomainError):
                make(M)
            M = R.copy()
            M[i, j] += 0.5e-12
            make(M)


class TestNonFiniteData:
    @pytest.mark.parametrize("name", ["QuboInstance", "IsingInstance", "HopfieldInstance"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_matrix_rejected(self, name, bad):
        make, arrays, _ = FROZEN_TYPES[name]
        given_arrays = arrays()
        given_arrays[0][1, 2] = given_arrays[0][2, 1] = bad
        with pytest.raises(DomainError):
            make(given_arrays)

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
            (lambda: QuboInstance(np.zeros((1, 1)), [10**400]), "vector_r"),
            (lambda: QuboInstance([[10**400]], [1.0]), "matrix_R"),
            (lambda: SolverTrace([-1], [], [10**400]), "energies"),
            (lambda: TraceStep(0, [300, 1], 0.0), "state"),
            (lambda: energy(HopfieldInstance(np.zeros((1, 1)), [0.0]), [10**400]), "state"),
        ],
        ids=["ValueVector", "QuboInstance-r", "QuboInstance-R", "SolverTrace", "TraceStep",
             "energy"],
    )
    def test_integer_beyond_range_rejected(self, make, field):
        """Each raised a bare OverflowError, not a QpermError."""
        with pytest.raises(DomainError, match=f"^{field} holds an integer beyond"):
            make()

    def test_nan_on_the_diagonal_rejected(self):
        R = symmetric(4)
        R[0, 0] = np.nan
        with pytest.raises(DomainError):
            QuboInstance(matrix_R=R, vector_r=np.zeros(4))
