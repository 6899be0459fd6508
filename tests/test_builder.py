import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperm import (
    DimensionMismatch,
    DomainError,
    OrderProgram,
    ValueVector,
    ascending_program,
    build_qubo,
)
from qperm.builder import qubo_terms, reward_vector

from .conftest import PROGRAMS, make_program, shifted
from .reference import (
    build_Cc,
    build_Cr,
    build_N,
    dense,
    matricize,
    product,
    qubo_objective,
    vectorize,
)


def random_binary_matrix(rnd, n):
    return np.array([[rnd.randint(0, 1) for _ in range(n)] for _ in range(n)], dtype=float)


class TestConstraintMatrices:
    """The reference's Kronecker builders act as the paper says."""

    def test_selector_shapes(self):
        prog = ascending_program(3)
        assert build_N(prog).shape == (3, 9)
        assert build_Cr(3).shape == (3, 9)
        assert build_Cc(3).shape == (3, 9)

    def test_selector_actions_on_matrices(self):
        rnd = np.random.default_rng(7)
        for n in (1, 2, 4):
            Z = rnd.integers(0, 2, size=(n, n)).astype(float)
            z = vectorize(Z)
            ranks = tuple(int(v) for v in rnd.permutation(n) + 1)
            prog = OrderProgram(ranks=ranks, kind="custom", branching=2)
            rv = np.asarray(ranks, dtype=float)
            assert np.allclose(build_N(prog) @ z, Z.T @ rv)
            assert np.allclose(build_Cr(n) @ z, Z.sum(axis=1))
            assert np.allclose(build_Cc(n) @ z, Z.sum(axis=0))

    def test_rank_selector_identity(self):
        # M^T v  ==  (I kron v^T) vec(M) for non-binary M as well
        rnd = np.random.default_rng(3)
        M = rnd.normal(size=(4, 4))
        v = rnd.permutation(4) + 1
        prog = OrderProgram(ranks=tuple(int(a) for a in v), kind="custom", branching=2)
        assert np.allclose(build_N(prog) @ vectorize(M), M.T @ v.astype(float))


class TestBuildQubo:
    def test_default_penalties_equal_n(self):
        inst = build_qubo(ValueVector([3.0, 1.0]), ascending_program(2))
        assert inst.matrix_R.same_row == 2.0
        assert inst.matrix_R.same_col == 2.0
        assert inst.n == 2
        assert inst.dimension == 4

    def test_matrix_symmetric_with_constant_diagonal(self):
        inst = build_qubo(ValueVector([46.0, 52.0, -12.0]), ascending_program(3))
        R = np.asarray(inst.matrix_R)
        assert np.array_equal(R, R.T)
        assert np.allclose(np.diag(R), inst.matrix_R.same_row + inst.matrix_R.same_col)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_qubo(ValueVector([1.0, 2.0]), ascending_program(3))

    def test_constant_vector_builds(self):
        # a constant vector shifts to zeros: no reward, every arrangement optimal
        inst = build_qubo(ValueVector([-7.0] * 3), ascending_program(3))
        assert inst.vector_r.tolist() == [-12.0] * 9
        inst = build_qubo(ValueVector([0.0, 0.0]), ascending_program(2), normalize=False)
        assert inst.vector_r.tolist() == [-8.0] * 4

    def test_one_weight_leaves_the_other_at_n(self):
        R = build_qubo(ValueVector([3.0, 1.0, 2.0]), ascending_program(3), lambda_r=3.5).matrix_R
        assert (R.same_row, R.same_col, R.self_coupling) == (3.5, 3.0, 6.5)

    @pytest.mark.parametrize(
        "weights",
        [dict(lambda_r=0.0, lambda_c=1.0), dict(lambda_r=1.0, lambda_c=-1.0), dict(lambda_c=0)],
    )
    def test_penalties_must_be_positive(self, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must be positive and finite"):
                build_qubo(ValueVector([3.0, 1.0]), ascending_program(2), **weights)

    @pytest.mark.parametrize(
        "weights",
        [dict(lambda_r=float("inf"), lambda_c=1.0), dict(lambda_r=1.0, lambda_c=float("nan"))],
    )
    def test_penalties_must_be_finite(self, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must be positive and finite"):
                build_qubo(ValueVector([3.0, 1.0]), ascending_program(2), **weights)

    def test_weights_are_checked_before_the_sizes(self):
        with pytest.raises(DomainError, match="must be positive and finite"):
            build_qubo(ValueVector([3.0, 1.0]), ascending_program(3), lambda_r=-1.0)

    @pytest.mark.parametrize(
        "weight",
        [1e308, 8e307, np.float64(8e307), 10**308, 10**400],
        ids=["sum", "offset", "numpy", "int", "int-beyond-float"],
    )
    def test_reward_offset_must_be_finite(self, weight):
        """Each weight is finite, but 2 (lambda_r + lambda_c) overflows."""
        x, program = ValueVector([0.0, 0.0]), ascending_program(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="lambda_r and lambda_c are too large"):
                build_qubo(x, program, lambda_r=weight, lambda_c=weight)
        instance = build_qubo(x, program, lambda_r=4e307, lambda_c=4e307, normalize=False)
        assert instance.vector_r.tolist() == [-1.6e308] * 4


class TestRewardTerms:
    def test_normalization_is_l1(self):
        v = shifted([3.0, -1.0, 1.0])
        assert np.allclose(v, [4 / 6, 0.0, 2 / 6])
        assert v.sum() == pytest.approx(1.0)

    def test_normalization_shifts_by_the_minimum(self):
        # the shift is exact for distinct integers offset far from zero
        v = shifted(np.array([2.0, 0.0, 3.0, 1.0]) + 1e15)
        assert v.tolist() == [2 / 6, 0.0, 3 / 6, 1 / 6]
        assert shifted([-4.0, -1.0]).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("value", [0.0, -3.5, 1e12])
    def test_constant_vector_normalizes_to_zeros(self, value):
        v = shifted([value] * 3)
        assert v.tolist() == [0.0, 0.0, 0.0]
        assert not v.flags.writeable

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
            v = shifted(values)
        assert np.isfinite(v).all() and v.min() == 0.0
        assert v.sum() == pytest.approx(1.0)
        assert np.argsort(v, kind="stable").tolist() == np.argsort(values, kind="stable").tolist()

    @given(
        st.sampled_from(sorted(PROGRAMS)),
        st.lists(
            st.builds(
                lambda m, e: m * 10.0**e, st.floats(-1.79, 1.79), st.sampled_from([0, 307, 308])
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([1.0, 3.0, 1e307, 4e307]),
    )
    @settings(max_examples=200, deadline=None)
    def test_refuses_exactly_when_r_leaves_the_float_range(self, kind, values, weight):
        """Unnormalized, qubo_terms checks r's four corners only; r leaves the
        float range exactly when one of them does."""
        x, program = ValueVector(values), make_program(kind, len(values))
        r = reward_vector(x.entries, np.asarray(program.ranks, dtype=float), 4.0 * weight)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                qubo_terms(x, program, weight, weight, normalize=False)
            except DomainError as exc:
                assert str(exc) == "vector_r must be finite"
                assert not np.isfinite(r).all()
            else:
                assert np.isfinite(r).all()


class TestQuboObjective:
    def test_hand_expansion_two_slots(self):
        # n=2, lambda_r = lambda_c = 2, raw x = 0, z = all-ones:
        # R = 2 C_r^T C_r + 2 C_c^T C_c; every row/col sum is 2, so
        # z^T R z = 2*(4+4) + 2*(4+4) = 32; r = -2(C_r + C_c)^T 1 doubled
        # gives r^T z = -32; the penalties cancel exactly at 0.
        inst = build_qubo(ValueVector([0.0, 0.0]), ascending_program(2), normalize=False)
        z = np.ones(4)
        assert qubo_objective(*dense(inst), z) == pytest.approx(0.0)
        assert z @ product(inst.matrix_R, z) == pytest.approx(32.0)

    def test_feasible_encodings_share_constant_gap(self):
        x = ValueVector([5.0, -2.0, 7.0])
        inst = build_qubo(x, ascending_program(3))
        xn = qubo_terms(x, ascending_program(3))[1]
        ranks = np.array([1.0, 2.0, 3.0])
        for mapping in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            Z = np.zeros((3, 3))
            for row, col in enumerate(mapping):
                Z[row, col] = 1.0
            got = qubo_objective(*dense(inst), vectorize(Z))
            want = -(inst.matrix_R.same_row + inst.matrix_R.same_col) * 3 - float(ranks @ Z @ xn)
            assert got == pytest.approx(want)

    @given(
        st.integers(min_value=1, max_value=5),
        st.sampled_from(["ascending", "bst", "heap"]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_penalty_form_on_random_states(self, n, kind, rnd):
        values = [rnd.uniform(-50.0, 50.0) for _ in range(n)]
        x = ValueVector(values)
        prog = make_program(kind, n)
        inst = build_qubo(x, prog)
        z = vectorize(random_binary_matrix(rnd, n))
        want = independent_objective(x, prog, z)
        assert qubo_objective(*dense(inst), z) == pytest.approx(want, abs=1e-9)


def independent_objective(x, program, z):
    """Penalty-form oracle at the default weights lambda_r = lambda_c = n,
    written without the builder's matrices."""
    Z = matricize(np.asarray(z, dtype=float))
    rows = Z.sum(axis=1)
    cols = Z.sum(axis=0)
    ranks = np.asarray(program.ranks, dtype=float)
    xn = shifted(x.entries)
    lambda_r = lambda_c = float(program.n)
    value = lambda_r * ((rows - 1.0) ** 2).sum()
    value += lambda_c * ((cols - 1.0) ** 2).sum()
    value -= program.n * (lambda_r + lambda_c)
    value -= float(ranks @ Z @ xn)
    return value
