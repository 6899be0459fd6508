"""The structured chain against the dense one, bit for bit or within tolerance.

build_qubo returns its penalty as a PenaltyMatrix, the conversions keep it
one, and solve runs the dense network's descent on it.  The dense chain
stays as the reference: these tests materialize each structured stage with
np.asarray and run the dense stage on the materialized input.  With integer
penalty weights every sum of coefficients is exact, so the two agree bit for
bit, matrices, vectors, flips, states and energies alike.  With any other
weights the stages agree within a relative tolerance of 1e-9, and every
energy on either form is E(s) correctly rounded, float(Fraction(E(s))).
"""

import json
import os
import tempfile
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qperm import (
    DimensionMismatch,
    DomainError,
    HopfieldInstance,
    InvalidSize,
    IsingInstance,
    MaxStepsExceeded,
    NonZeroDiagonal,
    PenaltyMatrix,
    QuboInstance,
    ValueVector,
    bipolar_to_binary,
    build_Cc,
    build_Cr,
    build_qubo,
    certify,
    descending_program,
    energy,
    exhaustive_qubo_min,
    flip_gain,
    fold_diagonal,
    qubo_objective,
    solve,
    solve_qubo,
    to_hopfield,
    to_ising,
)
from qperm import hopfield
from qperm.cli import main

from . import reference_run as ref
from .conftest import (
    dense_qubo,
    exact_sum,
    fraction_energy,
    make_program,
    materialized,
    paper_faithful,
    random_start,
    run_pipeline,
)


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def program_for(kind, n):
    return descending_program(n) if kind == "descending" else make_program(kind, n)


def chain(instance):
    """fold -> Ising -> Hopfield; returns the three instances."""
    folded = fold_diagonal(instance)
    ising = to_ising(folded)
    return folded, ising, to_hopfield(ising)


def assert_bitwise_same_descent(network, start, budget=None):
    """_descend takes the same flips through the same states at the same
    energies on the structured network and on its materialized form, or
    raises the same error on both."""
    dense = materialized(network)
    budget = network.dimension ** 2 if budget is None else budget
    try:
        dense_run = hopfield._descend(dense, start, budget)
    except MaxStepsExceeded:
        with pytest.raises(MaxStepsExceeded):
            hopfield._descend(network, start, budget)
        return None
    state, trace = hopfield._descend(network, start, budget)
    dense_state, dense_trace = dense_run
    assert np.array_equal(state, dense_state)
    assert trace.flipped.tolist() == dense_trace.flipped.tolist()
    assert len(trace.steps) == len(dense_trace.steps)
    for step, dense_step in zip(trace.steps, dense_trace.steps):
        assert np.array_equal(step.state, dense_step.state)
        assert bits(step.energy) == bits(dense_step.energy)
    return trace


# --- inputs ---------------------------------------------------------------

KINDS = ("ascending", "descending", "bst", "heap")


@st.composite
def input_values(draw, n):
    style = draw(st.sampled_from(("integer", "duplicate", "signed", "constant")))
    if style == "integer":
        vals = draw(st.lists(st.integers(0, 10 * n), min_size=n, max_size=n, unique=True))
    elif style == "duplicate":
        vals = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    elif style == "signed":
        vals = draw(
            st.lists(
                st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            )
        )
    else:
        vals = [draw(st.integers(-5, 5))] * n
    return [float(v) for v in vals]


@st.composite
def builder_instances(draw, integer_lambda, max_n=12):
    n = draw(st.integers(1, max_n))
    x = ValueVector(draw(input_values(n)))
    weights = st.integers(1, 30).map(float) if integer_lambda else st.floats(0.05, 30.0)
    keywords = draw(
        st.one_of(
            st.just({}),
            st.fixed_dictionaries(
                dict(lambda_r=weights, lambda_c=weights, normalize=st.booleans())
            ),
        )
    )
    return build_qubo(x, program_for(draw(st.sampled_from(KINDS)), n), **keywords)


# Dyadic (m / 2^k), non-dyadic, and the ends of the float range.
coefficients = st.one_of(
    st.builds(lambda m, k: m / 2**k, st.integers(-(2**30), 2**30), st.integers(0, 60)),
    st.floats(-30.0, 30.0),
    st.sampled_from([5e-324, -5e-324, 1e300, -1e300, 1.7e308]),
)


# --- the penalty matrix on its own ----------------------------------------


class TestPenaltyMatrix:
    def test_materializes_the_row_and_column_pattern(self):
        # n = 2: z = (Z[0,0], Z[1,0], Z[0,1], Z[1,1]); same row: 0-2 and 1-3,
        # same column: 0-1 and 2-3
        expected = [
            [5.0, 2.0, 1.0, 0.0],
            [2.0, 5.0, 0.0, 1.0],
            [1.0, 0.0, 5.0, 2.0],
            [0.0, 1.0, 2.0, 5.0],
        ]
        M = PenaltyMatrix(2, 1.0, 2.0, 5.0)
        assert M.shape == (4, 4) and M.ndim == 2
        assert np.asarray(M).tolist() == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_builder_penalty_is_the_kronecker_sum(self, n):
        Cr, Cc = build_Cr(n), build_Cc(n)
        M = PenaltyMatrix(n, 3.0, 5.0, 8.0)
        assert bits(M) == bits(3.0 * (Cr.T @ Cr) + 5.0 * (Cc.T @ Cc))

    def test_coefficients_must_be_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                PenaltyMatrix(2, bad, 1.0, 1.0)
            with pytest.raises(DomainError):
                PenaltyMatrix(2, 1.0, 1.0, bad)
        with pytest.raises(InvalidSize):
            PenaltyMatrix(0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [2.5, "2", None, np.nan, True, np.True_])
    def test_n_must_be_an_integer(self, bad):
        with pytest.raises(InvalidSize):
            PenaltyMatrix(bad, 1.0, 1.0, 2.0)
        assert PenaltyMatrix(2.0, 1.0, 1.0, 2.0).n == 2

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_products_match_the_dense_matrix(self, n, seed, rows):
        rnd = np.random.default_rng(seed)
        M = PenaltyMatrix(n, *rnd.normal(size=3))
        dense = np.asarray(M)
        v = rnd.normal(size=n * n)
        np.testing.assert_allclose(M @ v, dense @ v, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(v @ M, v @ dense, rtol=1e-12, atol=1e-12)
        stacked = rnd.normal(size=(rows, n * n))
        np.testing.assert_allclose(stacked @ M, stacked @ dense, rtol=1e-12, atol=1e-12)

    def test_product_checks_the_shape(self):
        M = PenaltyMatrix(2, 1.0, 1.0, 1.0)
        with pytest.raises(DimensionMismatch):
            M @ np.ones(5)
        with pytest.raises(DimensionMismatch):
            np.ones((2, 5)) @ M
        with pytest.raises(DimensionMismatch):
            M @ np.eye(4)  # M @ X multiplies columns; only stacked rows Z @ M are supported

    def test_scalar_operations_act_on_every_entry(self):
        M = PenaltyMatrix(3, 1.5, 0.25, 0.0)
        dense = np.asarray(M)
        assert bits(M / 4.0) == bits(dense / 4.0)
        assert bits(-2.0 * M) == bits(-2.0 * dense)  # zeros turn -0.0 in both
        assert bits(M * 3.0) == bits(dense * 3.0)

    @mock.patch.object(PenaltyMatrix, "diagonal", side_effect=AssertionError("diagonal formed"))
    def test_instances_take_it_in_place_of_a_dense_matrix(self, _):
        """A nonzero self_coupling is refused without forming the diagonal;
        -0.0 is a zero diagonal."""
        r = np.zeros(4)
        for self_coupling in (1.0, 2.0):
            M = PenaltyMatrix(2, 1.0, 1.0, self_coupling)
            assert QuboInstance(M, r).matrix_R is M
            with pytest.raises(DimensionMismatch):
                QuboInstance(M, np.zeros(9))
            with pytest.raises(
                NonZeroDiagonal, match="^fold_diagonal must run before the bipolar substitution$"
            ):
                to_ising(QuboInstance(M, r))
            with pytest.raises(NonZeroDiagonal, match="^matrix_Q must have an exactly zero diagonal$"):
                IsingInstance(M, r)
            with pytest.raises(DomainError, match="^weights_W must have an exactly zero diagonal$"):
                HopfieldInstance(M, r)
        zero_diagonal = PenaltyMatrix(2, -1.0, -1.0, -0.0)
        assert to_ising(QuboInstance(zero_diagonal, r)).matrix_Q.self_coupling == 0.0
        assert IsingInstance(zero_diagonal, r).matrix_Q is zero_diagonal
        assert HopfieldInstance(zero_diagonal, r).weights_W is zero_diagonal

    def test_library_chain_holds_no_matrix(self):
        n = 40
        x = ValueVector(np.random.default_rng(40).normal(size=n))
        instance = build_qubo(x, make_program("heap", n))
        for stage in (instance, *chain(instance)):
            arrays = [v for v in vars(stage).values() if isinstance(v, np.ndarray)]
            assert all(a.shape == (n * n,) for a in arrays)

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_and_diagonal_are_the_dense_ones(self, n, seed):
        rnd = np.random.default_rng(seed)
        M = PenaltyMatrix(n, *rnd.normal(size=3))
        for m in (M, -2.0 * M):
            dense = np.asarray(m)
            for i in range(-n * n, n * n):
                assert bits(m[i]) == bits(dense[i])
            assert bits(m.diagonal()) == bits(dense.diagonal())
        with pytest.raises(IndexError):
            M[n * n]
        with pytest.raises(TypeError):
            M[0.5]

    def test_solve_runs_one_descent_on_either_form(self):
        instance = build_qubo(ValueVector(ref.INPUT_X), make_program("heap", 7))
        network = chain(instance)[2]
        with mock.patch.object(hopfield, "_descend", wraps=hopfield._descend) as descend:
            solve(network)
            solve(materialized(network))
        first, second = (call.args[0].weights_W for call in descend.call_args_list)
        assert first is network.weights_W and isinstance(second, np.ndarray)


    def test_descent_never_reads_a_row(self):
        """The structured descent reads its fields off row and column counts,
        in O(n) per flip, and never builds a dense row of n^2 entries."""
        instance = build_qubo(ValueVector(ref.INPUT_X), make_program("heap", 7))
        network = chain(instance)[2]
        with mock.patch.object(PenaltyMatrix, "__getitem__", side_effect=AssertionError("row read")):
            _, trace = solve(network)
            assert_bitwise_same_descent(network, np.full(49, -1, dtype=np.int8))
        assert trace.flips == 7

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_chain_never_forms_a_diagonal(self, n):
        """Every zero-diagonal check reads self_coupling, and fold_diagonal adds
        it to r as a scalar, the same add as the dense diagonal's."""
        x = ValueVector(np.random.default_rng(n).normal(size=n))
        with mock.patch.object(
            PenaltyMatrix, "diagonal", side_effect=AssertionError("diagonal formed")
        ):
            instance = build_qubo(x, make_program("heap", n))
            folded, _, network = chain(instance)
            state, trace = solve(network)
            assert bits(energy(network, state)) == bits(trace.final_energy)
        dense_fold = instance.vector_r + np.asarray(instance.matrix_R).diagonal()
        assert bits(folded.vector_r) == bits(dense_fold)
        assert trace.flips == n

    def test_descent_clears_a_cell_alone_in_its_lines(self):
        """A flip that clears the one active cell of its grid row and grid
        column gives both lines the gains of an all-inactive line after a
        clear, as a descent started afresh there has them; the start was
        found by a seeded search over random starts."""
        n = 4
        instance = build_qubo(
            ValueVector([0.0, 3.0, -5.0, 3.0]), make_program("ascending", n), normalize=False
        )
        network = chain(instance)[2]
        start = np.full(n * n, -1, dtype=np.int8)
        start[[5, 10, 15]] = 1
        trace = assert_bitwise_same_descent(network, start)
        assert trace.flipped.tolist() == [0, 10, 6, 14]
        before = trace.steps[1].state.reshape(n, n)  # the state the second flip clears
        assert before[2, 2] == 1
        assert before[2].sum() == before[:, 2].sum() == 2 - n
        s, half, fresh = start.astype(float), np.empty(n * n), np.empty(n * n)
        descent = hopfield._descent(network, s, half)
        next(descent)
        for i in trace.flipped.tolist():
            descent.send(i)
            next(hopfield._descent(network, s.copy(), fresh))
            np.testing.assert_array_equal(half, fresh)

    def test_a_start_that_is_not_bipolar_is_named(self):
        """The trace names a start of 2s, on either form, after descent ran."""
        network = chain(build_qubo(ValueVector(ref.INPUT_X), make_program("heap", 7)))[2]
        for form in (network, materialized(network)):
            with pytest.raises(DomainError, match="start state must be a bipolar vector"):
                hopfield._descend(form, np.full(49, 2, dtype=np.int8), 49 * 49)

    @given(st.integers(1, 8), st.integers(1, 2**20), st.integers(1, 2**20),
           st.integers(0, 20), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_dyadic_weights_descend_bit_for_bit(self, n, m_r, m_c, k, seed):
        """Dyadic lambda (m / 2^k) keeps every field exact on either form, so
        descent from a random start takes the materialized descent's flips, and
        both give every energy as float(Fraction(E(s)))."""
        x = ValueVector(np.random.default_rng(seed).normal(size=n))
        program = make_program("heap", n)
        network = chain(build_qubo(x, program, lambda_r=m_r / 2**k, lambda_c=m_c / 2**k))[2]
        trace = assert_bitwise_same_descent(network, random_start(n * n, seed))
        for step in trace.steps:
            assert step.energy == float(fraction_energy(network, step.state))

    @given(st.integers(1, 8), coefficients, coefficients, coefficients, st.data())
    @example(2, 1.7e308, 1.7e308, 0.0, None)  # the row sum overflows
    @example(2, 2.0**-53 + 2.0**-80, -1.0, 1.0, None)  # the order of the sum shows
    @settings(max_examples=80, deadline=None)
    def test_row_sum_is_the_product_with_ones(self, n, same_row, same_col, self_coupling, data):
        """row_sum() is every entry of M @ 1, and to_ising's q is 0.5 * (R @ 1) +
        0.5 * r from it, byte for byte, for any finite coefficients."""
        R = PenaltyMatrix(n, same_row, same_col, self_coupling)
        ones = np.ones(n * n)
        with np.errstate(over="ignore", invalid="ignore"):
            product = R @ ones
        assert bits(np.full(n * n, R.row_sum())) == bits(product)
        folded = PenaltyMatrix(n, same_row, same_col, 0.0)
        r = np.random.default_rng(n).normal(size=n * n) if data is None else np.array(
            data.draw(st.lists(st.floats(-1e300, 1e300), min_size=n * n, max_size=n * n))
        )
        instance = QuboInstance(folded, r)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = 0.5 * (folded @ ones) + 0.5 * r
        if np.isfinite(expected).all():
            assert bits(to_ising(instance).vector_q) == bits(expected)
        else:
            with np.errstate(over="ignore"), pytest.raises(DomainError, match="vector_q"):
                to_ising(instance)

# --- stages and descent, integer penalty weights: bit for bit -------------


class TestIntegerWeightsBitForBit:
    @given(builder_instances(integer_lambda=True))
    @settings(max_examples=100, deadline=None)
    def test_every_stage_materializes_as_the_dense_stage(self, instance):
        n, R = instance.n, instance.matrix_R
        Cr, Cc = build_Cr(n), build_Cc(n)
        kronecker = R.same_row * (Cr.T @ Cr) + R.same_col * (Cc.T @ Cc)
        assert bits(instance.matrix_R) == bits(kronecker)
        structured = chain(instance)
        dense = chain(dense_qubo(instance))
        for (s, d), (matrix, vector) in zip(
            zip(structured, dense),
            (("matrix_R", "vector_r"), ("matrix_Q", "vector_q"), ("weights_W", "bias_theta")),
        ):
            assert isinstance(getattr(s, matrix), PenaltyMatrix)
            assert bits(getattr(s, matrix)) == bits(getattr(d, matrix))
            assert bits(getattr(s, vector)) == bits(getattr(d, vector))

    @given(builder_instances(integer_lambda=True), st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    @settings(max_examples=120, deadline=None)
    def test_descent_matches_dense_descent(self, instance, seed):
        network = chain(instance)[2]
        N = network.dimension
        start = np.full(N, -1, dtype=np.int8) if seed is None else random_start(N, seed)
        assert_bitwise_same_descent(network, start)

    @pytest.mark.parametrize("start", [-1, 1])
    def test_one_cell_zero_energy_is_the_dense_one(self, start):
        """Here theta = 0, so the energy is 0; structured descent once gave
        -0.0 from the all-inactive start where the dense descent gives +0.0."""
        instance = QuboInstance(PenaltyMatrix(1, 1.0, 1.0, 2.0), [-2.0])
        network = chain(instance)[2]
        s = np.array([start], dtype=np.int8)
        trace = assert_bitwise_same_descent(network, s)
        assert trace.energies[0].hex() == float(fraction_energy(network, s)).hex()

    @given(builder_instances(integer_lambda=True, max_n=6), st.integers(0, 2**32 - 1),
           st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_step_budget(self, instance, seed, budget):
        network = chain(instance)[2]
        assert_bitwise_same_descent(network, random_start(network.dimension, seed), budget)

    @pytest.mark.parametrize("kind", ["ascending", "bst", "heap"])
    def test_frozen_reference_run(self, kind):
        scaled = paper_faithful(ref.INPUT_X)
        network = chain(build_qubo(scaled, make_program(kind, 7), normalize=False))[2]
        trace = assert_bitwise_same_descent(network, np.full(49, -1, dtype=np.int8))
        assert trace.flipped.tolist() == ref.FLIPS[kind]
        assert [f"{s.energy:.1f}" for s in trace.steps] == ref.ENERGY_STRINGS

    def test_two_negative_entries(self):
        scaled = paper_faithful([-1.0, -2.0])
        network = chain(build_qubo(scaled, make_program("ascending", 2), normalize=False))[2]
        trace = assert_bitwise_same_descent(network, np.full(4, -1, dtype=np.int8))
        assert trace.flipped.tolist() == [0, 3]  # stuck on [-1, -2], not sorted

    def test_objectives_match_the_dense_forms(self):
        scaled = paper_faithful([3.0, -1.0, 2.0])
        instance = build_qubo(scaled, make_program("bst", 3), normalize=False)
        dense = dense_qubo(instance)
        network = chain(instance)[2]
        dense_network = materialized(network)
        rnd = np.random.default_rng(3)
        for _ in range(20):
            z = rnd.integers(0, 2, size=9)
            s = 2 * z - 1
            assert bits(qubo_objective(instance, z)) == bits(qubo_objective(dense, z))
            assert bits(energy(network, s)) == bits(energy(dense_network, s))
            i = int(rnd.integers(0, 9))
            assert bits(flip_gain(network, s, i)) == bits(flip_gain(dense_network, s, i))
        small = build_qubo(ValueVector([2.0, -1.0]), make_program("ascending", 2))
        for folded in (small, fold_diagonal(small)):
            state, value = exhaustive_qubo_min(folded)
            dense_state, dense_value = exhaustive_qubo_min(dense_qubo(folded))
            assert state.tolist() == dense_state.tolist() and value == dense_value


# --- every energy correctly rounded -----------------------------------------


class TestCorrectlyRoundedEnergies:
    @given(builder_instances(integer_lambda=False, max_n=6), st.booleans(),
           st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    @settings(max_examples=100, deadline=None)
    def test_every_energy_is_correctly_rounded(self, instance, dense, seed):
        """Every trace energy and every energy() is float(Fraction(E(s))), on
        either form, from the all-inactive start or a random one."""
        network = chain(instance)[2]
        network = materialized(network) if dense else network
        N = network.dimension
        start = np.full(N, -1, dtype=np.int8) if seed is None else random_start(N, seed)
        try:
            _, trace = hopfield._descend(network, start, N * N)
        except MaxStepsExceeded:
            return
        for step in trace.steps:
            exact = float(fraction_energy(network, step.state))
            assert step.energy == exact and energy(network, step.state) == exact

    @pytest.mark.parametrize("factor", [1.0, 0.7, 1.1001, 3.0])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_energy_of_the_endpoint_is_the_final_energy(self, factor, normalize):
        """energy() and the trace agree bit for bit, on a PenaltyMatrix network
        and on its materialization, which here take the same flips."""
        n = 12
        x = ValueVector(np.random.default_rng(n).normal(size=n))
        lam = factor * n
        instance = build_qubo(
            x, make_program("heap", n), lambda_r=lam, lambda_c=lam, normalize=normalize
        )
        network = chain(instance)[2]
        for form in (network, materialized(network)):
            _, trace = solve(form)
            assert energy(form, trace.final_state) == trace.final_energy
            assert trace.final_energy == float(fraction_energy(network, trace.final_state))


# --- any positive finite weights: within tolerance -------------------------


class TestAnyWeightsWithinTolerance:
    @given(builder_instances(integer_lambda=False))
    @settings(max_examples=120, deadline=None)
    def test_endpoint_is_stable_and_energies_exact(self, instance):
        network = chain(instance)[2]
        dense = materialized(network)
        state, trace = solve(network)
        for step in trace.steps:
            assert step.energy == energy(dense, step.state)
        scale = abs(energy(dense, state))
        gains = [flip_gain(dense, state, i) for i in range(network.dimension)]
        assert min(gains) >= -1e-9 * max(scale, 1.0)

    def test_stops_before_a_flip_that_does_not_lower_the_energy(self):
        """Flipping coordinate 0 at the endpoint has a gain of 0 in exact
        arithmetic that rounds to -4.4e-16; the energy it leads to is no lower,
        so descent stops there instead of failing the trace's check."""
        x = ValueVector([1.0, 2.0, 0.0, 1.0])
        network = chain(build_qubo(x, descending_program(4), lambda_r=0.7, lambda_c=0.3))[2]
        state, trace = solve(network)
        assert trace.flipped.tolist() == [4, 5, 2, 15]
        s = state.astype(float)
        gains = 2.0 * s * (network.weights_W @ s - network.bias_theta)
        assert -1e-15 < gains.min() < 0.0 and int(np.argmin(gains)) == 0
        flipped = state.copy()
        flipped[0] = -flipped[0]
        assert not energy(network, flipped) < energy(network, state)


# --- solve_qubo is the chain in one call ----------------------------------


@given(builder_instances(integer_lambda=False), st.booleans(),
       st.one_of(st.none(), st.integers(0, 40)))
@settings(max_examples=120, deadline=None)
def test_solve_qubo_is_the_chain_written_out(instance, dense, max_steps):
    """Default builds, normalize=False and any weights, structured or dense:
    the same endpoint, flips and energies bit for bit, or the same error."""
    if dense:
        instance = dense_qubo(instance)
    try:
        state, trace = solve(chain(instance)[2], max_steps)
    except MaxStepsExceeded:
        with pytest.raises(MaxStepsExceeded):
            solve_qubo(instance, max_steps)
        return
    z, got = solve_qubo(instance, max_steps)
    expected = bipolar_to_binary(state)
    assert z.dtype == expected.dtype and bits(z) == bits(expected)
    assert got.flipped.tolist() == trace.flipped.tolist()
    assert [e.hex() for e in got.energies.tolist()] == [e.hex() for e in trace.energies.tolist()]


# --- the CLI writes the materialized penalty -------------------------------


@given(st.integers(1, 8), st.floats(0.05, 30.0), st.floats(0.05, 30.0),
       st.sampled_from(KINDS), st.data())
@settings(max_examples=25, deadline=None)
def test_build_writes_the_kronecker_penalty(n, lambda_r, lambda_c, kind, data):
    values = data.draw(input_values(n))
    with tempfile.TemporaryDirectory() as tmp:
        x_path, prog, out = (os.path.join(tmp, f) for f in ("x.json", "p.json", "q.json"))
        with open(x_path, "w", encoding="utf-8") as handle:
            json.dump(values, handle)
        assert main(["program", "--kind", kind, "--n", str(n), "-o", prog]) == 0
        assert main(["build", x_path, prog, "--lambda-r", repr(lambda_r),
                     "--lambda-c", repr(lambda_c), "-o", out]) == 0
        with open(out, encoding="utf-8") as handle:
            R = np.asarray(PenaltyMatrix(**json.load(handle)["penalty"]))
    Cr, Cc = build_Cr(n), build_Cc(n)
    assert bits(R) == bits(lambda_r * (Cr.T @ Cr) + lambda_c * (Cc.T @ Cc))


# --- beyond the dense chain's reach ---------------------------------------


def test_solve_holds_no_state_per_flip_at_n200():
    """The trace keeps the start, one coordinate and one energy per flip: at
    n = 200 the call holds well under 1 MB on return, where 200 stored
    states of N = 40000 coordinates would take 8 MB."""
    x = ValueVector(np.random.default_rng(1).normal(size=200))
    network = chain(build_qubo(x, make_program("heap", 200)))[2]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state, trace = solve(network)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert trace.flips == 200
    assert held < 1_000_000


def gaussian_or_paper_networks(n, seed):
    """(kind, network) for ascending, bst and heap, on the paper's distinct
    integers and on Gaussian values, each drawn first from seed."""
    inputs = (
        np.random.default_rng(seed).choice(10 * n, size=n, replace=False).astype(float),
        np.random.default_rng(seed).normal(size=n),
    )
    for kind in ("ascending", "bst", "heap"):
        for values in inputs:
            yield kind, chain(build_qubo(ValueVector(values), make_program(kind, n)))[2]


def fresh_products(network):
    """solve's trace and the number of W @ s it forms."""
    with mock.patch.object(
        PenaltyMatrix, "__matmul__", autospec=True, side_effect=PenaltyMatrix.__matmul__
    ) as product:
        _, trace = solve(network)
    return trace, product.call_count


def test_no_product_at_n200():
    """Descent reads every field off the row and column counts of its state,
    and forms no W @ s."""
    for kind, network in gaussian_or_paper_networks(200, 200):
        trace, products = fresh_products(network)
        assert trace.flips == 200 and products == 0, kind


def test_no_product_at_n400():
    for kind, network in gaussian_or_paper_networks(400, 400):
        trace, products = fresh_products(network)
        assert trace.flips == 400 and products == 0, kind


@pytest.mark.parametrize("kind", ["ascending", "heap"])
@pytest.mark.parametrize("n", [200, 400])
def test_exact_energies_at_n200_and_n400(n, kind):
    """Every energy is float(Fraction(E(s))), at sizes the dense comparison
    cannot reach: theta.s in Fractions, and s^T W s from the row and column
    sums R and C of s, w_r sum (R_b^2 - n) + w_c sum (C_a^2 - n), as W has a
    zero diagonal (test_every_energy_is_correctly_rounded checks the same
    energies against every entry of W at small n)."""
    x = ValueVector(np.random.default_rng(n).normal(size=n))
    network = chain(build_qubo(x, make_program(kind, n)))[2]
    W, theta = network.weights_W, network.bias_theta
    _, trace = solve(network)
    assert trace.flips == n
    state = trace.start.astype(int)
    dot = exact_sum(theta * state)
    for k, e in enumerate(trace.energies):
        if k:
            i = trace.flipped[k - 1]
            state[i] = -state[i]
            dot += 2 * int(state[i]) * Fraction(theta[i])
        cells = state.reshape(n, n)
        R, C = cells.sum(axis=0), cells.sum(axis=1)
        pairs = Fraction(W.same_row) * int(R @ R - n * n)
        pairs += Fraction(W.same_col) * int(C @ C - n * n)
        assert e == float(dot - pairs / 2)


def test_inexact_weights_take_the_same_descent_at_n400():
    """lambda = 1.1001 * n, no short dyadic fraction, takes the descent of
    lambda = n, with no W @ s and the same flips."""
    n = 400
    x = ValueVector(np.random.default_rng(n).normal(size=n))
    lam = 1.1001 * n
    network = chain(build_qubo(x, make_program("heap", n), lambda_r=lam, lambda_c=lam))[2]
    trace, products = fresh_products(network)
    assert trace.flips == n and products == 0
    default = chain(build_qubo(x, make_program("heap", n)))[2]
    assert trace.flipped.tolist() == solve(default)[1].flipped.tolist()


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["ascending", "heap"])
@pytest.mark.parametrize("n", [1000, 1200])
def test_gaussian_inputs_at_n1000_and_n1200(n, kind):
    """N = 10^6 and 1.44 * 10^6: no W @ s, and the order certified."""
    x = ValueVector(np.random.default_rng(n).normal(size=n))
    program = make_program(kind, n)
    network = chain(build_qubo(x, program))[2]
    trace, products = fresh_products(network)
    assert trace.flips == n and products == 0
    z = bipolar_to_binary(trace.final_state)
    assert certify(x, program, z).passed


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["ascending", "heap"])
def test_gaussian_inputs_at_n400(kind):
    x = ValueVector(np.random.default_rng(400).normal(size=400))
    program = make_program(kind, 400)
    z, trace, _ = run_pipeline(x, program)
    assert trace.flips == 400
    assert certify(x, program, z).passed


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["ascending", "bst", "heap"])
def test_gaussian_inputs_at_n200(kind):
    """n = 200: the dense penalty would hold 40000^2 floats, 12.8 GB."""
    x = ValueVector(np.random.default_rng(200).normal(size=200))
    program = make_program(kind, 200)
    z, trace, instance = run_pipeline(x, program)
    assert isinstance(instance.matrix_R, PenaltyMatrix)
    assert trace.flips == 200
    assert certify(x, program, z).passed
