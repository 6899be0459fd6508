"""The library's structured chain against the dense reference, bit for bit
or within tolerance.

build_qubo returns its penalty as a PenaltyMatrix, the conversions keep it
one, and solve descends on it.  The paper's dense chain is the reference
(tests/reference.py): these tests materialize each library stage with
np.asarray and run the reference stage on the materialized input.  With
integer penalty weights every sum of coefficients is exact, so the two
agree bit for bit, matrices, vectors, flips, states and energies alike.
With any other weights the stages agree within a relative tolerance of
1e-9, and every energy on either form is E(s) correctly rounded,
float(Fraction(E(s))).
"""

import json
import os
import tempfile
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperm import (
    DimensionMismatch,
    DomainError,
    HopfieldInstance,
    InvalidSize,
    IsingInstance,
    MaxStepsExceeded,
    PenaltyMatrix,
    QuboInstance,
    ValueVector,
    bipolar_to_binary,
    build_qubo,
    certify,
    descending_program,
    fold_diagonal,
    solve,
    solve_qubo,
    to_ising,
)
from qperm.cli import main

from . import reference
from . import reference_run as ref
from .conftest import (
    PROGRAMS,
    builder_instances,
    input_values,
    library_chain,
    make_program,
    paper_faithful,
    program_argv,
    run_pipeline,
    shifted,
    x_of,
)
from .reference import (
    assert_bitwise_same_descent,
    assert_own_budget_suffices,
    bits,
    build_Cc,
    build_Cr,
    dense,
    exact_sum,
    exhaustive_qubo_min,
    fraction_energy,
    replay,
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
        assert M.shape == (4, 4)
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
        """The reference's O(N) product, which tests use in place of a dense W s."""
        rnd = np.random.default_rng(seed)
        M = PenaltyMatrix(n, *rnd.normal(size=3))
        dense = np.asarray(M)
        v = rnd.normal(size=n * n)
        np.testing.assert_allclose(reference.product(M, v), dense @ v, rtol=1e-12, atol=1e-12)
        stacked = rnd.normal(size=(rows, n * n))
        np.testing.assert_allclose(
            reference.product(M, stacked), stacked @ dense, rtol=1e-12, atol=1e-12
        )

    def test_has_no_scalar_arithmetic(self):
        """Each conversion writes its stage's coefficients; a scalar times a
        PenaltyMatrix is refused, not materialized.  Nor has it a product or
        an ndim: only tests multiplied, and they use the reference's."""
        M = PenaltyMatrix(3, 1.5, 0.25, 0.0)
        for product in (lambda: 2.0 * M, lambda: M * 2.0, lambda: M / 4.0,
                        lambda: np.float64(-2.0) * M, lambda: np.ones(9) * M):
            with pytest.raises(TypeError):
                product()
        names = ("row_sum", "__mul__", "__truediv__", "__matmul__", "__rmatmul__", "ndim")
        assert not any(hasattr(M, name) for name in names)

    def test_instances_take_it_as_their_matrix(self):
        """A nonzero self_coupling is refused; -0.0 is a zero diagonal."""
        r = np.zeros(4)
        for self_coupling in (1.0, 2.0):
            M = PenaltyMatrix(2, 1.0, 1.0, self_coupling)
            assert QuboInstance(M, r).matrix_R is M
            with pytest.raises(DimensionMismatch):
                QuboInstance(M, np.zeros(9))
            with pytest.raises(
                DomainError, match="^fold_diagonal must run before the bipolar substitution$"
            ):
                to_ising(QuboInstance(M, r))
            with pytest.raises(DomainError, match="^matrix_Q must have an exactly zero diagonal$"):
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
        for stage in (instance, *library_chain(instance)):
            arrays = [v for v in vars(stage).values() if isinstance(v, np.ndarray)]
            assert all(a.shape == (n * n,) for a in arrays)

    def test_solve_runs_one_descent(self):
        """One descent from the all-inactive state: its flips use up a budget
        of their own number, and one flip fewer is not enough."""
        instance = build_qubo(ValueVector(ref.INPUT_X), make_program("heap", 7))
        network = library_chain(instance)[2]
        state, trace = assert_own_budget_suffices(network)
        assert trace.dimension == 49
        assert trace.flips == 7

    def test_descent_never_materializes(self):
        """The structured descent reads its fields off row and column counts,
        in O(n) per flip, and never builds a dense row or matrix."""
        instance = build_qubo(ValueVector(ref.INPUT_X), make_program("heap", 7))
        network = library_chain(instance)[2]
        with mock.patch.object(PenaltyMatrix, "__array__", side_effect=AssertionError("dense")):
            _, trace = solve(network)
        assert_bitwise_same_descent(network)
        assert trace.flips == 7

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_chain_never_forms_a_diagonal(self, n):
        """Every zero-diagonal check reads self_coupling, and fold_diagonal adds
        it to r as a scalar, the same add as the dense diagonal's; nothing
        materializes."""
        x = ValueVector(np.random.default_rng(n).normal(size=n))
        with mock.patch.object(PenaltyMatrix, "__array__", side_effect=AssertionError("dense")):
            instance = build_qubo(x, make_program("heap", n))
            folded, _, network = library_chain(instance)
            state, trace = solve(network)
        assert bits(reference.energy(*dense(network), state)) == bits(trace.final_energy)
        dense_fold = instance.vector_r + np.asarray(instance.matrix_R).diagonal()
        assert bits(folded.vector_r) == bits(dense_fold)
        assert trace.flips == n

    @given(st.integers(1, 8), st.integers(1, 2**20), st.integers(1, 2**20),
           st.integers(0, 20), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_dyadic_weights_descend_bit_for_bit(self, n, m_r, m_c, k, seed):
        """Dyadic lambda (m / 2^k) keeps every field exact on either form, so
        descent takes the materialized descent's flips, and both give every
        energy as float(Fraction(E(s)))."""
        x = ValueVector(np.random.default_rng(seed).normal(size=n))
        program = make_program("heap", n)
        network = library_chain(build_qubo(x, program, lambda_r=m_r / 2**k, lambda_c=m_c / 2**k))[2]
        trace = assert_bitwise_same_descent(network)
        for state, e in zip(replay(trace), trace.energies.tolist(), strict=True):
            assert e == float(fraction_energy(*dense(network), state))


# --- stages and descent, integer penalty weights: bit for bit -------------


class TestIntegerWeightsBitForBit:
    @given(builder_instances(integer_weights=True))
    @settings(max_examples=100, deadline=None)
    def test_every_stage_materializes_as_the_dense_stage(self, instance):
        n, R = instance.n, instance.matrix_R
        Cr, Cc = build_Cr(n), build_Cc(n)
        kronecker = R.same_row * (Cr.T @ Cr) + R.same_col * (Cc.T @ Cc)
        assert bits(instance.matrix_R) == bits(kronecker)
        stages = zip(library_chain(instance), reference.chain(*dense(instance)))
        for stage, (matrix, vector) in stages:
            structured_matrix, structured_vector = vars(stage).values()
            assert isinstance(structured_matrix, PenaltyMatrix)
            assert bits(structured_matrix) == bits(matrix)
            assert bits(structured_vector) == bits(vector)

    @given(builder_instances(integer_weights=True, form="network"))
    @settings(max_examples=120, deadline=None)
    def test_descent_matches_dense_descent(self, network):
        assert_bitwise_same_descent(network)

    ONE_CELL = QuboInstance(PenaltyMatrix(1, 1.0, 1.0, 2.0), [-2.0])

    def test_one_cell_descent_starts_at_positive_zero(self):
        """Structured descent once gave -0.0 from the all-inactive start
        where the dense descent gives +0.0."""
        network = library_chain(self.ONE_CELL)[2]
        inactive = -np.ones(1, dtype=np.int8)
        zero = float(fraction_energy(*dense(network), inactive)).hex()
        trace = assert_bitwise_same_descent(network)
        assert trace.energies[0].hex() == zero

    @given(builder_instances(max_n=6, integer_weights=True, form="network"), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_step_budget(self, network, budget):
        assert_bitwise_same_descent(network, budget)

    @pytest.mark.parametrize("kind", ["ascending", "bst", "heap"])
    def test_frozen_reference_run(self, kind):
        scaled = paper_faithful(ref.INPUT_X)
        network = library_chain(build_qubo(scaled, make_program(kind, 7), normalize=False))[2]
        trace = assert_bitwise_same_descent(network)
        assert trace.flipped.tolist() == ref.FLIPS[kind]
        # ENERGY_STRINGS ends with the endpoint's energy once more, as --trace prints it
        assert [f"{e:.1f}" for e in trace.energies] == ref.ENERGY_STRINGS[:-1]

    def test_two_negative_entries(self):
        scaled = paper_faithful([-1.0, -2.0])
        instance = build_qubo(scaled, make_program("ascending", 2), normalize=False)
        network = library_chain(instance)[2]
        trace = assert_bitwise_same_descent(network)
        assert trace.flipped.tolist() == [0, 3]  # stuck on [-1, -2], not sorted

    def test_objectives_match_the_dense_forms(self):
        small = build_qubo(ValueVector([2.0, -1.0]), make_program("ascending", 2))
        states = (np.arange(16)[:, None] >> np.arange(4) & 1).astype(float)
        for folded in (small, fold_diagonal(small)):
            state, value = exhaustive_qubo_min(folded)
            R, r = dense(folded)
            values = ((states @ R) * states).sum(axis=1) + states @ r
            k = int(np.argmin(values))
            assert state.tolist() == states[k].tolist() and value == values[k]


# --- every energy correctly rounded -----------------------------------------


class TestCorrectlyRoundedEnergies:
    @given(builder_instances(max_n=6, form="network"), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_every_energy_is_correctly_rounded(self, network, on_reference):
        """Every trace energy, and the reference's energy of every visited
        state, is float(Fraction(E(s))), in the library and in the reference."""
        W, theta = dense(network)
        try:
            if on_reference:
                _, trace = reference.descend(W, theta)
            else:
                _, trace = solve(network)
        except MaxStepsExceeded:
            return
        for state, e in zip(replay(trace), trace.energies.tolist(), strict=True):
            exact = float(fraction_energy(W, theta, state))
            assert e == exact
            assert reference.energy(W, theta, state) == exact

    @pytest.mark.parametrize("factor", [1.0, 0.7, 1.1001, 3.0])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_energy_of_the_endpoint_is_the_final_energy(self, factor, normalize):
        """The endpoint's energy and the trace's last agree bit for bit, in the
        library and in the reference on the materialized network, which here
        take the same flips."""
        n = 12
        x = ValueVector(np.random.default_rng(n).normal(size=n))
        lam = factor * n
        instance = build_qubo(
            x, make_program("heap", n), lambda_r=lam, lambda_c=lam, normalize=normalize
        )
        network = library_chain(instance)[2]
        W, theta = dense(network)
        trace = assert_bitwise_same_descent(network)
        final = replay(trace)[-1]
        assert reference.energy(W, theta, final) == trace.final_energy
        assert trace.final_energy == float(fraction_energy(W, theta, final))


# --- any positive finite weights: within tolerance -------------------------


class TestAnyWeightsWithinTolerance:
    @given(builder_instances(form="network"))
    @settings(max_examples=120, deadline=None)
    def test_endpoint_is_stable_and_energies_exact(self, network):
        W, theta = dense(network)
        state, trace = solve(network)
        for s, e in zip(replay(trace), trace.energies.tolist(), strict=True):
            assert e == reference.energy(W, theta, s)
        scale = abs(reference.energy(W, theta, state))
        gains = [reference.flip_gain(W, theta, state, i) for i in range(network.dimension)]
        assert min(gains) >= -1e-9 * max(scale, 1.0)

    def test_stops_before_a_flip_that_does_not_lower_the_energy(self):
        """Flipping coordinate 0 at the endpoint has a gain of 0 in exact
        arithmetic that rounds to -4.4e-16; the energy it leads to is no lower,
        so descent stops there instead of failing the trace's check."""
        x = ValueVector([1.0, 2.0, 0.0, 1.0])
        network = library_chain(build_qubo(x, descending_program(4), lambda_r=0.7, lambda_c=0.3))[2]
        state, trace = solve(network)
        assert trace.flipped.tolist() == [4, 5, 2, 15]
        s = state.astype(float)
        gains = 2.0 * s * (reference.product(network.weights_W, s) - network.bias_theta)
        assert -1e-15 < gains.min() < 0.0 and int(np.argmin(gains)) == 0
        flipped = state.copy()
        flipped[0] = -flipped[0]
        W, theta = dense(network)
        assert not reference.energy(W, theta, flipped) < reference.energy(W, theta, state)


# --- solve_qubo is the chain in one call ----------------------------------


@given(builder_instances(), st.one_of(st.none(), st.integers(0, 40)))
@settings(max_examples=120, deadline=None)
def test_solve_qubo_is_the_chain_written_out(instance, max_steps):
    """Default builds, normalize=False and any weights: the same endpoint,
    flips and energies bit for bit, or the same error."""
    try:
        state, trace = solve(library_chain(instance)[2], max_steps)
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
       st.sampled_from(sorted(PROGRAMS)), st.data())
@settings(max_examples=25, deadline=None)
def test_build_writes_the_kronecker_penalty(n, lambda_r, lambda_c, kind, data):
    values = data.draw(input_values(n))
    with tempfile.TemporaryDirectory() as tmp:
        x_path, prog, out = (os.path.join(tmp, f) for f in ("x.json", "p.json", "q.json"))
        with open(x_path, "w", encoding="utf-8") as handle:
            json.dump(values, handle)
        assert main([*program_argv(kind, n), "-o", prog]) == 0
        assert main(["build", x_path, prog, "--lambda-r", repr(lambda_r),
                     "--lambda-c", repr(lambda_c), "-o", out]) == 0
        with open(out, encoding="utf-8") as handle:
            R = np.asarray(PenaltyMatrix(**json.load(handle)["penalty"]))
    Cr, Cc = build_Cr(n), build_Cc(n)
    assert bits(R) == bits(lambda_r * (Cr.T @ Cr) + lambda_c * (Cc.T @ Cc))


# --- the inputs of test_cli's dense-file comparison -------------------------


@pytest.mark.parametrize("n", [8, 24])
def test_heap_input_descends_as_the_reference(n):
    """A default build of default_rng(n).normal(size=n) into a heap, the input
    that test_cli.py::TestQuboFileFormat::test_same_output_as_the_dense_file
    solves from a penalty file and from its dense twins: the library
    takes the reference descent's flips through its states at its energies,
    bit for bit, on the paper's Kronecker build of the same values."""
    x = ValueVector(np.random.default_rng(n).normal(size=n))
    program = make_program("heap", n)
    instance = build_qubo(x, program)
    z, trace = solve_qubo(instance)
    R, r = reference.kronecker_qubo(shifted(x.entries), program, float(n), float(n))
    network, dense_network = library_chain(instance)[2], reference.chain(R, r)[2]
    checked = assert_bitwise_same_descent(network, against=dense_network)
    assert z.tolist() == bipolar_to_binary(replay(checked)[-1]).tolist()
    assert trace.flips == n and bits(trace.energies) == bits(checked.energies)


# --- beyond the dense chain's reach ---------------------------------------


def test_solve_holds_no_state_per_flip_at_n200():
    """The trace keeps one coordinate and one energy per flip: at n = 200
    the call holds well under 1 MB on return, where 200 stored states of
    N = 40000 coordinates would take 8 MB."""
    x = ValueVector(np.random.default_rng(1).normal(size=200))
    network = library_chain(build_qubo(x, make_program("heap", 200)))[2]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state, trace = solve(network)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert trace.flips == 200
    assert held < 1_000_000


def test_the_record_holds_only_flips_and_energies_at_n400():
    """A descent record once also kept its start, N bytes at every n (160 kB
    at n = 400): it now keeps N as a number, and its arrays, the flips and
    the energies, take 8 bytes a flip and 8 more for the start's energy."""
    n = 400
    x = ValueVector(np.random.default_rng(n).normal(size=n))
    network = library_chain(build_qubo(x, make_program("heap", n)))[2]
    _, trace = solve(network)
    assert vars(trace).keys() == {"dimension", "flipped", "energies"}
    assert trace.dimension == n * n and trace.flips == n
    assert trace.flipped.nbytes == 8 * trace.flips
    assert trace.energies.nbytes == 8 * (trace.flips + 1)
    assert not trace.flipped.flags.writeable and not trace.energies.flags.writeable


def gaussian_or_paper_networks(n):
    """(kind, network) for ascending, bst and heap, on the paper's distinct
    integers and on Gaussian values, each drawn first from seed n."""
    for kind in ("ascending", "bst", "heap"):
        for regime in ("paper", "gaussian"):
            x = ValueVector(x_of(regime, n))
            yield kind, library_chain(build_qubo(x, make_program(kind, n)))[2]


def fresh_products(network):
    """solve's state and trace, and the number of times it materializes W,
    the only way to a dense W @ s, as a PenaltyMatrix has no product."""
    with mock.patch.object(
        PenaltyMatrix, "__array__", autospec=True, side_effect=PenaltyMatrix.__array__
    ) as materialized:
        state, trace = solve(network)
    return state, trace, materialized.call_count


def test_no_product_at_n200():
    """Descent reads every field off the row and column counts of its state,
    and forms no W @ s: it never materializes W."""
    for kind, network in gaussian_or_paper_networks(200):
        _, trace, products = fresh_products(network)
        assert trace.flips == 200 and products == 0, kind


def test_no_product_at_n400():
    for kind, network in gaussian_or_paper_networks(400):
        _, trace, products = fresh_products(network)
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
    network = library_chain(build_qubo(x, make_program(kind, n)))[2]
    W, theta = network.weights_W, network.bias_theta
    _, trace = solve(network)
    assert trace.flips == n
    state = np.full(n * n, -1)
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
    network = library_chain(build_qubo(x, make_program("heap", n), lambda_r=lam, lambda_c=lam))[2]
    _, trace, products = fresh_products(network)
    assert trace.flips == n and products == 0
    default = library_chain(build_qubo(x, make_program("heap", n)))[2]
    assert trace.flipped.tolist() == solve(default)[1].flipped.tolist()


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["ascending", "heap"])
@pytest.mark.parametrize("n", [1000, 1200])
def test_gaussian_inputs_at_n1000_and_n1200(n, kind):
    """N = 10^6 and 1.44 * 10^6: no W @ s, and the order certified."""
    x = ValueVector(np.random.default_rng(n).normal(size=n))
    program = make_program(kind, n)
    network = library_chain(build_qubo(x, program))[2]
    state, trace, products = fresh_products(network)
    assert trace.flips == n and products == 0
    z = bipolar_to_binary(state)
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
