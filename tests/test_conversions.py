import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qperm import (
    DomainError,
    IsingInstance,
    PenaltyMatrix,
    QuboInstance,
    ValueVector,
    ascending_program,
    bipolar_to_binary,
    build_qubo,
    fold_diagonal,
    heap_program,
    to_hopfield,
    to_ising,
)

from . import reference
from .conftest import library_chain
from .reference import binary_to_bipolar, bits, dense, product, qubo_objective


def sorting_instance(values):
    x = ValueVector(values)
    return build_qubo(x, ascending_program(x.n))


def all_binary_states(N):
    return (np.array(bits, dtype=float) for bits in itertools.product((0, 1), repeat=N))


class TestFoldDiagonal:
    def test_zero_diagonal_unchanged(self):
        R = PenaltyMatrix(2, 1.0, 2.0, 0.0)
        inst = QuboInstance(matrix_R=R, vector_r=np.array([2.0, 3.0, -1.0, 0.0]))
        folded = fold_diagonal(inst)
        assert folded.matrix_R == inst.matrix_R
        assert np.array_equal(folded.vector_r, inst.vector_r)

    def test_sorting_instance_diagonal_moves_to_linear(self):
        inst = sorting_instance([46.0, 52.0, -12.0, 33.0, 10.0, 51.0, 24.0])
        assert np.allclose(np.diag(inst.matrix_R), 14.0)
        folded = fold_diagonal(inst)
        assert np.allclose(np.diag(folded.matrix_R), 0.0)
        assert np.allclose(folded.vector_r, inst.vector_r + 14.0)

    def test_objective_preserved_on_binary_states(self):
        inst = sorting_instance([3.0, -1.0, 2.0])
        folded = fold_diagonal(inst)
        rnd = np.random.default_rng(11)
        for _ in range(200):
            z = rnd.integers(0, 2, size=9).astype(float)
            assert qubo_objective(*dense(folded), z) == pytest.approx(
                qubo_objective(*dense(inst), z), abs=1e-9
            )


class TestToIsing:
    def test_rejects_nonzero_diagonal(self):
        inst = sorting_instance([3.0, 1.0])
        with pytest.raises(DomainError):
            to_ising(inst)

    def test_zero_maps_to_zero(self):
        inst = QuboInstance(matrix_R=PenaltyMatrix(2, 0.0, 0.0, 0.0), vector_r=np.zeros(4))
        ising = to_ising(inst)
        assert np.array_equal(ising.matrix_Q, np.zeros((4, 4)))
        assert np.array_equal(ising.vector_q, np.zeros(4))

    def test_coefficients(self):
        folded = fold_diagonal(sorting_instance([3.0, 1.0]))
        ising = to_ising(folded)
        R = np.asarray(folded.matrix_R)
        assert bits(ising.matrix_Q) == bits(R / 4.0)
        assert bits(ising.vector_q) == bits(0.5 * (R @ np.ones(4)) + 0.5 * folded.vector_r)

    def test_gap_is_state_independent(self):
        folded = fold_diagonal(sorting_instance([3.0, -1.0, 2.0]))
        ising = to_ising(folded)
        gaps = set()
        for z in all_binary_states(9):
            s = binary_to_bipolar(z)
            ising_value = float(product(ising.matrix_Q, s) @ s + ising.vector_q @ s)
            gaps.add(round(ising_value - qubo_objective(*dense(folded), z), 9))
        assert len(gaps) == 1


class TestToHopfield:
    def test_zero_maps_to_zero(self):
        ising = to_ising(
            QuboInstance(matrix_R=PenaltyMatrix(2, 0.0, 0.0, 0.0), vector_r=np.zeros(4))
        )
        network = to_hopfield(ising)
        assert np.array_equal(network.weights_W, np.zeros((4, 4)))
        assert np.array_equal(network.bias_theta, np.zeros(4))

    def test_energy_identity_with_ising(self):
        folded = fold_diagonal(sorting_instance([5.0, -2.0, 7.0]))
        ising = to_ising(folded)
        network = to_hopfield(ising)
        assert bits(network.weights_W) == bits(-2.0 * np.asarray(ising.matrix_Q))
        assert bits(network.bias_theta) == bits(ising.vector_q)
        W, theta = dense(network)
        rnd = np.random.default_rng(5)
        for _ in range(100):
            s = (rnd.integers(0, 2, size=9) * 2 - 1).astype(float)
            ising_value = float(product(ising.matrix_Q, s) @ s + ising.vector_q @ s)
            assert reference.energy(W, theta, s) == pytest.approx(ising_value, abs=1e-12)


class TestHopsKeepWhatTheyForm:
    """Each hop hands its instance the vector it has just formed, read-only
    and uncopied; to_hopfield forms none."""

    def test_only_to_hopfield_shares_its_input_vector(self):
        instance = sorting_instance([3.0, 1.0, 2.0])
        folded = fold_diagonal(instance)
        ising = to_ising(folded)
        assert not np.shares_memory(folded.vector_r, instance.vector_r)
        assert not np.shares_memory(ising.vector_q, folded.vector_r)
        assert to_hopfield(ising).bias_theta is ising.vector_q

    def test_each_hop_holds_one_vector_at_n2000(self):
        """build_qubo, fold_diagonal and to_ising each hold one N-vector and
        the N bools of its finiteness check above their input, and
        to_hopfield no vector: each of the three once held a second
        N-vector, and to_hopfield a copy of theta."""
        n = 2000
        x = ValueVector(np.random.default_rng(n).normal(size=n))
        program = heap_program(n)
        steps = (lambda _: build_qubo(x, program), fold_diagonal, to_ising, to_hopfield)
        peaks, value = [], None
        tracemalloc.start()
        try:
            for step in steps:
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                value = step(value)
                peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
        N = n * n
        assert all(peak < 9 * N + 2**16 for peak in peaks[:3]), peaks
        assert peaks[3] < 2**20, peaks


finite = st.floats(allow_nan=False, allow_infinity=False)
edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308])


class TestEachStageWritesItsCoefficients:
    """Each hop writes the next PenaltyMatrix from the last one's three
    numbers; every stage is its dense hop, byte for byte."""

    @given(
        st.integers(1, 8),
        st.one_of(edges, finite),
        st.one_of(edges, finite),
        st.one_of(st.sampled_from([0.0, -0.0]), edges, finite),
        st.data(),
    )
    @example(2, 1.7e308, 1.7e308, 0.0, None)  # the row sum overflows
    @example(2, 2.0**-53 + 2.0**-80, -1.0, 0.0, None)  # the order of the sum shows
    @settings(max_examples=300, deadline=None)
    def test_the_chain_is_the_dense_chain(self, n, same_row, same_col, self_coupling, data):
        """Where the dense hops call for a refusal, the same DomainError
        comes, with the same message.  An example without data takes a
        Gaussian r."""
        R = PenaltyMatrix(n, same_row, same_col, self_coupling)
        r = np.random.default_rng(n).normal(size=n * n) if data is None else np.array(
            data.draw(st.lists(st.one_of(edges, finite), min_size=n * n, max_size=n * n))
        )
        instance = QuboInstance(R, r)
        if self_coupling != 0.0:
            with pytest.raises(DomainError) as raised:
                to_ising(instance)
            assert str(raised.value) == "fold_diagonal must run before the bipolar substitution"
            return
        with np.errstate(over="ignore", invalid="ignore"):
            q = 0.5 * product(R, np.ones(n * n)) + 0.5 * r
        if not np.isfinite(q).all():
            with pytest.raises(DomainError) as raised:
                to_ising(instance)
            assert str(raised.value) == "vector_q must be finite"
            return
        ising = to_ising(instance)
        assert bits(ising.matrix_Q) == bits(np.asarray(R) / 4.0)
        assert bits(ising.vector_q) == bits(q)
        network = to_hopfield(ising)
        assert bits(network.weights_W) == bits(-2.0 * np.asarray(ising.matrix_Q))
        assert bits(network.bias_theta) == bits(q)

    @pytest.mark.parametrize("self_coupling", [5e-324, -5e-324])
    def test_a_subnormal_diagonal_is_refused_on_R(self, self_coupling):
        """Divided by 4 it is 0, so only the check on R refuses it."""
        assert self_coupling / 4.0 == 0.0
        R = PenaltyMatrix(2, 1.0, 1.0, self_coupling)
        with pytest.raises(DomainError, match="^fold_diagonal must run before the bipolar"):
            to_ising(QuboInstance(R, np.zeros(4)))

    @given(st.integers(1, 6), st.one_of(edges, finite), st.one_of(edges, finite),
           st.sampled_from([0.0, -0.0]))
    @settings(max_examples=200, deadline=None)
    def test_hopfield_weights_are_minus_two_q(self, n, same_row, same_col, zero):
        """A Q written directly may be too large to double: the first
        coefficient that overflows is named, as PenaltyMatrix names it."""
        Q = PenaltyMatrix(n, same_row, same_col, zero)
        ising = IsingInstance(Q, np.zeros(n * n))
        overflows = [name for name, c in (("same_row", same_row), ("same_col", same_col))
                     if not math.isfinite(-2.0 * c)]
        if overflows:
            with pytest.raises(DomainError) as raised:
                to_hopfield(ising)
            assert str(raised.value) == f"{overflows[0]} must be finite"
        else:
            assert bits(to_hopfield(ising).weights_W) == bits(-2.0 * np.asarray(Q))


class TestStateConversions:
    def test_binary_to_bipolar(self):
        assert binary_to_bipolar([0, 1]).tolist() == [-1, 1]

    def test_bipolar_to_binary(self):
        assert bipolar_to_binary([-1, -1]).tolist() == [0, 0]

    @pytest.mark.parametrize("s", [[0, 1], [-1, 2], [1.5, -1], [np.nan, 1]])
    def test_out_of_alphabet_rejected(self, s):
        with pytest.raises(DomainError):
            bipolar_to_binary(s)

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_round_trip(self, bits):
        z = np.array(bits)
        assert np.array_equal(bipolar_to_binary(binary_to_bipolar(z)), z)
        s = binary_to_bipolar(z)
        assert np.array_equal(binary_to_bipolar(bipolar_to_binary(s)), s)


class TestEndToEndMinimizers:
    @pytest.mark.parametrize("values", [[3.0, 1.0], [3.0, 1.0, 2.0]])
    def test_argmin_agrees_across_representations(self, values):
        inst = sorting_instance(values)
        network = library_chain(inst)[2]
        N = inst.dimension
        W, theta = dense(network)
        best_q, best_h = None, None
        for z in all_binary_states(N):
            qv = qubo_objective(*dense(inst), z)
            hv = reference.energy(W, theta, binary_to_bipolar(z))
            if best_q is None or qv < best_q[0] - 1e-12:
                best_q = (qv, tuple(z))
            if best_h is None or hv < best_h[0] - 1e-12:
                best_h = (hv, tuple(z))
        assert best_q[1] == best_h[1]
