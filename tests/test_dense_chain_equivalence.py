"""The dense reference chain against the formulas it replaces, and the
library's descent against an earlier, product-form descent.

build_qubo writes R as a PenaltyMatrix and r from an outer product.  These
tests hold both to the paper's Kronecker products (tests/reference.py),
and the library's fold_diagonal to the dense diagonal subtraction.
Descent is held to the product form too: reference.compare_descents runs
descend_two_products, the earlier descent, which recomputes W @ s and the
energy from scratch at every step, through the reference's O(N) product on
a PenaltyMatrix.  It runs on random dense networks, which the reference
descent takes, and on builder networks in both forms: the library's
PenaltyMatrix network and its materialization, which the reference descent
takes, and whose products it forms as the current descents' fields are
formed.  The earlier and the current descents agree in every flip and
state, except that a current one stops before a flip whose correctly
rounded energy fails to fall.  Its energies are float(Fraction(E(s))) at
every state, where the earlier descent's products could miss by a few ulp.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperm import (
    DomainError,
    HopfieldInstance,
    OrderProgram,
    PenaltyMatrix,
    QuboInstance,
    ValueVector,
    build_qubo,
    fold_diagonal,
)
from qperm.builder import qubo_terms

from . import reference
from .conftest import (
    PROGRAMS,
    builder_instances,
    dense_networks,
    input_values,
    library_chain,
    make_program,
    paper_faithful,
    random_start,
)
from .reference import (
    assert_own_budget_suffices,
    bits,
    compare_descents,
    descend_two_products,
    replay,
)


# --- descent --------------------------------------------------------------


class TestDescentMatchesTwoProducts:
    @given(builder_instances(form="either"))
    @settings(max_examples=120, deadline=None)
    def test_builder_instances_from_all_inactive(self, network):
        compare_descents(network)

    @given(builder_instances(form="dense"), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_builder_instances_from_random_starts(self, network, seed):
        """The reference descent, which takes any start, on materialized
        builder networks; solve starts only from the all-inactive state."""
        compare_descents(network, random_start(network[1].size, seed))

    @given(dense_networks(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_dense_networks(self, network, seed):
        compare_descents(network, random_start(network[1].size, seed))

    @given(dense_networks(), st.integers(0, 2**32 - 1), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_step_budget(self, network, seed, budget):
        compare_descents(network, random_start(network[1].size, seed), budget)

    @given(builder_instances(max_n=8, form="network"))
    @settings(max_examples=60, deadline=None)
    def test_solve_runs_one_descent(self, network):
        """solve is one descent from the all-inactive state, the earlier
        descent's at a budget of N*N flips, and a budget of one flip fewer
        than it takes is not enough."""
        N = network.dimension
        state, trace = assert_own_budget_suffices(network)
        assert trace.dimension == N and state.dtype == np.int8
        assert state.tobytes() == replay(trace)[-1].tobytes()
        checked = compare_descents(network, budget=N * N)
        assert trace.flipped.tolist() == checked.flipped.tolist()
        assert bits(trace.energies) == bits(checked.energies)

    def test_exact_tie_after_a_row_update(self):
        """Coordinates 1 and 3 tie at a gain of exactly -0.9 after the first flip.

        A fresh W @ s puts coordinate 3 one ulp lower; the field kept by row
        updates leaves the two equal, which would send the flip to 1.
        """
        x = paper_faithful([-2.0, 2.0])
        instance = build_qubo(
            x, make_program("bst", 2), lambda_r=0.9, lambda_c=0.5, normalize=False
        )
        network = reference.dense(library_chain(instance)[2])
        start = np.full(4, -1, dtype=np.int8)
        _, trace = reference.descend(*network, start, 16)
        assert trace.flipped.tolist() == [2, 3]
        compare_descents(network, start)

    @pytest.mark.parametrize(
        "upper, theta, start, flips, earlier_raises",
        [
            # the earlier descent converges after 5 flips
            (
                [0.3, -0.3, -0.1, -0.3, 0.2, 0.2, 0.3, -0.1, 0.2, -0.3],
                [0.2, 0.2, 0.2, -0.1, -0.1],
                [-1, 1, 1, -1, -1],
                [4, 1, 2, 3, 4],
                False,
            ),
            # after flipping coordinate 2 the earlier descent's energies show no fall
            # at the next flip and its trace rejects it; the flip lowers E by
            # 10 * 2^-55, which the correctly rounded energies show, and the current
            # descent goes on to a stable state two flips further
            ([-0.7, 0.2, -0.1], [-0.1, 0.2, -0.7], [-1, 1, -1], [2, 1, 0], True),
        ],
    )
    def test_flips_with_gain_near_zero(self, upper, theta, start, flips, earlier_raises):
        """Gains near 0, where rounded energies decide whether a flip stands."""
        N = len(theta)
        W = np.zeros((N, N))
        W[np.triu_indices(N, 1)] = upper
        network = W + W.T, np.array(theta) * 3
        start = np.array(start, dtype=np.int8)
        assert compare_descents(network, start).flipped.tolist() == flips
        if earlier_raises:
            with pytest.raises(DomainError):
                descend_two_products(*network, start, N * N, [])


    def test_gains_beyond_the_float_range_tie(self):
        """Half gains of -1e308 and -1.5e308 double to gains of -inf, which tie,
        so descent flips the lower index, as the earlier descent does; the
        energies, 1.5e308 and then -0.5e308, stay in range."""
        W = np.array([[0.0, -1e308], [-1e308, 0.0]])
        trace = compare_descents((W, np.array([0.0, 0.5e308])), np.array([1, 1], dtype=np.int8))
        assert trace.flipped.tolist() == [0]
        assert trace.energies.tolist() == [1.5e308, -0.5e308]

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("c", [5e-324, -5e-324, 1e300, -1e300, 1.7e308])
    def test_penalty_at_the_ends_of_the_float_range(self, n, c):
        """PenaltyMatrix(n, c, -c/2, 0) with theta of c's size: descent takes the
        earlier descent's flips with correctly rounded energies, or names an
        energy beyond the float range."""
        N = n * n
        theta = np.random.default_rng(n).uniform(-1.0, 1.0, size=N) * c
        network = HopfieldInstance(PenaltyMatrix(n, c, -c / 2, 0.0), theta)
        compare_descents(network)


# --- builder and fold -----------------------------------------------------


class TestInPlaceMatrices:
    @given(
        st.integers(1, 12),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
        st.sampled_from(sorted(PROGRAMS) + ["custom"]),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_R_matches_kronecker_products(self, n, lambda_r, lambda_c, kind, normalize, data):
        x = ValueVector(data.draw(input_values(n)))
        if kind == "custom":
            ranks = data.draw(st.permutations(range(1, n + 1)))
            program = OrderProgram(ranks=tuple(ranks), kind="custom")
        else:
            program = make_program(kind, n)
        instance = build_qubo(
            x, program, lambda_r=lambda_r, lambda_c=lambda_c, normalize=normalize
        )
        v = qubo_terms(x, program, lambda_r, lambda_c, normalize)[1]
        R, r = reference.kronecker_qubo(v, program, lambda_r, lambda_c)
        assert bits(instance.matrix_R) == bits(R)
        assert bits(instance.vector_r) == bits(r)

    @given(st.integers(1, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_fold_matches_diagonal_subtraction(self, n, seed):
        rnd = np.random.default_rng(seed)
        coefficients = rnd.normal(size=3) * rnd.choice([1e-3, 1.0, 1e6])
        coefficients[rnd.random(3) < 0.3] = 0.0
        instance = QuboInstance(PenaltyMatrix(n, *coefficients), rnd.normal(size=n * n))
        R = np.asarray(instance.matrix_R)
        folded = fold_diagonal(instance)
        assert bits(folded.matrix_R) == bits(R - np.diag(np.diag(R)))
        assert bits(folded.vector_r) == bits(instance.vector_r + np.diag(R))

    def test_builder_output_stays_read_only_downstream(self):
        x = ValueVector([3.0, 1.0, 2.0])
        instance = build_qubo(x, make_program("heap", 3))
        for stage in (instance, *library_chain(instance)):
            matrix, vector = vars(stage).values()
            assert not vector.flags.writeable and vector.flags.owndata
            with pytest.raises(dataclasses.FrozenInstanceError):
                matrix.same_row = 0.0
