"""The dense reference chain against the formulas it replaces, and the
library's descent against an earlier, product-form descent.

build_qubo writes R as a PenaltyMatrix and r from an outer product.  These
tests hold both to the paper's Kronecker products (tests/reference.py),
and the library's fold_diagonal to the dense diagonal subtraction.
Descent is held to the product form too: _descend_two_products, the
earlier descent with its loop copied verbatim but for its budget check and
its products, recomputes W @ s and the energy from scratch at every step,
through the reference's O(N) product on a PenaltyMatrix; it appends
each row it builds to a list the caller holds, the row it would flip to
past its budget included, and packages them as a SolverTrace only on
return.
It runs on random dense networks, which the reference descent takes, and
on builder networks in both forms: the library's PenaltyMatrix network
and its materialization, which the reference descent takes, and whose
products it forms as the current descents' fields are formed.  The
earlier and the current descents agree in every flip and state, except
that a current one stops before a flip whose correctly rounded energy
fails to fall.  Its energies are float(Fraction(E(s))) at every state,
where the earlier descent's products could miss by a few ulp.
"""

import dataclasses
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperm import (
    DomainError,
    HopfieldInstance,
    MaxStepsExceeded,
    OrderProgram,
    PenaltyMatrix,
    QuboInstance,
    SolverTrace,
    ValueVector,
    build_qubo,
    fold_diagonal,
    solve,
    to_hopfield,
    to_ising,
)

from . import reference
from .conftest import make_program, paper_faithful, random_start


# A row of the earlier descent; unlike a TraceStep it keeps an energy that
# overflowed its products, so the states of such a run can be compared.
Row = namedtuple("Row", "index state energy")


def _descend_two_products(
    W, theta: np.ndarray, start: np.ndarray, budget: int, steps: list
) -> tuple[np.ndarray, SolverTrace]:
    left, right = _products(W)
    s = start.astype(float)
    e = float(-0.5 * (left(s) @ s) + theta @ s)
    steps.append(Row(0, start, e))
    flips = 0
    while True:
        gains = 2.0 * s * (right(s) - theta)
        i = int(np.argmin(gains))  # ties: lowest index
        if gains[i] >= 0.0:
            final = s.astype(np.int8)
            steps.append(Row(len(steps), final, e))
            return final, _packaged(steps)
        s[i] = -s[i]
        e = float(-0.5 * (left(s) @ s) + theta @ s)
        steps.append(Row(len(steps), s.astype(np.int8), e))
        if flips >= budget:  # the row it would flip to next is kept
            raise MaxStepsExceeded(f"no stable state within {budget} flips")
        flips += 1


def _products(W) -> tuple:
    """s @ W and W @ s, as functions of s, for a dense W or a PenaltyMatrix."""
    if isinstance(W, PenaltyMatrix):
        return (lambda s: reference.product(W, s),) * 2
    return (lambda s: s @ W), (lambda s: W @ s)


def _packaged(steps: list) -> SolverTrace:
    """The rows of a descent, the last repeating its predecessor, as a SolverTrace."""
    flipped = []
    for before, after in zip(steps[:-2], steps[1:-1]):
        (i,) = np.flatnonzero(before.state != after.state)  # exactly one flip per row
        flipped.append(int(i))
    return SolverTrace(steps[0].state, flipped, [step.energy for step in steps[:-1]])


def size(network) -> int:
    """N, for a library network or a dense (W, theta) pair."""
    theta = network.bias_theta if isinstance(network, HopfieldInstance) else network[1]
    return theta.size


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def hexes(energies) -> list[str]:
    return [float(e).hex() for e in energies]


def compare_descents(network, start=None, budget=None):
    """The current descent takes the earlier one's flips and stops before the
    first flip whose correctly rounded energy fails to fall; its energies are
    float(Fraction(E(s))), and one beyond the float range at either end of
    the run is named.

    network is a library HopfieldInstance, which solve takes, or a dense
    (W, theta) pair, which the reference descent takes.  solve descends from
    the all-inactive state, the start when start is None; only the reference
    descent takes another.  The earlier descent takes a flip whose true gain
    is 0 when that gain rounds negative, and one whose true decrease is
    below half an ulp of the energy.  Runs without such a flip are the
    same, or both raise MaxStepsExceeded.  Past its budget the earlier
    descent keeps the row it would flip to, so a current descent whose
    budget runs out right before a flip it rejects stops there and does not
    raise.  Returns the trace of the current descent, or None when it
    raises.
    """
    N = size(network)
    start = np.full(N, -1, dtype=np.int8) if start is None else start
    budget = N * N if budget is None else budget
    library = isinstance(network, HopfieldInstance)
    assert not library or (start == -1).all()
    # the earlier descent forms its products on the form the current one takes
    products, theta = (network.weights_W, network.bias_theta) if library else network
    W = np.asarray(products)

    def current():
        if library:
            return solve(network, budget)
        return reference.descend(W, theta, start, budget)

    old_steps = []  # every row the earlier descent builds, kept even when it raises
    exhausted = False
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # its energies name an overflow
            _descend_two_products(products, theta, start, budget, old_steps)
    except MaxStepsExceeded:
        exhausted = True
    except DomainError:  # its own energies failed to fall; the states are what count
        pass
    states = [step.state for step in old_steps]
    energies = reference.fraction_energies(W, theta, states)
    rejected = next(
        (
            k
            for k in range(1, len(states))
            if not energies[k] < energies[k - 1] and not np.array_equal(states[k], states[k - 1])
        ),
        None,
    )
    if rejected is None and exhausted:
        with pytest.raises(MaxStepsExceeded):
            current()
        return None
    # Without a rejected flip, the rows are all but the repeated endpoint.
    kept = len(states) - 1 if rejected is None else rejected
    if not np.isfinite([energies[0], energies[kept - 1]]).all():
        with pytest.raises(DomainError, match="overflows the float range"):
            current()
        return None
    state, trace = current()
    assert trace.flips == kept - 1
    assert len(trace.steps) == kept + 1
    for step, old_state in zip(trace.steps, states[:kept]):
        assert np.array_equal(step.state, old_state)
    assert np.array_equal(state, states[kept - 1])
    assert hexes(trace.energies) == hexes(energies[:kept])
    return trace


# --- inputs ---------------------------------------------------------------

KINDS = ("ascending", "bst", "heap")


@st.composite
def input_values(draw, n):
    style = draw(st.sampled_from(("integer", "duplicate", "signed")))
    if style == "integer":
        vals = draw(st.lists(st.integers(0, 10 * n), min_size=n, max_size=n, unique=True))
    elif style == "duplicate":
        vals = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    else:
        vals = draw(
            st.lists(
                st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            )
        )
    return [float(v) for v in vals]


@st.composite
def builder_networks(draw, max_n=12, materialize=True):
    """Builder networks as the library's PenaltyMatrix network or, if
    materialize, its dense (W, theta), at the default weights, at lambda in
    {0.7, 1.1001, 3} * n, or at any weights."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(KINDS))
    x = ValueVector(draw(input_values(n)))
    factor = st.sampled_from((0.7, 1.1001, 3.0)).map(lambda f: f * n)
    weights = draw(
        st.one_of(
            st.just({}),
            st.builds(
                lambda lam, flag: dict(lambda_r=lam, lambda_c=lam, normalize=flag),
                factor,
                st.booleans(),
            ),
            st.fixed_dictionaries(
                dict(
                    lambda_r=st.floats(0.05, 30.0),
                    lambda_c=st.floats(0.05, 30.0),
                    normalize=st.booleans(),
                )
            ),
        )
    )
    instance = build_qubo(x, make_program(kind, n), **weights)
    network = to_hopfield(to_ising(fold_diagonal(instance)))
    return reference.dense(network) if materialize and draw(st.booleans()) else network


def _materialized(network):
    """A builder network as its dense (W, theta) pair."""
    return reference.dense(network) if isinstance(network, HopfieldInstance) else network


@st.composite
def dense_networks(draw):
    """Random symmetric networks; coarse value sets make exact and rounded ties common."""
    N = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    style = draw(st.sampled_from(("gaussian", "integer", "coarse")))
    rnd = np.random.default_rng(seed)
    if style == "gaussian":
        W, theta = rnd.normal(size=(N, N)), rnd.normal(size=N)
    elif style == "integer":
        W, theta = rnd.integers(-2, 3, size=(N, N)), rnd.integers(-3, 4, size=N)
    else:
        levels = np.array([-0.7, -0.3, -0.1, 0.1, 0.2, 0.3])
        W, theta = rnd.choice(levels, size=(N, N)), rnd.choice(levels, size=N) * 3
    W = np.triu(W.astype(float), 1)
    return W + W.T, theta.astype(float)


# --- descent --------------------------------------------------------------


class TestDescentMatchesTwoProducts:
    @given(builder_networks())
    @settings(max_examples=120, deadline=None)
    def test_builder_instances_from_all_inactive(self, network):
        compare_descents(network)

    @given(builder_networks().map(_materialized), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_builder_instances_from_random_starts(self, network, seed):
        """The reference descent, which takes any start, on materialized
        builder networks; solve starts only from the all-inactive state."""
        compare_descents(network, random_start(size(network), seed))

    @given(dense_networks(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_dense_networks(self, network, seed):
        compare_descents(network, random_start(size(network), seed))

    @given(dense_networks(), st.integers(0, 2**32 - 1), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_step_budget(self, network, seed, budget):
        compare_descents(network, random_start(size(network), seed), budget)

    @given(builder_networks(max_n=8, materialize=False))
    @settings(max_examples=60, deadline=None)
    def test_solve_runs_one_descent(self, network):
        """solve is one descent from the all-inactive state, the earlier
        descent's at a budget of N*N flips, and a budget of one flip fewer
        than it takes is not enough."""
        N = network.dimension
        state, trace = solve(network)
        assert np.array_equal(trace.start, np.full(N, -1, dtype=np.int8))
        assert state.dtype == trace.start.dtype == np.int8 and not trace.start.flags.writeable
        assert np.array_equal(state, trace.final_state)
        checked = compare_descents(network, budget=N * N)
        assert trace.flipped.tolist() == checked.flipped.tolist()
        assert bits(trace.energies) == bits(checked.energies)
        if trace.flips:
            with pytest.raises(MaxStepsExceeded):
                solve(network, trace.flips - 1)

    def test_exact_tie_after_a_row_update(self):
        """Coordinates 1 and 3 tie at a gain of exactly -0.9 after the first flip.

        A fresh W @ s puts coordinate 3 one ulp lower; the field kept by row
        updates leaves the two equal, which would send the flip to 1.
        """
        x = paper_faithful([-2.0, 2.0])
        instance = build_qubo(
            x, make_program("bst", 2), lambda_r=0.9, lambda_c=0.5, normalize=False
        )
        network = reference.dense(to_hopfield(to_ising(fold_diagonal(instance))))
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
                _descend_two_products(*network, start, N * N, [])


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
        st.sampled_from(KINDS + ("custom",)),
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
        v = x.normalized_entries if normalize else x.entries
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
        folded = fold_diagonal(instance)
        ising = to_ising(folded)
        for stage in (instance, folded, ising, to_hopfield(ising)):
            matrix, vector = vars(stage).values()
            assert not vector.flags.writeable and vector.flags.owndata
            with pytest.raises(dataclasses.FrozenInstanceError):
                matrix.same_row = 0.0
