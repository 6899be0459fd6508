"""What the test modules share: the program table, the pipeline helpers and
every input strategy drawn by more than one module.  Test modules import
from here, from reference and from reference_run, never from one another;
the comparators of solve against the reference descent live in reference.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from qperm import (
    HopfieldInstance,
    PenaltyMatrix,
    ValueVector,
    ascending_program,
    bst_program,
    build_qubo,
    descending_program,
    fold_diagonal,
    heap_program,
    solve_qubo,
    to_hopfield,
    to_ising,
)
from qperm.builder import qubo_terms

from . import reference
from . import reference_run as ref


@pytest.fixture
def reference_x():
    return ValueVector(ref.INPUT_X)


def paper_faithful(values):
    """The paper's route for raw values: x scaled by sum(|x|), for build_qubo
    with normalize=False, which leaves out only the shift."""
    values = np.asarray(values, dtype=float)
    return ValueVector(values / np.abs(values).sum())


def shifted(values):
    """The values that qubo_terms makes of x = values by default: shifted
    by their minimum and L1-normalized."""
    x = ValueVector(values)
    return qubo_terms(x, ascending_program(x.n))[1]


@pytest.fixture(params=["ascending", "bst", "heap"])
def program_kind(request):
    return request.param


PROGRAMS = {
    "ascending": ascending_program,
    "descending": descending_program,
    "bst": bst_program,
    "heap": heap_program,
    "heap3": lambda n: heap_program(n, 3),
}


def make_program(kind, n):
    return PROGRAMS[kind](n)


def program_argv(kind, n):
    """The qperm command line that writes make_program(kind, n)."""
    flags = ["--kind", "heap", "--branching", "3"] if kind == "heap3" else ["--kind", kind]
    return ["program", *flags, "--n", str(n)]


def run_pipeline(x, program, max_steps=None, **weights):
    """Build with build_qubo's keywords and descend once; returns
    (binary state, trace, instance)."""
    instance = build_qubo(x, program, **weights)
    return (*solve_qubo(instance, max_steps), instance)


def library_chain(instance):
    """The library's fold -> Ising -> Hopfield; returns the three instances."""
    folded = fold_diagonal(instance)
    ising = to_ising(folded)
    return folded, ising, to_hopfield(ising)


def random_start(N, seed):
    """A seeded bipolar start state of length N."""
    return (np.random.default_rng(seed).integers(0, 2, size=N) * 2 - 1).astype(np.int8)


def x_of(regime, n):
    """n distinct non-negative integers below 10 n (the paper's regime) or n
    Gaussian reals, from default_rng(n)."""
    rng = np.random.default_rng(n)
    if regime == "paper":
        return rng.choice(10 * n, size=n, replace=False).astype(float)
    return rng.standard_normal(n)


def near_float_limit(n):
    """n values of magnitude U(0.1, 1) 1.7e308 and random signs, from
    default_rng(n): their products with the ranks overflow both ways."""
    rng = np.random.default_rng(n)
    return rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 1, n) * 1.7e308


# --- hypothesis strategies ----------------------------------------------------


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
def builder_instances(draw, max_n=12, integer_weights=False, form="qubo"):
    """What build_qubo makes of input_values for every program kind: at the
    default weights, or with normalize on or off at lambda_r and lambda_c
    each in 1..30 or, unless integer_weights, each in [0.05, 30] or both
    in {0.7, 1.1001, 3} * n.  form "qubo" gives the QuboInstance, "network"
    its Hopfield network, "dense" that network materialized as (W, theta),
    and "either" one of the last two."""
    n = draw(st.integers(1, max_n))
    x = ValueVector(draw(input_values(n)))
    weight = st.integers(1, 30).map(float)
    pair = st.tuples(weight, weight)
    if not integer_weights:
        weight = st.one_of(weight, st.floats(0.05, 30.0))
        equal = st.sampled_from((0.7, 1.1001, 3.0)).map(lambda f: (f * n, f * n))
        pair = st.one_of(st.tuples(weight, weight), equal)
    keywords = draw(
        st.one_of(
            st.just({}),
            st.builds(
                lambda lams, flag: dict(lambda_r=lams[0], lambda_c=lams[1], normalize=flag),
                pair,
                st.booleans(),
            ),
        )
    )
    instance = build_qubo(x, make_program(draw(st.sampled_from(sorted(PROGRAMS))), n), **keywords)
    if form == "qubo":
        return instance
    network = library_chain(instance)[2]
    if form == "either":
        form = draw(st.sampled_from(("network", "dense")))
    return reference.dense(network) if form == "dense" else network


# Dyadic (m / 2^k), non-dyadic, and the ends of the float range.
coefficients = st.one_of(
    st.builds(lambda m, k: m / 2**k, st.integers(-(2**30), 2**30), st.integers(0, 60)),
    st.floats(-30.0, 30.0),
    st.sampled_from([5e-324, -5e-324, 1e300, -1e300, 1.7e308]),
)


@st.composite
def input_classes(draw, n):
    """One draw from each input class the default route must handle."""
    style = draw(
        st.sampled_from(
            ("paper", "gaussian", "all_negative", "duplicates", "offset_1e12",
             "offset_1e15", "constant", "mixed_magnitudes")
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if style == "paper":
        return rng.choice(10 * n, size=n, replace=False).astype(float)
    if style == "gaussian":
        return rng.standard_normal(n)
    if style == "all_negative":
        return -rng.uniform(0.5, 100.0, size=n)
    if style == "duplicates":
        return rng.integers(-3, 4, size=n).astype(float)
    if style == "offset_1e12":
        return rng.permutation(n).astype(float) + 1e12
    if style == "offset_1e15":
        return rng.permutation(n).astype(float) + 1e15
    if style == "constant":
        return np.full(n, float(rng.integers(-5, 6)))
    signs = rng.choice([-1.0, 1.0], size=n)
    return signs * 10.0 ** rng.integers(-6, 7, size=n) * rng.uniform(1.0, 9.0, size=n)


def small_network(seed, n=3):
    """A network on an n x n grid with Gaussian weights of either sign and a
    Gaussian theta, so descent meets landscapes no builder makes."""
    rnd = np.random.default_rng(seed)
    W = PenaltyMatrix(n, *rnd.normal(size=2), 0.0)
    return HopfieldInstance(weights_W=W, bias_theta=rnd.normal(size=n * n))


@st.composite
def penalty_networks(draw):
    """Any finite penalty weights and biases, the ends of the float range among them."""
    n = draw(st.integers(1, 5))
    theta = draw(st.lists(coefficients, min_size=n * n, max_size=n * n))
    return HopfieldInstance(PenaltyMatrix(n, draw(coefficients), draw(coefficients), 0.0), theta)


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


def networks():
    """Every network strategy of the descent tests, on the library's PenaltyMatrix."""
    return st.one_of(
        builder_instances(form="network"),
        builder_instances(integer_weights=True, form="network"),
        st.builds(small_network, st.integers(0, 2**32 - 1), st.integers(1, 6)),
        penalty_networks(),
    )
