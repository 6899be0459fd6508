from fractions import Fraction

import numpy as np
import pytest

from qperm import (
    HopfieldInstance,
    QuboInstance,
    ValueVector,
    ascending_program,
    bst_program,
    build_qubo,
    heap_program,
    solve_qubo,
)

from . import reference_run as ref


@pytest.fixture
def reference_x():
    return ValueVector(ref.INPUT_X)


def paper_faithful(values):
    """The paper's route for raw values: x scaled by sum(|x|), for build_qubo
    with normalize=False, which leaves out only the shift."""
    values = np.asarray(values, dtype=float)
    return ValueVector(values / np.abs(values).sum())


@pytest.fixture(params=["ascending", "bst", "heap"])
def program_kind(request):
    return request.param


def make_program(kind, n):
    if kind == "ascending":
        return ascending_program(n)
    if kind == "bst":
        return bst_program(n)
    if kind == "heap":
        return heap_program(n)
    raise ValueError(kind)


def run_pipeline(x, program, max_steps=None, **weights):
    """Build with build_qubo's keywords and descend once; returns
    (binary state, trace, instance)."""
    instance = build_qubo(x, program, **weights)
    return (*solve_qubo(instance, max_steps), instance)


def dense_qubo(instance):
    """The same QUBO with its penalty materialized, for the dense chain."""
    return QuboInstance(matrix_R=np.asarray(instance.matrix_R), vector_r=instance.vector_r)


def materialized(network):
    """The same network with dense weights, which solve descends with _descend."""
    return HopfieldInstance(weights_W=np.asarray(network.weights_W), bias_theta=network.bias_theta)


def random_start(N, seed):
    """A seeded bipolar start state of length N."""
    return (np.random.default_rng(seed).integers(0, 2, size=N) * 2 - 1).astype(np.int8)


def exact_sum(values) -> Fraction:
    """The sum of an array of floats, in exact arithmetic."""
    ratios = [v.as_integer_ratio() for v in np.ravel(values).tolist()]
    scale = max(q for _, q in ratios)  # every denominator is a power of two
    return Fraction(sum(p * (scale // q) for p, q in ratios), scale)


def fraction_energy(network, s) -> Fraction:
    """E(s) = -1/2 s^T W s + theta^T s in exact arithmetic, from every entry of W."""
    s = np.asarray(s, dtype=float)
    products = np.outer(s, s) * np.asarray(network.weights_W)  # exact: s is bipolar
    return exact_sum(network.bias_theta * s) - exact_sum(products) / 2


def fraction_energies(network, states) -> list[float]:
    """float(Fraction(E(s))) for each of states, consecutive ones equal or one
    flip apart: E of the first from every entry of W, and flipping s_i to s'_i
    adds 2 s'_i (theta_i - (W s)_i) exactly, since W_ii = 0."""
    W = np.asarray(network.weights_W)
    states = [np.asarray(state, dtype=float) for state in states]
    E = fraction_energy(network, states[0])
    energies = [float(E)]
    for before, after in zip(states, states[1:]):
        for i in np.flatnonzero(before != after).tolist():  # at most one
            E += 2 * int(after[i]) * (Fraction(network.bias_theta[i]) - exact_sum(W[i] * before))
        energies.append(float(E))
    return energies
