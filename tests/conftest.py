import numpy as np
import pytest

from qperm import (
    BuilderConfig,
    HopfieldInstance,
    QuboInstance,
    ValueVector,
    ascending_program,
    bipolar_to_binary,
    bst_program,
    build_qubo,
    fold_diagonal,
    heap_program,
    solve,
    to_hopfield,
    to_ising,
)

from . import reference_run as ref


@pytest.fixture
def reference_x():
    return ValueVector(ref.INPUT_X)


def paper_faithful(values, lambda_r=None, lambda_c=None):
    """The paper's route for raw values: x scaled by sum(|x|), built unshifted.

    Returns (ValueVector, BuilderConfig) for build_qubo.  Penalties default
    to n, as in the default route; only the shift is left out.
    """
    values = np.asarray(values, dtype=float)
    n = float(values.size)
    config = BuilderConfig(
        lambda_r=n if lambda_r is None else lambda_r,
        lambda_c=n if lambda_c is None else lambda_c,
        normalize=False,
    )
    return ValueVector(values / np.abs(values).sum()), config


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


def run_pipeline(x, program, max_steps=None, builder_config=None):
    """Build, convert, and descend once; returns (binary state, trace, instance)."""
    instance = build_qubo(x, program, builder_config)
    network = to_hopfield(to_ising(fold_diagonal(instance)))
    state, trace = solve(network, max_steps)
    return bipolar_to_binary(state), trace, instance


def dense_qubo(instance):
    """The same QUBO with its penalty materialized, for the dense chain."""
    return QuboInstance(matrix_R=np.asarray(instance.matrix_R), vector_r=instance.vector_r)


def materialized(network):
    """The same network with dense weights, which solve descends with _descend."""
    return HopfieldInstance(weights_W=np.asarray(network.weights_W), bias_theta=network.bias_theta)


def random_start(N, seed):
    """A seeded bipolar start state of length N."""
    return (np.random.default_rng(seed).integers(0, 2, size=N) * 2 - 1).astype(np.int8)
