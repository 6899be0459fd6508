import numpy as np
import pytest

from qperm import (
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


def random_start(N, seed):
    """A seeded bipolar start state of length N."""
    return (np.random.default_rng(seed).integers(0, 2, size=N) * 2 - 1).astype(np.int8)
