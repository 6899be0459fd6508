"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with -s to see the per-criterion lines.  Criterion 4 has an extra
n=4 case behind the slow marker (pytest -m slow).
"""

import itertools
import time

import numpy as np
import pytest

from qperm import (
    OrderProgram,
    ValueVector,
    apply_permutation,
    best_permutation,
    bst_program,
    build_qubo,
    decode_permutation,
    energy,
    heap_program,
    validate_bst,
    validate_heap,
)

from . import reference_run as ref
from .conftest import library_chain, make_program, paper_faithful, run_pipeline
from .reference import (
    binary_to_bipolar,
    build_N,
    dense,
    exhaustive_qubo_min,
    product,
    qubo_objective,
    replay,
    vectorize,
)

KINDS = ("ascending", "bst", "heap")


def report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {number} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} failed: {detail}"


def ordering_objective(x, program, mapping):
    ranks = np.asarray(program.ranks, dtype=float)
    arranged = np.array([x.entries[c] for c in mapping])
    return -float(arranged @ ranks)


def distinct_vector(rng, n, low=5.0, high=100.0):
    while True:
        values = rng.uniform(low, high, size=n)
        if len(np.unique(values)) == n:
            return values


def test_criterion_1_end_to_end_reproduction(reference_x):
    slow = []
    wrong = []
    for kind in KINDS:
        start = time.perf_counter()
        z, _, _ = run_pipeline(reference_x, make_program(kind, 7))
        y = apply_permutation(decode_permutation(z), reference_x).tolist()
        elapsed = time.perf_counter() - start
        if y != ref.EXPECTED_Y[kind]:
            wrong.append(f"{kind}: {y}")
        if elapsed >= 1.0:
            slow.append(f"{kind}: {elapsed:.2f}s")
    report(
        1,
        "end-to-end reproduction of the three arrangements",
        not wrong and not slow,
        "; ".join(wrong + slow),
    )


def test_criterion_2_energy_trace():
    # the frozen energies belong to the paper's route: x scaled by sum(|x|), unshifted
    expected = [-673.5, -689.1, -704.4, -719.4, -734.0, -748.3, -762.4, -776.4]
    scaled = paper_faithful(ref.INPUT_X)
    problems = []
    for kind in KINDS:
        z, trace, _ = run_pipeline(scaled, make_program(kind, 7), normalize=False)
        energies = trace.energies.tolist()
        if len(energies) != 8 or trace.flips != 7:
            problems.append(f"{kind}: {trace.flips} flips, {len(energies)} energies")
            continue
        for t, want in enumerate(expected):
            if abs(energies[t] - want) > 0.05:
                problems.append(f"{kind}: step {t} energy {energies[t]:.4f}")
        if replay(trace)[-1].tobytes() != binary_to_bipolar(z).tobytes():
            problems.append(f"{kind}: the trace does not end at the endpoint")
    report(2, "descent energy trace within 0.05 per step", not problems, "; ".join(problems))


def test_criterion_3_rank_selector_identity():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        M = rng.normal(size=(n, n))
        ranks = tuple(int(v) for v in rng.permutation(n) + 1)
        program = OrderProgram(ranks=ranks, kind="custom", branching=2)
        v = np.asarray(ranks, dtype=float)
        lhs = build_N(program) @ vectorize(M)
        worst = max(worst, float(np.abs(lhs - M.T @ v).max()))
    report(3, "rank selector matches M^T v on 200 random pairs", worst <= 1e-12,
           f"max deviation {worst:.2e}")


def _exhaustive_certification(sizes, trials_per_size, seed):
    rng = np.random.default_rng(seed)
    failures = []
    for n in sizes:
        for trial in range(trials_per_size):
            x = ValueVector(distinct_vector(rng, n))
            for kind in KINDS if n > 1 else ("ascending",):
                program = make_program(kind, n)
                instance = build_qubo(x, program)
                z_min, _ = exhaustive_qubo_min(instance)
                try:
                    p = decode_permutation(np.asarray(z_min, dtype=float))
                except Exception as exc:
                    failures.append(f"n={n} {kind} trial {trial}: infeasible ({exc})")
                    continue
                achieved = ordering_objective(x, program, p.as_mapping)
                _, best_value = best_permutation(x, program)
                if abs(achieved - best_value) > 1e-9:
                    failures.append(
                        f"n={n} {kind} trial {trial}: {achieved} vs {best_value}"
                    )
    return failures


def test_criterion_4_exhaustive_certification():
    failures = _exhaustive_certification(sizes=(2, 3), trials_per_size=20, seed=41)
    report(4, "exhaustive minimizer is the optimal permutation (n=2,3)",
           not failures, "; ".join(failures[:3]))


@pytest.mark.slow
def test_criterion_4_exhaustive_certification_n4():
    failures = _exhaustive_certification(sizes=(4,), trials_per_size=20, seed=42)
    report("4b", "exhaustive minimizer is the optimal permutation (n=4, slow)",
           not failures, "; ".join(failures[:3]))


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(51)
    sizes = itertools.cycle(range(2, 8))
    misses = []
    for kind in KINDS:
        for trial in range(100):
            n = next(sizes)
            values = distinct_vector(rng, n)
            if trial % 3 == 1:
                values[rng.integers(0, n)] *= -1.0
            elif trial % 3 == 2:
                values *= rng.choice([-1.0, 1.0], size=n)
            x = ValueVector(values)
            program = make_program(kind, n)
            _, best_value = best_permutation(x, program)
            z, _, _ = run_pipeline(x, program)
            try:
                mapping = decode_permutation(z).as_mapping
            except Exception as exc:
                misses.append(f"{kind} trial {trial} n={n}: infeasible ({exc})")
                continue
            achieved = ordering_objective(x, program, mapping)
            if abs(achieved - best_value) > 1e-9:
                misses.append(f"{kind} trial {trial} n={n} x={values.tolist()}")
    report(5, "one descent reaches the oracle optimum (300 runs, signed inputs included)",
           not misses, "; ".join(misses[:3]))


def test_criterion_6_structure_validity():
    rng = np.random.default_rng(61)
    problems = []
    for n in range(1, 16):
        values = distinct_vector(rng, n, low=-100.0, high=100.0)
        ordered = np.sort(values)
        bst = bst_program(n)
        y_bst = [float(ordered[r - 1]) for r in bst.ranks]
        if not validate_bst(y_bst):
            problems.append(f"bst n={n}")
        for b in (2, 3):
            heap = heap_program(n, b)
            y_heap = [float(ordered[r - 1]) for r in heap.ranks]
            if not validate_heap(y_heap, b):
                problems.append(f"heap n={n} b={b}")
    report(6, "generated tree programs satisfy their validators (n=1..15)",
           not problems, "; ".join(problems))


def test_criterion_7_conversion_consistency():
    rng = np.random.default_rng(71)
    problems = []
    for n in (2, 3):
        x = ValueVector(distinct_vector(rng, n))
        instance = build_qubo(x, make_program("ascending", n))
        _, ising, network = library_chain(instance)
        N = instance.dimension
        R, r = dense(instance)
        qubo_values, ising_values, hopfield_values = [], [], []
        for bits in itertools.product((0, 1), repeat=N):
            z = np.array(bits, dtype=float)
            s = binary_to_bipolar(z)
            qubo_values.append(qubo_objective(R, r, z))
            ising_values.append(float(product(ising.matrix_Q, s) @ s + ising.vector_q @ s))
            hopfield_values.append(energy(network, s))
        qubo_values = np.array(qubo_values)
        ising_values = np.array(ising_values)
        hopfield_values = np.array(hopfield_values)
        for name, other in (("ising", ising_values), ("hopfield", hopfield_values)):
            gaps = other - qubo_values
            if float(gaps.max() - gaps.min()) > 1e-9:
                problems.append(f"n={n}: {name} gap varies by {gaps.max() - gaps.min():.2e}")
        for name, other in (("ising", ising_values), ("hopfield", hopfield_values)):
            mins_q = set(np.flatnonzero(qubo_values <= qubo_values.min() + 1e-9).tolist())
            mins_o = set(np.flatnonzero(other <= other.min() + 1e-9).tolist())
            if mins_q != mins_o:
                problems.append(f"n={n}: {name} argmin set differs")
    report(7, "energy representations differ only by constants; argmins agree",
           not problems, "; ".join(problems))
