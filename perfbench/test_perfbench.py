"""Tests of the benchmark's own pieces: the sort oracle, the workloads and tracing.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qperm
from perfbench import sort_oracle
from perfbench.run import COUNT_INSTANCES, instance_count, run_loop
from perfbench.tracing import PER_LAYER, Span, Tracer, per_layer_metrics
from perfbench.workloads import BuildSolveCli, DenseChain, VerifyCli, make_cases
from tests import reference_run as ref

ROOT = Path(__file__).resolve().parent.parent


def _programs(n, rng):
    yield qperm.ascending_program(n)
    yield qperm.descending_program(n)
    yield qperm.bst_program(n)
    yield qperm.heap_program(n)
    yield qperm.heap_program(n, 3)
    yield qperm.OrderProgram(tuple(int(r) for r in rng.permutation(n) + 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_sort_oracle_matches_enumeration(n):
    rng = np.random.default_rng(n)
    draws = 2 if n == 8 else 6
    for _ in range(draws):
        for x in (rng.standard_normal(n), rng.integers(-3, 4, size=n).astype(float),
                  rng.choice(10 * n, size=n, replace=False).astype(float)):
            for program in _programs(n, rng):
                _, best = qperm.best_permutation(qperm.ValueVector(x), program)
                ours = sort_oracle.optimum(x, program.ranks)
                assert ours == pytest.approx(best, rel=1e-12, abs=1e-12)
                y = sort_oracle.optimal_arrangement(x, program.ranks)
                assert sort_oracle.is_optimal(y, x, program.ranks)


@pytest.mark.parametrize("kind", sorted(ref.RANKS))
def test_sort_oracle_reproduces_reference_run(kind):
    y = sort_oracle.optimal_arrangement(ref.INPUT_X, ref.RANKS[kind])
    assert y.tolist() == ref.EXPECTED_Y[kind]
    assert sort_oracle.is_optimal(ref.EXPECTED_Y[kind], ref.INPUT_X, ref.RANKS[kind])


def test_decode_mapping_matches_library_convention():
    mapping = ref.EXPECTED_MAPPING["ascending"]
    n = len(mapping)
    P = np.zeros((n, n), dtype=int)
    P[np.arange(n), mapping] = 1
    z = P.ravel(order="F")
    assert tuple(sort_oracle.decode_mapping(z)) == qperm.decode_permutation(z).as_mapping
    assert np.asarray(ref.INPUT_X)[sort_oracle.decode_mapping(z)].tolist() == \
        ref.EXPECTED_Y["ascending"]
    z[0] = 1 - z[0]
    assert sort_oracle.decode_mapping(z) is None
    assert sort_oracle.decode_mapping(np.zeros(5)) is None


def test_is_optimal_rejects_wrong_arrangements():
    x = np.array([3.0, -1.0, 2.0])
    ranks = (1, 2, 3)
    assert sort_oracle.is_optimal([-1.0, 2.0, 3.0], x, ranks)
    assert not sort_oracle.is_optimal([2.0, -1.0, 3.0], x, ranks)
    assert not sort_oracle.is_optimal([-1.0, 2.0, 4.0], x, ranks)


class SmallDense(DenseChain):
    n = 6


@pytest.mark.parametrize("workload_type", [SmallDense, VerifyCli, BuildSolveCli])
def test_workloads_check_every_instance(workload_type, tmp_path, monkeypatch):
    monkeypatch.setattr(qperm.cli, "certify", qperm.cli.certify)  # restored after the test
    workload = workload_type()
    cases = make_cases(workload.n, 6, seed=3, work_dir=str(tmp_path))
    workload.prepare(str(tmp_path))
    _, outcomes, _, _ = run_loop(workload, cases)
    assert len(outcomes) == 6
    assert all(o.consistent for o in outcomes), [o.note for o in outcomes]
    assert all(o.optimal for o, c in zip(outcomes, cases) if not c.signed)


def test_instance_count_depends_only_on_rate_and_seconds():
    assert instance_count(3, 30) == 90
    assert instance_count(7, 30.5) == 216
    assert instance_count(7, 0.1) == COUNT_INSTANCES
    assert all(instance_count(r, s) % 6 == 0 for r in (3, 5, 7) for s in (1, 17, 30))


def test_loop_runs_every_case_unless_past_its_time(tmp_path):
    workload = SmallDense()
    cases = make_cases(workload.n, COUNT_INSTANCES + 6, seed=3, work_dir=None)
    assert len(run_loop(workload, cases)[1]) == len(cases)
    assert len(run_loop(workload, cases, max_seconds=0.0)[1]) == COUNT_INSTANCES


def test_loop_scales_each_latency_by_the_probes_around_it(monkeypatch):
    import perfbench.run

    ticks = iter(range(10_000))
    monkeypatch.setattr(perfbench.run, "process_time", lambda: float(next(ticks)))
    workload = SmallDense()
    cases = make_cases(workload.n, COUNT_INSTANCES, seed=3, work_dir=None)
    probes = iter([1.0, 3.0, 1.0] + [2.0] * len(cases))
    scaled = run_loop(workload, cases, probe=lambda: next(probes))[0]
    assert scaled == [0.5, 0.5, 2 / 3] + [0.5] * (len(cases) - 3)


def test_cases_repeat_for_a_seed(tmp_path):
    a = make_cases(8, 12, seed=5, work_dir=None)
    b = make_cases(8, 12, seed=5, work_dir=str(tmp_path))
    assert all(np.array_equal(p.x, q.x) and p.kind == q.kind for p, q in zip(a, b))
    assert [c.signed for c in a] == [False, True] * 6
    assert (a[0].x >= 0).all() and len(set(a[0].x)) == 8


def _traced_counts(workload, cases):
    workload.prepare("")
    untraced, _, _, _ = run_loop(workload, cases)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, _, _ = run_loop(workload, cases, tracer=tracer)
    finally:
        tracer.uninstall()
    assert qperm.build_qubo is qperm.builder.build_qubo
    metrics = per_layer_metrics(tracer.spans, traced, untraced, len(cases))
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    return {name: metrics[name] for name, unit, _ in PER_LAYER if unit != "ms"}


def test_traced_counts_repeat_exactly():
    workload = SmallDense()
    cases = make_cases(workload.n, 6, seed=7, work_dir=None)
    first = _traced_counts(workload, cases)
    assert first == _traced_counts(workload, cases)
    n2 = workload.n ** 2
    assert first["builder.bytes"] == 8 * (n2 * n2 + n2)
    assert first["conversions.bytes"] == 3 * first["builder.bytes"]
    assert first["hopfield.descents"] == 1.0 and first["hopfield.accept_ratio"] == 1.0
    assert first["hopfield.flips"] == workload.n
    assert first["oracle.best_permutation_calls"] == 0.0


def test_self_time_subtracts_direct_children():
    spans = [
        Span("instance", 0.0, 1.0, None, 0),
        Span("cli.verify", 0.0, 0.9, 0, 0),
        Span("oracle.certify", 0.1, 0.5, 1, 0),
        Span("oracle.best_permutation", 0.2, 0.4, 2, 0, {}),
        Span("hopfield.solve", 0.5, 0.8, 1, 0, {"descents": 3, "accepted": 1, "flips": 4}),
    ]
    metrics = per_layer_metrics(spans, [1.0], [0.5], count_instances=1)
    assert metrics["cli.verify.self_ms"] == pytest.approx(200.0)
    assert metrics["oracle.certify_ms"] == pytest.approx(400.0)
    assert metrics["oracle.best_permutation_calls"] == 1.0
    assert metrics["hopfield.accept_ratio"] == pytest.approx(1 / 3)
    assert metrics["trace.overhead_ms"] == pytest.approx(500.0)


def test_run_refuses_a_tree_without_qperm(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-n24", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
