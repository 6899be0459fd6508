"""Spans and counts recorded from outside qperm, and the per-layer metrics derived from them.

``Tracer.install`` replaces the public qperm functions that the package,
``qperm.cli`` and ``qperm.oracle`` reference with timing wrappers, and
``qperm.cli.main`` with one that opens a ``cli.<command>`` span.  A layer is
the qperm module that defines the function (``builder``, ``conversions``,
``model``, ``hopfield``, ``oracle``, ``programs``, ``cli``).  Spans stay in
memory; ``Tracer.dump`` writes them out once the run ends.  Span times are
process CPU seconds, like every other time the benchmark reports.

Counts are taken at the same boundaries, after a span closes so they do not
inflate it:

* builder and conversions: ``bytes``, the nbytes of every array in the
  returned instance;
* hopfield.solve: ``descents`` and ``accepted``, counted through the
  feasibility callback (one accepted descent when the caller passes none),
  ``flips`` of the returned trace and ``trace_bytes``, the bytes of its
  stored states;
* cli.build: ``qubo_json_bytes``, the size of the written QUBO file.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import statistics
from dataclasses import dataclass, field
from time import process_time
from typing import Optional

import numpy as np

import qperm
import qperm.cli
import qperm.oracle

TRACED_MODULES = (qperm, qperm.cli, qperm.oracle)
INSTANCE_LAYERS = ("builder", "conversions")
CLI_COMMANDS = ("program", "build", "solve", "verify")

# (metric name, unit, better); the order of BENCHMARK.json's per_layer list
PER_LAYER = (
    ("builder.build_qubo_ms", "ms", "lower"),
    ("builder.bytes", "bytes", "lower"),
    ("conversions.fold_diagonal_ms", "ms", "lower"),
    ("conversions.to_ising_ms", "ms", "lower"),
    ("conversions.to_hopfield_ms", "ms", "lower"),
    ("conversions.bytes", "bytes", "lower"),
    ("model.freeze_ms", "ms", "lower"),
    ("model.decode_ms", "ms", "lower"),
    ("hopfield.solve_ms", "ms", "lower"),
    ("hopfield.flips", "count", "lower"),
    ("hopfield.descents", "count", "lower"),
    ("hopfield.accept_ratio", "ratio", "higher"),
    ("hopfield.trace_bytes", "bytes", "lower"),
    ("oracle.best_permutation_ms", "ms", "lower"),
    ("oracle.best_permutation_calls", "count", "lower"),
    ("oracle.certify_ms", "ms", "lower"),
    ("cli.program.self_ms", "ms", "lower"),
    ("cli.build.self_ms", "ms", "lower"),
    ("cli.solve.self_ms", "ms", "lower"),
    ("cli.verify.self_ms", "ms", "lower"),
    ("cli.qubo_json_bytes", "bytes", "lower"),
    ("programs.ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    instance: Optional[int]
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around qperm's public functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._instance: Optional[int] = None
        self._patches: list[tuple[object, str, object]] = []
        self._built: list = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, process_time(), 0.0, parent, self._instance)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = process_time()
        self._stack.pop()

    def start_instance(self, index: int) -> Span:
        self._instance = index
        return self.open("instance")

    def measure_freeze(self) -> None:
        """Re-construct each instance built in the last case from its own arrays.

        This times the frozen dataclasses' validation and read-only copies on
        their own; it runs after the instance span has closed.
        """
        for obj in self._built:
            kwargs = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init}
            span = self.open("model.freeze")
            type(obj)(**kwargs)
            self.close(span)
        self._built.clear()

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for module in TRACED_MODULES:
            for name, obj in list(vars(module).items()):
                base = inspect.unwrap(obj) if callable(obj) else None
                if name.startswith("_") or not inspect.isfunction(base):
                    continue
                if not base.__module__.startswith("qperm.") or base.__module__ == "qperm.cli":
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, base)
                self._patch(module, name, wrappers[id(obj)])
        self._patch(qperm.cli, "main", self._wrap_main(qperm.cli.main))

    def uninstall(self) -> None:
        while self._patches:
            module, name, previous = self._patches.pop()
            setattr(module, name, previous)

    def dump(self, path: str, origin: float, header: dict) -> None:
        rows = [
            [s.name, s.start - origin, s.end - origin, s.parent, s.instance, s.counts]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "columns": ["name", "start_s", "end_s", "parent", "instance",
                                             "counts"], "spans": rows}, handle)

    def _patch(self, module, name: str, value) -> None:
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def _wrap(self, fn, base):
        layer = base.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{base.__name__}"
        if name == "hopfield.solve":
            return self._wrap_solve(fn, base, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if layer in INSTANCE_LAYERS and dataclasses.is_dataclass(result):
                span.counts["bytes"] = _array_bytes(result)
                self._built.append(result)
            return result

        return traced

    def _wrap_solve(self, fn, base, name):
        signature = inspect.signature(base)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            check = bound.arguments.get("feasibility_check")
            counts = {"descents": 0, "accepted": 0}
            if check is None:
                counts.update(descents=1, accepted=1)
            else:
                def counted(state):
                    accepted = check(state)
                    counts["descents"] += 1
                    counts["accepted"] += bool(accepted)
                    return accepted

                bound.arguments["feasibility_check"] = counted
            span = self.open(name)
            try:
                state, trace = fn(*bound.args, **bound.kwargs)
            finally:
                self.close(span)
            counts["flips"] = trace.flips
            counts["trace_bytes"] = sum(step.state.nbytes for step in trace.steps)
            span.counts = counts
            return state, trace

        return traced

    def _wrap_main(self, main):
        @functools.wraps(main)
        def traced(argv=None):
            span = self.open(f"cli.{argv[0]}")
            try:
                code = main(argv)
            finally:
                self.close(span)
            if argv[0] == "build" and "-o" in argv:
                span.counts["qubo_json_bytes"] = os.path.getsize(argv[argv.index("-o") + 1])
            return code

        return traced


def _array_bytes(obj) -> int:
    return sum(
        value.nbytes
        for value in (getattr(obj, f.name) for f in dataclasses.fields(obj))
        if isinstance(value, np.ndarray)
    )


def per_layer_metrics(
    spans: list[Span],
    traced_latencies: list[float],
    untraced_latencies: list[float],
    count_instances: int,
) -> dict[str, float]:
    """Per-instance layer figures from one traced loop.

    Times are mean milliseconds per traced instance, over every traced
    instance.  Counts and bytes are means over the first `count_instances`
    instances only, which every traced run with the same seed executes
    identically, so they repeat exactly.  cli.<command>.self_ms is each main
    span minus its direct children; oracle.certify_ms includes the
    best_permutation call inside it.  trace.overhead_ms is the median, over
    case indices both loops ran, of traced minus untraced latency; both loops
    start at case 0, so each difference compares one input with itself.
    """
    traced = len(traced_latencies)
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds

    def ms(match) -> float:
        return 1e3 * sum(s.seconds for s in spans if match(s.name)) / traced

    def self_ms(name: str) -> float:
        total = sum(s.seconds - child_seconds[i] for i, s in enumerate(spans) if s.name == name)
        return 1e3 * total / traced

    counted = [s for s in spans if s.instance is not None and s.instance < count_instances]

    def count(match, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in counted if match(s.name)) / count_instances

    def named(name: str):
        return lambda n: n == name

    def layer(prefix: str):
        return lambda n: n.startswith(prefix + ".")

    descents = count(named("hopfield.solve"), "descents")
    metrics = {
        "builder.build_qubo_ms": ms(named("builder.build_qubo")),
        "builder.bytes": count(layer("builder"), "bytes"),
        "conversions.fold_diagonal_ms": ms(named("conversions.fold_diagonal")),
        "conversions.to_ising_ms": ms(named("conversions.to_ising")),
        "conversions.to_hopfield_ms": ms(named("conversions.to_hopfield")),
        "conversions.bytes": count(layer("conversions"), "bytes"),
        "model.freeze_ms": ms(named("model.freeze")),
        "model.decode_ms": ms(named("model.decode_permutation")),
        "hopfield.solve_ms": ms(named("hopfield.solve")),
        "hopfield.flips": count(named("hopfield.solve"), "flips"),
        "hopfield.descents": descents,
        "hopfield.accept_ratio": (
            count(named("hopfield.solve"), "accepted") / descents if descents else 0.0
        ),
        "hopfield.trace_bytes": count(named("hopfield.solve"), "trace_bytes"),
        "oracle.best_permutation_ms": ms(named("oracle.best_permutation")),
        "oracle.best_permutation_calls": sum(
            1 for s in counted if s.name == "oracle.best_permutation"
        ) / count_instances,
        "oracle.certify_ms": ms(named("oracle.certify")),
        **{f"cli.{c}.self_ms": self_ms(f"cli.{c}") for c in CLI_COMMANDS},
        "cli.qubo_json_bytes": count(named("cli.build"), "qubo_json_bytes"),
        "programs.ms": ms(layer("programs")),
        "trace.overhead_ms": 1e3 * statistics.median(
            t - u for t, u in zip(traced_latencies, untraced_latencies)
        ),
    }
    return {name: metrics[name] for name, _, _ in PER_LAYER}
