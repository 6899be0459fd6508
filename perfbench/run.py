"""Run one qperm benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload dense-n40 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports qperm from its ``src``.
Times are process CPU time, which leaves out the time the host hands this
vCPU to other guests.  End-to-end times are also scaled to the reference
host's speed with ``perfbench.hostspeed``; raw CPU and wall-clock figures
are printed on ``#`` lines for people.  A run does a fixed number of
instances, sized from ``--seconds`` so that it takes about that long on the
reference host; the same seed therefore runs the same instances, and
``attempted`` and ``failed`` repeat exactly.  With ``--trace 1`` it runs
the cases once untraced and once traced, prints the per-layer metrics and
writes the spans under ``.perfbench/traces``.  Human readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("dense-n40", "verify-n8", "cli-n24")  # perfbench.workloads needs numpy
SETUP_PROBES = 2  # extra fresh-interpreter set-ups; setup_s is the median with the main one
WARMUP_CASES = 2  # one paper-regime and one signed case, run before timing
COUNT_INSTANCES = 12  # traced instances whose counts are reported (every kind x regime, twice)
PROBE_TIMEOUT_S = 120
# A host far slower than the reference would otherwise run past the time a
# run is allowed; the loop then stops early after this many times --seconds.
MAX_LOOP_FACTOR = 3
SPEED_PROBES = 3  # host-speed probes after each set-up; their median scales setup_s
# One BLAS thread: a second one made each BLAS call wait on the other vCPU,
# whose availability drifts on a shared host, and spread run-to-run timings
# far more than the speed-up it gave dense-n40.
BLAS_THREADS = 1

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ref_inst_s", "1/s"),
    ("ref_latency_p50_paper_ms", "ms"),
    ("ref_latency_p50_signed_ms", "ms"),
    ("ref_latency_p90_ms", "ms"),
    ("optimal_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


def pin_environment() -> None:
    """Fix BLAS threads before numpy loads, and drop the CLI's seed override."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("QP_SEED", None)


def import_qperm():
    """Import qperm from this checkout's src, or exit non-zero without a result."""
    if not (SRC / "qperm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qperm package under {SRC}; run from a qperm source checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import qperm

    if Path(qperm.__file__).resolve().parent != SRC / "qperm":
        sys.exit(f"perfbench: imported qperm from {qperm.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def set_up(name: str, seed: int, seconds: float, trace: int, work_dir: Path):
    """Import, generate and write the inputs, prepare the workload and warm up.

    The traced run makes two passes over its cases, so it gets half as many.
    """
    from perfbench.workloads import WORKLOADS, make_cases

    workload = WORKLOADS[name]()
    count = instance_count(workload.nominal_rate, seconds / (2 if trace else 1))
    work_dir.mkdir(parents=True, exist_ok=True)
    cases = make_cases(workload.n, count, seed, str(work_dir))
    workload.prepare(str(work_dir))
    for case in cases[:WARMUP_CASES]:
        workload.run(case)
    return workload, cases


def instance_count(nominal_rate: float, seconds: float) -> int:
    """Instances in one run: a multiple of 6, so every kind meets both regimes."""
    return 6 * math.ceil(max(COUNT_INSTANCES, seconds * nominal_rate) / 6)


def run_loop(workload, cases, max_seconds: float = math.inf, tracer=None, probe=None):
    """Closed loop over every case in order.

    Returns each instance's CPU latency, the outcomes, and the loop's CPU
    and wall seconds.  With a host-speed `probe`, each latency is instead
    scaled by the probes run just before and after that instance.  Past `max_seconds` of wall time it stops early, after an even number of instances and
    no fewer than COUNT_INSTANCES, so both input regimes stay equally
    represented and the traced counts stay defined.
    """
    from perfbench.workloads import Outcome

    latencies, outcomes, probes = [], [], []
    start, cpu_start = perf_counter(), process_time()
    for i, case in enumerate(cases):
        if i % 2 == 0 and i >= COUNT_INSTANCES and perf_counter() - start >= max_seconds:
            break
        if probe:
            probes.append(probe())
        span = tracer.start_instance(i) if tracer else None
        t0 = process_time()
        try:
            result = workload.run(case)
        except Exception:  # one instance's failure must not stop the loop
            result, error = None, traceback.format_exc(limit=3)
        else:
            error = None
        latencies.append(process_time() - t0)
        if tracer:
            tracer.close(span)
            tracer.measure_freeze()
        if error is None:
            outcomes.append(workload.check(case, result))
        else:
            outcomes.append(Outcome(False, False, error))
    cpu_s, wall_s = process_time() - cpu_start, perf_counter() - start
    if probe:
        probes.append(probe())
        latencies = [t * 2 / (before + after)
                     for t, before, after in zip(latencies, probes, probes[1:])]
    return latencies, outcomes, cpu_s, wall_s


def setup_probe_seconds(args) -> list[float]:
    """Time SETUP_PROBES further set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def report(outcomes, metrics: dict, units: dict, notes: dict) -> None:
    """Print the notes and metrics for people, then the JSON result line."""
    attempted = len(outcomes)
    failed = attempted - sum(o.optimal for o in outcomes)
    notes["failed_share"] = (f"{failed / attempted:.6g} "
                             f"({failed} of {attempted} instances missed the optimum)")
    inconsistent = [o.note for o in outcomes if not o.consistent]
    if inconsistent:
        notes["inconsistent"] = f"{len(inconsistent)} instances; first: {inconsistent[0]}"
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not inconsistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_environment()
    import_qperm()
    work_dir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload, cases = set_up(args.workload, args.seed, args.seconds, args.trace, work_dir)
        setup_s = process_time() * reference_speed(workload.probe_mb)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        setups = [setup_s] + setup_probe_seconds(args)
        if args.trace:
            return run_traced(args, workload, cases, setups)
        return run_untraced(args, workload, cases, setups)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def reference_speed(megabytes: int) -> float:
    """The reference probe time over the median of a few probes run now."""
    from perfbench import hostspeed

    return hostspeed.REFERENCE_S[megabytes] / statistics.median(
        hostspeed.probe(megabytes) for _ in range(SPEED_PROBES)
    )


def run_untraced(args, workload, cases, setups) -> int:
    from perfbench import hostspeed

    scaled, outcomes, cpu_s, wall_s = run_loop(
        workload, cases, MAX_LOOP_FACTOR * args.seconds,
        probe=lambda: hostspeed.probe(workload.probe_mb),
    )
    latencies = [t * hostspeed.REFERENCE_S[workload.probe_mb] for t in scaled]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ref_inst_s": len(latencies) / sum(latencies),
        # On verify-n8 the signed cases cost about twice the paper ones; a
        # median over both would sit on the gap between the two groups, so
        # each regime gets its own.
        **{f"ref_latency_p50_{regime}_ms": 1e3 * statistics.median(
            t for t, case in zip(latencies, cases) if case.signed == signed
        ) for regime, signed in (("paper", False), ("signed", True))},
        "ref_latency_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "optimal_share": sum(o.optimal for o in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "environment": json.dumps(environment()),
        "workload": f"{args.workload} seed={args.seed} instances={len(outcomes)} "
                    f"of {len(cases)} setups_ref_s={[round(s, 4) for s in setups]}",
        "cpu": f"loop_s={cpu_s:.3f} throughput_inst_s={len(outcomes) / cpu_s:.4g} "
               f"(raw CPU time, probes included)",
        "wall": f"loop_s={wall_s:.3f} throughput_inst_s={len(outcomes) / wall_s:.4g} "
                f"cpu_share={cpu_s / wall_s:.3f} (CPU seconds per wall second of the loop)",
    }
    report(outcomes, metrics, dict(END_TO_END), notes)
    return 0


def run_traced(args, workload, cases, setups) -> int:
    from perfbench.tracing import PER_LAYER, Tracer, per_layer_metrics

    max_seconds = MAX_LOOP_FACTOR * args.seconds / 2
    untraced, untraced_outcomes, _, _ = run_loop(workload, cases, max_seconds)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_outcomes, _, _ = run_loop(workload, cases, max_seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = per_layer_metrics(tracer.spans, traced, untraced, COUNT_INSTANCES)
    trace_dir = OUT_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
    env = environment()
    tracer.dump(str(trace_path), 0.0, {"workload": args.workload, "seed": args.seed,
                                         "environment": env, "metrics": metrics})
    notes = {
        "environment": json.dumps(env),
        "workload": f"{args.workload} seed={args.seed} cases={len(cases)} untraced={len(untraced)} "
                    f"traced={len(traced)} spans={len(tracer.spans)}",
        "spans": str(trace_path.relative_to(ROOT)),
    }
    units = {name: unit for name, unit, _ in PER_LAYER}
    report(untraced_outcomes + traced_outcomes, metrics, units, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
