"""Per-stage CPU time and traced memory of the qperm pipeline, written to
BENCH_pipeline.json at the root of the repository.

    python tests/pipeline_figures.py                          # rewrite the file
    python tests/pipeline_figures.py --ab PARENT_SRC CHANGE_SRC   # compare two trees

Each input is heap_program(n) and ValueVector(default_rng(n).normal(size=n)),
built with build_qubo's defaults.  A full-chain row times every stage from
build_qubo to certify at n in FULL_SIZES and asserts that the certificate
passed; a chain-only row times build_qubo through to_hopfield at n in
CHAIN_SIZES.  Per stage a row holds the median, min and max of
time.process_time over REPEATS runs, and the tracemalloc peak: the most
memory the stage held at once beyond what was allocated when it started.
The peaks come from a separate traced run, because tracing slows the
stages, and full-chain rows also hold the flip count of the descent.

Every run is a subprocess with a src directory first on its path, the
repository's own when the file is written.  A run measures every size
once, so the repeats of all sizes interleave; --ab alternates the two
trees run by run, prints both medians per stage and size with the parent's
min-max, and writes no file.  The script uses qperm's public names only.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_pipeline.json"
FULL_SIZES = (40, 200, 400, 1000, 2000)
CHAIN_SIZES = (3000, 5000)
REPEATS = 7
CHAIN = ("build_qubo", "fold_diagonal", "to_ising", "to_hopfield")
STAGES = (*CHAIN, "solve", "decode_apply", "certify")


def stages(n: int, full: bool):
    """The stages of one run at n as (name, step) pairs, each step taking
    the result of the one before, and the dict that the solve and certify
    steps record the flip count and the verdict in."""
    import numpy as np
    import qperm

    program = qperm.heap_program(n)
    x = qperm.ValueVector(np.random.default_rng(n).normal(size=n))
    found = {}

    def solve(network):
        state, trace = qperm.solve(network)
        found["flips"] = trace.flips
        return state

    def decode_apply(state):
        z = qperm.bipolar_to_binary(state)
        qperm.apply_permutation(qperm.decode_permutation(z), x)
        return z

    def certify(z):
        found["certified"] = qperm.certify(x, program, z).passed
        if not found["certified"]:
            raise RuntimeError(f"the certificate failed at n={n}")

    steps = [lambda _: qperm.build_qubo(x, program), qperm.fold_diagonal, qperm.to_ising,
             qperm.to_hopfield, solve, decode_apply, certify]
    return list(zip(STAGES, steps if full else steps[: len(CHAIN)])), found


def run(sizes: dict, traced: bool) -> list[dict]:
    """One run of every stage at each size: per stage its CPU seconds, or
    with traced its tracemalloc peak in bytes."""
    value = None
    for _, step in stages(8, True)[0]:  # first calls pay costs that belong to no row
        value = step(value)
    rows = []
    for full, n in [(True, n) for n in sizes["full"]] + [(False, n) for n in sizes["chain"]]:
        chain, found = stages(n, full)
        measured, value = {}, None
        if traced:
            tracemalloc.start()
        for name, step in chain:
            if traced:
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                value = step(value)
                measured[name] = tracemalloc.get_traced_memory()[1] - held
            else:
                started = time.process_time()
                value = step(value)
                measured[name] = time.process_time() - started
        if traced:
            tracemalloc.stop()
        rows.append({"n": n, "full": full, "stages": measured, **found})
    return rows


def runs(src: Path, sizes: dict, traced: bool) -> list[dict]:
    """run(sizes, traced) in a subprocess that imports qperm from src."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, __file__, "--run", json.dumps({**sizes, "traced": traced})]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"a run on {src} failed:\n{done.stderr}")
    result = json.loads(done.stdout)
    if not Path(result["qperm"]).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"qperm was imported from {result['qperm']}, not from {src}")
    return result["rows"]


def host() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "numpy": np.__version__, "cpu": cpu, "nproc": nproc}


def ms(seconds: list[float]) -> dict:
    return {
        "median_ms": round(statistics.median(seconds) * 1e3, 4),
        "min_ms": round(min(seconds) * 1e3, 4),
        "max_ms": round(max(seconds) * 1e3, 4),
    }


def figures(full=FULL_SIZES, chain=CHAIN_SIZES, repeats=REPEATS) -> dict:
    """The record that BENCH_pipeline.json holds, measured on this repository's src."""
    sizes = {"full": list(full), "chain": list(chain)}
    timed = [runs(ROOT / "src", sizes, traced=False) for _ in range(repeats)]
    peaks = runs(ROOT / "src", sizes, traced=True)
    rows = []
    for i, traced in enumerate(peaks):
        row = {"n": traced["n"], "chain": "full" if traced["full"] else "build_qubo..to_hopfield"}
        row["stages"] = {
            name: {**ms([t[i]["stages"][name] for t in timed]), "peak_bytes": peak}
            for name, peak in traced["stages"].items()
        }
        if traced["full"]:
            row["flips"] = traced["flips"]
            row["certified"] = all(t[i]["certified"] for t in [*timed, peaks])
        rows.append(row)
    return {
        "command": "python tests/pipeline_figures.py",
        "input": "heap_program(n), ValueVector(default_rng(n).normal(size=n)), build_qubo defaults",
        "clock": "time.process_time",
        "repeats": repeats,
        "host": host(),
        "rows": rows,
    }


def compare(parent: Path, change: Path) -> None:
    """Print the two trees' medians per stage and size, runs alternating;
    a tree compared with itself shows the spread of identical code."""
    sizes = {"full": list(FULL_SIZES), "chain": list(CHAIN_SIZES)}
    timed = ([], [])
    for _ in range(REPEATS):
        for side, src in zip(timed, (parent, change)):
            side.append(runs(src, sizes, traced=False))
    print(f"{REPEATS} alternating runs, CPU ms; parent {parent}, change {change}")
    print(f"{'n':>5}  {'stage':<14}{'parent':>10}{'change':>10}  parent min-max")
    for i, row in enumerate(timed[0][0]):
        for name in row["stages"]:
            a, b = ([t[i]["stages"][name] * 1e3 for t in side] for side in timed)
            print(f"{row['n']:>5}  {name:<14}{statistics.median(a):>10.3f}"
                  f"{statistics.median(b):>10.3f}  {min(a):.3f}-{max(a):.3f}")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--run"] and len(argv) == 2:
        import qperm

        spec = json.loads(argv[1])
        print(json.dumps({"qperm": qperm.__file__, "rows": run(spec, spec["traced"])}))
    elif argv[:1] == ["--ab"] and len(argv) == 3:
        compare(Path(argv[1]), Path(argv[2]))
    elif not argv:
        OUTPUT.write_text(json.dumps(figures(), indent=2) + "\n", encoding="utf-8")
    else:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
