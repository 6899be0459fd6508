"""Command line front end.

Four subcommands cover the pipeline:

    qperm program --kind heap --n 7 [--branching 2] [-o prog.json]
    qperm build x.txt prog.json [--lambda-r F] [--lambda-c F]
                [--no-normalize] [-o qubo.json]
    qperm solve qubo.json [--trace] [--max-steps M]
    qperm verify x.txt prog.json [--exhaustive]

Input vectors are read either as a JSON array of numbers or as plain
text with one number per line.  Program files are JSON objects with keys
"n", "kind", "branching", and "ranks"; --branching applies to bst and
heap programs only.  QUBO files are JSON objects with the key "n" and
each term in one of two forms.  build writes the quadratic term as
"penalty": {"n", "same_row", "same_col", "self_coupling"}, the fields of
the PenaltyMatrix that build_qubo returns, which hold the penalty
weights, and the linear term as "reward": {"values", "ranks",
"offset"}: the n values and n ranks whose outer product, less the
offset 2 * self_coupling, is r (see builder.reward_vector).  A file
thus holds 2n + 6 numbers besides "x" and "program".  solve reads "n",
"penalty" or "R", "reward" or "r", and "x", and ignores every other
key.  It reads the penalty back as that PenaltyMatrix and
takes the structured descent, which never forms the n^2 x n^2 matrix,
and forms r with the function build_qubo uses, so it is the same bit
for bit.  A file may instead hold a dense "R" (row-major, full
symmetric matrix) and a dense "r" (n^2 numbers), as hand-made and
external instances do; a dense "R" takes the dense descent.  A file
holds exactly one of "penalty" and "R", and exactly one of "reward" and
"r".  build also embeds "x" and "program" so that solve can print the
arranged values.  solve checks the whole file, "x" included, before it
descends or prints anything; "n" must be an integer, never truncated,
whose square is the dimension of both terms, and so must the "n" and
"branching" of a program file.

solve and verify run one descent from the all-inactive state through
hopfield.solve_qubo; verify builds with the defaults and reports the
checks of certify on its endpoint.  The default build shifts x by its
minimum before scaling, which makes that one descent exact (see
ValueVector).  certify compares with the sort optimum, so verify runs at
any n; --exhaustive enumerates all 2^(n*n) binary states and is refused
before any descent when n*n exceeds oracle.MAX_EXHAUSTIVE_BITS.

Trace lines follow a fixed format: the step index right-aligned in four
columns, two spaces, the state as '-'/'+' glyphs separated by single
spaces, two spaces, the energy with one decimal.  JSON files carry full
precision.

program and build write to stdout, or with -o over the named file in
place: the file is written from its start and any longer tail is cut
off.  No file is truncated to zero bytes first, so ext4 starts no
writeback of it on close, which the writing process pays for in system
time.

Exit codes: 0 success, 2 bad arguments or malformed input, 4 descent
ended in a state that is no permutation or used up its step budget,
5 failed certificate.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import stat
import sys
from typing import Iterator, Optional

import numpy as np

from .builder import build_qubo, reward_vector
from .conversions import fold_diagonal
from .errors import MaxStepsExceeded, NonSquareLength, NotAPermutation, QpermError
from .hopfield import solve_qubo
from .model import (
    OrderProgram,
    PenaltyMatrix,
    QuboInstance,
    SolverTrace,
    ValueVector,
    _integral,
    apply_permutation,
    decode_permutation,
)
from .oracle import MAX_EXHAUSTIVE_BITS, certify, exhaustive_qubo_min
from .programs import ascending_program, bst_program, descending_program, heap_program

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 4
EXIT_FAILED_CERTIFICATE = 5

_PENALTY_FIELDS = tuple(f.name for f in dataclasses.fields(PenaltyMatrix))
_REWARD_FIELDS = ("values", "ranks", "offset")
_PROGRAMS = {
    "ascending": ascending_program,
    "descending": descending_program,
    "bst": bst_program,
    "heap": heap_program,
}


def render_trace(trace: SolverTrace) -> Iterator[str]:
    """Render the rows of trace.steps in the documented glyph format, one at a
    time, from start, flipped and energies through one buffer of glyphs."""
    glyphs = bytearray(" ".join("+" if v > 0 else "-" for v in trace.start.tolist()), "ascii")
    energies = trace.energies.tolist()
    yield f"{0:4d}  {glyphs.decode()}  {energies[0]:.1f}"
    for k, i in enumerate(trace.flipped.tolist(), start=1):
        glyphs[2 * i] = ord("+") + ord("-") - glyphs[2 * i]  # swap the glyph
        yield f"{k:4d}  {glyphs.decode()}  {energies[k]:.1f}"
    yield f"{len(energies):4d}  {glyphs.decode()}  {energies[-1]:.1f}"


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except MaxStepsExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except QpermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: a build costs about 30 parses."""
    parser = argparse.ArgumentParser(
        prog="qperm",
        description="Compile ordering tasks into QUBO form and solve them by Hopfield descent.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    p_program = sub.add_parser("program", help="generate an order-program file")
    p_program.add_argument("--kind", required=True, choices=tuple(_PROGRAMS))
    p_program.add_argument("--n", required=True, type=int)
    p_program.add_argument("--branching", type=int, help="tree arity for bst and heap (default 2)")
    p_program.add_argument("-o", "--out", help="output path (default: stdout)")
    p_program.set_defaults(handler=_cmd_program)

    p_build = sub.add_parser("build", help="compile an input vector and a program into a QUBO")
    p_build.add_argument("x_file")
    p_build.add_argument("program_file")
    p_build.add_argument("--lambda-r", type=float, default=None, help="row penalty (default n)")
    p_build.add_argument("--lambda-c", type=float, default=None, help="column penalty (default n)")
    p_build.add_argument("--no-normalize", action="store_true")
    p_build.add_argument("-o", "--out", help="output path (default: stdout)")
    p_build.set_defaults(handler=_cmd_build)

    p_solve = sub.add_parser("solve", help="run the descent on a QUBO file")
    p_solve.add_argument("qubo_file")
    p_solve.add_argument("--trace", action="store_true", help="print one line per step")
    p_solve.add_argument("--max-steps", type=int, default=None)
    p_solve.set_defaults(handler=_cmd_solve)

    p_verify = sub.add_parser("verify", help="end-to-end run plus brute-force certification")
    p_verify.add_argument("x_file")
    p_verify.add_argument("program_file")
    p_verify.add_argument(
        "--exhaustive",
        action="store_true",
        help=f"also enumerate all binary states (n*n <= {MAX_EXHAUSTIVE_BITS})",
    )
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def _cmd_program(args) -> int:
    make = _PROGRAMS[args.kind]
    if args.branching is None:
        program = make(args.n)
    elif args.kind in ("bst", "heap"):
        program = make(args.n, args.branching)
    else:
        raise QpermError(f"--branching applies to bst and heap programs, not {args.kind}")
    _write_text(json.dumps(_program_to_dict(program), indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_build(args) -> int:
    x = ValueVector(_read_values(args.x_file))
    program = _read_program(args.program_file)
    normalize = not args.no_normalize
    instance = build_qubo(x, program, args.lambda_r, args.lambda_c, normalize)
    payload = {
        "n": program.n,
        "penalty": {name: getattr(instance.matrix_R, name) for name in _PENALTY_FIELDS},
        "reward": {
            "values": (x.normalized_entries if normalize else x.entries).tolist(),
            "ranks": list(program.ranks),
            "offset": 2.0 * instance.matrix_R.self_coupling,
        },
        "x": x.entries.tolist(),
        "program": _program_to_dict(program, with_n=False),
    }
    _write_text(json.dumps(payload) + "\n", args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance, x = _read_qubo(args.qubo_file)
    state_z, trace = solve_qubo(instance, args.max_steps)
    if args.trace:
        for line in render_trace(trace):
            print(line)
    try:
        p = decode_permutation(state_z)
    except (NotAPermutation, NonSquareLength):
        print("descent ended in a state that is no permutation", file=sys.stderr)
        return EXIT_INFEASIBLE
    print("permutation:", " ".join(str(c) for c in p.as_mapping))
    if x is not None:
        arranged = apply_permutation(p, x)
        print("values:", " ".join(_fmt(v) for v in arranged))
    print("flips:", trace.flips)
    print("energy:", repr(trace.final_energy))
    return EXIT_OK


def _cmd_verify(args) -> int:
    x = ValueVector(_read_values(args.x_file))
    program = _read_program(args.program_file)
    n = program.n
    if args.exhaustive and n * n > MAX_EXHAUSTIVE_BITS:
        print(f"error: --exhaustive enumerates 2^(n*n) states; n*n <= {MAX_EXHAUSTIVE_BITS}",
              file=sys.stderr)
        return EXIT_USAGE

    instance = build_qubo(x, program)
    state_z, _ = solve_qubo(instance)
    report = certify(x, program, state_z)

    checks: list[tuple[str, Optional[bool]]] = [
        ("feasible permutation", report.feasible),
        ("objective vs oracle", report.optimal),
        (f"structure ({program.kind})", report.structure_valid),
    ]
    if args.exhaustive:
        z_min, _ = exhaustive_qubo_min(fold_diagonal(instance))
        checks.append(("exhaustive agreement", certify(x, program, z_min).optimal))

    failed = False
    for label, outcome in checks:
        if outcome is None:
            print(f"{label:<24} SKIP")
            continue
        print(f"{label:<24} {'PASS' if outcome else 'FAIL'}")
        failed = failed or not outcome
    for note in report.notes:
        print(f"note: {note}")
    return EXIT_FAILED_CERTIFICATE if failed else EXIT_OK


def _read_values(path: str) -> np.ndarray:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = [float(line) for line in text.splitlines() if line.strip()]
    return _numbers(data, path)


def _numbers(value, where: str, ndim: int = 1) -> np.ndarray:
    """value as a float array; it must be a non-empty array of numbers, or
    for ndim=2 a non-empty array of them."""
    rows = value if ndim == 2 else [value]
    if not (
        isinstance(rows, list)
        and rows
        and all(isinstance(row, list) and row and all(map(_is_number, row)) for row in rows)
    ):
        shape = "array of numbers" if ndim == 1 else "array of arrays of numbers"
        raise QpermError(f"{where}: expected a non-empty {shape}")
    try:
        return np.asarray(value, dtype=float)
    except (OverflowError, ValueError) as exc:  # beyond the float range, or ragged
        raise QpermError(f"{where}: {exc}") from None


def _number(value, where: str):
    if not _is_number(value):
        raise QpermError(f"{where}: expected a number, got {value!r}")
    return value


def _float(value, where: str) -> float:
    try:
        return float(_number(value, where))
    except OverflowError as exc:  # an integer beyond the float range
        raise QpermError(f"{where}: {exc}") from None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_program(path: str) -> OrderProgram:
    data = _read_object(path, ("n", "kind", "branching", "ranks"))
    try:
        program = OrderProgram(
            ranks=data["ranks"], kind=data["kind"], branching=data["branching"]
        )
        n = _integral(data["n"], f"{path}: n")
    except (TypeError, OverflowError) as exc:
        raise QpermError(f"{path}: {exc}") from None
    if program.n != n:
        raise QpermError(f"{path}: n={data['n']} does not match {program.n} ranks")
    return program


def _read_qubo(path: str) -> tuple[QuboInstance, Optional[ValueVector]]:
    """Check the whole file; its quadratic term is a PenaltyMatrix, or dense for
    "R", and its linear term is formed from "reward", or read dense from "r".
    Keys other than "n", those four and "x" are ignored."""
    data = _read_object(path, ("n",))
    n = _integral(data["n"], f"{path}: n")
    if _one_of(data, "penalty", "R", path):
        penalty = _fields(data, "penalty", _PENALTY_FIELDS, path)
        R = PenaltyMatrix(
            **{name: _number(penalty[name], f"{path}: penalty.{name}") for name in _PENALTY_FIELDS}
        )
    else:
        R = _numbers(data["R"], f"{path}: 'R'", ndim=2)
    if _one_of(data, "reward", "r", path):
        reward = _fields(data, "reward", _REWARD_FIELDS, path)
        values = _n_numbers(reward["values"], n, f"{path}: reward.values")
        ranks = _n_numbers(reward["ranks"], n, f"{path}: reward.ranks")
        r = reward_vector(values, ranks, _float(reward["offset"], f"{path}: reward.offset"))
    else:
        r = _numbers(data["r"], f"{path}: 'r'")
    instance = QuboInstance(matrix_R=R, vector_r=r)
    if instance.n != n:
        raise QpermError(f"{path}: n={n} but the terms have dimension {instance.dimension}")
    x = ValueVector(_n_numbers(data["x"], n, f"{path}: 'x'")) if "x" in data else None
    return instance, x


def _one_of(data: dict, structured: str, dense: str, path: str) -> bool:
    """Whether data holds the structured key; it must hold exactly one of the two."""
    if (structured in data) == (dense in data):
        found = "both" if structured in data else "neither"
        raise QpermError(
            f"{path}: expected one of the keys {structured!r} and {dense!r}, found {found}"
        )
    return structured in data


def _fields(data: dict, key: str, names: tuple[str, ...], path: str) -> dict:
    """data[key], which must be an object holding every one of names."""
    value = data[key]
    if not isinstance(value, dict):
        raise QpermError(f"{path}: {key!r} must be an object")
    missing = [name for name in names if name not in value]
    if missing:
        raise QpermError(f"{path}: {key!r} lacks {', '.join(map(repr, missing))}")
    return value


def _n_numbers(value, n: int, where: str) -> np.ndarray:
    """value as a float array, which must hold exactly n numbers."""
    numbers = _numbers(value, where)
    if numbers.size != n:
        raise QpermError(f"{where} holds {numbers.size} numbers, not n={n}")
    return numbers


def _read_object(path: str, keys: tuple[str, ...]) -> dict:
    """Parse a JSON file whose top level must be an object holding every key."""
    data = json.loads(_read_text(path))
    if not isinstance(data, dict):
        raise QpermError(f"{path}: expected a JSON object")
    for key in keys:
        if key not in data:
            raise QpermError(f"{path}: missing key {key!r}")
    return data


def _program_to_dict(program: OrderProgram, with_n: bool = True) -> dict:
    payload = {
        "kind": program.kind,
        "branching": program.branching,
        "ranks": list(program.ranks),
    }
    if with_n:
        payload = {"n": program.n, **payload}
    return payload


def _write_text(text: str, path: Optional[str]) -> None:
    """Write text to stdout, or over the file at path in place.

    The file is opened without O_TRUNC and cut to the new length only if
    it is a regular file that was longer, never a device or a FIFO; text
    ends in a newline, so that length is never zero.  A new file gets mode
    0o666 less the umask, as open(path, "w") gives it."""
    if path is None:
        sys.stdout.write(text)
        return
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > written:
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _fmt(value: float) -> str:
    return f"{value:g}"
