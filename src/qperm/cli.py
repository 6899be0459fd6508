"""Command line front end.

Four subcommands cover the pipeline:

    qperm program --kind heap --n 7 [--branching 2] [-o prog.json]
    qperm build x.txt prog.json [--lambda-r F] [--lambda-c F]
                [--no-normalize] [-o qubo.json]
    qperm solve qubo.json [--trace] [--max-steps M]
    qperm verify x.txt prog.json

A command line is parsed once, by the parser of the command its first
word names; any other command line goes to the top-level parser, which
prints the help or the usage error.

An x file is a JSON array of numbers, or else plain text with one
number per line; a file of one number is one entry in either form.
Program files are JSON objects with keys
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
key.  It reads the penalty back as that PenaltyMatrix, whose descent
never forms the n^2 x n^2 matrix, and forms r with the function
build_qubo uses, so it is the same bit for bit.  A file may instead hold
a dense "R" (row-major, n^2 x n^2) and a dense "r" (n^2 numbers), as
files of earlier versions and hand-made instances do.  A dense "R" is
read as the PenaltyMatrix it equals entry for entry, with the
coefficients R[0][n], R[0][1] and R[0][0]; every file that build wrote
has that form, so every form of one instance prints the same output.
Any other "R" exits 2.  A file holds exactly one of "penalty" and "R",
and exactly one of "reward" and "r".  build also embeds "x", from which
solve prints the arranged values, and "program", which solve ignores:
it records the arrangement the file was built for.  solve checks the
whole file, "x" included, before it descends or prints anything;
"n" must be an integer whose square is the dimension of both terms, and
so must the "n" and "branching" of a program file.  Every error in the
content of an x, program or QUBO file is one line that names the file.

solve and verify run one descent from the all-inactive state through
hopfield.solve_qubo; verify builds with the defaults and reports the
checks of certify on its endpoint.  The default build shifts x by its
minimum before scaling, which makes that one descent exact (see
ValueVector).  certify compares with the sort optimum, so verify runs at
any n.

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
5 failed certificate, 141 (128 + SIGPIPE) stdout closed by its reader,
as `| head` closes it; nothing more is printed then.
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
from .errors import MaxStepsExceeded, NotAPermutation, QpermError
from .hopfield import solve_qubo
from .model import (
    OrderProgram,
    PenaltyMatrix,
    QuboInstance,
    SolverTrace,
    ValueVector,
    _finite,
    _integral,
    _reals,
    apply_permutation,
    decode_permutation,
)
from .oracle import certify
from .programs import ascending_program, bst_program, descending_program, heap_program

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 4
EXIT_FAILED_CERTIFICATE = 5
EXIT_PIPE = 141

_PENALTY_FIELDS = tuple(f.name for f in dataclasses.fields(PenaltyMatrix))
_REWARD_FIELDS = ("values", "ranks", "offset")
_PROGRAMS = {
    "ascending": ascending_program,
    "descending": descending_program,
    "bst": bst_program,
    "heap": heap_program,
}


def render_trace(trace: SolverTrace) -> Iterator[str]:
    """Render every visited state of the trace, then the stable endpoint
    once more, in the documented glyph format, one line at a time, through
    one buffer of glyphs: it starts as N "-" glyphs, the all-inactive state
    descent starts from, and each entry of flipped swaps one."""
    glyphs = bytearray(" ".join("-" * trace.dimension), "ascii")
    energies = trace.energies.tolist()
    yield f"{0:4d}  {glyphs.decode()}  {energies[0]:.1f}"
    for k, i in enumerate(trace.flipped.tolist(), start=1):
        glyphs[2 * i] = ord("+") + ord("-") - glyphs[2 * i]  # swap the glyph
        yield f"{k:4d}  {glyphs.decode()}  {energies[k]:.1f}"
    yield f"{len(energies):4d}  {glyphs.decode()}  {energies[-1]:.1f}"


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.handler(args)
    except BrokenPipeError:  # an OSError, but no fault of the input
        return EXIT_PIPE
    except MaxStepsExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (QpermError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    status = main()
    if status == EXIT_PIPE:  # the flush at exit would meet the closed pipe again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(status)


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed once.  When argv[0] names a command, that command's
    parser reads the rest, which the top-level parser would hand it only
    after scanning every token itself; tokens it leaves over are reported
    as the top-level parser reports them.  Any other argv, such as -h or an
    unknown command, goes to the top-level parser."""
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's parser by name, built once
    per process: a build costs about 30 parses."""
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

    p_verify = sub.add_parser(
        "verify", help="end-to-end run plus certification against the sort optimum"
    )
    p_verify.add_argument("x_file")
    p_verify.add_argument("program_file")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser, sub.choices


def _cmd_program(args) -> int:
    make = _PROGRAMS[args.kind]
    if args.branching is None:
        program = make(args.n)
    elif args.kind in ("bst", "heap"):
        program = make(args.n, args.branching)
    else:
        raise QpermError(f"--branching applies to bst and heap programs, not {args.kind}")
    _write_text(_program_text(program), args.out)
    return EXIT_OK


def _cmd_build(args) -> int:
    x = _load(args.x_file, _values)
    program = _load(args.program_file, _program)
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
        "program": _program_to_dict(program),
    }
    _write_text(json.dumps(payload) + "\n", args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance, x = _load(args.qubo_file, _qubo)
    state_z, trace = solve_qubo(instance, args.max_steps)
    if args.trace:
        for line in render_trace(trace):
            print(line)
    try:
        p = decode_permutation(state_z)
    except NotAPermutation:
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
    x = _load(args.x_file, _values)
    program = _load(args.program_file, _program)
    state_z, _ = solve_qubo(build_qubo(x, program))
    report = certify(x, program, state_z)

    checks: list[tuple[str, Optional[bool]]] = [
        ("feasible permutation", report.feasible),
        ("objective vs oracle", report.optimal),
        (f"structure ({program.kind})", report.structure_valid),
    ]
    for label, outcome in checks:
        print(f"{label:<24} {'SKIP' if outcome is None else 'PASS' if outcome else 'FAIL'}")
    for note in report.notes:
        print(f"note: {note}")
    return EXIT_OK if report.passed else EXIT_FAILED_CERTIFICATE


def _load(path: str, read):
    """read(text) of the UTF-8 file at path.

    A QpermError or ValueError raised while the file is read, decoded or
    parsed, or the RecursionError of JSON nested too deep, is raised again
    as one QpermError that names the file; an OSError names it already
    and passes through.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return read(handle.read())
    except (QpermError, ValueError, RecursionError) as exc:
        raise QpermError(f"{path}: {exc}") from None


def _values(text: str) -> ValueVector:
    """An x file: a JSON array, or else one number per line.  A file whose
    JSON is no array, such as one number alone, is read as one entry."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = [float(line) for line in text.splitlines() if line.strip()]
    return ValueVector(data if isinstance(data, list) else [data])


def _program(text: str) -> OrderProgram:
    """A program file: the fields of an OrderProgram and an "n" equal to its size."""
    data = _object(text, ("n", "kind", "branching", "ranks"))
    program = OrderProgram(ranks=data["ranks"], kind=data["kind"], branching=data["branching"])
    if program.n != _integral(data["n"], "n"):
        raise QpermError(f"n={data['n']} does not match {program.n} ranks")
    return program


def _qubo(text: str) -> tuple[QuboInstance, Optional[ValueVector]]:
    """A QUBO file, checked whole; its quadratic term is read as a
    PenaltyMatrix, from "penalty" or from a dense "R" that equals one, and
    its linear term is formed from "reward", or read dense from "r".  Keys
    other than "n", those four and "x" are ignored."""
    data = _object(text, ("n",))
    n = _integral(data["n"], "n")
    if _one_of(data, "penalty", "R"):
        R = PenaltyMatrix(**_fields(data, "penalty", _PENALTY_FIELDS))
        if R.n != n:
            raise QpermError(f"penalty.n={R.n} but n={n}")
    else:
        R = _penalty_from_R(_reals(data["R"], "'R'"), n)
    if _one_of(data, "reward", "r"):
        reward = _fields(data, "reward", _REWARD_FIELDS)
        # as floats, as build_qubo forms r, so no product of integers wraps
        values, ranks = (
            np.asarray(_reals(reward[k], f"reward.{k}"), dtype=float) for k in ("values", "ranks")
        )
        if values.shape != (n,) or ranks.shape != (n,):
            raise QpermError(
                f"reward.values and reward.ranks must hold n={n} numbers each, "
                f"not shapes {values.shape} and {ranks.shape}"
            )
        r = reward_vector(values, ranks, _finite(reward["offset"], "reward.offset"))
    else:
        r = data["r"]
    instance = QuboInstance(matrix_R=R, vector_r=r)
    x = ValueVector(_reals(data["x"], "'x'")) if "x" in data else None
    if x is not None and x.n != n:
        raise QpermError(f"'x' holds {x.n} numbers, not n={n}")
    return instance, x


def _penalty_from_R(R: np.ndarray, n: int) -> PenaltyMatrix:
    """The PenaltyMatrix that a dense "R" equals entry for entry.

    Its coefficients are read off row 0: R[0][0] is self_coupling, R[0][1]
    couples cell 0 with another cell of its column of Z and R[0][n] with
    another cell of its row.  Any other R is refused.
    """
    N = n * n
    try:
        if R.shape == (N, N):
            same_row, same_col = (R[0, n], R[0, 1]) if n > 1 else (0.0, 0.0)
            penalty = PenaltyMatrix(n, same_row, same_col, R[0, 0])
            if np.array_equal(np.asarray(penalty), R):
                return penalty
    except QpermError:  # a non-finite coefficient, or n below 1
        pass
    raise QpermError(
        f"'R' is not the {N}x{N} matrix of a finite penalty: self_coupling on the diagonal, "
        "same_row or same_col between two cells of one row or one column of Z, and 0 elsewhere"
    )


def _one_of(data: dict, structured: str, dense: str) -> bool:
    """Whether data holds the structured key; it must hold exactly one of the two."""
    if (structured in data) == (dense in data):
        found = "both" if structured in data else "neither"
        raise QpermError(f"expected one of the keys {structured!r} and {dense!r}, found {found}")
    return structured in data


def _fields(data: dict, key: str, names: tuple[str, ...]) -> dict:
    """The named fields of data[key], an object that must hold every one."""
    value = data[key]
    if not isinstance(value, dict):
        raise QpermError(f"{key!r} must be an object")
    missing = [name for name in names if name not in value]
    if missing:
        raise QpermError(f"{key!r} lacks {', '.join(map(repr, missing))}")
    return {name: value[name] for name in names}


def _object(text: str, keys: tuple[str, ...]) -> dict:
    """Parse JSON text whose top level must be an object holding every key."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise QpermError("expected a JSON object")
    for key in keys:
        if key not in data:
            raise QpermError(f"missing key {key!r}")
    return data


def _program_to_dict(program: OrderProgram) -> dict:
    return {"kind": program.kind, "branching": program.branching, "ranks": list(program.ranks)}


def _program_text(program: OrderProgram) -> str:
    """A program file: json.dumps of its n, kind, branching and ranks with
    indent=2, and a newline.  json runs its pure-Python encoder whenever it
    indents, so the layout is written out here; n, branching and the ranks
    are ints, and only the kind needs json's escaping."""
    ranks = ",\n    ".join(map(str, program.ranks))
    return (
        f'{{\n  "n": {program.n},\n  "kind": {json.dumps(program.kind)},\n'
        f'  "branching": {program.branching},\n  "ranks": [\n    {ranks}\n  ]\n}}\n'
    )


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


def _fmt(value: float) -> str:
    return f"{value:g}"


if __name__ == "__main__":
    run()
