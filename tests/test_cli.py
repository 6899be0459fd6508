import contextlib
import io
import json
import os
import stat
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperm import (
    DomainError,
    PenaltyMatrix,
    SolverTrace,
    ValueVector,
    ascending_program,
    bst_program,
    build_qubo,
    certify,
    decode_permutation,
    descending_program,
    heap_program,
    solve_qubo,
)
from qperm import cli
from qperm.cli import main, render_trace

from . import reference_run as ref
from .conftest import make_program
from .reference import vectorize


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def materialized_penalty(data):
    """The dense R of a built QUBO file, from its "penalty"."""
    return np.asarray(PenaltyMatrix(**data["penalty"]))


def build_file(tmp_path, values, kind, *flags):
    """Write x, a program of the given kind and the QUBO file build makes of them."""
    x_path = write_json(tmp_path / "x.json", list(values))
    prog = tmp_path / "prog.json"
    assert main(["program", "--kind", kind, "--n", str(len(values)), "-o", str(prog)]) == 0
    qubo = str(tmp_path / "qubo.json")
    assert main(["build", x_path, str(prog), *flags, "-o", qubo]) == 0
    return qubo


def to_dense(payload, entry=None):
    """Swap the file's penalty for a dense "R", every entry set to entry if given."""
    R = materialized_penalty(payload).tolist()
    del payload["penalty"]
    payload["R"] = R if entry is None else [[entry] * len(R)] * len(R)


def infinite_diagonal(payload):
    """Swap the file's penalty for a dense "R" that holds Infinity on its diagonal."""
    to_dense(payload)
    for i, row in enumerate(payload["R"]):
        row[i] = float("inf")


def dense_reward(payload):
    """Swap the file's reward for a dense "r", each entry -(value * rank) - offset."""
    reward = payload.pop("reward")
    offset = reward["offset"]
    payload["r"] = [-(v * k) - offset for v in reward["values"] for k in reward["ranks"]]


SIGNED_X = np.random.default_rng(7).normal(size=7).tolist()
SCALED_X = (np.array(ref.INPUT_X) / np.abs(ref.INPUT_X).sum()).tolist()


def expected_trace_lines(kind):
    """Rebuild the documented trace rendering from the frozen run."""
    lines = []
    active = set()
    flips = ref.FLIPS[kind]
    for t, energy in enumerate(ref.ENERGY_STRINGS):
        if 0 < t <= len(flips):
            active.add(flips[t - 1])
        glyphs = " ".join("+" if i in active else "-" for i in range(49))
        lines.append(f"{t:4d}  {glyphs}  {energy}")
    return lines


@pytest.fixture
def reference_files(tmp_path):
    x_path = write_json(tmp_path / "x.json", ref.INPUT_X)
    # the frozen run's route: x scaled by sum(|x|) here, built with --no-normalize
    scale = float(np.abs(ref.INPUT_X).sum())
    write_json(tmp_path / "x_scaled.json", [v / scale for v in ref.INPUT_X])

    def program_path(kind):
        out = tmp_path / f"{kind}.json"
        assert main(["program", "--kind", kind, "--n", "7", "-o", str(out)]) == 0
        return str(out)

    return x_path, program_path, tmp_path


class TestProgramCommand:
    def test_writes_heap_program(self, tmp_path):
        out = tmp_path / "prog.json"
        assert main(["program", "--kind", "heap", "--n", "7", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data == {
            "n": 7,
            "kind": "heap",
            "branching": 2,
            "ranks": [7, 3, 6, 1, 2, 4, 5],
        }

    def test_ternary_heap(self, tmp_path):
        out = tmp_path / "prog.json"
        assert main(
            ["program", "--kind", "heap", "--n", "7", "--branching", "3", "-o", str(out)]
        ) == 0
        assert json.loads(out.read_text())["ranks"] == [7, 4, 5, 6, 1, 2, 3]

    def test_stdout_default(self, capsys):
        assert main(["program", "--kind", "ascending", "--n", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ranks"] == [1, 2, 3]

    def test_ternary_bst_rejected(self, capsys):
        assert main(["program", "--kind", "bst", "--n", "5", "--branching", "3"]) == 2

    def test_nonpositive_size_rejected(self):
        assert main(["program", "--kind", "ascending", "--n", "0"]) == 2

    @pytest.mark.parametrize("kind", ["ascending", "descending"])
    def test_branching_refused_without_a_tree(self, capsys, kind):
        # neither kind builds a tree, so there is no arity to set
        assert main(["program", "--kind", kind, "--n", "3", "--branching", "7"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --branching")

    def test_bst_branching_defaults_to_two(self, capsys):
        for flags in ([], ["--branching", "2"]):
            assert main(["program", "--kind", "bst", "--n", "5", *flags]) == 0
            assert json.loads(capsys.readouterr().out)["branching"] == 2

    @pytest.mark.parametrize("n", [1, 7, 40])
    @pytest.mark.parametrize(
        "kind, branching",
        [("ascending", None), ("descending", None), ("bst", None), ("bst", 2),
         ("heap", None), ("heap", 2), ("heap", 3)],
    )
    def test_text_is_json_indented_by_two(self, tmp_path, capsys, kind, branching, n):
        """The file and stdout hold json.dumps(program, indent=2) and a newline, byte for byte."""
        flags = [] if branching is None else ["--branching", str(branching)]
        make = {"ascending": ascending_program, "descending": descending_program,
                "bst": bst_program, "heap": heap_program}[kind]
        program = make(n) if branching is None else make(n, branching)
        expected = json.dumps(
            {"n": n, "kind": kind, "branching": branching or 2, "ranks": list(program.ranks)},
            indent=2,
        ) + "\n"
        out = tmp_path / "prog.json"
        assert main(["program", "--kind", kind, "--n", str(n), *flags, "-o", str(out)]) == 0
        assert out.read_bytes() == expected.encode()
        assert main(["program", "--kind", kind, "--n", str(n), *flags]) == 0
        assert capsys.readouterr().out == expected


class TestBuildCommand:
    def test_qubo_file_contents(self, reference_files):
        x_path, program_path, tmp_path = reference_files
        out = tmp_path / "qubo.json"
        assert main(["build", x_path, program_path("ascending"), "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["n"] == 7
        assert not {"lambda_r", "lambda_c", "normalized"} & data.keys()
        assert "R" not in data
        assert data["penalty"] == {"n": 7, "same_row": 7.0, "same_col": 7.0, "self_coupling": 14.0}
        R = materialized_penalty(data)
        assert R.shape == (49, 49)
        assert np.array_equal(R, R.T)
        assert np.allclose(np.diag(R), 14.0)
        assert "r" not in data
        assert data["reward"] == {
            "values": ValueVector(ref.INPUT_X).normalized_entries.tolist(),
            "ranks": [1, 2, 3, 4, 5, 6, 7],
            "offset": 28.0,
        }
        assert data["x"] == ref.INPUT_X
        assert data["program"]["kind"] == "ascending"

    def test_penalty_flags(self, reference_files):
        x_path, program_path, tmp_path = reference_files
        out = tmp_path / "qubo.json"
        args = ["build", x_path, program_path("ascending"),
                "--lambda-r", "3.5", "--lambda-c", "2.5", "-o", str(out)]
        assert main(args) == 0
        data = json.loads(out.read_text())
        assert data["penalty"] == {"n": 7, "same_row": 3.5, "same_col": 2.5, "self_coupling": 6.0}
        assert not {"lambda_r", "lambda_c", "normalized"} & data.keys()
        assert np.allclose(np.diag(materialized_penalty(data)), 6.0)

    @pytest.mark.parametrize("n", [1, 8, 24])
    def test_weights_of_n_give_the_default_file(self, tmp_path, n):
        values = np.random.default_rng(n).normal(size=n).tolist()
        default = Path(build_file(tmp_path, values, "heap")).read_bytes()
        explicit = build_file(tmp_path, values, "heap", "--lambda-r", str(n), "--lambda-c", str(n))
        assert Path(explicit).read_bytes() == default

    def test_zero_vector_exit_code(self, tmp_path):
        # a constant vector normalizes to zeros; any arrangement of it is optimal
        prog = tmp_path / "prog.json"
        assert main(["program", "--kind", "ascending", "--n", "3", "-o", str(prog)]) == 0
        out = tmp_path / "qubo.json"
        for value in (0.0, -2.5):
            x_path = write_json(tmp_path / "x.json", [value] * 3)
            assert main(["build", x_path, str(prog), "-o", str(out)]) == 0
            assert main(["build", x_path, str(prog), "--no-normalize", "-o", str(out)]) == 0
            assert main(["verify", x_path, str(prog)]) == 0

    def test_newline_separated_input(self, reference_files):
        _, program_path, tmp_path = reference_files
        x_path = tmp_path / "x.txt"
        x_path.write_text("".join(f"{v}\n" for v in ref.INPUT_X))
        out = tmp_path / "qubo.json"
        assert main(["build", str(x_path), program_path("ascending"), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["x"] == ref.INPUT_X

    def test_size_mismatch_exit_code(self, reference_files):
        x_path, program_path, tmp_path = reference_files
        short = write_json(tmp_path / "short.json", [1.0, 2.0])
        assert main(["build", short, program_path("ascending")]) == 2

    @pytest.mark.parametrize("weight", ["1e308", "8e307"])
    def test_weights_whose_reward_offset_overflows(self, tmp_path, capsys, weight):
        """Each weight is finite but 2 (lambda_r + lambda_c) is not; this once ended
        in "self_coupling must be finite" or "vector_r must be finite"."""
        x_path = write_json(tmp_path / "x.json", [3.0, 1.0, 2.0])
        prog = tmp_path / "prog.json"
        assert main(["program", "--kind", "ascending", "--n", "3", "-o", str(prog)]) == 0
        capsys.readouterr()
        args = ["build", x_path, str(prog), "--lambda-r", weight, "--lambda-c", weight]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: lambda_r and lambda_c are too large")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"a": 1}, "{x}: entries must be real numbers, not dict"),
            (None, "{x}: entries must be real numbers, not NoneType"),
            # a lone number is one entry, read as the text form reads it
            (5.0, "x has 1 entries but the program has 7 slots"),
            ([], "{x}: need a one-dimensional vector with at least one entry"),
            (["1", "2"], "{x}: entries must be real numbers, not str"),
            ([[1.0, 2.0]], "{x}: need a one-dimensional vector with at least one entry"),
            ([True], "{x}: entries must be real numbers, not bool"),
            ([[1, 2], [3]], "{x}: entries must be real numbers, not a ragged nesting"),
        ],
        ids=["object", "null", "one-number", "empty", "strings", "nested", "bool", "ragged"],
    )
    def test_x_file_must_be_an_array_of_numbers(self, reference_files, capsys, payload, message):
        _, program_path, tmp_path = reference_files
        x_path = write_json(tmp_path / "bad_x.json", payload)
        assert main(["build", x_path, program_path("ascending")]) == 2
        assert capsys.readouterr() == ("", "error: " + message.format(x=x_path) + "\n")

    def test_integer_beyond_float_range(self, reference_files):
        _, program_path, tmp_path = reference_files
        x_path = tmp_path / "x.json"
        x_path.write_text("[" + "9" * 400 + ", 1, 2, 3, 4, 5, 6]")
        assert main(["build", str(x_path), program_path("ascending")]) == 2

    @pytest.mark.parametrize("payload", [5, [1, 2, 3], "ranks"])
    def test_program_file_must_be_an_object(self, reference_files, capsys, payload):
        x_path, _, tmp_path = reference_files
        prog = write_json(tmp_path / "prog.json", payload)
        assert main(["build", x_path, prog]) == 2
        assert "expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ranks", [1.5, 2, 3]),
            ("ranks", "123"),
            ("ranks", 3),
            ("n", None),
            ("n", float("inf")),
            ("branching", None),
        ],
    )
    def test_program_fields_are_checked(self, tmp_path, capsys, field, value):
        x_path = write_json(tmp_path / "x.json", [3.0, 1.0, 2.0])
        payload = {"n": 3, "kind": "custom", "branching": 2, "ranks": [1, 2, 3], field: value}
        prog = write_json(tmp_path / "prog.json", payload)
        assert main(["verify", x_path, prog]) == 2
        assert "error:" in capsys.readouterr().err

    def test_program_n_must_count_its_ranks(self, tmp_path, capsys):
        x_path = write_json(tmp_path / "x.json", [3.0, 1.0, 2.0])
        payload = {"n": 4, "kind": "custom", "branching": 2, "ranks": [1, 2, 3]}
        prog = write_json(tmp_path / "prog.json", payload)
        assert main(["verify", x_path, prog]) == 2
        assert capsys.readouterr() == ("", f"error: {prog}: n=4 does not match 3 ranks\n")

    @pytest.mark.parametrize(
        "field, value",
        [("n", 3.7), ("n", "3"), ("branching", 2.9), ("n", True), ("ranks", [3, True, 2])],
    )
    def test_sizes_are_never_truncated_or_parsed(self, tmp_path, capsys, field, value):
        """A program file's "n": true once passed as 1, and a rank true as rank 1."""
        x_path = write_json(tmp_path / "x.json", [3.0, 1.0, 2.0])
        payload = {"n": 3, "kind": "heap", "branching": 2, "ranks": [3, 1, 2], field: value}
        prog = write_json(tmp_path / "prog.json", payload)
        assert main(["verify", x_path, prog]) == 2
        expected = "ranks must be integers" if field == "ranks" else "must be an integer"
        assert expected in capsys.readouterr().err


def write_outputs(tmp_path, n, out_prog, out_qubo):
    """Run program and build at size n, writing to the two paths given."""
    x_path = write_json(tmp_path / f"x{n}.json", np.random.default_rng(n).normal(size=n).tolist())
    assert main(["program", "--kind", "heap", "--n", str(n), "-o", str(out_prog)]) == 0
    assert main(["build", x_path, str(out_prog), "-o", str(out_qubo)]) == 0


class TestOutputFiles:
    """-o overwrites a file in place and cuts any longer tail."""

    @pytest.mark.parametrize("old, new", [(24, 8), (8, 24), (200, 1)])
    def test_over_an_existing_file_as_to_a_new_path(self, tmp_path, old, new):
        write_outputs(tmp_path, old, tmp_path / "prog.json", tmp_path / "qubo.json")
        write_outputs(tmp_path, new, tmp_path / "prog.json", tmp_path / "qubo.json")
        write_outputs(tmp_path, new, tmp_path / "fresh_prog.json", tmp_path / "fresh_qubo.json")
        for name in ("prog.json", "qubo.json"):
            assert (tmp_path / name).read_bytes() == (tmp_path / f"fresh_{name}").read_bytes()

    def test_to_dev_null(self, tmp_path):
        x_path = write_json(tmp_path / "x.json", [3.0, 1.0, 2.0])
        prog = tmp_path / "prog.json"
        assert main(["program", "--kind", "heap", "--n", "3", "-o", str(prog)]) == 0
        assert main(["program", "--kind", "heap", "--n", "3", "-o", os.devnull]) == 0
        assert main(["build", x_path, str(prog), "-o", os.devnull]) == 0

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_to_a_fifo(self, tmp_path, capsys):
        assert main(["program", "--kind", "heap", "--n", "8"]) == 0
        expected = capsys.readouterr().out.encode()
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["program", "--kind", "heap", "--n", "8", "-o", str(fifo)]) == 0
        reader.join(timeout=10)
        assert received == [expected]

    @pytest.mark.parametrize("umask", [0o000, 0o022, 0o077])
    def test_new_file_mode_as_open_gives_it(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(tmp_path / "reference", "w"):
                pass
            write_outputs(tmp_path, 3, tmp_path / "prog.json", tmp_path / "qubo.json")
        finally:
            os.umask(previous)
        mode = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
        assert mode == 0o666 & ~umask
        for name in ("prog.json", "qubo.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode

    def test_hard_link_sees_the_new_bytes(self, tmp_path):
        out = tmp_path / "prog.json"
        out.write_text("x" * 10_000)
        os.link(out, tmp_path / "link.json")
        assert main(["program", "--kind", "bst", "--n", "7", "-o", str(out)]) == 0
        assert json.loads((tmp_path / "link.json").read_text())["kind"] == "bst"
        assert (tmp_path / "link.json").read_bytes() == out.read_bytes()

    def test_directory_is_one_error_line(self, tmp_path, capsys):
        assert main(["program", "--kind", "heap", "--n", "3", "-o", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")

    def test_no_file_is_truncated_to_zero_bytes(self, tmp_path, monkeypatch):
        opened, cuts = [], []

        def spy_open(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), flags))
            return real_open(path, flags, *args, **kwargs)

        def spy_ftruncate(fd, length):
            cuts.append(length)
            return real_ftruncate(fd, length)

        real_open, real_ftruncate = os.open, os.ftruncate
        monkeypatch.setattr(os, "open", spy_open)
        monkeypatch.setattr(os, "ftruncate", spy_ftruncate)
        prog, qubo = tmp_path / "prog.json", tmp_path / "qubo.json"
        for n in (24, 8, 8, 24):  # new files, then longer, equal and shorter ones
            write_outputs(tmp_path, n, prog, qubo)
        outputs = [(path, flags) for path, flags in opened if path in (str(prog), str(qubo))]
        assert [path for path, _ in outputs] == [str(prog), str(qubo)] * 4
        assert not any(flags & os.O_TRUNC for _, flags in outputs)
        assert len(cuts) == 2 and 0 not in cuts  # only the writes over n=24 files cut a tail
        assert qubo.stat().st_size > 0


class TestSolveCommand:
    @pytest.mark.parametrize("kind", ["ascending", "bst", "heap"])
    def test_trace_rendering_matches_frozen_run(self, reference_files, capsys, kind):
        _, program_path, tmp_path = reference_files
        qubo = tmp_path / "qubo.json"
        args = ["build", str(tmp_path / "x_scaled.json"), program_path(kind), "--no-normalize"]
        assert main(args + ["-o", str(qubo)]) == 0
        assert main(["solve", str(qubo), "--trace"]) == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert out_lines[:9] == expected_trace_lines(kind)

    def test_trace_is_rendered_one_state_at_a_time(self, tmp_path, capsys):
        """solve --trace prints the rows of trace.steps, rendered from start,
        flipped and energies through one state buffer: steps, which holds a
        copy of every state, is never read."""
        values = np.random.default_rng(5).uniform(0.0, 2000.0, size=6).tolist()
        qubo = build_file(tmp_path, values, "ascending", "--no-normalize")
        _, trace = solve_qubo(cli._load(qubo, cli._qubo)[0])
        expected = [
            f"{row.index:4d}  {' '.join('+' if v > 0 else '-' for v in row.state)}  {row.energy:.1f}"
            for row in trace.steps
        ]
        assert trace.flips > 6  # rewards this large outweigh the penalty
        steps = mock.PropertyMock(side_effect=AssertionError("trace.steps read"))
        with mock.patch.object(SolverTrace, "steps", new=steps):
            assert list(render_trace(trace)) == expected
            assert main(["solve", qubo, "--trace"]) == cli.EXIT_INFEASIBLE
        assert capsys.readouterr().out.splitlines()[: len(expected)] == expected

    def test_report_lines(self, reference_files, capsys):
        x_path, program_path, tmp_path = reference_files
        qubo = tmp_path / "qubo.json"
        assert main(["build", x_path, program_path("ascending"), "-o", str(qubo)]) == 0
        assert main(["solve", str(qubo)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "permutation: 2 4 6 3 0 5 1"
        assert out[1] == "values: -12 10 24 33 46 51 52"
        assert out[2] == "flips: 7"
        args = ["build", str(tmp_path / "x_scaled.json"), program_path("ascending")]
        assert main(args + ["--no-normalize", "-o", str(qubo)]) == 0
        assert main(["solve", str(qubo)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "permutation: 2 4 6 3 0 5 1"
        assert out[3].startswith("energy: -776.35087719")

    def test_max_steps_exit_code(self, reference_files):
        x_path, program_path, tmp_path = reference_files
        qubo = tmp_path / "qubo.json"
        assert main(["build", x_path, program_path("ascending"), "-o", str(qubo)]) == 0
        assert main(["solve", str(qubo), "--max-steps", "2"]) == 4

    def test_infeasible_endpoint_exit_code(self, tmp_path):
        stuck = write_json(
            tmp_path / "stuck.json",
            {"n": 1, "R": [[0.0]], "r": [1.0]},
        )
        assert main(["solve", stuck]) == 4

    def test_single_slot_converges_in_one_flip(self, tmp_path, capsys):
        x_path = write_json(tmp_path / "x.json", [5.0])
        prog = tmp_path / "prog.json"
        assert main(["program", "--kind", "ascending", "--n", "1", "-o", str(prog)]) == 0
        assert json.loads(prog.read_text())["ranks"] == [1]
        qubo = tmp_path / "qubo.json"
        assert main(["build", x_path, str(prog), "-o", str(qubo)]) == 0
        assert main(["solve", str(qubo)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "permutation: 0"
        assert out[2] == "flips: 1"

    def test_nan_in_qubo_file_exit_code(self, reference_files, capsys):
        x_path, program_path, tmp_path = reference_files
        qubo = tmp_path / "qubo.json"
        assert main(["build", x_path, program_path("heap"), "-o", str(qubo)]) == 0
        payload = json.loads(qubo.read_text())
        to_dense(payload)
        payload["R"][3][5] = payload["R"][5][3] = float("nan")
        dense = write_json(tmp_path / "dense.json", payload)
        assert main(["solve", dense]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {dense}: 'R' is not the 49x49 matrix of a finite penalty: "
        )
        payload = json.loads(qubo.read_text())
        payload["penalty"]["same_col"] = float("nan")
        assert main(["solve", write_json(qubo, payload)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.json")]) == 2

    def test_malformed_json_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 2

    def test_missing_key_exit_code(self, tmp_path):
        partial = write_json(tmp_path / "partial.json", {"n": 2, "R": [[0.0]]})
        assert main(["solve", partial]) == 2

    @pytest.mark.parametrize("payload", [5, [[0.0]], None])
    def test_qubo_file_must_be_an_object(self, tmp_path, capsys, payload):
        assert main(["solve", write_json(tmp_path / "qubo.json", payload)]) == 2
        assert "expected a JSON object" in capsys.readouterr().err

    def test_qubo_field_types_checked(self, reference_files):
        x_path, program_path, tmp_path = reference_files
        qubo = tmp_path / "qubo.json"
        assert main(["build", x_path, program_path("heap"), "-o", str(qubo)]) == 0
        payload = json.loads(qubo.read_text())
        for field, value in (("n", None), ("n", float("inf"))):
            assert main(["solve", write_json(qubo, {**payload, field: value})]) == 2

    def test_zero_gain_flip_is_not_malformed_input(self, tmp_path, capsys):
        # A flip whose gain is 0 in exact arithmetic rounds negative here; descent
        # stops before it, at a stable state that is no permutation.  The input
        # is x = [-1, 2, 0, 1, 0, 1] scaled by sum(|x|) = 5 and built unshifted.
        x = [-1.0, 2.0, 0.0, 1.0, 0.0, 1.0]
        x_path = write_json(tmp_path / "x.json", [v / 5.0 for v in x])
        prog = tmp_path / "prog.json"
        assert main(["program", "--kind", "heap", "--n", "6", "-o", str(prog)]) == 0
        qubo = tmp_path / "qubo.json"
        args = ["build", x_path, str(prog), "--lambda-r", "0.2", "--lambda-c", "0.2"]
        assert main(args + ["--no-normalize", "-o", str(qubo)]) == 0
        assert main(["solve", str(qubo)]) == 4
        assert "descent ended in a state that is no permutation" in capsys.readouterr().err

    def test_energy_overflow_exit_code(self, tmp_path, capsys):
        weights = ("--lambda-r", "3e306", "--lambda-c", "3e306")
        qubo = build_file(tmp_path, [3, 1, 2, 5, 4, 0, 7, 6], "ascending", *weights)
        with np.errstate(over="ignore"):
            assert main(["solve", qubo]) == 2
        assert "the energy overflows the float range" in capsys.readouterr().err

    def test_energy_overflow_is_one_line_without_a_warning(self, tmp_path, capsys):
        """numpy's overflow warning no longer precedes the named cause."""
        weights = ("--lambda-r", "3e306", "--lambda-c", "3e306")
        qubo = build_file(tmp_path, [3, 1, 2, 5, 4, 0, 7, 6], "ascending", *weights)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", qubo]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace energies must be finite: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "R, r",
        [
            ([[0.0, 1.7e308], [-1.7e308, 0.0]], [0.0, 0.0]),
            ([[1.7e308, 0.0], [0.0, 0.0]], [1.7e308, 0.0]),
            ([[0.0, 1.7e308, 1.7e308], [1.7e308, 0.0, 0.0], [1.7e308, 0.0, 0.0]], [0.0]),
        ],
        ids=["symmetry", "fold", "ising"],
    )
    def test_dense_overflow_is_one_line_without_a_warning(self, tmp_path, capsys, R, r):
        """An overflow in the symmetry check, in fold_diagonal's r + diag or in
        to_ising's dense R @ 1 once printed a numpy warning ahead of the error.
        None of these R is a penalty, so each is now refused, in one line."""
        pad = 4 - len(R)  # R and r are the leading entries of an n = 2 file
        R = [row + [0.0] * pad for row in R] + [[0.0] * 4] * pad
        payload = {"n": 2, "R": R, "r": r + [0.0] * (4 - len(r))}
        qubo = write_json(tmp_path / "qubo.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", qubo]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {qubo}: 'R' is not the 4x4 matrix of a finite penalty: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "values, ranks",
        [([1.7e308, 0.0], [2, 1]), ([float("inf"), 0.0], [1, 0])],
        ids=["overflow", "inf-times-zero"],
    )
    def test_reward_overflow_is_one_line_without_a_warning(self, tmp_path, capsys, values, ranks):
        penalty = {"n": 2, "same_row": 1.0, "same_col": 1.0, "self_coupling": 2.0}
        payload = {"n": 2, "penalty": penalty,
                   "reward": {"values": values, "ranks": ranks, "offset": 4.0}}
        qubo = write_json(tmp_path / "qubo.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", qubo]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {qubo}: vector_r must be finite")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "kind, bad, message",
        [
            ("qubo", lambda d: d["penalty"].update(same_row=float("nan")), "same_row must be finite"),
            ("qubo", lambda d: d["penalty"].update(n=0), "n must be at least 1"),
            ("qubo", lambda d: d["x"].__setitem__(0, float("nan")), "entries must be finite"),
            ("qubo", b"{not json",
             "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ("x", b"[NaN, 1, 2]", "entries must be finite"),
            ("x", b'"1"', "entries must be real numbers, not str"),
            ("x", b"[]", "need a one-dimensional vector with at least one entry"),
            ("x", b"3\nabc\n2\n", "could not convert string to float: 'abc'"),
            ("x", b"\xff\n1\n2\n",
             "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            ("prog", lambda d: d.update(ranks=[3, True, 2]), "ranks must be integers, not bool"),
            ("prog", lambda d: d.update(kind="bst", branching=3, ranks=[2, 1, 3]),
             "search-tree programs exist for branching 2 only"),
            ("prog", b"not json", "Expecting value: line 1 column 1 (char 0)"),
            ("x", b"[" * 100_000,
             "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
        ],
        ids=[
            "penalty-nan", "penalty-n-zero", "x-nan", "qubo-not-json",
            "x-nan-entry", "x-string", "x-empty", "x-text-word", "x-not-utf8",
            "prog-bool-rank", "prog-ternary-bst", "prog-not-json", "x-nested-too-deep",
        ],
    )
    def test_errors_in_built_values_name_the_file(self, tmp_path, capsys, kind, bad, message):
        """Every error in the content of an x, program or QUBO file is one
        line that names the file; only those of QUBO files once did."""
        qubo = build_file(tmp_path, [3.0, 1.0, 2.0], "ascending")
        path = tmp_path / f"{kind}.json"
        if callable(bad):
            payload = json.loads(path.read_text(encoding="utf-8"))
            bad(payload)
            write_json(path, payload)
        else:
            path.write_bytes(bad)
        x_path, prog = str(tmp_path / "x.json"), str(tmp_path / "prog.json")
        commands = {
            "qubo": [["solve", qubo, "--trace"]],
            "x": [["build", x_path, prog], ["verify", x_path, prog]],
            "prog": [["build", x_path, prog], ["verify", x_path, prog]],
        }[kind]
        for command in commands:
            assert main(command) == 2
            assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    def test_no_seed_or_restarts(self, reference_files, monkeypatch, capsys):
        # solve is one deterministic descent: QP_SEED changes nothing, and
        # neither solve nor verify takes --seed or --restarts
        x_path, program_path, tmp_path = reference_files
        qubo = tmp_path / "qubo.json"
        assert main(["build", x_path, program_path("ascending"), "-o", str(qubo)]) == 0
        assert main(["solve", str(qubo)]) == 0
        first = capsys.readouterr().out
        monkeypatch.setenv("QP_SEED", "garbage")
        assert main(["solve", str(qubo)]) == 0
        assert capsys.readouterr().out == first
        for command in (["solve", str(qubo)], ["verify", x_path, program_path("ascending")]):
            for flag in (["--seed", "3"], ["--restarts", "2"]):
                with pytest.raises(SystemExit) as exc:
                    main(command + flag)
                assert exc.value.code == 2


PROGRAMS = {
    "ascending": ascending_program,
    "descending": descending_program,
    "bst": bst_program,
    "heap": heap_program,
}


@st.composite
def build_cases(draw):
    """(values, lambda_r, lambda_c, normalize) for a build at n <= 12."""
    n = draw(st.integers(1, 12))
    style = draw(st.sampled_from(("signed", "duplicate", "constant", "spread")))
    if style == "signed":
        entry = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    elif style == "duplicate":
        entry = st.integers(-3, 3)
    elif style == "constant":
        entry = st.just(draw(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)))
    else:  # x - min(x) or its sum beyond the float range
        entry = st.sampled_from([-1.7e308, -1e308, -1.0, 0.0, 0.5, 1e308, 1.7e308])
    values = [float(v) for v in draw(st.lists(entry, min_size=n, max_size=n))]
    weight = st.one_of(
        st.builds(lambda m, k: m / 2**k, st.integers(1, 64), st.integers(0, 4)),  # dyadic
        st.floats(0.05, 30.0),
    )
    return values, draw(weight), draw(weight), draw(st.booleans())


class TestQuboFileFormat:
    """build writes the penalty as its four numbers and the reward as its
    2n + 1; solve reads them back as a PenaltyMatrix and as the r that
    build_qubo forms.  Files with a dense "R" or a dense "r" still load; a
    dense "R" is read as the PenaltyMatrix it equals, and any other is
    refused."""

    def test_read_back_as_a_penalty_matrix(self, tmp_path):
        instance, x = cli._load(build_file(tmp_path, ref.INPUT_X, "heap"), cli._qubo)
        assert isinstance(instance.matrix_R, PenaltyMatrix)
        assert x.entries.tolist() == ref.INPUT_X

    def test_integer_rewards_are_multiplied_as_floats(self, tmp_path):
        """values and ranks are read as floats, as build_qubo forms r: an
        integer product beyond 2^63 would wrap silently."""
        penalty = {"n": 1, "same_row": 0.0, "same_col": 0.0, "self_coupling": 2.0}
        payload = {"n": 1, "penalty": penalty, "reward": {"values": [2**62], "ranks": [4], "offset": 0}}
        instance, _ = cli._load(write_json(tmp_path / "qubo.json", payload), cli._qubo)
        assert instance.vector_r.tolist() == [-(2.0**64)]

    def test_file_at_n24_holds_no_n4_numbers(self, tmp_path):
        # with the penalty written dense, this file took about 1.7 MB, and
        # with r written dense about 12 kB
        values = np.random.default_rng(24).normal(size=24).tolist()
        assert os.path.getsize(build_file(tmp_path, values, "heap")) < 2_000

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(PROGRAMS)), build_cases())
    def test_reward_read_back_bit_for_bit(self, kind, case):
        values, lambda_r, lambda_c, normalize = case
        n = len(values)
        flags = ["--lambda-r", repr(lambda_r), "--lambda-c", repr(lambda_c)]
        if not normalize:
            flags.append("--no-normalize")
        with tempfile.TemporaryDirectory() as tmp:
            x_path = write_json(Path(tmp) / "x.json", values)
            prog = str(Path(tmp) / "prog.json")
            assert main(["program", "--kind", kind, "--n", str(n), "-o", prog]) == 0
            qubo = str(Path(tmp) / "qubo.json")
            try:
                instance = build_qubo(
                    ValueVector(values), PROGRAMS[kind](n), lambda_r, lambda_c, normalize
                )
            except DomainError:  # r beyond the float range, unnormalized
                assert main(["build", x_path, prog, *flags, "-o", qubo]) == 2
                return
            assert main(["build", x_path, prog, *flags, "-o", qubo]) == 0
            got = cli._load(qubo, cli._qubo)[0].vector_r
        assert got.tobytes() == instance.vector_r.tobytes()

    def test_build_and_solve_form_no_dense_matrix(self, tmp_path, monkeypatch):
        def refuse(self, dtype=None, copy=None):
            raise AssertionError("the penalty was materialized")

        monkeypatch.setattr(PenaltyMatrix, "__array__", refuse)
        assert main(["solve", build_file(tmp_path, ref.INPUT_X, "bst"), "--trace"]) == 0

    @pytest.mark.parametrize("kind", ["ascending", "bst", "heap"])
    @pytest.mark.parametrize(
        "values, flags",
        [(ref.INPUT_X, []), (SIGNED_X, []), (SCALED_X, ["--no-normalize"])],
        ids=["paper", "signed", "frozen-route"],
    )
    def test_same_output_as_the_dense_file(self, tmp_path, capsys, kind, values, flags):
        # a dense "R" is read as the file's PenaltyMatrix, so one descent runs
        qubo = build_file(tmp_path, values, kind, *flags)
        payload = json.loads(Path(qubo).read_text(encoding="utf-8"))
        to_dense(payload)
        dense_R = write_json(tmp_path / "dense_R.json", payload)
        dense_reward(payload)
        dense_both = write_json(tmp_path / "dense_both.json", payload)
        outputs = []
        for path in (qubo, dense_R, dense_both):
            assert main(["solve", path, "--trace"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("kind", ["ascending", "bst", "heap"])
    def test_non_integer_weights_match_the_library_chain(self, tmp_path, capsys, kind):
        values = np.random.default_rng(3).normal(size=6).tolist()
        qubo = build_file(tmp_path, values, kind, "--lambda-r", "6.3", "--lambda-c", "5.9")
        assert main(["solve", qubo, "--trace"]) == 0
        x = ValueVector(values)
        instance = build_qubo(x, make_program(kind, 6), lambda_r=6.3, lambda_c=5.9)
        state_z, trace = solve_qubo(instance)
        mapping = decode_permutation(state_z).as_mapping
        expected = [
            *render_trace(trace),
            "permutation: " + " ".join(map(str, mapping)),
            "values: " + " ".join(f"{v:g}" for v in x.entries[list(mapping)]),
            f"flips: {trace.flips}",
            f"energy: {trace.final_energy!r}",
        ]
        assert capsys.readouterr().out.splitlines() == expected

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(x=[1, 2]), "'x' holds 2 numbers"),
            (lambda d: d.update(x=None), "'x' must be real numbers, not NoneType"),
            (lambda d: d.update(x=["3", "1", "2"]), "'x' must be real numbers, not str"),
            (lambda d: d.update(n=3.7), "must be an integer"),
            (lambda d: d["penalty"].update(n=2.5), "must be an integer"),
            (lambda d: (dense_reward(d), d.update(r=[str(v) for v in d["r"]])),
             "vector_r must be real numbers, not str"),
            (lambda d: d["penalty"].update(same_row="3"), "same_row must be a finite number, not '3'"),
            (lambda d: d["penalty"].update(self_coupling=float("nan")), "finite"),
            (lambda d: d["penalty"].pop("same_col"), "lacks 'same_col'"),
            (lambda d: d.update(penalty=[3, 3.0, 3.0, 6.0]), "must be an object"),
            (lambda d: to_dense(d, entry="0"), "'R' must be real numbers, not str"),
            (lambda d: d.update(R=[[0.0] * 9] * 9), "'penalty' and 'R', found both"),
            (lambda d: d.pop("penalty"), "'penalty' and 'R', found neither"),
            (lambda d: d.update(reward=[[0.5, 0.5, 0.0], [1, 2, 3], 12.0]), "must be an object"),
            (lambda d: d["reward"].pop("ranks"), "'reward' lacks 'ranks'"),
            (lambda d: d["reward"].update(values=["0.5", "0.5", "0"]),
             "reward.values must be real numbers, not str"),
            (lambda d: d["reward"].update(ranks=["1", "2", "3"]),
             "reward.ranks must be real numbers, not str"),
            (lambda d: d["reward"].update(offset="12"),
             "reward.offset must be a finite number, not '12'"),
            (lambda d: d["reward"].update(offset=10**400), "reward.offset must be finite"),
            (lambda d: d["reward"].update(values=[0.5, 0.5]),
             "must hold n=3 numbers each, not shapes (2,) and (3,)"),
            (lambda d: d["reward"]["ranks"].append(4),
             "must hold n=3 numbers each, not shapes (3,) and (4,)"),
            (lambda d: d.update(r=[0.0] * 9), "'reward' and 'r', found both"),
            (lambda d: d.pop("reward"), "'reward' and 'r', found neither"),
            (lambda d: (dense_reward(d), d.pop("x"), d.update(n=2)), "penalty.n=3 but n=2"),
            (lambda d: d["penalty"].update(n=2), "penalty.n=2 but n=3"),
            (lambda d: (dense_reward(d), d["r"].pop()), "matrix_R is 9x9 but vector_r has shape (8,)"),
            (lambda d: (to_dense(d), d.update(n=2)), "'R' is not the 4x4 matrix of a finite"),
            (infinite_diagonal,
             "'R' is not the 9x9 matrix of a finite penalty: self_coupling on the diagonal"),
            (lambda d: d.pop("n"), "missing key 'n'"),
        ],
        ids=[
            "x-length", "x-null", "x-strings", "n-fraction", "penalty-n-fraction",
            "r-strings", "penalty-string", "penalty-nan", "penalty-field-missing",
            "penalty-not-object", "R-strings",
            "both-forms", "neither-form", "reward-not-object",
            "reward-field-missing", "reward-values-strings", "reward-ranks-strings",
            "reward-offset-string", "reward-offset-beyond-float", "reward-values-length", "reward-ranks-length",
            "both-reward-forms", "neither-reward-form", "n-not-the-penalty-n",
            "penalty-n-not-n", "r-not-n-squared", "R-not-n-squared", "R-infinite-diagonal",
            "n-missing",
        ],
    )
    def test_whole_file_checked_before_any_output(self, tmp_path, capsys, edit, message):
        qubo = build_file(tmp_path, [3.0, 1.0, 2.0], "ascending")
        payload = json.loads(Path(qubo).read_text(encoding="utf-8"))
        edit(payload)
        bad = write_json(tmp_path / "bad.json", payload)
        assert main(["solve", bad, "--trace"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {bad}: ") and message in err
        assert err.count("\n") == 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
        st.randoms(use_true_random=False),
    )
    def test_dense_R_solves_as_its_penalty(self, n, coefficients, rnd):
        """Any PenaltyMatrix, materialized and written as "R", prints what its
        "penalty" file prints: negative weights, +-0.0 and weights whose
        energies overflow included."""
        same_row, same_col, self_coupling = coefficients
        penalty = {"n": n, "same_row": same_row, "same_col": same_col,
                   "self_coupling": self_coupling}
        reward = {"values": [rnd.uniform(-10.0, 10.0) for _ in range(n)],
                  "ranks": rnd.sample(range(1, n + 1), n), "offset": rnd.uniform(-50.0, 50.0)}
        payload = {"n": n, "penalty": penalty, "reward": reward}
        outputs = []
        with tempfile.TemporaryDirectory() as tmp:
            for form in ("penalty", "R"):
                if form == "R":
                    to_dense(payload)
                qubo = write_json(Path(tmp) / "qubo.json", payload)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with contextlib.redirect_stdout(io.StringIO()) as out, \
                            contextlib.redirect_stderr(io.StringIO()) as err:
                        code = main(["solve", qubo, "--trace"])
                outputs.append((code, out.getvalue(), err.getvalue()))
        assert outputs[0] == outputs[1]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 6),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
        st.one_of(st.floats().filter(lambda v: v != 0.0), st.sampled_from([5e-324, -1.0])),
        st.data(),
    )
    def test_R_off_the_penalty_pattern_is_refused(self, n, coefficients, entry, data):
        """Changing one entry that couples cells of different rows and columns
        of Z, and its mirror, makes R no penalty: one error line, no output."""
        N = n * n
        i = data.draw(st.integers(0, N - 1))
        j = data.draw(st.integers(0, N - 1).filter(
            lambda j: j // n != i // n and j % n != i % n))
        payload = {"n": n, "penalty": dict(zip(("same_row", "same_col", "self_coupling"),
                                               coefficients), n=n),
                   "r": [0.0] * N}
        to_dense(payload)
        payload["R"][i][j] = payload["R"][j][i] = entry
        with tempfile.TemporaryDirectory() as tmp:
            qubo = write_json(Path(tmp) / "qubo.json", payload)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with contextlib.redirect_stdout(io.StringIO()) as out, \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    assert main(["solve", qubo]) == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith(
            f"error: {qubo}: 'R' is not the {N}x{N} matrix of a finite penalty: "
        )
        assert err.getvalue().count("\n") == 1

    @pytest.mark.parametrize(
        "legacy",
        [
            {"lambda_r": 7.0, "lambda_c": 7.0, "normalized": True},
            {"lambda_r": 123, "lambda_c": 0.5, "normalized": False},
            {"lambda_r": None, "lambda_c": "7", "normalized": "garbage"},
        ],
        ids=["as-written", "contradicting", "not-numbers"],
    )
    def test_legacy_keys_are_ignored(self, tmp_path, capsys, legacy):
        """Files once carried "lambda_r", "lambda_c" and "normalized", which
        nothing read; such files solve as before, whatever those keys hold."""
        qubo = build_file(tmp_path, SIGNED_X, "heap")
        assert main(["solve", qubo, "--trace"]) == 0
        expected = capsys.readouterr()
        payload = json.loads(Path(qubo).read_text(encoding="utf-8"))
        legacy_file = write_json(tmp_path / "legacy.json", {**payload, **legacy})
        assert main(["solve", legacy_file, "--trace"]) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.slow
    def test_heap_at_n200_through_a_file(self, tmp_path, capsys):
        # written dense, the penalty would take 1.6e9 numbers
        values = np.random.default_rng(200).normal(size=200)
        qubo = build_file(tmp_path, values.tolist(), "heap")
        assert os.path.getsize(qubo) < 20_000
        assert main(["solve", qubo]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("permutation: ")
        P = np.zeros((200, 200))
        P[np.arange(200), [int(tok) for tok in line.split()[1:]]] = 1.0
        report = certify(ValueVector(values), heap_program(200), vectorize(P))
        assert report.feasible and report.optimal and report.structure_valid


class TestVerifyCommand:
    def test_reference_heap_passes(self, reference_files, capsys):
        x_path, program_path, _ = reference_files
        assert main(["verify", x_path, program_path("heap")]) == 0
        out = capsys.readouterr().out
        assert "feasible permutation     PASS" in out
        assert "objective vs oracle      PASS" in out
        assert "structure (heap)         PASS" in out

    def test_never_enumerates_orderings(self, reference_files, monkeypatch):
        import qperm.oracle

        def refuse(*args):
            raise AssertionError("verify enumerated orderings")

        monkeypatch.setattr(qperm.oracle, "best_permutation", refuse)
        x_path, program_path, _ = reference_files
        assert main(["verify", x_path, program_path("bst")]) == 0

    def test_sorting_structure_skipped(self, reference_files, capsys):
        x_path, program_path, _ = reference_files
        assert main(["verify", x_path, program_path("ascending")]) == 0
        assert "structure (ascending)    SKIP" in capsys.readouterr().out

    def test_ternary_search_tree_refused_before_any_descent(self, tmp_path, capsys, monkeypatch):
        """A bst program file of branching 3 was once built and descended, and
        verify then stopped with exit 2 in certify."""
        x_path = write_json(tmp_path / "x.json", [3.0, 1.0, 2.0])
        payload = {"n": 3, "kind": "bst", "branching": 3, "ranks": [2, 1, 3]}
        prog = write_json(tmp_path / "bst3.json", payload)
        solve = mock.Mock(side_effect=AssertionError("verify descended"))
        monkeypatch.setattr(cli, "solve_qubo", solve)
        assert main(["verify", x_path, prog]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {prog}: search-tree programs exist for branching 2 only\n"
        solve.assert_not_called()

    @pytest.mark.parametrize("text", ["5\n", "5", "[5]\n", " 5.0 \n\n"])
    def test_one_number_is_one_entry(self, tmp_path, capsys, text):
        """A plain-text x file of one number once exited 2: JSON read the
        line as a number, which was no array."""
        one = tmp_path / "one.txt"
        one.write_text(text)
        prog = tmp_path / "p1.json"
        assert main(["program", "--kind", "ascending", "--n", "1", "-o", str(prog)]) == 0
        assert main(["verify", str(one), str(prog)]) == 0
        assert "objective vs oracle      PASS" in capsys.readouterr().out
        assert main(["build", str(one), str(prog)]) == 0
        assert json.loads(capsys.readouterr().out)["x"] == [5.0]

    def test_failed_check_exit_code(self, tmp_path, capsys):
        """Equal values once failed the search-tree check, which compared
        strictly, and verify exited 5; in order they never decrease."""
        x_path = write_json(tmp_path / "x.json", [5.0, 5.0, 5.0])
        prog = tmp_path / "prog.json"
        assert main(["program", "--kind", "bst", "--n", "3", "-o", str(prog)]) == 0
        assert main(["verify", x_path, str(prog)]) == 0
        out = capsys.readouterr().out
        assert "objective vs oracle      PASS" in out
        assert "structure (bst)          PASS" in out

    def test_first_descent_sorts_two_negatives(self, tmp_path, capsys):
        x_path = write_json(tmp_path / "x.json", [-1.0, -2.0])
        prog = tmp_path / "prog.json"
        assert main(["program", "--kind", "ascending", "--n", "2", "-o", str(prog)]) == 0
        assert main(["verify", x_path, str(prog)]) == 0
        assert "objective vs oracle      PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "values, arranged",
        [
            ([1e308, -1e308, 0.0], "-1e+308 0 1e+308"),  # the shift overflows
            ([1e308, 1.5e308, 0.0], "0 1e+308 1.5e+308"),  # the shifted sum overflows
        ],
    )
    def test_spread_beyond_float_range(self, tmp_path, capsys, values, arranged):
        x_path = write_json(tmp_path / "x.json", values)
        prog = tmp_path / "prog.json"
        assert main(["program", "--kind", "ascending", "--n", "3", "-o", str(prog)]) == 0
        assert main(["build", x_path, str(prog), "-o", str(tmp_path / "qubo.json")]) == 0
        assert main(["solve", str(tmp_path / "qubo.json")]) == 0
        assert f"values: {arranged}\n" in capsys.readouterr().out
        assert main(["verify", x_path, str(prog)]) == 0
        assert "objective vs oracle      PASS" in capsys.readouterr().out

    def test_input_below_float_resolution_fails(self, tmp_path, capsys):
        # 1e17 + 32 and 1e17 + 64 are closer than the QUBO resolves at this spread
        x_path = write_json(tmp_path / "x.json", [0.0, 1e17, 1e17 + 64, 1e17 + 32])
        prog = tmp_path / "prog.json"
        assert main(["program", "--kind", "ascending", "--n", "4", "-o", str(prog)]) == 0
        assert main(["verify", x_path, str(prog)]) == 5
        assert "objective vs oracle      FAIL" in capsys.readouterr().out

    def test_duplicate_values_note(self, tmp_path, capsys):
        x_path = write_json(tmp_path / "x.json", [5.0, 5.0])
        prog = tmp_path / "prog.json"
        assert main(["program", "--kind", "ascending", "--n", "2", "-o", str(prog)]) == 0
        assert main(["verify", x_path, str(prog)]) == 0
        assert "objective-tie" in capsys.readouterr().out

    def test_size_guards(self, tmp_path):
        x11 = write_json(tmp_path / "x11.json", [float(i) for i in range(1, 12)])
        prog11 = tmp_path / "prog11.json"
        assert main(["program", "--kind", "ascending", "--n", "11", "-o", str(prog11)]) == 0
        assert main(["verify", x11, str(prog11)]) == 0

    def test_paper_regime_at_n40(self, tmp_path, capsys):
        values = np.random.default_rng(40).permutation(np.arange(1.0, 41.0)) * 3.5
        x_path = write_json(tmp_path / "x.json", values.tolist())
        prog = tmp_path / "prog.json"
        assert main(["program", "--kind", "heap", "--n", "40", "-o", str(prog)]) == 0
        assert main(["verify", x_path, str(prog)]) == 0
        assert "structure (heap)         PASS" in capsys.readouterr().out

    @pytest.mark.slow
    def test_gaussian_heap_at_n40(self, tmp_path, capsys):
        # built unshifted (x scaled by sum(|x|), --no-normalize), one descent ends
        # feasible but suboptimal on this input
        values = np.random.default_rng(0).normal(size=40)
        x_path = write_json(tmp_path / "x.json", values.tolist())
        prog = tmp_path / "prog.json"
        assert main(["program", "--kind", "heap", "--n", "40", "-o", str(prog)]) == 0
        assert main(["verify", x_path, str(prog)]) == 0
        out = capsys.readouterr().out
        assert "objective vs oracle      PASS" in out
        assert "structure (heap)         PASS" in out


TOP_USAGE = "usage: qperm [-h] command ...\n"
TOP_HELP = TOP_USAGE + """
Compile ordering tasks into QUBO form and solve them by Hopfield descent.

positional arguments:
  command
    program   generate an order-program file
    build     compile an input vector and a program into a QUBO
    solve     run the descent on a QUBO file
    verify    end-to-end run plus certification against the sort optimum

options:
  -h, --help  show this help message and exit
"""
PROGRAM_USAGE = """usage: qperm program [-h] --kind {ascending,descending,bst,heap} --n N
                     [--branching BRANCHING] [-o OUT]
"""
SOLVE_USAGE = "usage: qperm solve [-h] [--trace] [--max-steps MAX_STEPS] qubo_file\n"
COMMAND_HELP = {
    "program": PROGRAM_USAGE
    + """
options:
  -h, --help            show this help message and exit
  --kind {ascending,descending,bst,heap}
  --n N
  --branching BRANCHING
                        tree arity for bst and heap (default 2)
  -o OUT, --out OUT     output path (default: stdout)
""",
    "build": """usage: qperm build [-h] [--lambda-r LAMBDA_R] [--lambda-c LAMBDA_C]
                   [--no-normalize] [-o OUT]
                   x_file program_file

positional arguments:
  x_file
  program_file

options:
  -h, --help           show this help message and exit
  --lambda-r LAMBDA_R  row penalty (default n)
  --lambda-c LAMBDA_C  column penalty (default n)
  --no-normalize
  -o OUT, --out OUT    output path (default: stdout)
""",
    "solve": SOLVE_USAGE
    + """
positional arguments:
  qubo_file

options:
  -h, --help            show this help message and exit
  --trace               print one line per step
  --max-steps MAX_STEPS
""",
    "verify": """usage: qperm verify [-h] x_file program_file

positional arguments:
  x_file
  program_file

options:
  -h, --help    show this help message and exit
""",
}
if sys.version_info >= (3, 13):  # argparse names the metavar once: "-o, --out OUT"
    COMMAND_HELP = {
        c: h.replace("-o OUT, --out OUT", "-o, --out OUT    ") for c, h in COMMAND_HELP.items()
    }


def run_cli(argv, capsys):
    """(code, stdout, stderr) of main(argv); code is what main returns or
    the code of the SystemExit that argparse raises."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestCommandLineParsing:
    """What argparse prints and exits with, byte for byte, for the command
    lines that reach the top-level parser's help and errors."""

    @pytest.fixture(autouse=True)
    def _fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                [],
                (2, "", TOP_USAGE + "qperm: error: the following arguments are required: command\n"),
            ),
            (["-h"], (0, TOP_HELP, "")),
            (["--help"], (0, TOP_HELP, "")),
            (["-h", "program"], (0, TOP_HELP, "")),
            (
                ["bogus"],
                (
                    2,
                    "",
                    TOP_USAGE + "qperm: error: argument command: invalid choice: 'bogus' "
                    "(choose from 'program', 'build', 'solve', 'verify')\n",
                ),
            ),
            (
                ["program", "--kind", "heap"],
                (
                    2,
                    "",
                    PROGRAM_USAGE + "qperm program: error: the following arguments are required: --n\n",
                ),
            ),
            (
                ["solve"],
                (
                    2,
                    "",
                    SOLVE_USAGE + "qperm solve: error: the following arguments are required: qubo_file\n",
                ),
            ),
            (
                ["solve", "q.json", "extra"],
                (2, "", TOP_USAGE + "qperm: error: unrecognized arguments: extra\n"),
            ),
            (
                ["verify", "x.json", "p.json", "--exh", "-x", "y"],
                (2, "", TOP_USAGE + "qperm: error: unrecognized arguments: --exh -x y\n"),
            ),
            (
                ["verify", "x.json", "p.json", "--exhaustive"],
                (2, "", TOP_USAGE + "qperm: error: unrecognized arguments: --exhaustive\n"),
            ),
        ],
    )
    def test_help_and_errors(self, capsys, argv, expected):
        assert run_cli(argv, capsys) == expected

    @pytest.mark.parametrize("command", sorted(COMMAND_HELP))
    def test_command_help(self, capsys, command):
        assert run_cli([command, "-h"], capsys) == (0, COMMAND_HELP[command], "")

    def test_console_script_exits_with_the_code_of_main(self, monkeypatch, capsys, tmp_path):
        absent = str(tmp_path / "absent.json")
        for argv, code in ((["program", "--kind", "heap", "--n", "3"], 0), (["solve", absent], 2)):
            monkeypatch.setattr(sys, "argv", ["qperm", *argv])
            with pytest.raises(SystemExit) as raised:
                cli.run()
            assert raised.value.code == code
        out, err = capsys.readouterr()
        assert out.startswith('{\n  "n": 3,') and err.count("\n") == 1 and absent in err

    def test_abbreviated_options_and_double_dash(self, tmp_path, capsys):
        """Each unique prefix of a long option, and a -- before the
        positionals, parses as the full command line does."""
        qubo = build_file(tmp_path, [3.0, 1.0, 2.0], "bst")
        prog = str(tmp_path / "prog.json")
        x_path = str(tmp_path / "x.json")
        same = [
            (
                ["program", "--kind", "heap", "--n", "5", "--bran", "3"],
                ["program", "--kind", "heap", "--n", "5", "--branching", "3"],
            ),
            (["solve", qubo, "--max", "2"], ["solve", qubo, "--max-steps", "2"]),
            (["solve", "--", qubo], ["solve", qubo]),
            (["verify", x_path, "--", prog], ["verify", x_path, prog]),
        ]
        for short, full in same:
            assert run_cli(short, capsys) == run_cli(full, capsys)
        code, out, err = run_cli(same[0][0], capsys)
        assert (code, err) == (0, "") and json.loads(out)["branching"] == 3
        code, out, err = run_cli(same[1][0], capsys)
        assert (code, out) == (4, "") and err.startswith("error: ")
        code, out, err = run_cli(same[2][0], capsys)
        assert (code, err) == (0, "") and out.startswith("permutation: ")
