import json

import numpy as np
import pytest

from qperm.cli import main

from . import reference_run as ref


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


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


class TestBuildCommand:
    def test_qubo_file_contents(self, reference_files):
        x_path, program_path, tmp_path = reference_files
        out = tmp_path / "qubo.json"
        assert main(["build", x_path, program_path("ascending"), "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["n"] == 7
        assert data["lambda_r"] == 7.0
        assert data["lambda_c"] == 7.0
        assert data["normalized"] is True
        R = np.array(data["R"])
        assert R.shape == (49, 49)
        assert np.array_equal(R, R.T)
        assert np.allclose(np.diag(R), 14.0)
        assert len(data["r"]) == 49
        assert data["x"] == ref.INPUT_X
        assert data["program"]["kind"] == "ascending"

    def test_penalty_flags(self, reference_files):
        x_path, program_path, tmp_path = reference_files
        out = tmp_path / "qubo.json"
        args = ["build", x_path, program_path("ascending"),
                "--lambda-r", "3.5", "--lambda-c", "2.5", "-o", str(out)]
        assert main(args) == 0
        data = json.loads(out.read_text())
        assert data["lambda_r"] == 3.5
        assert data["lambda_c"] == 2.5
        assert np.allclose(np.diag(np.array(data["R"])), 6.0)

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

    @pytest.mark.parametrize("payload", [{"a": 1}, None, 5.0, [], ["1", "2"], [[1.0, 2.0]], [True]])
    def test_x_file_must_be_an_array_of_numbers(self, reference_files, capsys, payload):
        _, program_path, tmp_path = reference_files
        x_path = write_json(tmp_path / "bad_x.json", payload)
        assert main(["build", x_path, program_path("ascending")]) == 2
        assert "array of numbers" in capsys.readouterr().err

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
            {
                "n": 1,
                "lambda_r": 1.0,
                "lambda_c": 1.0,
                "normalized": True,
                "R": [[0.0]],
                "r": [1.0],
            },
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
        payload["R"][3][5] = payload["R"][5][3] = float("nan")
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
        for field, value in (("n", None), ("lambda_r", None), ("n", float("inf"))):
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

    def test_exhaustive_agreement_small_instance(self, tmp_path, capsys):
        x_path = write_json(tmp_path / "x.json", [3.0, 1.0, 4.0])
        prog = tmp_path / "prog.json"
        assert main(["program", "--kind", "bst", "--n", "3", "-o", str(prog)]) == 0
        assert main(["verify", x_path, str(prog), "--exhaustive"]) == 0
        assert "exhaustive agreement     PASS" in capsys.readouterr().out

    def test_failed_check_exit_code(self, tmp_path, capsys):
        # equal values cannot form a strict search tree, however they are placed
        x_path = write_json(tmp_path / "x.json", [5.0, 5.0, 5.0])
        prog = tmp_path / "prog.json"
        assert main(["program", "--kind", "bst", "--n", "3", "-o", str(prog)]) == 0
        assert main(["verify", x_path, str(prog)]) == 5
        out = capsys.readouterr().out
        assert "objective vs oracle      PASS" in out
        assert "structure (bst)          FAIL" in out

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

        x5 = write_json(tmp_path / "x5.json", [1.0, 2.0, 3.0, 4.0, 5.0])
        prog5 = tmp_path / "prog5.json"
        assert main(["program", "--kind", "ascending", "--n", "5", "-o", str(prog5)]) == 0
        assert main(["verify", x5, str(prog5), "--exhaustive"]) == 2

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
