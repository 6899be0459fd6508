import contextlib
import hashlib
import io
import json
import os
import runpy
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qperm import (
    DomainError,
    PenaltyMatrix,
    SolverTrace,
    ValueVector,
    build_qubo,
    certify,
    decode_permutation,
    heap_program,
    solve_qubo,
)
from qperm import cli
from qperm.builder import qubo_terms, reward_vector
from qperm.cli import main, render_trace

from . import reference_run as ref
from .conftest import (
    PROGRAMS,
    input_values,
    make_program,
    near_float_limit,
    program_argv,
    shifted,
    x_of,
)
from .reference import bits, replay, vectorize


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def materialized_penalty(data):
    """The dense R of a built QUBO file, from its "penalty"."""
    return np.asarray(PenaltyMatrix(**data["penalty"]))


def input_files(tmp_path, values, kind):
    """Write x and a program of the given kind for it; returns the two paths."""
    x_path = write_json(tmp_path / "x.json", list(values))
    prog = str(tmp_path / "prog.json")
    assert main([*program_argv(kind, len(values)), "-o", prog]) == 0
    return x_path, prog


def build_file(tmp_path, values, kind, *flags):
    """Write x, a program of the given kind and the QUBO file build makes of them."""
    x_path, prog = input_files(tmp_path, values, kind)
    qubo = str(tmp_path / "qubo.json")
    assert main(["build", x_path, prog, *flags, "-o", qubo]) == 0
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


BUILD_FLAGS = {
    "default": [],
    "raw": ["--no-normalize"],
    "lambda": ["--lambda-r", "2.5", "--lambda-c", "0.7"],
}
HUGE_X = [1e308, -1e308, 0.0]  # a spread beyond the float range
OVERFLOWING_X = [1.7e308, -1.7e308, 1.0]  # unnormalized, r leaves the float range

# sha256 of the file `qperm build x.json prog.json [flags] -o qubo.json`
# writes, for x_of(regime, n) or HUGE_X and conftest.program_argv(kind, n),
# recorded while build still formed r and threw it away.
BUILD_DIGESTS = {
    ("gaussian", "ascending", 8, "default"):
        "d999a5d9d5c32cbd5109ea6593f4dcdfd1789ca6207abedf335ef6d23edeefb0",
    ("gaussian", "ascending", 8, "lambda"):
        "a4873b20b9850d689bbd2ada575bb27e26b15b55111eee62ea0599469b4b0452",
    ("gaussian", "ascending", 8, "raw"):
        "8856d2677e78ce373a7575a98cd05d3a4e0c11b20a1a552412ede4eb032b5f0d",
    ("gaussian", "ascending", 24, "default"):
        "e7fb03ad64b8978a20c6c2acc1af7e7aa347aa6b708701260547011791bb6de8",
    ("gaussian", "ascending", 24, "lambda"):
        "98c89439a794050504a1fa4928db1a880895bcad5f058d2a94ca9eedcb1dc0c3",
    ("gaussian", "ascending", 24, "raw"):
        "14efb3947f92045ad3914995e272604b8e4d365d2069c3b56e8903dcf7d7ae79",
    ("gaussian", "bst", 8, "default"):
        "f7cfb76ed0e3fbb15f67feb9ef62c4886eca2a78f6cc21d5b90839246e9cd5eb",
    ("gaussian", "bst", 8, "lambda"):
        "fb2569a7b9d11553f10b2586ad9f04df7a73a636c22a4654be1f7be42ecb5c28",
    ("gaussian", "bst", 8, "raw"):
        "8017a63898c3177620efec72c2b47660c7c2073254e52d1f34dea18cfa10f382",
    ("gaussian", "bst", 24, "default"):
        "3081df0b5019e643d43e98a66730fcd2bab18912bee332836f85b81a04ab1cdc",
    ("gaussian", "bst", 24, "lambda"):
        "9eb37210bdf409e133212f1500c75ae5caede783f9435a30f32f5487c69212fb",
    ("gaussian", "bst", 24, "raw"):
        "3366394ec24e962564d56b63dbb394521f11b97dc59169d59a1aac1d9f8cbe83",
    ("gaussian", "descending", 8, "default"):
        "e1060c407ff420614aaacc3a58bb8da21e202f9ba07e32dc01c2a3d79a87d7fa",
    ("gaussian", "descending", 8, "lambda"):
        "0dd9b482d62dbd595043a851f33fcd054d5e95c85a91770ab88666f87fc9ecb1",
    ("gaussian", "descending", 8, "raw"):
        "b8e7a0567f3d608736a1b51ceaee44e6185f2e3c5bdcd724ce8a7cb82fcb7338",
    ("gaussian", "descending", 24, "default"):
        "cedd530f4c9d9efc0257a87adf95d5b57024071cfcdf8111cc5e6311e86ff6ed",
    ("gaussian", "descending", 24, "lambda"):
        "c4c669160b4706d6ebb425db2850e13e847cded97b325ca4bdad24c2a7c11267",
    ("gaussian", "descending", 24, "raw"):
        "ac97b08b3f9f4c1d47d684cf124955e99c40dfe7648d6750c2e7ea3440aadabf",
    ("gaussian", "heap", 8, "default"):
        "96e70a30fd23ae8595de47f348e745fc565df75e791c636cef3617f403d98cec",
    ("gaussian", "heap", 8, "lambda"):
        "e6dca49fa8cc5ec957f305e7d75c4480c4ce938dd9ef5f39a016268ef461b11b",
    ("gaussian", "heap", 8, "raw"):
        "8e5f7124f404621abf737ee932f2ef4d3f68e678d34167f0cad944d983e57bf7",
    ("gaussian", "heap", 24, "default"):
        "817a0f2f1661da23a1da9b19197a3314d32f526871bdbefb2eb97b4f9963462a",
    ("gaussian", "heap", 24, "lambda"):
        "0c253feba8e1aadb927187b3d642deb5f4ad66a9b6eb7fd9db47f0bc50184c8a",
    ("gaussian", "heap", 24, "raw"):
        "caa53380ffea0bea0d45c64f289167214d9147057182a71cb3c5728f3af7119c",
    ("gaussian", "heap3", 8, "default"):
        "3afa5446ffe0a96f4754b9e598be12bb2daabcd8dc5ce447ed8c5f71daeb71a2",
    ("gaussian", "heap3", 8, "lambda"):
        "dad4102613d63cbcc407ffcab645bcd64601de85f09939305b4138b3a1687574",
    ("gaussian", "heap3", 8, "raw"):
        "af23ffee9ae2121d91c7d9539f3fbf73c0953977be6b49d72312719b8c7b0017",
    ("gaussian", "heap3", 24, "default"):
        "b41f6ed2858a5c080450d7bf614a93964c49477a2110da6f4eab068e0de632fc",
    ("gaussian", "heap3", 24, "lambda"):
        "1f255ee324427abf5280dbafd0e1efa9ce2d997a69d1283d54485332b8996a6a",
    ("gaussian", "heap3", 24, "raw"):
        "c0d6cd1ff9b51d5124847a8fe04596fb6257457268da36d235961d2fdb7b5eaf",
    ("huge", "ascending", 3, "default"):
        "907317098b0e4fc98ac478a7d544cab4a0968630db9ac534bad6fd1c4d274093",
    ("huge", "ascending", 3, "lambda"):
        "7f43295d5c3ac629bc59e3183dae33aa7a78eb5936f77517770f60ed664014cf",
    ("paper", "ascending", 8, "default"):
        "21a56d0ab8798def5773a7b7e89ece848afa7cc24ff52d7b19b3db2c652c1f04",
    ("paper", "ascending", 8, "lambda"):
        "921194a149351418f737752e0c91721eb4b953d4536de4cea9184b6bc4b26afc",
    ("paper", "ascending", 8, "raw"):
        "406f38d9f592a5a7cf3c2afe1eb5e5bf18e24b2e710852c5e8bd746f93c531c1",
    ("paper", "ascending", 24, "default"):
        "7df849aaf0e6c2e23d1c82055f156d2de29c95ee12e0809a6757dea0eea80c10",
    ("paper", "ascending", 24, "lambda"):
        "2dccf7d1cf5379c86bded1eb75d7bccca0cd17bf4dfd992ec5f4513d3210ec43",
    ("paper", "ascending", 24, "raw"):
        "7a2f3dd53b0f8ac07ebdb1fb7a0d4dd0731ab7dc92eab889ddc76f7294a062bc",
    ("paper", "bst", 8, "default"):
        "06a3609be407f701e08f943ff31a27f1e1c23eff121215e3dd6bc8c657c99a5a",
    ("paper", "bst", 8, "lambda"):
        "b48a7e6f51c6bed39a8e6d37d3de91b2ef1e4849a2dc21ddae9815a30bdce575",
    ("paper", "bst", 8, "raw"):
        "9ebf270e2dbb4923ed83f7cc5347432edf2043f196e15535441b840f9b9addc8",
    ("paper", "bst", 24, "default"):
        "f4460e4115864e081d31deef0119b2ad0a69e80e2b252cade1829bdfc2bb3b16",
    ("paper", "bst", 24, "lambda"):
        "9963dc54913b46079d65b5204b71ed5a0422743f7d2583a802cee2621153160e",
    ("paper", "bst", 24, "raw"):
        "c6f0f61ec2d4338fb2d4543aa164fb97af3cd53d2a46a1c88e958b8ec6bac2b9",
    ("paper", "descending", 8, "default"):
        "392ffb08e763fae9b57ac0430e32cf65d3e2b1279321a3946ae609491837c0e0",
    ("paper", "descending", 8, "lambda"):
        "0986436a649f440034663885f4e9d90f3b5059bf57fb39c2f81e0f28d91a1607",
    ("paper", "descending", 8, "raw"):
        "3736b448da9d06e1bbe0a512a5a499efb9ae0fa92caa94da53818ced69cda01f",
    ("paper", "descending", 24, "default"):
        "86780f754ffc015e8bb376a50a594629c806e0063b87ded40c0e5dbd131337a5",
    ("paper", "descending", 24, "lambda"):
        "6a3c9606019fc39549ee556799b9278785f1984b59169c636f56a7580b31e65d",
    ("paper", "descending", 24, "raw"):
        "b604c2c44e839b42eb53c0195d49adae005e26dbf9c60669c4fe2f81439b9591",
    ("paper", "heap", 8, "default"):
        "28245fcb458ceb65096370cff4e574094aa406fbbc0764c6d8a550e50ad650f1",
    ("paper", "heap", 8, "lambda"):
        "9a50eeb5166742bb4d70808f3f6158a46ac4489a75539f32054807bffda2fc96",
    ("paper", "heap", 8, "raw"):
        "1028eb0e60ada3d9f1b6220a20bb12466d4a1df03dd5921f95e0eb2da6cbeb54",
    ("paper", "heap", 24, "default"):
        "6b04dbf5ce232ff71f01b7cc695b9aaf0779a4ec5bda72a293c17ce957db3111",
    ("paper", "heap", 24, "lambda"):
        "2ffad4c7835f96cd8febd4e8f5dd378863e2536982c85cbca491fdf6840d2e29",
    ("paper", "heap", 24, "raw"):
        "2b93f394c9362a0fb65eac54da5a40ab9359a0913964b7486d87966be13026c1",
    ("paper", "heap3", 8, "default"):
        "cbd7019f60bba8d9eb2aea1840c11ad1015038700934d16990ec332bfb375bc1",
    ("paper", "heap3", 8, "lambda"):
        "4ea39c75f7f40ed60a959e7b400f8e62c698c3861aa1bfa477574a212a788a91",
    ("paper", "heap3", 8, "raw"):
        "9043e1f92c9866d6e2b168901ff7b405a17f9914db3c7d4d70528216dbcec52a",
    ("paper", "heap3", 24, "default"):
        "70c5165d5f4ffd7298ece23c8863e5fc962e7ace55ad1127db9f77806fac19a4",
    ("paper", "heap3", 24, "lambda"):
        "0630c04aedf630c800e46b75a06cca7be92b3b3022acd07d6ba90a28685804a4",
    ("paper", "heap3", 24, "raw"):
        "857d571f5b66ebd6b5191ea2e90171a531eb446cc5fa27650b6c0df18af60885",
}

SIGNED_X = np.random.default_rng(7).normal(size=7).tolist()
SCALED_X = (np.array(ref.INPUT_X) / np.abs(ref.INPUT_X).sum()).tolist()
NOT_A_PENALTY = "{qubo}: 'R' is not the 4x4 matrix of a finite penalty: "


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

    @pytest.mark.parametrize(
        "kind, n, branching, message",
        [
            ("bst", 5, 3, "search-tree programs exist for branching 2 only"),
            ("bst", 7, 3, "search-tree programs exist for branching 2 only"),
            ("heap", 4, 1, "branching must be at least 2"),
        ],
        ids=["ternary-bst-n5", "ternary-bst-n7", "unary-heap"],
    )
    def test_arity_refused_in_one_line(self, capsys, kind, n, branching, message):
        argv = ["program", "--kind", kind, "--n", str(n), "--branching", str(branching)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

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
    def test_text_is_one_line_of_json_dumps(self, tmp_path, capsys, kind, branching, n):
        """The file and stdout hold json.dumps of the program's record and a newline,
        byte for byte."""
        flags = [] if branching is None else ["--branching", str(branching)]
        make = PROGRAMS[kind]
        program = make(n) if branching is None else make(n, branching)
        expected = json.dumps(
            {"n": n, "kind": kind, "branching": branching or 2, "ranks": list(program.ranks)}
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
            "values": shifted(ref.INPUT_X).tolist(),
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
        x_path, prog = input_files(tmp_path, [3.0, 1.0, 2.0], "ascending")
        capsys.readouterr()
        args = ["build", x_path, prog, "--lambda-r", weight, "--lambda-c", weight]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: lambda_r and lambda_c are too large")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "values, infinite",
        [([-1e308, 0.0, 1.0], [np.inf]), ([1e308, 0.0, 1.0], [-np.inf]), ([5e307, 0.0, 1.0], [])],
        ids=["most-positive-corner", "most-negative-corner", "within-range"],
    )
    def test_unnormalized_reward_beyond_the_float_range(self, tmp_path, capsys, values, infinite):
        """Unnormalized, r's extremes pair the smallest and largest value with
        rank 1 or n; build refuses exactly when one leaves the float range."""
        r = reward_vector(np.array(values), np.array([1.0, 2.0, 3.0]), 12.0)
        assert sorted(set(r[~np.isfinite(r)].tolist())) == infinite
        x_path, prog = input_files(tmp_path, values, "ascending")
        capsys.readouterr()
        out = tmp_path / "qubo.json"
        code = main(["build", x_path, prog, "--no-normalize", "-o", str(out)])
        assert code == (2 if infinite else 0)
        error = f"error: {x_path}: vector_r must be finite\n"
        assert capsys.readouterr() == ("", error if infinite else "")
        assert out.exists() != bool(infinite)

    @pytest.mark.parametrize(
        "values, flags, message",
        [
            (OVERFLOWING_X, ["--no-normalize"], "x.json: vector_r must be finite"),
            ([3.0, 1.0, 2.0], ["--lambda-r", "0"], "penalty weights must be positive and finite"),
            # the flags are checked first: their error names no file, whatever x holds
            (OVERFLOWING_X, ["--no-normalize", "--lambda-r", "0"],
             "penalty weights must be positive and finite"),
            ([3.0, 1.0, 2.0], ["--lambda-r", "1e308", "--lambda-c", "1e308"],
             "lambda_r and lambda_c are too large: the reward offset "
             "2 * (lambda_r + lambda_c) overflows the float range"),
            # two files disagree, so neither is named
            ([1.0, 2.0], [], "x has 2 entries but the program has 3 slots"),
        ],
        ids=["reward-overflow", "zero-weight", "zero-weight-and-reward-overflow",
             "offset-overflow", "size-mismatch"],
    )
    def test_only_errors_of_the_x_files_values_name_it(
        self, tmp_path, monkeypatch, capsys, values, flags, message
    ):
        """An r beyond the float range comes from the x file's values, so its
        line names the file, as given; the errors of the weights and of the
        sizes do not.  Nothing is printed on stdout or written to -o."""
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "x.json", values)
        assert main(["program", "--kind", "ascending", "--n", "3", "-o", "prog.json"]) == 0
        Path("qubo.json").write_bytes(b"old")
        argv = ["build", "x.json", "prog.json", *flags]
        expected = (2, "", f"error: {message}\n")
        assert run_cli(argv, capsys) == expected
        assert run_cli([*argv, "-o", "qubo.json"], capsys) == expected
        assert Path("qubo.json").read_bytes() == b"old"

    @pytest.mark.parametrize("n", [1, 8])
    @pytest.mark.parametrize("kind", sorted(PROGRAMS))
    def test_file_embeds_the_program_files_record(self, tmp_path, kind, n):
        """The "program" of a QUBO file is the record of the program file it
        was built from, less "n", byte for byte."""
        qubo = build_file(tmp_path, x_of("gaussian", n).tolist(), kind)
        record = (tmp_path / "prog.json").read_bytes()
        head = f'{{"n": {n}, '.encode()
        assert record.startswith(head) and record.endswith(b"}\n")
        embedded = b'"program": {' + record[len(head):-1] + b"}\n"
        assert Path(qubo).read_bytes().endswith(b', ' + embedded)

    @pytest.mark.parametrize("kind", sorted(PROGRAMS))
    def test_program_file_in_the_indented_layout(self, tmp_path, capsys, kind):
        """A program file as earlier versions wrote it, json.dumps with
        indent=2, builds the pinned bytes and verifies as the one-line file."""
        x_path, prog = input_files(tmp_path, x_of("gaussian", 8).tolist(), kind)
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(json.loads(Path(prog).read_text()), indent=2) + "\n")
        assert indented.read_text().startswith('{\n  "n": 8,\n  "kind": ')
        outputs = []
        for path in (prog, str(indented)):
            code, out, err = run_cli(["build", x_path, path], capsys)
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == BUILD_DIGESTS[
                "gaussian", kind, 8, "default"
            ]
            outputs.append(run_cli(["verify", x_path, path], capsys))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    def test_one_builder_call_and_no_r(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return qubo_terms(*args)

        def refuse(*args):
            raise AssertionError("build formed r")

        monkeypatch.setattr(cli, "qubo_terms", counted)
        monkeypatch.setattr(cli, "build_qubo", refuse)
        monkeypatch.setattr(cli, "reward_vector", refuse)
        x_path, prog = input_files(tmp_path, SIGNED_X, "heap")
        assert main(["build", x_path, prog, "-o", str(tmp_path / "qubo.json")]) == 0
        assert len(calls) == 1

    def test_peak_memory_at_n1000(self, tmp_path):
        """A file of 2n + 6 numbers takes no n^2 floats to write: with r
        formed, this build peaked at 16.3 MiB."""
        x_path, prog = input_files(tmp_path, x_of("gaussian", 1000).tolist(), "heap")
        tracemalloc.start()
        try:
            assert main(["build", x_path, prog, "-o", str(tmp_path / "qubo.json")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("regime, kind, n, flags", sorted(BUILD_DIGESTS))
    def test_written_bytes_are_pinned(self, tmp_path, regime, kind, n, flags):
        values = HUGE_X if regime == "huge" else x_of(regime, n).tolist()
        qubo = build_file(tmp_path, values, kind, *BUILD_FLAGS[flags])
        digest = hashlib.sha256(Path(qubo).read_bytes()).hexdigest()
        assert digest == BUILD_DIGESTS[regime, kind, n, flags]

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
            # written [NaN, 1, 2]: the entry is named before the sizes are compared
            ([float("nan"), 1, 2], "{x}: entries must be finite"),
        ],
        ids=["object", "null", "one-number", "empty", "strings", "nested", "bool", "ragged", "nan"],
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

    @pytest.mark.parametrize(
        "values", [[3.0, 1.0, 2.0], x_of("gaussian", 8).tolist()], ids=["n3", "n8"]
    )
    def test_to_dev_null(self, tmp_path, values):
        x_path, prog = input_files(tmp_path, values, "heap")
        assert main([*program_argv("heap", len(values)), "-o", os.devnull]) == 0
        assert main(["build", x_path, prog, "-o", os.devnull]) == 0

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
        """solve --trace prints every visited state with its energy, then the
        endpoint once more, rendered from N "-" glyphs, the all-inactive
        start, and flipped and energies through one state buffer: steps,
        which holds a copy of every state, is never read."""
        values = np.random.default_rng(5).uniform(0.0, 2000.0, size=6).tolist()
        qubo = build_file(tmp_path, values, "ascending", "--no-normalize")
        _, trace = solve_qubo(cli._load(qubo, cli._qubo)[0])
        states, energies = replay(trace), trace.energies.tolist()
        rows = zip(states + states[-1:], energies + energies[-1:])
        expected = [
            f"{k:4d}  {' '.join('+' if v > 0 else '-' for v in state)}  {energy:.1f}"
            for k, (state, energy) in enumerate(rows)
        ]
        assert trace.flips > 6  # rewards this large outweigh the penalty
        steps = mock.PropertyMock(side_effect=AssertionError("trace.steps read"))
        with mock.patch.object(SolverTrace, "steps", new=steps):
            assert list(render_trace(trace)) == expected
            assert main(["solve", qubo, "--trace"]) == cli.EXIT_INFEASIBLE
        assert capsys.readouterr().out.splitlines()[: len(expected)] == expected

    def test_a_closed_stdout_exits_141_and_prints_nothing(self, tmp_path, capsys):
        """A reader that closes the pipe, as head does, once made solve exit 2
        with "error: [Errno 32] Broken pipe".  The console script then points
        stdout at os.devnull, so the flush at exit cannot fail again."""
        argv = ["qperm", "solve", "--trace", build_file(tmp_path, ref.INPUT_X, "heap")]
        with open(tmp_path / "sink", "wb") as sink:
            closed = mock.Mock(write=mock.Mock(side_effect=BrokenPipeError), fileno=sink.fileno)
            with mock.patch.object(sys, "stdout", closed), mock.patch.object(sys, "argv", argv):
                with pytest.raises(SystemExit) as raised:
                    cli.run()
            os.write(sink.fileno(), b"lost")
        assert raised.value.code == cli.EXIT_PIPE == 141
        assert capsys.readouterr() == ("", "")
        assert (tmp_path / "sink").read_bytes() == b""

    def test_a_reader_that_closes_the_pipe(self, tmp_path):
        """solve --trace at n = 60 into a reader that takes one line and
        closes the pipe: exit 141, the status a shell reports for a writer
        ended by SIGPIPE, and nothing on stderr."""
        qubo = build_file(tmp_path, np.random.default_rng(1).normal(size=60).tolist(), "heap")
        argv = [sys.executable, "-m", "qperm.cli", "solve", "--trace", qubo]
        pipes = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        with subprocess.Popen(argv, env=module_env(), **pipes) as process:
            first = process.stdout.readline()
            process.stdout.close()
            err = process.stderr.read()
            code = process.wait(timeout=120)
        assert (code, err) == (141, b"") and first.startswith(b"   0  - - ")

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

    @pytest.mark.parametrize(
        "values, flags, budget, used_up",
        [
            (ref.INPUT_X, [], 2, True),
            # this descent stops by itself after 4 flips, at no permutation
            (
                [0, 3, 0, 0],
                ["--lambda-r", "4.4004", "--lambda-c", "4.4004", "--no-normalize"],
                4,
                False,
            ),
        ],
        ids=["used-up", "own-flip-count"],
    )
    def test_max_steps_exit_code(self, tmp_path, capsys, values, flags, budget, used_up):
        """Exit 4 either way; a budget of the descent's own flip count prints
        the bytes of the run without one."""
        qubo = build_file(tmp_path, values, "ascending", *flags)
        budgeted = run_cli(["solve", "--trace", "--max-steps", str(budget), qubo], capsys)
        unbudgeted = run_cli(["solve", "--trace", qubo], capsys)
        assert budgeted[0] == 4
        assert (budgeted != unbudgeted) == used_up

    @pytest.mark.parametrize(
        "r, R", [(-1.0, 0.0), (1.7e308, 1.7e308)], ids=["solvable", "fold-overflows"]
    )
    def test_negative_max_steps_names_no_file(self, tmp_path, capsys, r, R):
        """The flag is at fault, not the file, so its line names none, even
        for a file whose values overflow in the fold."""
        qubo = write_json(tmp_path / "qubo.json", {"n": 1, "R": [[R]], "r": [r]})
        expected = (2, "", "error: max_steps must be non-negative\n")
        assert run_cli(["solve", qubo, "--max-steps", "-1"], capsys) == expected

    def test_infeasible_endpoint_exit_code(self, tmp_path):
        stuck = write_json(
            tmp_path / "stuck.json",
            {"n": 1, "R": [[0.0]], "r": [1.0]},
        )
        assert main(["solve", stuck]) == 4

    def test_single_slot_converges_in_one_flip(self, tmp_path, capsys):
        qubo = build_file(tmp_path, [5.0], "ascending")
        assert json.loads((tmp_path / "prog.json").read_text())["ranks"] == [1]
        assert main(["solve", qubo]) == 0
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
        flags = ["--lambda-r", "0.2", "--lambda-c", "0.2", "--no-normalize"]
        qubo = build_file(tmp_path, [v / 5.0 for v in x], "heap", *flags)
        assert main(["solve", qubo]) == 4
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
        assert err.startswith(f"error: {qubo}: trace energies must be finite: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "R, r, keys, error",
        [
            ([[0.0, 1.7e308], [-1.7e308, 0.0]], [0.0, 0.0], {"n": 2}, NOT_A_PENALTY),
            ([[1.7e308, 0.0], [0.0, 0.0]], [1.7e308, 0.0], {"n": 2}, NOT_A_PENALTY),
            ([[0.0, 1.7e308, 1.7e308], [1.7e308, 0.0, 0.0], [1.7e308, 0.0, 0.0]], [0.0], {"n": 2},
             NOT_A_PENALTY),
            # the keys of a file of an earlier version, which solve ignores
            ([[1.7e308]], [1.7e308],
             {"n": 1, "lambda_r": 1, "lambda_c": 1, "normalized": True},
             "{qubo}: vector_r must be finite"),
        ],
        ids=["symmetry", "fold", "ising", "fold-of-a-penalty"],
    )
    def test_dense_overflow_is_one_line_without_a_warning(
        self, tmp_path, capsys, R, r, keys, error
    ):
        """An overflow in the symmetry check, in fold_diagonal's r + diag or in
        to_ising's dense R @ 1 once printed a numpy warning ahead of the error.
        The first three R are no penalty, so each is now refused, in one line;
        the n = 1 R is one, and its fold overflows, in one line that names the
        file too."""
        N = keys["n"] ** 2
        pad = N - len(R)  # R and r are the leading entries of the file
        R = [row + [0.0] * pad for row in R] + [[0.0] * N] * pad
        payload = {**keys, "R": R, "r": r + [0.0] * (N - len(r))}
        qubo = write_json(tmp_path / "qubo.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", qubo]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: " + error.format(qubo=qubo))
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


@st.composite
def build_cases(draw):
    """(values, lambda_r, lambda_c, normalize) for a build at n <= 12."""
    n = draw(st.integers(1, 12))
    constant = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False).map(lambda v: [v] * n)
    # x - min(x) or its sum beyond the float range
    spread = st.sampled_from([-1.7e308, -1e308, -1.0, 0.0, 0.5, 1e308, 1.7e308])
    values = draw(st.one_of(input_values(n), constant, st.lists(spread, min_size=n, max_size=n)))
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
            assert main([*program_argv(kind, n), "-o", prog]) == 0
            qubo = str(Path(tmp) / "qubo.json")
            try:
                instance = build_qubo(
                    ValueVector(values), make_program(kind, n), lambda_r, lambda_c, normalize
                )
            except DomainError:  # r beyond the float range, unnormalized
                assert main(["build", x_path, prog, *flags, "-o", qubo]) == 2
                return
            assert main(["build", x_path, prog, *flags, "-o", qubo]) == 0
            reward = json.loads(Path(qubo).read_text(encoding="utf-8"))["reward"]
            got = cli._load(qubo, cli._qubo)[0].vector_r
        assert got.tobytes() == instance.vector_r.tobytes()
        _, want, _, offset = qubo_terms(
            ValueVector(values), make_program(kind, n), lambda_r, lambda_c, normalize
        )
        assert bits(reward["values"]) == bits(want) and bits(reward["offset"]) == bits(offset)

    def test_build_and_solve_form_no_dense_matrix(self, tmp_path, monkeypatch):
        def refuse(self, dtype=None, copy=None):
            raise AssertionError("the penalty was materialized")

        monkeypatch.setattr(PenaltyMatrix, "__array__", refuse)
        assert main(["solve", build_file(tmp_path, ref.INPUT_X, "bst"), "--trace"]) == 0

    @pytest.mark.parametrize("kind", ["ascending", "bst", "heap"])
    @pytest.mark.parametrize(
        "values, flags, code",
        [
            (ref.INPUT_X, [], 0),
            (SIGNED_X, [], 0),
            (SCALED_X, ["--no-normalize"], 0),
            (x_of("gaussian", 8).tolist(), [], 0),
            (x_of("gaussian", 24).tolist(), [], 0),
            (x_of("gaussian", 24).tolist(), ["--no-normalize"], 0),
            # the paper's regime without the shift ends in no permutation
            (x_of("paper", 24).tolist(), ["--no-normalize"], 4),
        ],
        ids=["paper", "signed", "frozen-route", "signed-n8", "signed-n24", "signed-raw-n24",
             "paper-raw-n24"],
    )
    def test_same_output_as_the_dense_file(self, tmp_path, capsys, kind, values, flags, code):
        """A dense "R" is read as the file's PenaltyMatrix, so one descent
        runs, and solve --trace prints the same from every form of the file:
        the report of solve after a line per visited state, from the
        all-inactive start to the endpoint, and the endpoint once more."""
        qubo = build_file(tmp_path, values, kind, *flags)
        payload = json.loads(Path(qubo).read_text(encoding="utf-8"))
        to_dense(payload)
        dense_R = write_json(tmp_path / "dense_R.json", payload)
        dense_reward(payload)
        dense_both = write_json(tmp_path / "dense_both.json", payload)
        outputs = []
        for path in (qubo, dense_R, dense_both):
            assert main(["solve", path, "--trace"]) == code
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] == outputs[2]
        assert main(["solve", qubo]) == code
        traced, report = outputs[0], capsys.readouterr()
        assert traced.err == report.err and traced.out.endswith(report.out)
        trace = traced.out[: len(traced.out) - len(report.out)].splitlines()
        assert trace[0].split()[:-1] == ["0"] + ["-"] * len(values) ** 2
        if code == 0:
            assert f"flips: {len(trace) - 2}\n" in report.out

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
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n * n - 1), st.integers(0, n * n - 1))
        ).filter(lambda c: c[1] // c[0] != c[2] // c[0] and c[1] % c[0] != c[2] % c[0]),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
        st.one_of(st.floats().filter(lambda v: v != 0.0), st.sampled_from([5e-324, -1.0])),
    )
    @example((2, 0, 3), [0.0, 0.0, 0.0], 1.0)  # R[0][3] = R[3][0] = 1 and 0 elsewhere
    def test_R_off_the_penalty_pattern_is_refused(self, cells, coefficients, entry):
        """Changing one entry that couples cells i and j of different rows and
        columns of Z, and its mirror, makes R no penalty: one error line, no
        output."""
        n, i, j = cells
        N = n * n
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
        "n, legacy",
        [
            (7, {"lambda_r": 7.0, "lambda_c": 7.0, "normalized": True}),
            (8, {"lambda_r": 8.0, "lambda_c": 8.0, "normalized": True}),
            (7, {"lambda_r": 123, "lambda_c": 0.5, "normalized": False}),
            (7, {"lambda_r": None, "lambda_c": "7", "normalized": "garbage"}),
        ],
        ids=["as-written", "as-written-n8", "contradicting", "not-numbers"],
    )
    def test_legacy_keys_are_ignored(self, tmp_path, capsys, n, legacy):
        """Files once carried "lambda_r", "lambda_c" and "normalized", which
        nothing read; such files solve as before, whatever those keys hold."""
        qubo = build_file(tmp_path, x_of("gaussian", n).tolist(), "heap")
        assert main(["solve", qubo, "--trace"]) == 0
        expected = capsys.readouterr()
        payload = json.loads(Path(qubo).read_text(encoding="utf-8"))
        legacy_file = write_json(tmp_path / "legacy.json", {**payload, **legacy})
        assert main(["solve", legacy_file, "--trace"]) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [200, 1000])
    def test_heap_through_a_file(self, tmp_path, capsys, n):
        """Written dense, the penalty would take n^4 numbers, 1.6e9 at n = 200.
        Weights of 1.1001 n in place of n give the same arrangement."""
        values = x_of("gaussian", n)
        qubo = build_file(tmp_path, values.tolist(), "heap")
        assert os.path.getsize(qubo) < 100 * n
        assert main(["solve", qubo]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("permutation: ")
        P = np.zeros((n, n))
        P[np.arange(n), [int(tok) for tok in line.split()[1:]]] = 1.0
        report = certify(ValueVector(values), heap_program(n), vectorize(P))
        assert report.feasible and report.optimal and report.structure_valid
        weight = f"{1.1001 * n:g}"
        weights = ["--lambda-r", weight, "--lambda-c", weight]
        scaled = build_file(tmp_path, values.tolist(), "heap", *weights)
        assert main(["solve", scaled]) == 0
        assert capsys.readouterr().out.splitlines()[0] == line


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

    @pytest.mark.parametrize(
        "values, ranks",
        [([3.0, 1.0, 2.0], [2, 1, 3]), (x_of("gaussian", 8).tolist(), [5, 3, 7, 2, 4, 6, 8, 1])],
        ids=["n3", "n8"],
    )
    def test_ternary_search_tree_refused_before_any_descent(
        self, tmp_path, capsys, monkeypatch, values, ranks
    ):
        """A bst program file of branching 3 was once built and descended, and
        verify then stopped with exit 2 in certify."""
        x_path = write_json(tmp_path / "x.json", values)
        payload = {"n": len(ranks), "kind": "bst", "branching": 3, "ranks": ranks}
        prog = write_json(tmp_path / "bst3.json", payload)
        solve = mock.Mock(side_effect=AssertionError("verify descended"))
        monkeypatch.setattr(cli, "solve_qubo", solve)
        assert main(["verify", x_path, prog]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {prog}: search-tree programs exist for branching 2 only\n"
        solve.assert_not_called()

    @pytest.mark.parametrize("branching", [2**63, 1e30], ids=["2^63", "1e30"])
    def test_a_heap_arity_beyond_int64_verifies(self, tmp_path, capsys, branching):
        """A heap arity of 2^63 or more once left certify with a bare
        OverflowError, and verify with a traceback and exit 1."""
        x_path = write_json(tmp_path / "x.json", [3, 1, 2])
        payload = {"n": 3, "kind": "heap", "branching": branching, "ranks": [3, 1, 2]}
        prog = write_json(tmp_path / "heap.json", payload)
        assert main(["verify", x_path, prog]) == 0
        out, err = capsys.readouterr()
        assert "structure (heap)         PASS" in out.splitlines() and err == ""

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

    @pytest.mark.parametrize("values", [[5.0] * 3, [4.0] * 7], ids=["n3", "n7"])
    def test_failed_check_exit_code(self, tmp_path, capsys, values):
        """Equal values once failed the search-tree check, which compared
        strictly, and verify exited 5; in order they never decrease."""
        x_path, prog = input_files(tmp_path, values, "bst")
        assert main(["verify", x_path, prog]) == 0
        out = capsys.readouterr().out
        assert "objective vs oracle      PASS" in out
        assert "structure (bst)          PASS" in out

    def test_first_descent_sorts_two_negatives(self, tmp_path, capsys):
        x_path, prog = input_files(tmp_path, [-1.0, -2.0], "ascending")
        assert main(["verify", x_path, prog]) == 0
        assert "objective vs oracle      PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "values, arranged",
        [
            ([1e308, -1e308, 0.0], "-1e+308 0 1e+308"),  # the shift overflows
            ([1e308, 1.5e308, 0.0], "0 1e+308 1.5e+308"),  # the shifted sum overflows
        ],
    )
    def test_spread_beyond_float_range(self, tmp_path, capsys, values, arranged):
        assert main(["solve", build_file(tmp_path, values, "ascending")]) == 0
        assert f"values: {arranged}\n" in capsys.readouterr().out
        assert main(["verify", str(tmp_path / "x.json"), str(tmp_path / "prog.json")]) == 0
        assert "objective vs oracle      PASS" in capsys.readouterr().out

    def test_objectives_beyond_float_range_print_no_warning(self, tmp_path, capsys):
        """certify's sums of rank products overflowing both ways once printed
        numpy's overflow and inf - inf warnings ahead of the report."""
        x_path, prog = input_files(tmp_path, near_float_limit(24).tolist(), "ascending")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", x_path, prog]) == 0
        out, err = capsys.readouterr()
        assert "objective vs oracle      PASS" in out and err == ""

    def test_input_below_float_resolution_fails(self, tmp_path, capsys):
        # 1e17 + 32 and 1e17 + 64 are closer than the QUBO resolves at this spread
        x_path, prog = input_files(tmp_path, [0.0, 1e17, 1e17 + 64, 1e17 + 32], "ascending")
        assert main(["verify", x_path, prog]) == 5
        assert capsys.readouterr().out.splitlines() == [
            "feasible permutation     PASS",
            "objective vs oracle      FAIL",
            "structure (ascending)    SKIP",
            "note: out of order: slot 1 holds 1.0000000000000003e+17, not 1e+17, "
            "a gap of 3.2e-16 of the spread",
        ]

    def test_duplicate_values_note(self, tmp_path, capsys):
        x_path, prog = input_files(tmp_path, [5.0, 5.0], "ascending")
        assert main(["verify", x_path, prog]) == 0
        assert "objective-tie" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "n, kind",
        [
            (11, "ascending"),
            (8, "heap"),
            (200, "heap"),
            (400, "heap"),
            *(pytest.param(n, kind, marks=pytest.mark.slow)
              for n, kind in [(1000, "heap"), (1000, "bst"), (1000, "heap3"), (1200, "heap")]),
        ],
    )
    def test_size_guards(self, tmp_path, n, kind):
        """verify runs at any n; the ascending row holds 1, ..., n and the
        others Gaussian values."""
        values = range(1, n + 1) if kind == "ascending" else x_of("gaussian", n)
        x_path, prog = input_files(tmp_path, [float(v) for v in values], kind)
        assert main(["verify", x_path, prog]) == 0

    def test_paper_regime_at_n40(self, tmp_path, capsys):
        values = np.random.default_rng(40).permutation(np.arange(1.0, 41.0)) * 3.5
        x_path, prog = input_files(tmp_path, values.tolist(), "heap")
        assert main(["verify", x_path, prog]) == 0
        assert "structure (heap)         PASS" in capsys.readouterr().out

    @pytest.mark.slow
    def test_gaussian_heap_at_n40(self, tmp_path, capsys):
        # built unshifted (x scaled by sum(|x|), --no-normalize), one descent ends
        # feasible but suboptimal on this input
        values = np.random.default_rng(0).normal(size=40)
        x_path, prog = input_files(tmp_path, values.tolist(), "heap")
        assert main(["verify", x_path, prog]) == 0
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


def module_env():
    """The environment in which python -m qperm.cli imports this qperm."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


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
        assert out.startswith('{"n": 3,') and err.count("\n") == 1 and absent in err

    def test_run_as_a_module_in_process(self, monkeypatch, capsys):
        """python -m qperm.cli runs the console script; it once ran nothing
        and exited 0.  runpy warns that pytest imported the module already."""
        monkeypatch.setattr(sys, "argv", ["qperm", "program", "--kind", "heap", "--n", "3"])
        with pytest.warns(RuntimeWarning, match="found in sys.modules"):
            with pytest.raises(SystemExit) as raised:
                runpy.run_module("qperm.cli", run_name="__main__")
        printed = capsys.readouterr()
        assert (raised.value.code, *printed) == run_cli(sys.argv[1:], capsys)

    @pytest.mark.parametrize(
        "argv", [["--help"], [], ["solve", "QUBO"]], ids=["help", "none", "solve"]
    )
    def test_python_dash_m_prints_and_exits_as_main(self, tmp_path, capsys, argv):
        argv = [build_file(tmp_path, [3.0, 1.0, 2.0], "bst") if a == "QUBO" else a for a in argv]
        code, out, _ = run_cli(argv, capsys)
        done = subprocess.run(
            [sys.executable, "-m", "qperm.cli", *argv],
            capture_output=True, text=True, env=module_env(), timeout=120,
        )
        assert (done.returncode, done.stdout) == (code, out)

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
