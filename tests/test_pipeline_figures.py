"""tests/pipeline_figures.py measures every stage it names, and the
committed BENCH_pipeline.json holds every row it writes."""

import json

from . import pipeline_figures as script

ROW_KEYS = {"full": {"n", "chain", "stages", "flips", "certified"}, "chain": {"n", "chain", "stages"}}
STAGE_KEYS = {"median_ms", "min_ms", "max_ms", "peak_bytes"}


def check(record, full, chain, repeats):
    assert record.keys() == {"command", "input", "clock", "repeats", "host", "rows"}
    assert record["repeats"] == repeats
    assert record["host"].keys() == {"python", "numpy", "cpu", "nproc"}
    rows = record["rows"]
    assert [(row["n"], row["chain"] == "full") for row in rows] == [
        *((n, True) for n in full), *((n, False) for n in chain)
    ]
    for row in rows:
        kind = "full" if row["chain"] == "full" else "chain"
        assert row.keys() == ROW_KEYS[kind]
        assert tuple(row["stages"]) == (script.STAGES if kind == "full" else script.CHAIN)
        for figures in row["stages"].values():
            assert figures.keys() == STAGE_KEYS
            assert 0 <= figures["min_ms"] <= figures["median_ms"] <= figures["max_ms"]
            assert figures["peak_bytes"] > 0
        if kind == "full":
            assert row["certified"] is True
            assert row["flips"] == row["n"]  # a default build sorts in one flip per slot


def test_entry_point_at_small_sizes():
    check(script.figures(full=(8, 40), chain=(8, 40), repeats=1), (8, 40), (8, 40), 1)


def test_the_committed_file_holds_every_row():
    record = json.loads(script.OUTPUT.read_text(encoding="utf-8"))
    check(record, script.FULL_SIZES, script.CHAIN_SIZES, script.REPEATS)


def test_ab_prints_both_medians_for_every_stage_and_size(monkeypatch, capsys):
    monkeypatch.setattr(script, "FULL_SIZES", (8,))
    monkeypatch.setattr(script, "CHAIN_SIZES", (40,))
    monkeypatch.setattr(script, "REPEATS", 1)
    src = str(script.ROOT / "src")
    assert script.main(["--ab", src, src]) == 0
    lines = capsys.readouterr().out.splitlines()[2:]
    rows = [(int(n), stage) for n, stage, *_ in (line.split() for line in lines)]
    assert rows == [(8, stage) for stage in script.STAGES] + [(40, stage) for stage in script.CHAIN]
    assert all(len(line.split()) == 5 for line in lines)


def test_unknown_arguments_print_the_usage(capsys):
    assert script.main(["--sizes", "8"]) == 2
    assert "python tests/pipeline_figures.py --ab PARENT_SRC CHANGE_SRC" in capsys.readouterr().err
