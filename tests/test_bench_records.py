"""Every committed BENCH_*.json must carry what a speed claim cites: the
parent commit and the final line of ``python3 bench/run.py`` for the parent
and for the change, with the seed, and both runs correct."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_has_parent_and_change_runs(path):
    record = json.loads(path.read_text())
    assert isinstance(record.get("parent_commit"), str) and record["parent_commit"]
    final = record["final_line"]
    assert isinstance(final["seed"], int)
    for side in ("parent", "change"):
        assert final[side]["correct"] is True, side
        assert final[side]["metrics"], side
