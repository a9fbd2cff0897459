"""Each demo under demos/ runs to completion and prints what it printed
when its golden file under tests/golden was written, and the README's
Quick start prints what its comments say."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout_matches_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # -W error: the pytest warning filter does not reach the subprocess
    run = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / f"demo-{demo.stem}.txt").read_text()


def _significant_digits(number: str) -> int:
    mantissa = number.lower().split("e")[0]
    return len(mantissa.replace(".", "").lstrip("-0")) or 1


def test_readme_quick_start_prints_its_comments(capsys):
    # each print of the Quick start block is commented with what it shows;
    # a number must match to the digits the comment gives
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("#", 1)[1].split() for line in block.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments) == 3
    for line, want in zip(printed, comments):
        got = line.split()
        assert len(got) == len(want), (line, want)
        for g, w in zip(got, want):
            try:
                value = float(w)
            except ValueError:
                assert g == w, (line, want)
                continue
            assert float(f"{float(g):.{_significant_digits(w)}g}") == value, (line, want)
