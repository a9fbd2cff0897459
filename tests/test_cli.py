"""Tests for the command line front end: config round-trips, the benchmark
table, solver runs, the sharpness scan, and exit codes."""
from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from fptlab.cli import ExperimentConfig, _parse_spec, main

_REPRO_HEADER = ["quantity", "reference_value", "estimate_low",
                 "estimate_high", "gap", "tolerance", "status"]


GOLDEN = Path(__file__).parent / "golden"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# ExperimentConfig


def test_config_round_trips_to_identical_json():
    cfg = ExperimentConfig(level=9, seed=7, t_grid=(1.2, 1.8))
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.to_json() == cfg.to_json()


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"level": 9, "bogus": 1})


def test_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.level == 12
    assert cfg.seed == 0
    assert cfg.t_grid == (1.1, 1.25, 1.5, 1.75, 1.9)
    assert cfg.orlicz_p == (1.0, 2.0, 4.0)


# ---------------------------------------------------------------------------
# spec parsing


def test_parse_spec_accepts_names_and_json():
    names = ("ball", "ct")
    assert _parse_spec("ball", "set", names) == {"set": "ball"}
    assert _parse_spec('{"set": "ct", "t": 1.5}', "set", names) == {
        "set": "ct", "t": 1.5}
    with pytest.raises(ValueError, match="unknown set name"):
        _parse_spec("cube", "set", names)
    with pytest.raises(ValueError, match="must carry key"):
        _parse_spec('{"t": 1.5}', "set", names)


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_writes_passing_table(tmp_path):
    out = tmp_path / "table.csv"
    rc = main(["reproduce", "--out", str(out), "--seed", "123"])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == _REPRO_HEADER
    assert len(rows) == 26
    assert all(row[-1] == "pass" for row in rows[1:])
    quantities = [row[0] for row in rows[1:]]
    assert "recentering(cone_hull,a=0.5)" in quantities
    assert "growth(ct_shift,t=1.5)" in quantities
    assert "opial_sum" in quantities
    assert "additivity_defect" in quantities
    assert "orlicz(p=2)" in quantities


def test_reproduce_runs_are_byte_identical(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["reproduce", "--out", str(out_a), "--seed", "123"]) == 0
    assert main(["reproduce", "--out", str(out_b), "--seed", "123"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_reproduce_env_seed_overrides_flag(tmp_path, monkeypatch):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["reproduce", "--out", str(out_a), "--seed", "123"]) == 0
    monkeypatch.setenv("FPTLAB_SEED", "123")
    assert main(["reproduce", "--out", str(out_b), "--seed", "0"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_reproduce_reads_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(ExperimentConfig(seed=123).to_json())
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["reproduce", "--config", str(cfg_path),
                 "--out", str(out_a)]) == 0
    assert main(["reproduce", "--out", str(out_b), "--seed", "123"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_reproduce_rejects_coarse_level(tmp_path, capsys):
    # at a coarse level the drifting family stops vanishing in measure fast
    # enough for the additivity check: a configuration error, not a fake row
    out = tmp_path / "table.csv"
    rc = main(["reproduce", "--out", str(out), "--level", "8"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve


def test_solve_cli_practical_cyclic(tmp_path):
    out = tmp_path / "outcome.json"
    trace = tmp_path / "trace.csv"
    rc = main(["solve", "--op", "cyclic", "--set", "ball", "--mode",
               "practical", "--level", "6", "--seed", "3", "--tol", "1e-12",
               "--n-max", "256", "--out", str(out), "--trace", str(trace)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert sorted(payload) == ["diagnostics", "mode", "point", "residual",
                               "seed", "status"]
    assert payload["status"] == "fixed_point"
    assert payload["mode"] == "practical"
    assert payload["seed"] == 3
    assert payload["point"]["kind"] == "grid"
    assert payload["residual"] <= 1e-12
    rows = read_csv(trace)
    assert rows[0] == ["s", "residual", "norm", "ky_fan_to_detected_limit"]
    assert len(rows) > 1


def test_solve_cli_proof_cyclic(tmp_path):
    trace = tmp_path / "trace.csv"
    out = tmp_path / "outcome.json"
    rc = main(["solve", "--op", "cyclic", "--set", "ball", "--mode", "proof",
               "--level", "4", "--seed", "0", "--trace", str(trace),
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "fixed_point"
    assert payload["residual"] <= 1e-8
    assert payload["diagnostics"]["gate_open"] is True
    rows = read_csv(trace)
    assert rows[0] == ["outer_iter", "r_estimate", "branch", "displacement",
                       "residual", "ky_fan_to_limit", "membership"]
    assert rows[1][2] == "x_limit"
    assert rows[-1][2] == "converged"


def test_solve_cli_escaping_map_exits_one(tmp_path):
    out = tmp_path / "outcome.json"
    rc = main(["solve", "--op", "doubling", "--set", "density_simplex",
               "--mode", "practical", "--level", "8", "--n-max", "64",
               "--out", str(out)])
    assert rc == 1
    assert json.loads(out.read_text())["status"] != "fixed_point"


def test_solve_cli_json_specs(tmp_path):
    out = tmp_path / "outcome.json"
    rc = main(["solve", "--op", '{"op": "ct_shift", "t": 1.5}',
               "--set", '{"set": "ct", "t": 1.5, "M": 32}',
               "--mode", "practical", "--n-max", "64", "--out", str(out)])
    assert rc == 1
    payload = json.loads(out.read_text())
    assert payload["status"] != "fixed_point"
    assert payload["point"] is None or payload["point"]["kind"] == "coord"


# ---------------------------------------------------------------------------
# sharpness


def test_sharpness_single_t(tmp_path):
    out = tmp_path / "sharp.csv"
    rc = main(["sharpness", "--t-grid", "1.5", "--M", "32",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["t", "growth", "recenter_low", "recenter_high",
                       "gate_at_equality", "gate_below_equality",
                       "solver_status", "status"]
    assert len(rows) == 2
    t, growth, low, high, gate_eq, gate_below, solver_status, status = rows[1]
    assert float(growth) == pytest.approx(4.0 / 3.0)
    assert gate_eq == "false"
    assert gate_below == "true"
    assert solver_status != "fixed_point"
    assert status == "pass"


# ---------------------------------------------------------------------------
# exit code 2 on configuration errors


def test_cli_configuration_errors_exit_two(tmp_path, capsys):
    assert main(["solve", "--op", "nonsense", "--set", "ball"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["solve", "--op", '{"t": 1.5}', "--set", "ball"]) == 2
    capsys.readouterr()
    assert main(["reproduce", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "t.csv")]) == 2
    capsys.readouterr()
    assert main(["sharpness", "--t-grid", "2.5",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert "error:" in capsys.readouterr().err
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"level": 12, "bogus": 1}')
    assert main(["reproduce", "--config", str(bad_cfg),
                 "--out", str(tmp_path / "t.csv")]) == 2


# ---------------------------------------------------------------------------
# golden outputs


@pytest.mark.parametrize("argv, golden, code", [
    (["reproduce", "--seed", "0"], "reproduce-seed0.csv", 0),
    (["sharpness", "--seed", "0"], "sharpness-seed0.csv", 0),
    (["solve", "--op", "ct_shift", "--set", "ct", "--t", "1.5",
      "--mode", "practical"], "solve-ct_shift-t1.5-practical.json", 1),
], ids=["reproduce", "sharpness", "solve-ct_shift"])
def test_outputs_match_golden_bytes(tmp_path, monkeypatch, argv, golden, code):
    """The files under tests/golden were written by these commands.  The
    ct_shift JSON carries a norm that moves in the last place if the two
    point types ever share one norm expression."""
    monkeypatch.delenv("FPTLAB_SEED", raising=False)
    out = tmp_path / golden
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
