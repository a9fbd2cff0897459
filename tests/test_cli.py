"""Tests for the command line front end: config round-trips, the benchmark
table, solver runs, the sharpness scan, and exit codes."""
from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from fptlab import sets
from fptlab.cli import ExperimentConfig, _parse_spec, main, run_reproduce
from fptlab.grid import limsup_tail
from fptlab.operators import OPERATOR_KINDS
from fptlab.sets import BODY_KINDS, bump_tail_family, norm, peak_family

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


def test_readme_tables_list_every_kind_and_default():
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    for kinds in (BODY_KINDS, OPERATOR_KINDS):
        for kind, (_, params) in kinds.items():
            row = next(line for line in lines if line.startswith(f"| `{kind}` |"))
            for name, (_, default) in params.items():
                shown = "the body's" if default is None else f"{default:g}"
                assert f"`{name}` ({shown})" in row, row


def test_parse_spec_accepts_names_and_json():
    assert _parse_spec("ball", "set") == {"set": "ball"}
    assert _parse_spec('{"set": "ct", "t": 1.5}', "set") == {
        "set": "ct", "t": 1.5}


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


@pytest.mark.parametrize("level, wf, slots, seed",
                         [(11, 0.5, 32, 1), (12, 0.4, 100, 2), (12, 0.5, 64, 0)])
def test_reproduce_drift_radii_match_the_norm_loop(level, wf, slots, seed):
    cfg = ExperimentConfig(level=level, window_fraction=wf, slots=slots, seed=seed,
                           a_grid=(0.5,), t_grid=(1.5,), orlicz_p=(2.0,))
    rows = {row[0]: row for row in run_reproduce(cfg)[0]}
    peaks = peak_family(level, k_min=max(1, level - 8), k_max=level)
    bumps = bump_tail_family(1.5, slots)
    for quantity, fam in (("drift_radius(density_simplex)", peaks),
                          ("drift_radius(bump,t=1.5)", bumps)):
        loop = limsup_tail([norm(p) for p in fam.points], wf)
        assert rows[quantity][2] == rows[quantity][3] == loop, quantity


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


def test_cli_configuration_errors_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FPTLAB_SEED", raising=False)
    out = ["--out", str(tmp_path / "o")]

    def exits_two(argv, message="error:"):
        assert main(argv + out) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, (argv, err)

    exits_two(["solve", "--op", "nonsense", "--set", "ball"],
              "unknown operator kind 'nonsense'; expected one of [")
    exits_two(["solve", "--op", '{"t": 1.5}', "--set", "ball"])
    exits_two(["solve", "--op", "cyclic", "--set", "cube"],
              "unknown body kind 'cube'")
    exits_two(["solve", "--op", "cyclic", "--set", '{"t": 1.5}'],
              "with key 'set'")
    exits_two(["reproduce", "--config", str(tmp_path / "missing.json")])
    exits_two(["sharpness", "--t-grid", "2.5"])
    # malformed values: each is rejected where it is parsed
    for body in ('{"set":"ct","t":null}', '{"set":"ct","M":[3]}',
                 '{"set":"ball","level":1.7}', '{"set":"ball","level":true}',
                 '{"set":"cone_hull","a":"0.5"}'):
        exits_two(["solve", "--op", "identity", "--set", body], "must be")
    exits_two(["solve", "--op", '{"op":"ct_shift","t":null}', "--set", "ct"],
              "t must be a number")
    exits_two(["solve", "--op", "cyclic", "--set", "ball", "--level", "-1"],
              "level must be in [0, 24]")
    # a slot count beyond the finest grid is refused before any allocation
    exits_two(["solve", "--op", "ct_shift", "--set", "ct", "--M", "1000000000000"],
              "at most 2**24 slots")
    exits_two(["sharpness", "--M", "1000000000000"], "at most 2**24 slots")
    # a bump family over the byte budget is refused before it is built; the
    # budget is lowered so that nothing large is ever asked for
    with monkeypatch.context() as patch:
        patch.setattr(sets, "BYTE_BUDGET", 4096)
        exits_two(["sharpness", "--M", "64"], "more than the budget of 4096")
    for text in ('{"level": 12, "bogus": 1}', '{"level":"x"}', '{"a_grid":5}',
                 '{"seed":1.5}', '[12]'):
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text(text)
        exits_two(["reproduce", "--config", str(bad_cfg)])
    monkeypatch.setenv("FPTLAB_SEED", "abc")
    for command in (["reproduce"], ["sharpness"],
                    ["solve", "--op", "cyclic", "--set", "ball"]):
        exits_two(command, "FPTLAB_SEED must be an integer, got 'abc'")


# ---------------------------------------------------------------------------
# golden outputs


@pytest.mark.parametrize("argv, golden, code", [
    (["reproduce", "--seed", "0"], "reproduce-seed0.csv", 0),
    (["sharpness", "--seed", "0"], "sharpness-seed0.csv", 0),
    (["solve", "--op", "ct_shift", "--set", "ct", "--t", "1.5",
      "--mode", "practical"], "solve-ct_shift-t1.5-practical.json", 1),
    (["solve", "--op", "cyclic", "--set", "ball", "--mode", "proof",
      "--level", "6"], "solve-cyclic-ball-L6-proof.json", 0),
    (["solve", "--op", "cyclic", "--set", '{"set":"cone_hull","a":0.5}',
      "--mode", "proof", "--level", "6"],
     "solve-cyclic-cone_hull0.5-L6-proof.json", 0),
], ids=["reproduce", "sharpness", "solve-ct_shift", "solve-proof-ball",
        "solve-proof-cone_hull"])
def test_outputs_match_golden_bytes(tmp_path, monkeypatch, argv, golden, code):
    """The files under tests/golden were written by these commands.  The
    ct_shift JSON carries a norm that moves in the last place if the two
    point types ever share one norm expression."""
    monkeypatch.delenv("FPTLAB_SEED", raising=False)
    out = tmp_path / golden
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


# ---------------------------------------------------------------------------
# the fill rule: a flag fills a parameter the spec leaves out


def _solve_bytes(tmp_path, name, argv):
    out, trace = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    rc = main(["solve", *argv, "--n-max", "64", "--out", str(out),
               "--trace", str(trace)])
    return rc, out.read_bytes(), trace.read_bytes()


@pytest.mark.parametrize("flags, spec", [
    (["--op", "cyclic", "--set", "cone_hull", "--a", "0.5", "--level", "6"],
     ["--op", "cyclic", "--set", '{"set":"cone_hull","a":0.5,"level":6}']),
    (["--op", "cyclic", "--set", '{"set":"cone_hull","a":0.25}', "--a", "0.5",
      "--level", "6"],
     ["--op", "cyclic", "--set", '{"set":"cone_hull","a":0.25,"level":6}']),
    (["--op", "ct_shift", "--set", "ct", "--t", "1.25", "--M", "32"],
     ["--op", '{"op":"ct_shift","t":1.25}',
      "--set", '{"set":"ct","t":1.25,"M":32}']),
    (["--op", "cyclic", "--set", '{"set":"ball","level":5}', "--level", "9",
      "--mode", "proof"],
     ["--op", "cyclic", "--set", "ball", "--level", "5", "--mode", "proof"]),
], ids=["flag-fills", "spec-wins", "ct-flags", "proof-level"])
def test_flags_fill_what_the_spec_leaves_out(tmp_path, monkeypatch, flags, spec):
    monkeypatch.delenv("FPTLAB_SEED", raising=False)
    assert _solve_bytes(tmp_path, "flags", flags) == \
        _solve_bytes(tmp_path, "spec", spec)


def test_filled_t_must_match_the_body(tmp_path, capsys):
    assert main(["solve", "--op", "ct_shift", "--set", '{"set":"ct","t":1.9}',
                 "--t", "1.5", "--out", str(tmp_path / "o.json")]) == 2
    assert "does not match" in capsys.readouterr().err
