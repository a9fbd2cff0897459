"""Tests for the command line front end: config round-trips, the benchmark
table, solver runs, the sharpness scan, and exit codes."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from fptlab import cli, sets
from fptlab.cli import ExperimentConfig, _parse_spec, main, run_reproduce
from fptlab.grid import limsup_tail
from fptlab.operators import OPERATOR_KINDS
from fptlab.coefficients import _default_family
from fptlab.sets import BODY_KINDS, BumpSimplex, bump_tail_family, norm, peak_family
from fptlab.solver import STATUS_BUDGET, SolveOutcome

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
    text = json.dumps(asdict(cfg), sort_keys=True)
    again = ExperimentConfig.from_dict(json.loads(text))
    assert again == cfg
    assert json.dumps(asdict(again), sort_keys=True) == text


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
                assert f"`{name}` ({default:g})" in row, row


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


@pytest.mark.parametrize("level, slots, seed",
                         [(11, 32, 1), (12, 100, 2), (12, 64, 0)])
def test_reproduce_drift_radii_match_the_norm_loop(level, slots, seed):
    cfg = ExperimentConfig(level=level, slots=slots, seed=seed,
                           a_grid=(0.5,), t_grid=(1.5,), orlicz_p=(2.0,))
    rows = {row[0]: row for row in run_reproduce(cfg)[0]}
    peaks = peak_family(level, k_min=max(1, level - 8))
    bumps = bump_tail_family(1.5, slots)
    for quantity, fam in (("drift_radius(density_simplex)", peaks),
                          ("drift_radius(bump,t=1.5)", bumps)):
        loop = limsup_tail([norm(p) for p in fam.points])
        assert rows[quantity][2] == rows[quantity][3] == loop, quantity


def test_reproduce_ignores_an_exported_seed_variable(tmp_path, monkeypatch):
    # --seed is the only source of the seed: the variable that once
    # overrode it is read by no command
    out = tmp_path / "seeded.csv"
    monkeypatch.setenv("FPTLAB_SEED", "123")
    assert main(["reproduce", "--out", str(out), "--seed", "0"]) == 0
    assert out.read_bytes() == (GOLDEN / "reproduce-seed0.csv").read_bytes()


def test_reproduce_reads_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(ExperimentConfig(seed=123))))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["reproduce", "--config", str(cfg_path),
                 "--out", str(out_a)]) == 0
    assert main(["reproduce", "--out", str(out_b), "--seed", "123"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("slots, code, failing", [
    (5, 1, (1.1, 1.25, 1.5, 1.75, 1.9)),
    (6, 1, (1.5, 1.75, 1.9)),
    (64, 0, ()),
])
def test_reproduce_bump_rows_read_the_default_family(tmp_path, slots, code,
                                                     failing):
    # the bump rows take the drift family that the sharpness scan reads: at
    # 5 slots its low end is 1 for every t, at 6 it reaches only the lower
    # t values; a coarse family is a failing row, not a configuration error
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"slots": slots}))
    out = tmp_path / "table.csv"
    assert main(["reproduce", "--config", str(cfg_path), "--out", str(out)]) == code
    failed = [row[0] for row in read_csv(out)[1:] if row[-1] != "pass"]
    assert failed == [f"recentering(bump,t={t:g})" for t in failing]


@pytest.mark.parametrize("slots, points, status", [
    (4, 0, "fail"), (5, 2, "pass"), (6, 4, "pass"), (64, 63, "pass"),
])
def test_reproduce_bump_drift_row_reads_the_default_family(slots, points, status):
    # the row measures the family that drifts, not every late coordinate:
    # at 5 and 6 slots that family is shorter, at 4 there is none and the
    # row has no drift radius
    fam = _default_family(BumpSimplex(1.5, slots))
    assert (fam is None) if points == 0 else (len(fam.points) == points)
    cfg = ExperimentConfig(slots=slots, a_grid=(0.5,), t_grid=(1.5,), orlicz_p=(2.0,))
    row = {r[0]: r for r in run_reproduce(cfg)[0]}["drift_radius(bump,t=1.5)"]
    assert row[-1] == status
    if points:
        assert row[2] == row[3] == limsup_tail([norm(p) for p in fam.points]) == 1.0
    else:
        assert math.isnan(row[2]) and math.isnan(row[3])


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


def test_solve_cli_practical_tol_zero_gives_a_verdict(tmp_path, capsys):
    # the doubling orbit pins at the mesh floor; tol 0 is a valid setting
    out = tmp_path / "outcome.json"
    rc = main(["solve", "--op", "doubling", "--set", "density_simplex",
               "--level", "6", "--tol", "0", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().out.startswith("status: budget_exhausted")
    diagnostics = json.loads(out.read_text())["diagnostics"]
    assert diagnostics["means_needed_for_tol"] == float("inf")


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
    rc = main(["solve", "--op", '{"op": "ct_shift"}',
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


def test_sharpness_on_few_slots(tmp_path):
    # the bracket of each body comes from its default drift family: from 5
    # slots on one drifts and every row passes; at 4 none does, the bracket
    # is the cap [1, 2], and the gate cannot open below equality
    for slots, rc, status in ((4, 1, "fail"), (5, 0, "pass"), (6, 0, "pass")):
        out = tmp_path / f"sharp-{slots}.csv"
        assert main(["sharpness", "--M", str(slots), "--out", str(out)]) == rc
        rows = read_csv(out)[1:]
        assert len(rows) == 5
        assert {row[-1] for row in rows} == {status}, slots
        if slots == 4:
            assert {(row[3], row[5]) for row in rows} == {("2", "false")}


# ---------------------------------------------------------------------------
# exit code 2 on configuration errors


def test_cli_configuration_errors_exit_two(tmp_path, capsys, monkeypatch):
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
    exits_two(["sharpness", "--t-grid", "2.5"], "t must lie in (1, 2), got 2.5")
    exits_two(["sharpness", "--t-grid", ""], "the t grid is empty")
    # a solver setting that no run could use is refused before the run
    for flags, message in ((["--n-max", "0"], "n_max must be >= 1"),
                           (["--n-max", "-3"], "n_max must be >= 1"),
                           (["--tol", "-1"], "tol must be finite and >= 0"),
                           (["--tol", "nan"], "tol must be finite and >= 0"),
                           (["--mode", "proof", "--tol", "-1"], "tol must be"),
                           (["--mode", "proof", "--tol", "inf"], "tol must be")):
        exits_two(["solve", "--op", "cyclic", "--set", "ball", "--level", "4"]
                  + flags, message)
    # the certified solver's work is fixed: argparse refuses the old knobs
    for flag in ("--n-inner", "--max-outer", "--budget"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--op", "cyclic", "--set", "ball", "--mode", "proof",
                  flag, "10"] + out)
        assert exc.value.code == 2, flag
        assert f"unrecognized arguments: {flag} 10" in capsys.readouterr().err
    # malformed values: each is rejected where it is parsed
    for body in ('{"set":"ct","t":null}', '{"set":"ct","M":[3]}',
                 '{"set":"ball","level":1.7}', '{"set":"ball","level":true}',
                 '{"set":"cone_hull","a":"0.5"}'):
        exits_two(["solve", "--op", "identity", "--set", body], "must be")
    # an operator takes no parameters: the bump shift's t is its body's, so
    # even the body's own t (1.5 for ct) is an unknown key
    for t in ("null", "1.5"):
        exits_two(["solve", "--op", '{"op":"ct_shift","t":%s}' % t, "--set", "ct"],
                  "unknown operator parameters ['t']")
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


def test_reproduce_config_refuses_window_and_tolerance_keys(tmp_path, capsys):
    # the trailing window and the bracket tolerance are constants, not keys
    for key, value in (("window_fraction", 0.5), ("tol_rel", 0.02)):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({"level": 9, key: value}))
        assert main(["reproduce", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"unknown config keys ['{key}']" in err
        assert not (tmp_path / "o.csv").exists()


# ---------------------------------------------------------------------------
# golden outputs


@pytest.mark.parametrize("argv, golden, code, trace", [
    (["reproduce", "--seed", "0"], "reproduce-seed0.csv", 0, None),
    (["sharpness", "--seed", "0"], "sharpness-seed0.csv", 0, None),
    (["solve", "--op", "ct_shift", "--set", "ct", "--t", "1.5",
      "--mode", "practical"], "solve-ct_shift-t1.5-practical.json", 1, None),
    (["solve", "--op", "cyclic", "--set", "ball", "--mode", "proof",
      "--level", "6"], "solve-cyclic-ball-L6-proof.json", 0,
     "solve-cyclic-ball-L6-proof-trace.csv"),
    (["solve", "--op", "doubling", "--set", "ball", "--mode", "proof",
      "--level", "7"], "solve-doubling-ball-L7-proof.json", 1,
     "solve-doubling-ball-L7-proof-trace.csv"),
    (["solve", "--op", "ct_shift", "--set", "ct", "--mode", "proof"],
     "solve-ct_shift-ct-proof.json", 1, "solve-ct_shift-ct-proof-trace.csv"),
    (["solve", "--op", "cyclic", "--set", '{"set":"cone_hull","a":0.5}',
      "--mode", "proof", "--level", "6"],
     "solve-cyclic-cone_hull0.5-L6-proof.json", 0,
     "solve-cyclic-cone_hull0.5-L6-proof-trace.csv"),
    (["solve", "--op", "cyclic", "--set", "ball", "--mode", "practical",
      "--level", "8"], "solve-cyclic-ball-L8-practical.json", 0,
     "solve-cyclic-ball-L8-practical-trace.csv"),
    (["solve", "--op", "retraction_compose", "--set",
      '{"set":"cone_hull","a":0}', "--mode", "practical", "--level", "8"],
     "solve-retraction_compose-cone_hull0-L8-practical.json", 1,
     "solve-retraction_compose-cone_hull0-L8-practical-trace.csv"),
], ids=["reproduce", "sharpness", "solve-ct_shift", "solve-proof-ball",
        "solve-proof-doubling", "solve-proof-ct_shift",
        "solve-proof-cone_hull", "solve-practical-ball",
        "solve-practical-pinned"])
def test_outputs_match_golden_bytes(tmp_path, argv, golden, code, trace):
    """The files under tests/golden were written by these commands.  The
    ct_shift JSON carries a norm that moves in the last place if the two
    point types ever share one norm expression.  The two practical grid
    marches also pin their --trace CSV: the ball march stops on a residual
    at step 256, the cone hull march on a pinned orbit.  So do the proof
    solves, which between them write every kind of row: the rotations' steps
    and converged rows, the doubling's step and then a diagnostic row that
    carries its radius, and the bump shift's diagnostic row with an escaped
    limit."""
    out = tmp_path / golden
    extra = [] if trace is None else ["--trace", str(tmp_path / trace)]
    assert main(argv + ["--out", str(out)] + extra) == code
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
    if trace is not None:
        assert ((tmp_path / trace).read_bytes()
                == (GOLDEN / trace).read_bytes())


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
     ["--op", '{"op":"ct_shift"}', "--set", '{"set":"ct","t":1.25,"M":32}']),
    (["--op", "cyclic", "--set", '{"set":"ball","level":5}', "--level", "9",
      "--mode", "proof"],
     ["--op", "cyclic", "--set", "ball", "--level", "5", "--mode", "proof"]),
], ids=["flag-fills", "spec-wins", "ct-flags", "proof-level"])
def test_flags_fill_what_the_spec_leaves_out(tmp_path, flags, spec):
    assert _solve_bytes(tmp_path, "flags", flags) == \
        _solve_bytes(tmp_path, "spec", spec)


def test_spec_t_wins_over_the_t_flag(tmp_path):
    # --t fills the body's t only where the spec leaves it out, and the bump
    # shift reads its t from the body, so the flag changes nothing here
    assert _solve_bytes(tmp_path, "flag", ["--op", "ct_shift", "--set",
                                           '{"set":"ct","t":1.9}', "--t", "1.5"]) == \
        _solve_bytes(tmp_path, "spec", ["--op", "ct_shift", "--set",
                                        '{"set":"ct","t":1.9}'])


def test_solve_out_writes_numpy_scalars_as_python_ones(tmp_path, monkeypatch):
    # a diagnostic may hold a numpy scalar of any kind; --out writes it as
    # the Python value it stands for, as json writes that value itself
    python = {"count": 3, "ratio": 0.5, "pinned": True, "nested": [2, {"x": False}]}
    numpy = {"count": np.int64(3), "ratio": np.float32(0.5), "pinned": np.bool_(True),
             "nested": (np.int32(2), {"x": np.bool_(False)})}

    def written(diagnostics, name):
        outcome = SolveOutcome(STATUS_BUDGET, None, None, diagnostics=diagnostics)
        monkeypatch.setattr(cli, "solve", lambda *a, **k: outcome)
        out = tmp_path / name
        assert main(["solve", "--op", "cyclic", "--set", "ball", "--level", "4",
                     "--mode", "proof", "--out", str(out)]) == 1
        return out.read_bytes()

    assert written(numpy, "numpy.json") == written(python, "python.json")
