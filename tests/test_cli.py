import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sweeplab.crawler
import sweeplab.sweeping
from helpers import reference_motion_csv, reference_trajectory_csv
from sweeplab.cli import (
    CONFIG_KEYS,
    RunConfig,
    _initial_states,
    _random_states_in,
    build_parser,
    dump_json,
    main,
)
from sweeplab.crawler import simulate_reduced
from sweeplab.errors import ConfigError, InfeasibleSetError
from sweeplab.polyhedra import contains, freeze
from sweeplab.scenarios import catalog
from sweeplab.signals import PeriodicSignal
from sweeplab.sweeping import (
    FLOAT_FMT,
    convergence_report,
    read_trajectory_csv,
    simulate,
    validate_trajectory,
)


def run_cli(*args):
    return main(list(args))


def read_bytes_map(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


# ---------------------------------------------------------------------------
# dump_json formatting

def test_dump_json_is_17_digit_and_sorted():
    s = dump_json({"b": 1.0 / 3.0, "a": [1, 2.5, None, True]})
    assert s.index('"a"') < s.index('"b"')
    assert "0.33333333333333331" in s
    parsed = json.loads(s)
    assert parsed["b"] == pytest.approx(1 / 3)


def test_dump_json_writes_null_for_non_finite_floats_and_empty_containers():
    obj = {"nan": float("nan"), "inf": np.inf, "-inf": -np.inf, "dict": {}, "list": [], "array": np.zeros(0)}
    assert dump_json(obj) == (
        '{\n  "-inf": null,\n  "array": [],\n  "dict": {},\n  "inf": null,\n'
        '  "list": [],\n  "nan": null\n}'
    )


# ---------------------------------------------------------------------------
# run command

def test_run_wedge_outputs(tmp_path):
    out = tmp_path / "wedge"
    code = run_cli("run", "--scenario", "wedge", "--out", str(out), "--periods", "8", "--steps", "200")
    assert code == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "convergence.json").exists()
    assert (out / "summary.txt").exists()
    rep = json.loads((out / "convergence.json").read_text())
    assert rep["classification"]["kind"] == "geometric"
    assert rep["classification"]["ratio"] == pytest.approx(0.5, abs=0.05)


def test_run_trajectory_csv_parses_back(tmp_path):
    out = tmp_path / "wedge"
    assert run_cli("run", "--scenario", "wedge", "--out", str(out), "--periods", "4", "--steps", "200") == 0
    sc = catalog()["wedge"]
    traj = read_trajectory_csv(out / "trajectory.csv", sc.problem)
    validate_trajectory(traj)


def test_run_output_number_format(tmp_path):
    # Every CSV field is FLOAT_FMT % the value it came from (the bitmask %d);
    # trajectory.csv lines end in \r\n, motion.csv lines in \n.
    cat = catalog()
    wedge, crawler2 = cat["wedge"], cat["crawler2"]
    assert run_cli("run", "--scenario", "wedge", "--out", str(tmp_path / "w"),
                   "--periods", "4", "--steps", "200") == 0
    assert run_cli("run", "--scenario", "crawler2", "--out", str(tmp_path / "g"),
                   "--periods", "3", "--steps", "500") == 0
    traj = simulate(wedge.problem, wedge.initial_state, 0.0, 4, 200)
    run = simulate_reduced(crawler2.gait, crawler2.initial_state, 0.0, 3, 500)

    for out, t in ((tmp_path / "w", traj), (tmp_path / "g", run.reduced)):
        raw = (out / "trajectory.csv").read_bytes()
        assert raw.count(b"\r\n") == raw.count(b"\n") == len(t.states) + 1
        rows = [line.split(",") for line in raw.decode().split("\r\n")[1:-1]]
        eta = np.vstack([np.zeros(t.multipliers.shape[1]), t.multipliers])
        floats = np.column_stack([t.times, t.states, eta])
        assert [r[:-1] for r in rows] == [[FLOAT_FMT % x for x in row] for row in floats]
        assert [r[-1] for r in rows] == ["%d" % mask for mask in t.active_masks]

    raw = (tmp_path / "g" / "motion.csv").read_bytes()
    assert b"\r" not in raw and raw.count(b"\n") == len(run.motion.times) + 1
    m = run.motion
    table = np.column_stack([m.times, m.positions])
    rows = [line.split(",") for line in raw.decode().split("\n")[1:-1]]
    assert rows == [[FLOAT_FMT % x for x in row] for row in table]

    d_sup = convergence_report(traj).d_sup
    listed = "[" + ", ".join(FLOAT_FMT % x for x in d_sup) + "]"
    assert dump_json(d_sup) == listed
    assert f'"d_sup": {listed}' in (tmp_path / "w" / "convergence.json").read_text()


def test_csvs_of_a_two_start_run_equal_formatting_every_row(tmp_path):
    # The starts are drawn as cmd_run draws them; each start's motion.csv and
    # trajectory.csv equal one `%` per row over its tables.
    argv = ["run", "--scenario", "crawler2", "--starts", "2", "--seed", "5",
            "--periods", "4", "--steps", "300", "--out", str(tmp_path)]
    assert run_cli(*argv) == 0
    cfg = RunConfig.load(build_parser().parse_args(argv))
    for i, x0 in enumerate(_initial_states(cfg, np.random.default_rng(cfg.seed))):
        run = simulate_reduced(cfg.gait, x0, cfg.t0, cfg.periods, cfg.steps)
        assert (tmp_path / f"motion_s{i}.csv").read_bytes() == reference_motion_csv(run.motion)
        assert (tmp_path / f"trajectory_s{i}.csv").read_bytes() == reference_trajectory_csv(run.reduced)


def _assert_csvs_equal_formatting_every_row(argv, out):
    """Each trajectory*.csv and motion*.csv that `run` argv wrote to out
    equals one `%` per row over the run of its start, drawn as cmd_run draws it."""
    cfg = RunConfig.load(build_parser().parse_args(argv))
    starts = _initial_states(cfg, np.random.default_rng(cfg.seed))
    tags = [""] if len(starts) == 1 else [f"_s{i}" for i in range(len(starts))]
    for tag, x0 in zip(tags, starts, strict=True):
        if cfg.gait is None:
            traj = simulate(cfg.problem, x0, cfg.t0, cfg.periods, cfg.steps)
        else:
            run = simulate_reduced(cfg.gait, x0, cfg.t0, cfg.periods, cfg.steps)
            traj = run.reduced
            assert (out / f"motion{tag}.csv").read_bytes() == reference_motion_csv(run.motion)
        assert (out / f"trajectory{tag}.csv").read_bytes() == reference_trajectory_csv(traj)


@pytest.mark.parametrize("flags", [
    ["--scenario", "box3", "--starts", "3", "--seed", "1"],
    ["--scenario", "crawler3", "--t0", "0.25", "--starts", "2", "--seed", "5", "--periods", "3", "--steps", "300"],
], ids=["box3-three-starts", "crawler3-t0"])
def test_csvs_of_runs_on_one_grid_equal_formatting_every_row(tmp_path, flags):
    # Every file of the run fills in its t from one text of the grid.
    argv = ["run", *flags, "--out", str(tmp_path)]
    assert run_cli(*argv) == 0
    _assert_csvs_equal_formatting_every_row(argv, tmp_path)


def test_no_t_text_outlives_an_invocation(tmp_path):
    # The same grid but for t0: a second run that wrote the first run's t would differ.
    flags = ["--scenario", "crawler3", "--starts", "2", "--seed", "5", "--periods", "3", "--steps", "300"]
    for i, t0 in enumerate(("0", "0.25", "0")):
        out = tmp_path / f"run{i}"
        argv = ["run", *flags, "--t0", t0, "--out", str(out)]
        assert run_cli(*argv) == 0
        _assert_csvs_equal_formatting_every_row(argv, out)


def test_motion_csv_holds_what_the_dropped_columns_are_derived_from(tmp_path):
    # motion.csv is t,x1..xN. The mean and the gaps come from its x columns
    # bit for bit, its t column is trajectory.csv's, and the shape w = -k diff(x)
    # is trajectory.csv's state up to rounding.
    crawler3 = catalog()["crawler3"]
    assert run_cli("run", "--scenario", "crawler3", "--out", str(tmp_path),
                   "--periods", "3", "--steps", "300") == 0
    run = simulate_reduced(crawler3.gait, crawler3.initial_state, 0.0, 3, 300)
    def fields(name, newline):
        return [line.split(",") for line in (tmp_path / name).read_bytes().decode().split(newline)[:-1]]

    motion, traj = fields("motion.csv", "\n"), fields("trajectory.csv", "\r\n")
    N = crawler3.gait.num_blocks
    assert motion[0] == ["t"] + [f"x{i + 1}" for i in range(N)]
    assert [r[0] for r in motion] == [r[0] for r in traj]

    x = np.array([[float(v) for v in r[1:]] for r in motion[1:]])
    assert np.array_equal(np.mean(x, axis=1), run.motion.mean_positions)
    assert np.array_equal(np.diff(x, axis=1), np.diff(run.motion.positions, axis=1))
    w = np.array([[float(v) for v in r[1:N]] for r in traj[1:]])
    assert np.all(np.abs(-crawler3.gait.stiffness * np.diff(x, axis=1) - w) <= 1e-12 * (1 + np.abs(w)))


def test_run_gait_velocity_and_spread(tmp_path):
    out = tmp_path / "gait"
    code = run_cli(
        "run", "--scenario", "crawler2", "--out", str(out),
        "--periods", "6", "--steps", "500", "--starts", "4", "--seed", "3",
    )
    assert code == 0
    vel = json.loads((out / "velocity.json").read_text())
    assert vel["v0"] == pytest.approx(2.0, abs=0.05)
    assert vel["margin"] == pytest.approx(1.0)
    assert vel["converged"] is True
    assert vel["v0_spread"] <= 1e-6 + 10.0 / 500
    assert (out / "motion_s0.csv").exists()
    assert (out / "trajectory_s3.csv").exists()


def test_run_is_deterministic(tmp_path):
    args = ("run", "--scenario", "crawler2", "--periods", "5", "--steps", "400",
            "--starts", "3", "--seed", "11")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert read_bytes_map(out1) == read_bytes_map(out2)


def test_commands_build_k_and_the_margin_once_each(tmp_path, monkeypatch):
    # A command's gait keeps K(t) and its margin report: RunConfig.load,
    # every start's run, the oracle and check-gait share them.
    calls = {"build_moving_set": [], "_period_margin": []}
    for name, log in calls.items():
        real = getattr(sweeplab.crawler, name)

        def counted(g, real=real, log=log):
            log.append(g)
            return real(g)

        monkeypatch.setattr(sweeplab.crawler, name, counted)
    args = ("run", "--scenario", "crawler3", "--starts", "3", "--seed", "5", "--compare",
            "--periods", "3", "--steps", "300")
    for out in ("a", "b"):
        assert run_cli(*args, "--out", str(tmp_path / out)) == 0
    assert run_cli("check-gait", "--scenario", "crawler3") == 0
    for log in calls.values():
        assert len(log) == 3 and len({id(g) for g in log}) == 3   # once per command, each its own gait


def test_run_random_starts_on_plain_problem(tmp_path):
    # Random starts for a problem are drawn from its set frozen at t0.
    problem = catalog()["box3"].problem
    args = ("run", "--scenario", "box3", "--starts", "3", "--seed", "1")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    files = read_bytes_map(out1)
    assert {f"trajectory_s{i}.csv" for i in range(3)} <= set(files)
    starts = [read_trajectory_csv(out1 / f"trajectory_s{i}.csv", problem).states[0] for i in range(3)]
    assert all(contains(freeze(problem.moving_set, 0.0), z0) for z0 in starts)
    assert len({z0.tobytes() for z0 in starts}) == 3
    assert read_bytes_map(out2) == files


def test_random_starts_count_only_rejected_draws(monkeypatch):
    # box1 is its own bounding box, so no draw is rejected and any count of
    # starts is drawn, more than the rejection cap included.
    monkeypatch.setattr("sweeplab.cli._MAX_REJECTIONS", 10)
    F = freeze(catalog()["box1"].problem.moving_set, 0.0)
    starts = _random_states_in(F, 11, np.random.default_rng(0))
    assert len(starts) == 11 and all(contains(F, z) for z in starts)


def test_random_starts_give_up_after_the_rejection_cap(monkeypatch):
    monkeypatch.setattr("sweeplab.cli._MAX_REJECTIONS", 10)
    draws = []
    monkeypatch.setattr("sweeplab.cli.contains", lambda F, z: draws.append(z) and False)
    F = freeze(catalog()["box1"].problem.moving_set, 0.0)
    with pytest.raises(ConfigError, match="^rejection sampling failed to find admissible states$"):
        _random_states_in(F, 1, np.random.default_rng(0))
    assert len(draws) == 10


def test_run_degenerate_gait_exit_2(tmp_path):
    code = run_cli("run", "--scenario", "crawler2-degenerate", "--out", str(tmp_path / "x"))
    assert code == 2


def test_run_inadmissible_start_exit_3(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "crawler2",
        "periods": 4,
        "steps_per_period": 100,
        "initial_states": [[0.0, 9.0]],
    }))
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert code == 3


def test_run_inadmissible_plain_start_names_the_prefix_once(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "wedge", "initial_states": [[1e308, 0.0]]}))
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x")) == 3
    err = capsys.readouterr().err
    assert err.startswith("inadmissible initial state: constraint violation 1.000e+308 at t0=0.0")
    assert err.count("inadmissible initial state") == 1


def test_run_numerical_failure_exit_1_writes_nothing(tmp_path, capsys, monkeypatch):
    def empty_set(*args):
        raise InfeasibleSetError("no feasible projection candidate; the set appears empty")

    monkeypatch.setattr(sweeplab.sweeping, "_project_raw", empty_set)
    out = tmp_path / "x"
    assert run_cli("run", "--scenario", "wedge", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: step 0, t=")
    assert not out.exists()


def test_run_unknown_scenario_exit_4(tmp_path):
    assert run_cli("run", "--scenario", "nope", "--out", str(tmp_path / "x")) == 4


def test_run_missing_problem_exit_4(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x")) == 4


def test_run_misaligned_steps_exit_4(tmp_path):
    # triangle breakpoints sit at thirds; 1000 steps/period misses them
    code = run_cli("run", "--scenario", "triangle", "--out", str(tmp_path / "x"),
                   "--periods", "4", "--steps", "1000")
    assert code == 4


@pytest.mark.parametrize("scenario", ["box1", "crawler2"])
@pytest.mark.parametrize("flags,config", [
    (["--periods", "0"], {}),
    (["--steps", "0"], {}),
    (["--starts", "0"], {}),
    (["--periods", "-2"], {}),
    ([], {"periods": 0}),
    ([], {"steps_per_period": 0}),
    ([], {"initial_states": {"random": 0}}),
    ([], {"initial_states": []}),
], ids=["periods-flag", "steps-flag", "starts-flag", "periods-negative",
        "periods-config", "steps-config", "starts-config", "states-empty"])
def test_run_nonpositive_counts_exit_4(tmp_path, capsys, scenario, flags, config):
    # A count the user gave is used as given, so zero is rejected, not replaced
    # by the recommended value.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario, **config}))
    out = tmp_path / "x"
    assert run_cli("run", "--config", str(cfg), "--out", str(out), *flags) == 4
    assert "configuration error" in capsys.readouterr().err
    assert not (out / "summary.txt").exists()


def _gait_missing_signal():
    gait = catalog()["crawler2"].gait.to_json()
    gait["mu_plus"] = gait["mu_plus"][:1]
    return {"gait": gait}


def _gait_and_problem():
    cat = catalog()
    return {"gait": cat["crawler2"].gait.to_json(), "problem": cat["box1"].problem.to_json()}


@pytest.mark.parametrize("config,flags", [
    pytest.param({"scenario": "wedge", "initial_states": [[0.1, 0, 0]]}, [], id="state-too-long"),
    pytest.param({"scenario": "crawler2", "initial_states": [[0.0]]}, [], id="state-too-short"),
    pytest.param({"scenario": "crawler2", "initial_states": [[0.0, "a"]]}, [], id="state-not-numeric"),
    pytest.param({"scenario": "crawler2", "initial_states": [[0.0, "0.5"]]}, [], id="state-numeric-string"),
    pytest.param({"scenario": "box1", "initial_states": [[True]]}, [], id="state-bool"),
    pytest.param({"scenario": "crawler2", "initial_states": {"random": "a"}}, [], id="starts-not-numeric"),
    pytest.param({"scenario": "box1", "initial_states": [[float("nan")]]}, [], id="state-nan-plain"),
    pytest.param({"scenario": "crawler2", "initial_states": [[0.0, float("nan")]]}, [], id="state-nan-gait"),
    pytest.param({"scenario": "wedge", "initial_states": [[float("inf"), 0.0]]}, [], id="state-infinite"),
    pytest.param(_gait_missing_signal(), [], id="gait-signal-count"),
    pytest.param({"gait": {"N": 2}}, [], id="gait-missing-key"),
    pytest.param({"scenario": "crawler2", "reports": ["velocty"]}, [], id="report-unknown"),
    pytest.param({"scenario": "crawler2", "reports": "velocity"}, [], id="reports-not-list"),
    pytest.param({"scenario": "crawler2", "initial_states": "abc"}, [], id="states-string"),
    pytest.param({"scenario": "crawler2", "initial_states": {"rand": 2}}, [], id="starts-key-unknown"),
    pytest.param({"scenario": "crawler2", "steps_per_perod": 10}, [], id="key-unknown"),
    pytest.param({"scenario": ["crawler2"]}, [], id="scenario-not-string"),
    pytest.param({"scenario": "crawler2", "seed": -1}, [], id="seed-negative"),
    pytest.param({"scenario": "crawler2"}, ["--starts", "2", "--seed", "-1"], id="seed-flag-negative"),
    pytest.param({"scenario": "crawler2", "periods": 6.5}, [], id="periods-fractional"),
    pytest.param({"scenario": "crawler2", "initial_states": {"random": 2.9}}, [], id="starts-fractional"),
    pytest.param({"scenario": "crawler2", "tol": 1e-9}, [], id="tol-removed"),
    pytest.param({"scenario": "crawler2", "periods": "5"}, [], id="periods-string"),
    pytest.param({"scenario": "crawler2", "seed": True}, [], id="seed-bool"),
    pytest.param({"scenario": "crawler2", "t0": "0"}, [], id="t0-string"),
    pytest.param({"scenario": "crawler2", "t0": float("nan")}, [], id="t0-nan"),
    pytest.param({"scenario": "box1", "t0": float("inf")}, [], id="t0-infinite"),
    pytest.param({"scenario": "crawler2"}, ["--t0", "nan"], id="t0-flag-nan"),
    pytest.param({"scenario": "box1"}, ["--t0=-inf"], id="t0-flag-infinite"),
    # Every grid time t0 + k*h would round to t0: a frozen clock.
    pytest.param({"scenario": "crawler2", "t0": 1e17, "periods": 3, "steps_per_period": 100}, [],
                 id="t0-too-large-gait"),
    pytest.param({"scenario": "wedge", "t0": 1e300}, [], id="t0-too-large-plain"),
    pytest.param({"scenario": "box1", "reports": ["velocity"]}, [], id="velocity-report-plain"),
    pytest.param({"problem": catalog()["box1"].problem.to_json(), "reports": ["trajectory", "velocity"]},
                 [], id="velocity-report-problem"),
    pytest.param({"problem": 5}, [], id="problem-not-object"),
    pytest.param(_gait_and_problem(), [], id="gait-and-problem"),
    pytest.param(["crawler2"], [], id="config-not-object"),
])
def test_run_malformed_config_exit_4(tmp_path, capsys, config, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x"
    assert run_cli("run", "--config", str(cfg), "--out", str(out), *flags) == 4
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def _crawler2_gait(**change):
    gait = catalog()["crawler2"].gait.to_json()
    gait.update(change)
    return {"gait": gait, "periods": 3, "steps_per_period": 100}


def _triangle_problem(signals, key, value):
    # The triangle's problem has offsets and a piecewise-constant drift.
    problem = catalog()["triangle"].problem.to_json()
    signal = (problem["moving_set"]["offsets"] if signals == "offsets" else problem["drift"])[0]
    if key == "period":
        signal["period"] = value
    else:
        signal["points"][0][1] = value
    return {"problem": problem, "periods": 3, "steps_per_period": 300}


@pytest.mark.parametrize("config", [
    pytest.param(_crawler2_gait(T=float("nan")), id="gait-period-nan"),
    pytest.param(_crawler2_gait(N=2.5), id="gait-blocks-fractional"),
    pytest.param(_crawler2_gait(T="1"), id="gait-period-string"),
    pytest.param(_crawler2_gait(k=True), id="gait-stiffness-bool"),
    pytest.param(_crawler2_gait(k=float("inf")), id="gait-stiffness-infinite"),
    pytest.param(_triangle_problem("offsets", "period", float("nan")), id="offset-period-nan"),
    pytest.param(_triangle_problem("offsets", "value", float("nan")), id="offset-point-nan"),
    pytest.param(_triangle_problem("drift", "value", float("nan")), id="drift-point-nan"),
])
def test_run_non_finite_or_mistyped_inline_number_exit_4(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))   # NaN and Infinity, as Python's json reads them
    out = tmp_path / "x"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 4
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "check-gait"])
def test_gait_whose_moving_set_overflows_exit_4_writes_nothing(tmp_path, capsys, command):
    # k = 1e308 times crawler2's rest length of up to 4 overflows the offsets
    # of K(t). The gait is rejected when it is built: no overflow warning (a
    # warning fails the suite) and nothing written.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_crawler2_gait(k=1e308)))
    out = tmp_path / "x"
    flags = [] if command == "check-gait" else ["--out", str(out)]
    assert run_cli(command, "--config", str(cfg), *flags) == 4
    err = capsys.readouterr().err
    assert "configuration error: invalid gait" in err and "offsets of K(t) cannot be finite" in err
    assert not out.exists()


def _box1_normal(value):
    problem = catalog()["box1"].problem.to_json()
    problem["moving_set"]["normals"][0][0] = value
    return {"problem": problem}


@pytest.mark.parametrize("config", [
    pytest.param(_box1_normal("1"), id="normal-string"),
    pytest.param(_box1_normal(True), id="normal-bool"),
    pytest.param(_box1_normal(float("nan")), id="normal-nan"),
    pytest.param(_box1_normal(float("inf")), id="normal-infinite"),
])
def test_run_inline_normals_must_be_finite_numbers_exit_4(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x"
    assert run_cli("run", "--config", str(cfg), "--periods", "2", "--steps", "100", "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert "configuration error: invalid problem" in err and "normals must be" in err
    assert not out.exists()


def _box1_offset_point(point):
    problem = catalog()["box1"].problem.to_json()
    problem["moving_set"]["offsets"][0]["points"][0] = point
    return {"problem": problem}


def _box1_offset_period(value):
    problem = catalog()["box1"].problem.to_json()
    for signal in problem["moving_set"]["offsets"]:
        signal["period"] = value
    return {"problem": problem}


def _crawler2_mu_plus_value(value):
    gait = catalog()["crawler2"].gait.to_json()
    gait["mu_plus"][0]["points"][0][1] = value
    return {"gait": gait}


@pytest.mark.parametrize("config,section", [
    pytest.param(_box1_offset_point(["0", True]), "problem", id="offset-point-string-bool"),
    pytest.param(_crawler2_mu_plus_value("1"), "gait", id="mu-plus-value-string"),
    pytest.param(_box1_offset_period(True), "problem", id="offset-period-bool"),
])
def test_run_inline_signal_numbers_must_be_numbers_exit_4(tmp_path, capsys, config, section):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x"
    assert run_cli("run", "--config", str(cfg), "--periods", "3", "--steps", "100", "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert f"configuration error: invalid {section}" in err and "must be JSON numbers" in err
    assert not out.exists()


def _exported(name, edit):
    config = catalog()[name].export_json()
    config.update(periods=3, steps_per_period=120)
    edit(config)
    return config


def _set(path, value):
    def edit(config):
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


_OFFSETS = ("problem", "moving_set", "offsets")


def _repeat_first_row(times):
    def edit(config):
        ms = config["problem"]["moving_set"]
        ms["normals"] += [ms["normals"][0]] * times
        ms["offsets"] += [ms["offsets"][0]] * times
    return edit


@pytest.mark.parametrize("config,message", [
    # numpy refuses these arrays at once (more than 2^48 bytes); none is allocated.
    pytest.param(_exported("wedge", _set(("periods",), 1e308)), "1e+308 periods of 120 steps are more than",
                 id="periods-1e308"),
    pytest.param(_exported("wedge", _set(("periods",), 1e15)), "1e+15 periods of 120 steps are more than",
                 id="periods-1e15"),
    pytest.param(_exported("crawler3", _set(("steps_per_period",), 2**70)), "steps are more than an array",
                 id="steps-2^70"),
    # box1 asks z <= 0 and z >= 2 at its breakpoint t = 0.5: the set is empty there.
    pytest.param(_exported("box1", _set(_OFFSETS + (0, "points", 1, 1), 0)),
                 "invalid problem: InfeasibleSetError: no vertex found", id="empty-at-breakpoint"),
    pytest.param(_exported("box1", _set(("problem", "moving_set", "normals", 0, 0), 2.0**70)),
                 "invalid problem: InfeasibleSetError", id="normal-2^70"),
    pytest.param(_exported("box1", _set(("problem", "moving_set", "normals", 0, 0), 1e308)),
                 "numbers overflow the run's arithmetic: overflow", id="normal-1e308"),
    pytest.param(_exported("wedge", _set(_OFFSETS + (0, "points", 0, 1), 1e308)),
                 "numbers up to 1e+308 are too large for the working tolerance", id="offset-1e308"),
    # box3's offset falls from 1e308 to 3 in half a period: its slope overflows.
    pytest.param(_exported("box3", _set(_OFFSETS + (0, "points", 0, 1), 1e308)),
                 "slope between breakpoints (0.0, 1e+308) and (0.5, 3.0) is not finite", id="offset-slope-1e308"),
    pytest.param(_exported("box1", _repeat_first_row(23)),
                 "25 constraints exceed the enumeration cap 24", id="constraints-25"),
    pytest.param(_exported("wedge", _set(_OFFSETS + (0, "points", 0, 1), 2.0**70)),
                 "too large for the working tolerance", id="offset-2^70"),
    pytest.param(_exported("triangle", _set(("problem", "drift", 0, "points", 0, 1), 1e308)),
                 "too large for the working tolerance", id="drift-1e308"),
    pytest.param(_exported("crawler3", _set(("gait", "mu_plus", 0, "points", 0, 1), 1e308)),
                 "too large for the working tolerance", id="mu-plus-1e308"),
    pytest.param(_exported("crawler2-mirror", _set(("gait", "L", 0, "points", 0, 1), 2.0**70)),
                 "too large for the working tolerance", id="rest-length-2^70"),
    # JSON integers too large for a float: no number a run can use.
    pytest.param(_exported("wedge", _set(("t0",), 10**400)),
                 "invalid t0: TypeError: expected a JSON number that a float can hold", id="huge-int-t0"),
    pytest.param(_exported("crawler2", _set(("gait", "T"), 10**400)),
                 "invalid gait: TypeError: a gait's N, T and k must be JSON numbers that a float can hold",
                 id="huge-int-gait-period"),
    pytest.param(_exported("box1", _set(_OFFSETS + (0, "points", 0, 1), 10**400)),
                 "invalid problem: TypeError: a signal's period and breakpoints must be JSON numbers that a float",
                 id="huge-int-point"),
    pytest.param(_exported("wedge", _set(("periods",), 10**400)),
                 "invalid periods: TypeError: expected a JSON number that a float can hold", id="huge-int-periods"),
])
def test_run_counts_and_numbers_a_run_cannot_hold_exit_4_before_any_output(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command,name", [("run", "box1"), ("run", "crawler2")])
def test_starts_whose_runs_together_no_array_can_hold_exit_4_before_any_output(tmp_path, capsys, command, name):
    # One run's table is small; 2^40 of them, all kept until written, are not.
    # (check-gait builds no run, so it sizes no table: test_check_gait_sizes_no_run.)
    out = tmp_path / "x"
    assert run_cli(command, "--scenario", name, "--periods", "3", "--steps", "10",
                   "--starts", str(2**40), "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {2**40} starts of 3 periods of 10 steps are more than an array can hold")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    # More digits than Python's int conversion allows (json.loads refuses it), or,
    # where no limit is set, a t0 that no float can hold.
    ('{"scenario": "wedge", "t0": 1' + "0" * 5000 + "}").encode(),
    b'{"scenario": "wedge\xff"}',
], ids=["int-of-5001-digits", "not-utf-8"])
def test_run_config_that_json_cannot_read_exit_4(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    out = tmp_path / "x"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 4
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


def _wide_crawler3(num_blocks):
    # crawler3's two rest lengths alternating along the chain; mu+ = 1 < mu- = 1.3
    # keeps the uniqueness margin positive.
    gait = catalog()["crawler3"].gait.to_json()
    T = gait["T"]
    gait.update(
        N=num_blocks,
        L=[gait["L"][i % 2] for i in range(num_blocks - 1)],
        mu_plus=[PeriodicSignal.constant(1.0, T).to_json()] * num_blocks,
        mu_minus=[PeriodicSignal.constant(1.3, T).to_json()] * num_blocks,
    )
    return {"gait": gait, "periods": 3, "steps_per_period": 100}


@pytest.mark.parametrize("command,num_blocks,message", [
    ("run", 10, "candidate subset enumeration too large"),
    ("check-gait", 17, "margin enumeration supports at most 16 blocks"),
    ("run", 17, "34 constraints exceed the enumeration cap 24"),
])
def test_a_gait_beyond_an_enumeration_cap_exit_4_writes_no_file(tmp_path, capsys, command, num_blocks, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_wide_crawler3(num_blocks)))
    out = tmp_path / "x"
    flags = [] if command == "check-gait" else ["--out", str(out)]
    assert run_cli(command, "--config", str(cfg), *flags) == 4
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists() or not any(p.is_file() for p in out.rglob("*"))


def test_run_accepts_numbers_just_inside_the_working_tolerance(tmp_path):
    # Floats below 2^23 lie at most 2^-30 < 1e-9 apart, so box1's lower offset
    # may start at the last of them, but not at 2^23.
    config = _exported("box1", _set(_OFFSETS + (1, "points", 0, 1), 2.0**23 * (1 - 2**-53)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "a")) == 0
    config["problem"]["moving_set"]["offsets"][1]["points"][0][1] = 2.0**23
    cfg.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "b")) == 4


@pytest.mark.parametrize("flags", [
    ["run", "--scenario", "wedge", "--periods", "abc"],
    ["run", "--scenario", "wedge", "--starts", "1e15"],
    ["check-gait", "--scenario", "crawler2", "--periods", "3"],
    [],
], ids=["periods-not-int", "starts-not-int", "unknown-flag", "no-command"])
def test_flags_that_argparse_rejects_are_configuration_errors(tmp_path, capsys, flags):
    assert run_cli(*flags) == 4
    err = capsys.readouterr().err
    assert err.startswith("usage: sweeplab") and "configuration error: sweeplab" in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--help")
    assert exc.value.code == 0
    assert "--periods" in capsys.readouterr().out


def test_run_config_accepts_every_key(tmp_path):
    # scenario, gait and problem exclude each other; the three configs share the rest.
    cat = catalog()
    # A velocity report needs a gait.
    common = {"t0": 0, "periods": 4.0, "steps_per_period": 100, "seed": 3}
    gait_reports = ["trajectory", "convergence", "velocity"]
    configs = [
        {"scenario": "crawler2", "initial_states": {"random": 2}, "reports": gait_reports},
        {"gait": cat["crawler2"].gait.to_json(), "initial_states": [[0.0, 0.0]], "reports": gait_reports},
        {"problem": cat["box1"].problem.to_json(), "initial_states": [[0.5], [0.25]],
         "reports": ["trajectory", "convergence"]},
    ]
    assert set(common).union(*configs) == set(CONFIG_KEYS)
    for i, config in enumerate(configs):
        cfg, out = tmp_path / f"cfg{i}.json", tmp_path / f"out{i}"
        cfg.write_text(json.dumps({**common, **config}))
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
        summary = (out / "summary.txt").read_text()
        assert "periods: 4\nsteps_per_period: 100\nseed: 3\n" in summary
        assert (out / "convergence.json").exists() or (out / "convergence_s0.json").exists()


def test_readme_config_example_runs(tmp_path):
    # The inline-problem example in README's CLI section must stay a valid config.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"^## CLI$.*?^```json\n(.*?)^```", readme, re.S | re.M).group(1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(example)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # Every `sweeplab ...` line in README's sh blocks runs, writing under tmp_path.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M)
    lines = [line.split("#")[0].strip() for block in blocks for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("sweeplab ")]
    assert len(commands) == 4
    monkeypatch.chdir(tmp_path)
    for i, argv in enumerate(commands):
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path / f"out{i}")
        assert main(argv) == 0, argv


@pytest.mark.parametrize("scenario,states", [
    ("box1", [[0.5], [9.0]]),
    ("crawler2", [[0.0, 0.0], [0.0, 9.0]]),
])
def test_run_failing_start_writes_no_outputs(tmp_path, scenario, states):
    # Every start is simulated before the output directory is made.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario, "periods": 4, "steps_per_period": 100,
                               "initial_states": states}))
    out = tmp_path / "x"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 3
    assert not out.exists()


@pytest.mark.parametrize("command", ["run"])
def test_output_path_is_a_file_exit_4(tmp_path, capsys, command):
    path = tmp_path / "F"
    path.write_text("kept")
    code = run_cli(command, "--scenario", "crawler2", "--periods", "3", "--steps", "100",
                   "--out", str(path))
    assert code == 4
    err = capsys.readouterr().err
    assert "configuration error" in err and str(path) in err
    assert path.read_text() == "kept"


def test_run_velocity_needs_three_periods(tmp_path):
    code = run_cli("run", "--scenario", "crawler2", "--out", str(tmp_path / "x"),
                   "--periods", "2", "--steps", "100")
    assert code == 4


def test_run_convergence_needs_two_periods(tmp_path, capsys):
    out = tmp_path / "two"
    assert run_cli("run", "--scenario", "box1", "--out", str(out), "--periods", "2") == 0
    assert len(json.loads((out / "convergence.json").read_text())["d_sup"]) == 1
    out = tmp_path / "one"
    assert run_cli("run", "--scenario", "box1", "--out", str(out), "--periods", "1") == 4
    assert "convergence reports need at least 2 periods" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flags,config", [
    ("check-gait", [], {"scenario": "crawler2", "periods": 2, "reports": ["velocity"]}),
    ("run", ["--compare"], {"scenario": "crawler2", "periods": 2, "steps_per_period": 100,
                            "reports": []}),
], ids=["check-gait-config", "run-compare-no-reports"])
def test_report_rules_are_runs_alone(tmp_path, capsys, command, flags, config):
    # check-gait ignores the reports, and a run that asks for none meets no
    # report rule: run --compare cross-checks two periods.
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    if command == "run":
        flags = [*flags, "--out", str(tmp_path / "x")]
    assert run_cli(command, "--config", str(path), *flags) == 0
    assert capsys.readouterr().err == ""


def test_run_inline_problem_config(tmp_path):
    sc = catalog()["box1"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": sc.problem.to_json(),
        "periods": 5,
        "steps_per_period": 100,
        "initial_states": [[0.5]],
    }))
    out = tmp_path / "box"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
    rep = json.loads((out / "convergence.json").read_text())
    assert rep["classification"]["kind"] == "finite-time"


# ---------------------------------------------------------------------------
# other commands

def test_run_with_compare_flag(tmp_path):
    out = tmp_path / "gait"
    code = run_cli("run", "--scenario", "crawler2", "--out", str(out),
                   "--periods", "4", "--steps", "400", "--compare")
    assert code == 0
    gap = json.loads((out / "compare.json").read_text())
    assert gap["sup_distance"] <= 0.02


def test_run_compare_with_no_reports_writes_the_cross_check_alone(tmp_path):
    # The oracle cross-check without reports: compare.json and summary.txt,
    # and the compare.json that a run with every report writes.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"scenario": "crawler3", "reports": []}))
    grid = ["--periods", "3", "--steps", "300", "--compare"]
    bare, full = tmp_path / "bare", tmp_path / "full"
    assert run_cli("run", "--config", str(cfg), *grid, "--out", str(bare)) == 0
    assert run_cli("run", "--scenario", "crawler3", *grid, "--out", str(full)) == 0
    assert sorted(p.name for p in bare.iterdir()) == ["compare.json", "summary.txt"]
    assert (bare / "compare.json").read_bytes() == (full / "compare.json").read_bytes()
    assert json.loads((bare / "compare.json").read_text())["sup_distance"] <= 1e-9


def test_compare_is_not_a_command_exit_4_writes_nothing(tmp_path, capsys):
    # The cross-check is run --compare; the parser offers three commands.
    out = tmp_path / "x"
    assert run_cli("compare", "--scenario", "crawler2", "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert re.search(r"^configuration error: sweeplab: argument command: invalid choice: '?compare\b", err, re.M)
    assert not out.exists()
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["run", "check-gait", "list-scenarios"]


@pytest.mark.parametrize("command,flags", [("run", ["--compare"])])
def test_compare_without_gait_exit_4_writes_nothing(tmp_path, capsys, command, flags):
    out = tmp_path / "x"
    assert run_cli(command, "--scenario", "box1", "--out", str(out), *flags) == 4
    assert "compare needs a gait" in capsys.readouterr().err
    assert not out.exists()


def test_check_gait_good_and_degenerate(capsys):
    assert run_cli("check-gait", "--scenario", "crawler2") == 0
    assert "uniqueness margin" in capsys.readouterr().out
    assert run_cli("check-gait", "--scenario", "crawler2-degenerate") == 2


def test_check_gait_reports_a_margin_that_vanishes_between_samples(tmp_path, capsys):
    # crawler2 but for mu1^+ (1 at t = 0, 3 at t = 0.5) and mu2^- = 2.0123:
    # mu1^+ - mu2^- vanishes at t = 0.253075, between the grid times 0.25 and 0.26.
    gait = catalog()["crawler2"].gait.to_json()
    gait["mu_plus"] = [PeriodicSignal(1.0, [(0.0, 1.0), (0.5, 3.0)]).to_json(),
                       PeriodicSignal.constant(5.0, 1.0).to_json()]
    gait["mu_minus"] = [PeriodicSignal.constant(3.0, 1.0).to_json(),
                        PeriodicSignal.constant(2.0123, 1.0).to_json()]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gait": gait}))
    assert run_cli("check-gait", "--config", str(cfg)) == 2
    out = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert float(out["uniqueness margin"]) <= 1e-9
    assert abs(float(out["worst time"]) - 0.253075) <= 1e-12
    assert out["worst forward-slip subset (0-based blocks)"] == "[0]"
    # run judges the margin by the same rule, so no grid hides the zero.
    for steps in ("200", "4000"):
        run_out = tmp_path / f"run-{steps}"
        argv = ["run", "--config", str(cfg), "--periods", "3", "--steps", steps, "--out", str(run_out)]
        assert run_cli(*argv) == 2
        assert "t=0.253075:" in capsys.readouterr().err
        assert not run_out.exists()


@pytest.mark.parametrize("exponent,margin,code", [(31, "4.6566128730773926e-10", 2),
                                                  (29, "1.862645149230957e-09", 0)])
def test_the_margin_gate_rejects_a_margin_up_to_the_tolerance(tmp_path, capsys, exponent, margin, code):
    # crawler2 but for mu2^- = 1 + 2^-e: the margin is exactly 2^-e, at t = 0
    # for subset [0]. A margin <= 1e-9 is rejected, and 1e-9 lies between
    # 2^-31 and 2^-29.
    config = catalog()["crawler2"].export_json()
    config["gait"]["mu_minus"][1] = PeriodicSignal.constant(1.0 + 2.0**-exponent, 1.0).to_json()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli("check-gait", "--config", str(cfg)) == code
    assert capsys.readouterr().out.splitlines() == [
        f"uniqueness margin: {margin}", "worst time: 0", "worst forward-slip subset (0-based blocks): [0]"]
    out = tmp_path / "run"
    assert run_cli("run", "--config", str(cfg), "--periods", "3", "--steps", "300", "--out", str(out)) == code
    assert out.exists() == (code == 0)


GAITS = sorted(name for name, sc in catalog().items() if sc.gait is not None)


@pytest.mark.parametrize("name", GAITS)
def test_run_and_check_gait_report_one_margin(tmp_path, capsys, name):
    # Both commands judge the exact period margin: the margin in run's
    # velocity.json is the one check-gait prints, and both reject the same gaits.
    code = run_cli("check-gait", "--scenario", name)
    assert code == (2 if name == "crawler2-degenerate" else 0)
    margin = float(dict(line.split(": ") for line in capsys.readouterr().out.splitlines())["uniqueness margin"])
    out = tmp_path / name
    assert run_cli("run", "--scenario", name, "--periods", "3", "--steps", "300", "--out", str(out)) == code
    if code:
        assert not out.exists()
    else:
        assert json.loads((out / "velocity.json").read_text())["margin"] == margin


def test_check_gait_sizes_no_starts(tmp_path, capsys):
    # check-gait draws no starts, so a config's huge random count does not matter.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "crawler2", "initial_states": {"random": 2**40}}))
    assert run_cli("check-gait", "--config", str(cfg)) == 0
    assert capsys.readouterr().out.startswith("uniqueness margin: 1\n")


def test_check_gait_sizes_no_run(tmp_path, capsys):
    # check-gait builds no run, so a period count whose table no array can hold does not matter.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "crawler2", "periods": 10**12}))
    assert run_cli("check-gait", "--config", str(cfg)) == 0
    assert capsys.readouterr().out.startswith("uniqueness margin: 1\n")


def test_check_gait_requires_gait():
    assert run_cli("check-gait", "--scenario", "wedge") == 4


def test_list_scenarios(capsys):
    assert run_cli("list-scenarios") == 0
    text = capsys.readouterr().out
    for name in ("wedge", "triangle", "box1", "crawler2"):
        assert name in text


def test_the_cli_runs_without_scipy():
    # A fresh interpreter: the test session itself imports scipy for its references.
    code = (
        "import sys, sweeplab.cli\n"
        "assert sweeplab.cli.main(['list-scenarios']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
