import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from sweeplab.cli import CONFIG_KEYS, dump_json, main
from sweeplab.crawler import simulate_reduced
from sweeplab.polyhedra import contains, freeze
from sweeplab.scenarios import catalog
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
    table = np.column_stack([m.times, m.positions, m.mean_positions, m.gaps, run.reduced.states])
    rows = [line.split(",") for line in raw.decode().split("\n")[1:-1]]
    assert rows == [[FLOAT_FMT % x for x in row] for row in table]

    d_sup = convergence_report(traj).d_sup
    listed = "[" + ", ".join(FLOAT_FMT % x for x in d_sup) + "]"
    assert dump_json(d_sup) == listed
    assert f'"d_sup": {listed}' in (tmp_path / "w" / "convergence.json").read_text()


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
    assert not out.exists() or not any(out.iterdir())


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
    assert len(commands) == 5
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
    # Every start is simulated before any file is written.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario, "periods": 4, "steps_per_period": 100,
                               "initial_states": states}))
    out = tmp_path / "x"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 3
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "compare"])
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


@pytest.mark.parametrize("command,flags,config", [
    ("compare", ["--scenario", "crawler2", "--periods", "2", "--steps", "100"], None),
    ("compare", [], {"scenario": "crawler2", "periods": 2, "steps_per_period": 100,
                     "reports": ["velocity"]}),
    ("check-gait", [], {"scenario": "crawler2", "periods": 2}),
], ids=["compare-flags", "compare-config", "check-gait-config"])
def test_report_rules_are_runs_alone(tmp_path, capsys, command, flags, config):
    if config is not None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        flags = [*flags, "--config", str(path)]
    assert run_cli(command, *flags) == 0
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

def test_compare_command(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = run_cli("compare", "--scenario", "crawler2", "--out", str(out),
                   "--periods", "4", "--steps", "400")
    assert code == 0
    gap = json.loads((out / "compare.json").read_text())
    assert gap["sup_distance"] <= 0.02
    assert "sup distance" in capsys.readouterr().out


def test_run_with_compare_flag(tmp_path):
    out = tmp_path / "gait"
    code = run_cli("run", "--scenario", "crawler2", "--out", str(out),
                   "--periods", "4", "--steps", "400", "--compare")
    assert code == 0
    assert (out / "compare.json").exists()


@pytest.mark.parametrize("flags,config", [
    (["--starts", "3", "--seed", "4"], None),
    ([], {"scenario": "crawler2", "initial_states": [[0.0, 0.0], [0.0, 0.5]]}),
], ids=["starts-flag", "states-config"])
def test_compare_several_starts_exit_4_writes_nothing(tmp_path, capsys, flags, config):
    # compare cross-checks one start; run --compare checks the first of several.
    if config is not None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        flags = [*flags, "--config", str(path)]
    else:
        flags = [*flags, "--scenario", "crawler2"]
    out = tmp_path / "x"
    assert run_cli("compare", *flags, "--periods", "3", "--steps", "200", "--out", str(out)) == 4
    assert "compare takes one start, got" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flags", [("run", ["--compare"]), ("compare", [])])
def test_compare_without_gait_exit_4_writes_nothing(tmp_path, capsys, command, flags):
    out = tmp_path / "x"
    assert run_cli(command, "--scenario", "box1", "--out", str(out), *flags) == 4
    assert "compare needs a gait" in capsys.readouterr().err
    assert not out.exists()


def test_check_gait_good_and_degenerate(capsys):
    assert run_cli("check-gait", "--scenario", "crawler2") == 0
    assert "uniqueness margin" in capsys.readouterr().out
    assert run_cli("check-gait", "--scenario", "crawler2-degenerate") == 2


def test_check_gait_requires_gait():
    assert run_cli("check-gait", "--scenario", "wedge") == 4


def test_list_scenarios(capsys):
    assert run_cli("list-scenarios") == 0
    text = capsys.readouterr().out
    for name in ("wedge", "triangle", "box1", "crawler2"):
        assert name in text
