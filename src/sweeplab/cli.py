"""Batch front end: run scenarios or gaits from JSON configs and emit reports.

Outputs are deterministic: floats are printed with 17 significant digits,
JSON keys are sorted, and random initial states come from a seeded generator
recorded in the summary. Exit codes: 0 success, 1 numerical failure, 2
rejected gait (vanishing uniqueness margin), 3 inadmissible initial state, 4
configuration error (a config beyond an enumeration cap included).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# K(t) comes from Gait.moving_set, built once per gait; build_moving_set stays
# imported because the benchmark's tracer (perfbench/spans.py) wraps it by name here.
from .crawler import (
    Gait,
    _margin_gate,
    assemble_positions,
    build_moving_set,
    estimate_velocity,
    incremental_oracle,
    simulate_reduced,
)
from .errors import (
    ConfigError,
    DegenerateGaitError,
    EnumerationCapError,
    GridAlignmentError,
    InadmissibleStateError,
    InfeasibleSetError,
    SweepLabError,
)
from .polyhedra import DEFAULT_TOL, MovingPolyhedron, bounding_box, contains, freeze
from .scenarios import Scenario, catalog, scenario
from .signals import is_json_number
from .sweeping import (
    FLOAT_FMT,
    SweepingProblem,
    _grid_texts,
    _write_csv,
    convergence_report,
    simulate,
    write_trajectory_csv,
)


# ---------------------------------------------------------------------------
# Deterministic serialization

def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return "null"
    return FLOAT_FMT % x


def dump_json(obj, indent: int = 0) -> str:
    """JSON emitter with fixed float formatting and sorted keys."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dump_json(obj[k], indent + 1)}'
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        return "[" + ", ".join(dump_json(x, indent) for x in seq) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    return json.dumps(obj)


def write_json(path: Path, obj) -> None:
    path.write_text(dump_json(obj) + "\n")


# ---------------------------------------------------------------------------
# Run configuration

REPORTS = ("trajectory", "convergence", "velocity")
PLAIN_REPORTS = ("trajectory", "convergence")   # velocity needs a gait


def _expect(value, *types):
    """value, if its type is one of types exactly (so true is not an int)."""
    if type(value) not in types:
        raise TypeError(f"expected {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def _number(value):
    """value, if it is a JSON number that a float can hold (signals.is_json_number)."""
    if not is_json_number(value):
        raise TypeError(f"expected a JSON number that a float can hold, got {value!r}")
    return value


def _integer(value, least: int) -> int:
    """A JSON integer (5 or 5.0; not 2.7, "5", true or 10**400) that is at least `least`."""
    if (type(_number(value)) is float and not value.is_integer()) or value < least:
        raise ValueError(f"expected an integer >= {least}, got {value!r}")
    return int(value)


def _finite(value) -> float:
    """A JSON number (not a string or true) that is neither infinite nor NaN."""
    value = float(_number(value))
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def _starts(value):
    """A nonempty list of states of finite numbers, or {"random": k} parsed to the count k."""
    if isinstance(value, dict) and list(value) == ["random"]:
        return _integer(value["random"], 1)
    if isinstance(value, list) and value:
        return [np.array([_finite(v) for v in s]) for s in value]
    raise ValueError(f'expected a nonempty list of states or {{"random": k}}, got {value!r}')


def _reports(value) -> tuple:
    if not all(r in REPORTS for r in _expect(value, list)):
        raise ValueError(f"expected names from {list(REPORTS)}, got {value!r}")
    return tuple(value)


# Every key a config may set, with the parser of its value; any other key is an error.
CONFIG_KEYS = {
    "scenario": lambda v: _expect(v, str),
    "gait": Gait.from_json,
    "problem": SweepingProblem.from_json,
    "t0": _finite,
    "periods": lambda v: _integer(v, 1),
    "steps_per_period": lambda v: _integer(v, 1),
    "seed": lambda v: _integer(v, 0),
    "initial_states": _starts,
    "reports": _reports,
}


@dataclass(frozen=True)
class RunConfig:
    """A command's run, resolved from its config and flags; every field is final."""

    scenario: Scenario | None
    gait: Gait | None
    problem: SweepingProblem | None
    moving_set: MovingPolyhedron   # the set the run projects onto: K(t) for a gait
    t0: float
    periods: int
    steps: int
    seed: int
    starts: list | int | None   # states, a random-start count, or None (scenario default)
    reports: tuple
    compare: bool
    out: Path

    @staticmethod
    def load(args) -> "RunConfig":
        """Parse the config file, and the flags that override its keys, through
        CONFIG_KEYS, and resolve the run they ask for.

        Also rejects a compare on a run without a gait, and numbers that the
        working tolerance cannot resolve. The reports and the run counts are
        `run`'s alone, so `cmd_run` checks them: check-gait builds no run.
        """
        raw = {}
        if args.config:
            try:
                raw = json.loads(Path(args.config).read_text())
            except (OSError, ValueError) as exc:   # JSON, UTF-8 or an int of too many digits
                raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
            if not isinstance(raw, dict):
                raise ConfigError(f"config {args.config} is not a JSON object")
        for key in CONFIG_KEYS:   # a flag that overrides a key is stored under its name
            if getattr(args, key, None) is not None:
                raw[key] = getattr(args, key)
        if getattr(args, "starts", None) is not None:
            raw["initial_states"] = {"random": args.starts}
        cfg = {}
        for key, value in raw.items():
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}; the keys are {', '.join(CONFIG_KEYS)}")
            try:
                cfg[key] = CONFIG_KEYS[key](value)
            except (AttributeError, KeyError, TypeError, ValueError, InfeasibleSetError,
                    EnumerationCapError) as exc:
                raise ConfigError(f"invalid {key}: {type(exc).__name__}: {exc}") from exc
        if sum(key in cfg for key in ("scenario", "gait", "problem")) != 1:
            raise ConfigError("config needs exactly one of a scenario name, a gait and a problem")
        sc = None
        gait, problem = cfg.get("gait"), cfg.get("problem")
        if "scenario" in cfg:
            try:
                sc = scenario(cfg["scenario"])
            except KeyError:
                raise ConfigError(f"unknown scenario {cfg['scenario']!r}") from None
            gait, problem = sc.gait, sc.problem
        periods = cfg.get("periods", sc.recommended_periods if sc else 10)
        steps = cfg.get("steps_per_period", sc.recommended_steps if sc else 1000)
        compare = getattr(args, "compare", False)
        if gait is None and compare:
            raise ConfigError("compare needs a gait scenario or an inline gait")
        moving = problem.moving_set if gait is None else gait.moving_set
        drift = (problem.drift or ()) if gait is None else ()
        _check_resolvable([moving.normals.ravel()]
                          + [s.values for s in moving.offsets]
                          + [moving.period / steps * s.values for s in drift])
        return RunConfig(
            sc, gait, problem, moving, cfg.get("t0", 0.0), periods, steps, cfg.get("seed", 0),
            cfg.get("initial_states"), cfg.get("reports", REPORTS if gait is not None else PLAIN_REPORTS),
            compare, Path(getattr(args, "out", None) or "."),
        )


def _check_counts(periods: int, steps: int, width: int, runs: int) -> None:
    """Refuse counts whose (runs, periods * steps + 1, width) array, the size
    of the runs' trajectory tables, numpy refuses to build, before any run is
    built. The trial array is never written, so none of its pages is touched."""
    try:
        np.empty((runs, periods * steps + 1, width))
    except (MemoryError, OverflowError, ValueError) as exc:
        starts = f"{runs} starts of " if runs > 1 else ""
        raise ConfigError(
            f"{starts}{periods:.6g} periods of {steps:.6g} steps are more than an array can hold: {exc}"
        ) from None


def _check_resolvable(values) -> None:
    """Refuse numbers too large for the absolute working tolerance.

    Every membership and sign test of a run compares with DEFAULT_TOL, so the
    normals, offsets and drift increments must lie where floats are at most
    DEFAULT_TOL apart (below 2^23 in magnitude). The bound also keeps the
    run's arithmetic finite.
    """
    largest = max(float(np.max(np.abs(v), initial=0.0)) for v in values)
    if math.ulp(largest) > DEFAULT_TOL:
        raise ConfigError(
            f"numbers up to {largest!r} are too large for the working tolerance "
            f"{DEFAULT_TOL}: floats near them are {math.ulp(largest):.3e} apart"
        )


# ---------------------------------------------------------------------------
# Initial states

_MAX_REJECTIONS = 100_000   # rejected draws after which random starts are refused


def _random_states_in(F, count: int, rng) -> list:
    """count uniform draws from F's bounding box that F contains, in draw order.

    Only rejected draws count against _MAX_REJECTIONS, so any count of
    starts can be drawn from a set that fills enough of its box.
    """
    lo, hi = bounding_box(F)
    out = []
    rejected = 0
    while len(out) < count:
        z = rng.uniform(lo, hi)
        if contains(F, z):
            out.append(z)
        else:
            rejected += 1
            if rejected == _MAX_REJECTIONS:
                raise ConfigError("rejection sampling failed to find admissible states")
    return out


def _initial_states(cfg: RunConfig, rng) -> list:
    requested, gait = cfg.starts, cfg.gait
    if isinstance(requested, list):
        dim = gait.num_blocks if gait is not None else cfg.problem.dim
        if any(s.shape != (dim,) for s in requested):
            raise ConfigError(f"initial_states must be a nonempty list of states with {dim} entries")
        return requested
    if requested is None and cfg.scenario is not None:
        return [np.asarray(cfg.scenario.initial_state, dtype=float)]
    ws = _random_states_in(freeze(cfg.moving_set, cfg.t0), 1 if requested is None else requested, rng)
    if gait is None:
        return ws
    return [assemble_positions(0.0, -w / gait.stiffness) for w in ws]


# ---------------------------------------------------------------------------
# Motion CSV (gait runs)

def write_motion_csv(path: Path, run, *, _t_texts=None) -> None:
    """t and the block positions x1..xN; lines end in \\n.

    Nothing derived is repeated: the mean and the gaps are the mean and the
    differences of the x columns, and the shape w is trajectory.csv's state.
    _write_csv formats each distinct row once, from distinct positions;
    _t_texts is a list of _grid_texts(motion.times) when cmd_run has
    formatted it for every file on the grid.
    """
    motion = run.motion
    N = motion.positions.shape[1]
    header = ["t"] + [f"x{i + 1}" for i in range(N)]
    t_texts = _grid_texts(motion.times) if _t_texts is None else _t_texts
    _write_csv(path, header, t_texts, motion.positions, "\n")


# ---------------------------------------------------------------------------
# Commands

def _output_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


def cmd_run(args) -> int:
    cfg = RunConfig.load(args)
    gait, periods, steps, reports = cfg.gait, cfg.periods, cfg.steps, cfg.reports
    if gait is None and "velocity" in reports:
        raise ConfigError("velocity reports need a gait scenario or an inline gait")
    for name, least in (("velocity", 3), ("convergence", 2)):
        if name in reports and periods < least:
            raise ConfigError(f"{name} reports need at least {least} periods")
    # Every start's run is kept until all are simulated, so their tables must fit together.
    _check_counts(periods, steps, 2 + cfg.moving_set.dim + cfg.moving_set.num_constraints,
                  len(cfg.starts) if isinstance(cfg.starts, list) else cfg.starts or 1)
    starts = _initial_states(cfg, np.random.default_rng(cfg.seed))
    summary = [
        f"scenario: {cfg.scenario.name if cfg.scenario else 'inline'}",
        f"kind: {'gait' if gait is not None else 'sweeping'}",
        f"t0: {_fmt_float(cfg.t0)}",
        f"periods: {periods}",
        f"steps_per_period: {steps}",
        f"seed: {cfg.seed}",
        f"starts: {len(starts)}",
    ]

    # Every start, and the oracle cross-check, is simulated before the output
    # directory is made, so a failing run writes nothing.
    if gait is not None:
        runs = [simulate_reduced(gait, x0, cfg.t0, periods, steps) for x0 in starts]
        trajs = [run.reduced for run in runs]
    else:
        runs = []
        trajs = [simulate(cfg.problem, z0, cfg.t0, periods, steps) for z0 in starts]
    gap = None
    if cfg.compare:   # the first start's reduced run against the oracle on the same grid
        oracle = incremental_oracle(gait, starts[0], cfg.t0, periods, steps)
        gap = {
            "sup_distance": float(np.max(np.abs(runs[0].motion.positions - oracle.motion.positions))),
            "periods": periods,
            "steps_per_period": steps,
            "h": gait.period / steps,
        }
    out = _output_dir(cfg.out)
    # Every start's trajectory and motion share one grid t0 + k*h: when this
    # run writes more than one such file, their t column is formatted once.
    t_texts = None
    if "trajectory" in reports and len(trajs) + len(runs) > 1:
        t_texts = list(_grid_texts(trajs[0].times))
    for i, traj in enumerate(trajs):
        tag = "" if len(trajs) == 1 else f"_s{i}"
        if "trajectory" in reports:
            write_trajectory_csv(traj, out / f"trajectory{tag}.csv", _t_texts=t_texts)
            if runs:
                write_motion_csv(out / f"motion{tag}.csv", runs[i], _t_texts=t_texts)
        if "convergence" in reports:
            rep = convergence_report(traj)
            write_json(out / f"convergence{tag}.json", rep.to_json())
            if i == 0 and not runs:
                summary.append(f"classification: {rep.classification.kind}")
                if rep.classification.ratio is not None:
                    summary.append(f"ratio: {_fmt_float(rep.classification.ratio)}")
                summary.append(f"residual: {_fmt_float(rep.residual)}")

    if "velocity" in reports:
        vels = [estimate_velocity(r.motion) for r in runs]
        v0s = [v.v0 for v in vels]
        payload = {
            "v0": v0s[0],
            "per_period": vels[0].per_period,
            "margin": gait.period_margin.min_margin,
            "converged": all(v.converged for v in vels),
        }
        if len(v0s) > 1:
            payload["v0_by_start"] = v0s
            payload["v0_spread"] = max(v0s) - min(v0s)
        write_json(out / "velocity.json", payload)
        summary.append(f"v0: {_fmt_float(v0s[0])}")
        summary.append(f"margin: {_fmt_float(gait.period_margin.min_margin)}")
    if gap is not None:
        write_json(out / "compare.json", gap)
        summary.append(f"solver_sup_distance: {_fmt_float(gap['sup_distance'])}")

    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    return 0


def cmd_check_gait(args) -> int:
    gait = RunConfig.load(args).gait
    if gait is None:
        raise ConfigError("check-gait needs a gait scenario or an inline gait")
    report = gait.period_margin
    print(f"uniqueness margin: {_fmt_float(report.min_margin)}")
    print(f"worst time: {_fmt_float(report.worst_time)}")
    print(f"worst forward-slip subset (0-based blocks): {list(report.worst_subset)}")
    _margin_gate(report)
    return 0


def cmd_list_scenarios(_args) -> int:
    for name, sc in sorted(catalog().items()):
        dims = (
            f"N={sc.gait.num_blocks}" if sc.gait is not None else f"n={sc.problem.dim}"
        )
        print(
            f"{name:22s} {sc.kind:9s} {dims:5s} "
            f"T={_fmt_float(sc.gait.period if sc.gait else sc.problem.period)} "
            f"Q={sc.recommended_periods} M={sc.recommended_steps}"
        )
    return 0


# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, with_run_flags: bool = True) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--scenario", help="bundled scenario name")
    if with_run_flags:
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="seed for random initial states")
        p.add_argument("--periods", type=int, help="number of periods to simulate")
        p.add_argument("--steps", type=int, dest="steps_per_period", help="steps per period")
        p.add_argument("--t0", type=float, help="start time")
        p.add_argument("--starts", type=int, help="number of random initial states")


class _Parser(argparse.ArgumentParser):
    """Bad flags are configuration errors (exit 4) with argparse's message;
    subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sweeplab",
        description="Periodic polyhedral sweeping processes and crawler gaits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate and write reports")
    _add_common(p_run)
    p_run.add_argument("--compare", action="store_true", help="also cross-check gait runs against the oracle")
    p_run.set_defaults(func=cmd_run)

    p_chk = sub.add_parser("check-gait", help="report the uniqueness margin of a gait")
    _add_common(p_chk, with_run_flags=False)
    p_chk.set_defaults(func=cmd_check_gait)

    p_ls = sub.add_parser("list-scenarios", help="list bundled scenarios")
    p_ls.set_defaults(func=cmd_list_scenarios)
    return parser


def main(argv=None) -> int:
    """Run one command. numpy's floating-point errors raise, so a number that
    overflows the arithmetic is a configuration error, not a warning."""
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except DegenerateGaitError as exc:
        print(f"rejected gait: {exc}", file=sys.stderr)
        return 2
    except InadmissibleStateError as exc:
        print(f"inadmissible initial state: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, EnumerationCapError, GridAlignmentError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 4
    except FloatingPointError as exc:
        print(f"configuration error: numbers overflow the run's arithmetic: {exc}", file=sys.stderr)
        return 4
    except SweepLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
