"""The benchmark's workloads: inputs drawn from a seed, jobs, and result checks.

A workload is built once per set-up.  Building it makes the inputs (scenario
catalog, gaits, moving sets, initial states drawn from the seed) and runs one
short warm-up job per distinct problem, which fills sweeplab's subset-table
cache.  ``jobs`` is the fixed job list that one measured pass runs, one job at
a time.  ``check`` validates a job's result against an independent reference
outside the timed region; ``fingerprint`` lets later passes be compared with
the checked first pass bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Job:
    label: str
    steps: int          # catching-up steps the job is asked for (reduced, plain, oracle)
    run: Callable[[], object]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _admissible_point(sl, moving_set, rng, t0: float = 0.0) -> np.ndarray:
    """Uniform draw from the frozen set at t0 by rejection from its bounding box."""
    F = sl.polyhedra.freeze(moving_set, t0)
    lo, hi = sl.polyhedra.bounding_box(F)
    for _ in range(100_000):
        z = rng.uniform(lo, hi)
        if sl.polyhedra.contains(F, z):
            return z
    raise RuntimeError("rejection sampling found no admissible start")


def _check_wedge(sc, classification: dict) -> str | None:
    expected = 1.0 / (sc.reference["alpha"] ** 2 + 1.0)
    if classification["kind"] != "geometric":
        return f"wedge classified {classification['kind']}, expected geometric"
    if abs(classification["ratio"] - expected) > 0.05:
        return f"wedge ratio {classification['ratio']} is not within 0.05 of {expected}"
    return None


def _check_triangle(d_sup) -> str | None:
    # Period 0 carries the transient to the bottom edge; the edge map
    # contracts exactly by 1/8 afterwards.
    d = np.asarray(d_sup, dtype=float)
    ratio = float(np.median(d[2:6] / d[1:5]))
    if abs(ratio - 0.125) > 0.02:
        return f"triangle ratio {ratio} is not within 0.02 of 1/8"
    return None


def _kkt(sl, traj) -> str | None:
    try:
        sl.sweeping.validate_trajectory(traj)
    except ValueError as exc:
        return f"KKT check: {exc}"
    return None


class Workload:
    jobs: list[Job]

    def reset(self) -> None:
        """Prepare for a pass; runs outside the timed region."""

    def output_sizes(self) -> dict:
        """Bytes written by the last pass: trajectory CSVs and all files."""
        return {"csv": 0, "total": 0}


# ---------------------------------------------------------------------------
# sweep: the plain catching-up loop and its diagnostics


class Sweep(Workload):
    """wedge and triangle through ``simulate`` + ``convergence_report``.

    Four wedge starts on the bottom edge left of the rest point, where the
    closed-form period map contracts by 1/(alpha^2+1), stratified so that the
    pass cost varies little with the seed, and one triangle start drawn
    uniformly from the triangle.  Four wedge jobs to one triangle job keep the
    median job inside the wedge group.
    """

    WEDGE_STARTS = 4

    def __init__(self, sl, seed: int, workdir: Path):
        self.sl = sl
        cat = sl.scenarios.catalog()
        self.wedge, self.triangle = cat["wedge"], cat["triangle"]
        rng = np.random.default_rng(seed)
        gamma = self.wedge.reference["poincare_map"]["fixed_point"]
        k = self.WEDGE_STARTS
        us = gamma * (0.1 + 0.8 * (np.arange(k) + rng.uniform(size=k)) / k)
        starts = [(f"wedge-{i}", self.wedge, np.array([u, 0.0])) for i, u in enumerate(us)]
        z_tri = _admissible_point(sl, self.triangle.problem.moving_set, rng)
        starts.insert(2, ("triangle", self.triangle, z_tri))
        self.jobs = [
            Job(label, sc.recommended_periods * sc.recommended_steps, self._runner(sc, z0))
            for label, sc, z0 in starts
        ]
        for sc in (self.wedge, self.triangle):
            self._run(sc, sc.initial_state, 5, sc.recommended_steps // 10)

    def _run(self, sc, z0, periods, steps):
        sw = self.sl.sweeping
        traj = sw.simulate(sc.problem, z0, 0.0, periods, steps)
        return traj, sw.convergence_report(traj)

    def _runner(self, sc, z0):
        return lambda: self._run(sc, z0, sc.recommended_periods, sc.recommended_steps)

    def check(self, job: Job, result) -> str | None:
        traj, rep = result
        if job.label == "triangle":
            err = _check_triangle(rep.d_sup)
        else:
            err = _check_wedge(self.wedge, rep.classification.to_json())
        return err or _kkt(self.sl, traj)

    def fingerprint(self, job: Job, result) -> str:
        traj, rep = result
        return _digest(traj.states, traj.multipliers, traj.active_masks, rep.d_sup, rep.d_w12)


# ---------------------------------------------------------------------------
# cli: the same integrator plus reports, margin gate, reconstruction, oracle


class Cli(Workload):
    """In-process ``sweeplab run`` invocations, one job each.

    Half the recommended steps per period, so that at least four passes fit
    in one run; the checks below hold at this resolution.
    """

    STARTS = 2   # random starts of the --compare invocation

    def __init__(self, sl, seed: int, workdir: Path):
        self.sl = sl
        cat = sl.scenarios.catalog()
        self.wedge, self.triangle = cat["wedge"], cat["triangle"]
        self.crawler3 = cat["crawler3"]
        rng = np.random.default_rng(seed)
        gamma = self.wedge.reference["poincare_map"]["fixed_point"]
        u = gamma * rng.uniform(0.1, 0.9)
        z_tri = _admissible_point(sl, self.triangle.problem.moving_set, rng)
        seeds = [int(s) for s in rng.integers(0, 2**31, size=2)]

        workdir.mkdir(parents=True, exist_ok=True)
        specs = [
            ("wedge", self.wedge, {"initial_states": [[float(u), 0.0]]}, [], 1, 0),
            ("crawler3", self.crawler3, {}, ["--starts", "1", "--seed", str(seeds[0])], 1, 0),
            ("triangle", self.triangle, {"initial_states": [z_tri.tolist()]}, [], 1, 0),
            (
                "crawler2-compare",
                cat["crawler2"],
                {},
                ["--starts", str(self.STARTS), "--seed", str(seeds[1]), "--compare"],
                self.STARTS + 1,   # reduced runs the user asked for, plus the oracle
                0,
            ),
            ("crawler2-degenerate", cat["crawler2-degenerate"], {}, [], 0, 2),
        ]
        self.expected_exit = {}
        self.outdirs = {}
        self.jobs = []
        for label, sc, config, flags, runs, code in specs:
            steps = sc.recommended_steps // 2
            config = {"scenario": sc.name, "steps_per_period": steps, **config}
            cfg_path = workdir / f"{label}.json"
            cfg_path.write_text(json.dumps(config))
            out = workdir / label
            argv = ["run", "--config", str(cfg_path), "--out", str(out), *flags]
            self.expected_exit[label] = code
            self.outdirs[label] = out
            self.jobs.append(Job(label, runs * sc.recommended_periods * steps, self._runner(argv)))
            # Warm-up: the same invocation at a coarse grid (300 steps per
            # period put every bundled breakpoint on the grid).
            self._main(argv + ["--periods", "3", "--steps", "300"])
        self.reset()

    def _main(self, argv) -> int:
        with contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return self.sl.cli.main(argv)

    def _runner(self, argv):
        return lambda: self._main(argv)

    def reset(self) -> None:
        for out in self.outdirs.values():
            shutil.rmtree(out, ignore_errors=True)

    def _read(self, label: str, name: str):
        return json.loads((self.outdirs[label] / name).read_text())

    def check(self, job: Job, code) -> str | None:
        label = job.label
        if code != self.expected_exit[label]:
            return f"exit code {code}, expected {self.expected_exit[label]}"
        sl = self.sl
        out = self.outdirs[label]
        if label == "wedge":
            err = _check_wedge(self.wedge, self._read(label, "convergence.json")["classification"])
            traj = sl.sweeping.read_trajectory_csv(out / "trajectory.csv", self.wedge.problem)
            return err or _kkt(sl, traj)
        if label == "triangle":
            return _check_triangle(self._read(label, "convergence.json")["d_sup"])
        if label == "crawler3":
            problem = sl.sweeping.SweepingProblem(sl.crawler.build_moving_set(self.crawler3.gait))
            traj = sl.sweeping.read_trajectory_csv(out / "trajectory.csv", problem)
            return _kkt(sl, traj)
        if label == "crawler2-compare":
            v0s = self._read(label, "velocity.json")["v0_by_start"]
            if any(abs(v - 2.0) > 0.02 for v in v0s):
                return f"crawler2 v0 {v0s} is not within 0.02 of 2.0"
            gap = self._read(label, "compare.json")["sup_distance"]
            if not gap <= 1e-9:
                return f"reduced-vs-oracle gap {gap} exceeds 1e-9"
        return None

    def fingerprint(self, job: Job, code) -> str:
        h = hashlib.sha256(str(code).encode())
        out = self.outdirs[job.label]
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    def output_sizes(self) -> dict:
        files = [p for out in self.outdirs.values() if out.is_dir() for p in out.iterdir()]
        return {
            "csv": sum(p.stat().st_size for p in files if p.name.startswith("trajectory")),
            "total": sum(p.stat().st_size for p in files),
        }


# ---------------------------------------------------------------------------
# gait_wide: combinatorial set-up, full searches, 2^N margin and 3^N oracle


def peristaltic_gait(sl, N: int, amplitude: float = 3.0):
    """N-block crawler driven by a peristaltic wave.

    Link j stretches to ``amplitude`` and back over the j-th of N-1 equal
    slots of the period, so every breakpoint lies on multiples of
    T/(2(N-1)).  Forward friction is lower than backward friction and grows
    slightly along the body, which keeps the uniqueness margin well above
    the working tolerance (0.45 at N=6, 0.35 at N=7).
    """
    T = 1.0
    q = 2 * (N - 1)
    PeriodicSignal = sl.signals.PeriodicSignal
    links = tuple(
        PeriodicSignal(
            T,
            [
                (2 * j % q / q * T, 0.0),
                ((2 * j + 1) % q / q * T, amplitude),
                ((2 * j + 2) % q / q * T, 0.0),
            ],
        )
        for j in range(N - 1)
    )
    mu_plus = tuple(PeriodicSignal.constant(1.0 + 0.05 * i, T) for i in range(N))
    mu_minus = tuple(PeriodicSignal.constant(1.7 + 0.05 * i, T) for i in range(N))
    return sl.crawler.Gait(N, T, 1.0, links, mu_plus, mu_minus)


class GaitWide(Workload):
    """``simulate_reduced`` plus an ``incremental_oracle`` cross-check.

    Three starts at N=6 and two at N=7, each drawn uniformly from K(0);
    the odd split keeps the median job inside the N=6 group.
    """

    PERIODS = 4
    STEPS = 240          # a multiple of 2(N-1) for N = 6 and 7
    STARTS = {6: 3, 7: 2}

    def __init__(self, sl, seed: int, workdir: Path):
        self.sl = sl
        sl.scenarios.catalog()
        rng = np.random.default_rng(seed)
        cr = sl.crawler
        self.jobs = []
        for N, count in self.STARTS.items():
            g = peristaltic_gait(sl, N)
            K = cr.build_moving_set(g)
            x0s = [
                cr.assemble_positions(0.0, -_admissible_point(sl, K, rng) / g.stiffness)
                for _ in range(count)
            ]
            for i, x0 in enumerate(x0s):
                steps = 2 * self.PERIODS * self.STEPS
                self.jobs.append(Job(f"N{N}-{i}", steps, self._runner(g, x0, self.PERIODS)))
            self._runner(g, x0s[0], 1)()

    def _runner(self, g, x0, periods):
        cr = self.sl.crawler

        def run():
            red = cr.simulate_reduced(g, x0, 0.0, periods, self.STEPS)
            orc = cr.incremental_oracle(g, x0, 0.0, periods, self.STEPS)
            return red, orc

        return run

    def check(self, job: Job, result) -> str | None:
        red, orc = result
        gap = float(np.max(np.abs(red.motion.positions - orc.motion.positions)))
        if not gap <= 1e-9:
            return f"reduced-vs-oracle gap {gap} exceeds 1e-9"
        return _kkt(self.sl, red.reduced)

    def fingerprint(self, job: Job, result) -> str:
        red, orc = result
        return _digest(red.reduced.states, red.reduced.multipliers, red.motion.positions,
                       orc.motion.positions, orc.patterns)


WORKLOADS = {"sweep": Sweep, "cli": Cli, "gait_wide": GaitWide}


# ---------------------------------------------------------------------------
# Self-check against the projection counts quoted in ROADMAP.md (Baseline)

BASELINE_COUNTS = {
    # scenario: (periods, steps per period, interior steps, hint hits, full searches)
    "wedge": (20, 2000, 38_477, 1_483, 40),
    "triangle": (12, 3000, 9_919, 26_045, 36),
    "crawler3": (10, 2000, 8_486, 11_463, 51),
}


def baseline_selfcheck(sl, make_tracer) -> list[str]:
    """Rerun the Baseline cases under a fresh tracer; return every mismatch.

    Each reduced run must also evaluate ``margin_at`` 2*M times.
    """
    errors = []
    cat = sl.scenarios.catalog()
    for name, (Q, M, *expected) in BASELINE_COUNTS.items():
        sc = cat[name]
        tr = make_tracer(sl)
        tr.install()
        try:
            if sc.gait is not None:
                sl.crawler.simulate_reduced(sc.gait, sc.initial_state, 0.0, Q, M)
            else:
                sl.sweeping.simulate(sc.problem, sc.initial_state, 0.0, Q, M)
        finally:
            tr.uninstall()
        got = [
            tr.counts.get(k, 0)
            for k in ("polyhedra.interior_steps", "polyhedra.hint_hits", "polyhedra.full_searches")
        ]
        if got != expected:
            errors.append(f"baseline {name}: counts {got} != {expected}")
        if sc.gait is not None and tr.counts.get("crawler.margin_evals") != 2 * M:
            errors.append(
                f"baseline {name}: margin_at called {tr.counts.get('crawler.margin_evals')}"
                f" times, expected 2*M = {2 * M}"
            )
    return errors
