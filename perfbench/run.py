"""sweeplab benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the root of a sweeplab source tree; it imports the package from
``src/`` and nothing else.  With ``--trace 0`` it times repeated set-ups and
then passes over the workload's fixed job list for ``--seconds`` (at least
three passes), scales every timing to reference host speed with a probe loop
sampled while it runs (``hostclock.py``), and reports the end-to-end
metrics.  With
``--trace 1`` it runs one traced set-up, one untraced pass, two traced passes
and the Baseline self-check, and reports the per-layer metrics.  Either way
the last line of standard output is one JSON object; lines before it that
start with ``#`` are for people.  Results and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 15, 3.0   # set-ups: at least 3, until 3 s
MIN_PASSES = 3
MODULES = ("signals", "polyhedra", "sweeping", "crawler", "scenarios", "cli")
WORKLOAD_NAMES = ("sweep", "cli", "gait_wide")

_clock = time.perf_counter


def import_sweeplab() -> SimpleNamespace:
    """Import sweeplab afresh, so that each set-up starts with empty caches."""
    for key in [k for k in sys.modules if k == "sweeplab" or k.startswith("sweeplab.")]:
        del sys.modules[key]
    sl = SimpleNamespace(**{m: importlib.import_module(f"sweeplab.{m}") for m in MODULES})
    src = (ROOT / "src").resolve()
    if src not in Path(sl.cli.__file__).resolve().parents:
        raise RuntimeError(f"imported sweeplab from {sl.cli.__file__}, not from {src}")
    return sl


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
    }


def run_pass(wl, tracer=None):
    """Run the job list once; return each job's (start, end) clock readings and result.

    A job that raises is recorded with the exception as its result.
    """
    wl.reset()
    gc.collect()
    spans, results = [], []
    for job in wl.jobs:
        t0 = _clock()
        try:
            if tracer is None:
                result = job.run()
            else:
                with tracer.span(f"job:{job.label}"):
                    result = job.run()
        except Exception as exc:   # a failed job is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            result = exc
        spans.append((t0, _clock()))
        results.append(result)
    return spans, results


def pass_wall(spans) -> float:
    return sum(b - a for a, b in spans)


class Checker:
    """Full checks on the first pass; bitwise agreement with it afterwards."""

    def __init__(self, wl):
        self.wl = wl
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def __call__(self, results) -> None:
        first = self.reference is None
        prints = []
        for i, (job, result) in enumerate(zip(self.wl.jobs, results)):
            self.attempted += 1
            fp = None
            if isinstance(result, Exception):
                err = f"raised {result!r}"
            else:
                fp = self.wl.fingerprint(job, result)
                if first:
                    err = self.wl.check(job, result)
                elif self.reference[i] is None:
                    err = "failed in the first pass"
                elif fp != self.reference[i]:
                    err = "output differs from the first pass"
                else:
                    err = None
            if err:
                self.failed += 1
                self.errors.append(f"{job.label}: {err}")
                fp = None
            prints.append(fp)
        if first:
            self.reference = prints


def measure(name: str, seed: int, seconds: float, workdir: Path):
    from hostclock import HostClock
    from workloads import WORKLOADS

    with HostClock() as clock:
        setup_spans = []
        while len(setup_spans) < SETUP_MIN or (
            pass_wall(setup_spans) < SETUP_SECONDS and len(setup_spans) < SETUP_MAX
        ):
            gc.collect()
            t0 = _clock()
            sl = import_sweeplab()
            wl = WORKLOADS[name](sl, seed, workdir)
            setup_spans.append((t0, _clock()))

        check = Checker(wl)
        job_spans = []
        t_start = _clock()
        while True:
            spans, results = run_pass(wl)
            job_spans.append(spans)
            check(results)
            del results
            # Stop before a pass that would end past --seconds.
            n = len(job_spans)
            if n >= MIN_PASSES and (_clock() - t_start) * (n + 1) / n > seconds:
                break

    setups = clock.scaled(setup_spans)
    job_times = [clock.scaled(spans) for spans in job_spans]
    # Each job's median over the passes of its time at reference speed.
    per_job = [statistics.median(ref for _work, ref in col) for col in zip(*job_times)]
    wall_s = sum(per_job)
    steps = sum(job.steps for job in wl.jobs)
    metrics = {
        "setup_s": (statistics.median(ref for _work, ref in setups), "s"),
        "wall_s": (wall_s, "s"),
        "job_s_p50": (statistics.median(per_job), "s"),
        "steps_per_s": (steps / wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((check.attempted - check.failed) / check.attempted, "ratio"),
    }
    slowdowns = list(clock.slowdowns)
    detail = {
        "probes": len(slowdowns),
        "probe_slowdown_quartiles": statistics.quantiles(slowdowns, n=4),
        "probe_starts": list(clock.starts),
        "probe_times": list(clock.durations),
        "probe_slowdowns": slowdowns,
        "setup_spans": setup_spans,
        "job_spans": job_spans,
        "setup_times": [ref for _work, ref in setups],
        "setup_times_raw": [b - a for a, b in setup_spans],
        "job_times": [[ref for _work, ref in p] for p in job_times],
        "job_times_work": [[work for work, _ref in p] for p in job_times],
        "job_times_raw": [[b - a for a, b in p] for p in job_spans],
        "jobs_per_pass": [j.label for j in wl.jobs],
        "steps_per_pass": steps,
    }
    return metrics, check, [], detail


def trace(name: str, seed: int, workdir: Path):
    from spans import Tracer
    from workloads import WORKLOADS, baseline_selfcheck

    sl = import_sweeplab()
    tracer = Tracer(sl)
    tracer.install()
    with tracer.span("bench.setup"):
        wl = WORKLOADS[name](sl, seed, workdir)
    tracer.uninstall()
    pos0, counts0 = tracer.mark()

    check = Checker(wl)
    spans, results = run_pass(wl)
    untraced = pass_wall(spans)
    check(results)

    tracer.install()
    traced, per_pass, sizes = [], [], None
    for _ in range(2):
        with tracer.span("bench.pass"):
            spans, results = run_pass(wl, tracer)
        traced.append(pass_wall(spans))
        check(results)
        del results
        per_pass.append(tracer.mark())
        if sizes is None:
            sizes = wl.output_sizes()
    tracer.uninstall()
    # The self-check validates the wrappers on the integrator whose counts
    # the Baseline quotes.  A later change to the projection path may move
    # these counts legitimately, so mismatches are reported, not failed.
    mismatches = baseline_selfcheck(sl, Tracer)
    for msg in mismatches:
        print(f"# self-check: {msg}")

    errors = []
    (pos1, counts1), (_pos2, counts2) = per_pass
    delta1 = {k: v - counts0.get(k, 0) for k, v in counts1.items()}
    delta2 = {k: v - counts1.get(k, 0) for k, v in counts2.items()}
    if delta1 != delta2:
        errors.append(f"counters differ between traced passes: {delta1} != {delta2}")

    layer = tracer.layer_times(0, pos1)
    per_job = tracer.calls_within("job:", pos0, pos1)
    metrics = layer_metrics(layer, counts1, per_job, sizes, len(wl.jobs))
    metrics["bench.trace_overhead_s"] = (statistics.fmean(traced) - untraced, "s")
    metrics["bench.spans"] = (pos1, "count")
    metrics["bench.baseline_mismatches"] = (len(mismatches), "count")

    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"{name}-seed{seed}-spans.npz")
    detail = {
        "jobs_per_pass": [j.label for j in wl.jobs],
        "baseline_mismatches": mismatches,
        "untraced_wall": untraced,
        "traced_walls": traced,
        "counters_setup_and_pass": counts1,
        "counters_per_pass": delta1,
        "per_job_calls": per_job,
        "layers": {k: {"calls": c, "incl_s": i, "self_s": s} for k, (c, i, s) in layer.items()},
    }
    return metrics, check, errors, detail


def layer_metrics(layer, counts, per_job, sizes, njobs) -> dict:
    """Per-layer metrics over the traced set-up plus the first traced pass."""

    def calls(span):
        return layer.get(span, (0, 0.0, 0.0))[0]

    def incl(span):
        return layer.get(span, (0, 0.0, 0.0))[1]

    def own(span):
        return layer.get(span, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    steps = calls("polyhedra.project")
    full = counts.get("polyhedra.full_searches", 0)
    tried = counts.get("polyhedra.candidates_tried", 0)
    oracle_steps = counts.get("crawler.oracle_steps", 0)
    patterns = counts.get("crawler.oracle_patterns_tried", 0)
    builds = sum(c.get("crawler.build_moving_set", 0) for c in per_job.values())
    compare = per_job.get("job:crawler2-compare", {})
    return {
        "signals.phase_table_s": (incl("signals.eval_many"), "s"),
        "polyhedra.subset_table_s": (incl("polyhedra.subset_table"), "s"),
        "polyhedra.subset_table_entries": (counts.get("polyhedra.subset_table_entries", 0), "count"),
        "polyhedra.validate_s": (incl("polyhedra.MovingPolyhedron"), "s"),
        "polyhedra.vertices_calls": (calls("polyhedra.vertices"), "count"),
        "polyhedra.project_s": (incl("polyhedra.project"), "s"),
        "polyhedra.project_us_per_step": (1e6 * ratio(incl("polyhedra.project"), steps), "us"),
        "polyhedra.interior_steps": (counts.get("polyhedra.interior_steps", 0), "count"),
        "polyhedra.hint_hits": (counts.get("polyhedra.hint_hits", 0), "count"),
        "polyhedra.full_searches": (full, "count"),
        "polyhedra.candidates_tried": (tried, "count"),
        "polyhedra.search_yield": (ratio(full, tried), "ratio"),
        "sweeping.simulate_self_s": (own("sweeping.simulate"), "s"),
        "sweeping.active_mask_s": (incl("sweeping.active_mask"), "s"),
        "sweeping.steps": (steps, "count"),
        "sweeping.diagnostics_s": (incl("sweeping.convergence_report"), "s"),
        "sweeping.csv_write_s": (incl("sweeping.write_trajectory_csv"), "s"),
        "sweeping.csv_bytes": (sizes["csv"], "bytes"),
        "crawler.margin_gate_s": (incl("crawler.margin_gate"), "s"),
        "crawler.margin_evals": (counts.get("crawler.margin_evals", 0), "count"),
        "crawler.moving_set_builds": (ratio(builds, njobs), "1/job"),
        "crawler.assemble_s": (incl("crawler.assemble_positions"), "s"),
        "crawler.oracle_s": (incl("crawler.incremental_oracle"), "s"),
        "crawler.oracle_steps": (oracle_steps, "count"),
        "crawler.oracle_patterns_tried": (patterns, "count"),
        "crawler.oracle_yield": (ratio(oracle_steps, patterns), "ratio"),
        "cli.motion_csv_s": (incl("cli.write_motion_csv"), "s"),
        "cli.json_s": (incl("cli.write_json"), "s"),
        "cli.output_bytes": (sizes["total"], "bytes"),
        "cli.reduced_runs": (compare.get("crawler.simulate_reduced", 0), "count"),
        "scenarios.catalog_s": (incl("scenarios.catalog"), "s"),
    }


def declared_metrics(traced: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def run_one(args) -> int:
    if not (ROOT / "src" / "sweeplab" / "__init__.py").is_file():
        print(f"no sweeplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    # sweeplab's dependencies load once per process; set-up times the
    # package's own import on top of them.
    import scipy.optimize  # noqa: F401

    machine = machine_info()
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            metrics, check, errors, detail = trace(args.workload, args.seed, workdir)
        else:
            metrics, check, errors, detail = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = declared_metrics(bool(args.trace))
    produced = {k: unit for k, (_, unit) in metrics.items()}
    if produced != declared:
        raise RuntimeError(f"metrics {produced} do not match BENCHMARK.json {declared}")

    errors = check.errors + errors
    result = {
        "correct": not errors,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "errors": errors, "result": result, "detail": detail}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    for err in errors:
        print(f"# FAILED {err}")
    print(f"# machine {json.dumps(machine)}")
    print(f"# workload {args.workload}, seed {args.seed}: {check.attempted} jobs attempted, "
          f"{check.failed} failed; {len(detail['jobs_per_pass'])} jobs per pass")
    for k, (v, unit) in metrics.items():
        print(f"# {k} = {v:.6g} {unit}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print their metrics."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for k, m in result["metrics"].items():
            print(f"  {k:32s} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
