"""The benchmark's tracer (perfbench/spans.py) wraps sweeplab attributes by
name and reads some of their arguments by position; a refactor that drops or
renames one, or moves an argument the tracer reads, must fail here."""

from types import SimpleNamespace

import sweeplab.cli
import sweeplab.crawler
import sweeplab.polyhedra
import sweeplab.scenarios
import sweeplab.signals
import sweeplab.sweeping
from helpers import load_perfbench

MODULES = ("signals", "polyhedra", "sweeping", "crawler", "scenarios", "cli")


def test_tracer_installs_and_restores_every_attribute():
    sl = SimpleNamespace(**{m: getattr(sweeplab, m) for m in MODULES})
    owners = [getattr(sl, m) for m in MODULES] + [sl.polyhedra.MovingPolyhedron]
    before = [dict(vars(owner)) for owner in owners]

    tracer = load_perfbench("spans").Tracer(sl)   # raises AttributeError on a missing name
    tracer.install()
    try:
        changed = {
            (owner.__name__, name)
            for owner, old in zip(owners, before)
            for name, value in vars(owner).items()
            if value is not old.get(name)
        }
    finally:
        tracer.uninstall()
    assert {
        ("sweeplab.sweeping", "_active_mask"),
        ("sweeplab.sweeping", "_project_raw"),
        ("sweeplab.sweeping", "eval_many"),
        ("sweeplab.crawler", "eval_many"),
        ("sweeplab.polyhedra", "vertices"),
        ("sweeplab.cli", "write_trajectory_csv"),
        ("sweeplab.cli", "write_motion_csv"),
        ("MovingPolyhedron", "__init__"),
    } <= changed

    for owner, old in zip(owners, before):
        now = vars(owner)
        assert now.keys() == old.keys(), owner.__name__
        assert all(now[name] is old[name] for name in old), owner.__name__


def test_tracer_counts_through_the_wrapped_arguments():
    """Calls through the wrappers whose callbacks read _project_raw's table
    (and its subset index) and count the oracle's scalar searches."""
    sl = SimpleNamespace(**{m: getattr(sweeplab, m) for m in MODULES})
    scenarios = sl.scenarios.catalog()
    box3, crawler3 = scenarios["box3"], scenarios["crawler3"]
    tracer = load_perfbench("spans").Tracer(sl)
    tracer.install()
    try:
        sl.sweeping.simulate(box3.problem, box3.initial_state, 0.0, 3, 200)
        sl.crawler.incremental_oracle(crawler3.gait, crawler3.initial_state, 0.0, 2, 200)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    projections = tracer.layer_times()["polyhedra.project"][0]
    full = counts.get("polyhedra.full_searches", 0)
    assert counts.get("polyhedra.interior_steps", 0) + full == projections
    assert counts.get("polyhedra.candidates_tried", 0) >= full > 0
    assert counts.get("crawler.oracle_steps", 0) > 0
