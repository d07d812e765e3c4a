"""The benchmark's tracer (perfbench/spans.py) wraps sweeplab attributes by
name; a refactor that drops or renames one must fail here."""

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
