"""A seeded hostile-input sweep of `sweeplab run --config`.

Each case takes a bundled scenario's exported config at 3 periods of 120
steps and replaces one JSON node by one hostile value, or deletes it. Every
case must exit 0, 2, 3 or 4; say why on stderr when it exits nonzero; make
no output directory on a nonzero exit; and raise no RuntimeWarning.

Tier-1 runs a fixed, seeded sample of the cases. Run this file as a script
to sweep every case:

    PYTHONPATH=src python tests/test_hostile_inputs.py
"""

import collections
import contextlib
import copy
import io
import json
import random
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from sweeplab.cli import main
from sweeplab.scenarios import catalog

DELETE = object()
MUTATIONS = (
    float("nan"), float("inf"), 1e308, -1e308, "1", True, None, [], {}, 0, -1, 1e-300, 2**70, DELETE,
)
SAMPLE_SEED = 21
SAMPLE_SIZE = 70   # cases per scenario in the tier-1 sample
ALLOWED_EXITS = (0, 2, 3, 4)


def base_configs() -> dict:
    configs = {}
    for name, sc in sorted(catalog().items()):
        config = sc.export_json()
        config["periods"] = 3
        config["steps_per_period"] = 120
        configs[name] = config
    return configs


def _paths(node, prefix=()):
    """The path of every node below the root, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def cases(configs: dict) -> list:
    """(scenario, path, mutation index) of every case, in a fixed order."""
    return [
        (name, path, i)
        for name, config in configs.items()
        for path in _paths(config)
        for i in range(len(MUTATIONS))
    ]


def mutated(config: dict, path: tuple, value):
    out = copy.deepcopy(config)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return out


def run_case(config: dict, workdir: Path):
    """(exit code, or the name of an escaping exception; the rules that one
    `run --config` of config breaks, as strings)."""
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    out = workdir / "out"
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = main(["run", "--config", str(path), "--out", str(out)])
        except (Exception, SystemExit) as exc:   # an escaping exception is the finding
            return type(exc).__name__, [f"raised {type(exc).__name__}: {exc}"]
    broken = []
    if code not in ALLOWED_EXITS:
        broken.append(f"exit {code}: {err.getvalue().strip()}")
    if code != 0 and not err.getvalue().strip():
        broken.append(f"exit {code} with nothing on stderr")
    if code != 0 and out.exists():
        broken.append(f"exit {code} made {out}: {sorted(p.name for p in out.rglob('*'))}")
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if runtime:
        broken.append(f"RuntimeWarning: {runtime[0].message}")
    return code, broken


def _label(case) -> str:
    name, path, i = case
    value = MUTATIONS[i]
    return f"{name} {'/'.join(map(str, path))} {'<delete>' if value is DELETE else repr(value)}"


def sweep(configs: dict, selected: list, outcomes=None) -> list:
    """Run the selected cases; the (label, broken rules) of each that breaks a
    rule. outcomes, a Counter if given, counts the cases by outcome."""
    failures = []
    for case in selected:
        name, path, i = case
        with tempfile.TemporaryDirectory() as tmp:
            code, broken = run_case(mutated(configs[name], path, MUTATIONS[i]), Path(tmp))
        if outcomes is not None:
            outcomes[code] += 1
        if broken:
            failures.append((_label(case), broken))
    return failures


CONFIGS = base_configs()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_seeded_sample_of_hostile_configs_keeps_the_exit_rules(name):
    scenario_cases = [c for c in cases(CONFIGS) if c[0] == name]
    sample = random.Random(f"{SAMPLE_SEED}:{name}").sample(scenario_cases, SAMPLE_SIZE)
    assert sweep(CONFIGS, sample) == []


if __name__ == "__main__":
    everything = cases(CONFIGS)
    outcomes = collections.Counter()
    found = sweep(CONFIGS, everything, outcomes)
    for label, broken in found:
        print(f"{label}: {'; '.join(broken)}")
    print(f"{len(everything)} cases, {len(found)} break a rule; outcomes "
          + ", ".join(f"{k}: {v}" for k, v in sorted(outcomes.items(), key=str)))
    sys.exit(1 if found else 0)
