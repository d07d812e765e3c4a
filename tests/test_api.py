"""The public functions take no tolerance or threshold parameters.

Every tolerance and threshold is a module constant (polyhedra.DEFAULT_TOL,
crawler.VELOCITY_TOL and private ones), so the tests cover the one
configuration that runs. A run is finite-time when it repeats a period
exactly, which needs no threshold.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import sweeplab
import sweeplab.cli
import sweeplab.crawler
import sweeplab.polyhedra
import sweeplab.scenarios
import sweeplab.signals
import sweeplab.sweeping

MODULES = [
    sweeplab.signals,
    sweeplab.polyhedra,
    sweeplab.sweeping,
    sweeplab.crawler,
    sweeplab.scenarios,
    sweeplab.cli,
]
SETTINGS = {"tol", "tol_ft", "tol_v", "Q_min", "ratio_spread", "slack", "divisions"}


def _public_functions(module):
    """(qualified name, function) for the public functions and methods defined in module."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                func = getattr(member, "__func__", member)   # unwrap static and class methods
                if inspect.isfunction(func) and (attr == "__init__" or not attr.startswith("_")):
                    yield f"{module.__name__}.{name}.{attr}", func


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_public_function_takes_a_tolerance(module):
    functions = dict(_public_functions(module))
    assert functions
    settable = {
        name: sorted(SETTINGS & set(inspect.signature(func).parameters))
        for name, func in functions.items()
    }
    assert {name: params for name, params in settable.items() if params} == {}


def test_signature_scan_sees_the_library():
    names = {name for module in MODULES for name, _ in _public_functions(module)}
    assert {
        "sweeplab.polyhedra.project",
        "sweeplab.polyhedra.MovingPolyhedron.__init__",
        "sweeplab.polyhedra.MovingPolyhedron.from_json",
        "sweeplab.sweeping.convergence_report",
        "sweeplab.crawler.incremental_oracle",
        "sweeplab.scenarios.triangle_scenario",
        "sweeplab.cli.main",
    } <= names


def _removed_names():
    """(owner, name) for each name in README's removed-names table: owner is
    the module or class before the last dot ('' for a bare name)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text[text.index("| removed | use |") :].split("\n\n")[0]
    for row in table.splitlines()[2:]:
        for code in re.findall(r"`([^`]+)`", row.split("|")[1]):
            owner, _, name = code.split("(")[0].rpartition(".")
            yield owner, name


def _owned(owner: str, name: str) -> bool:
    """Whether the module or class named owner carries name: as an attribute
    of the module, or of the class itself or a base other than object, or as
    a dataclass field."""
    for module in MODULES:
        if module.__name__.endswith(f".{owner}"):
            return hasattr(module, name)
    (cls,) = {getattr(m, owner) for m in MODULES if inspect.isclass(getattr(m, owner, None))}
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return name in fields or any(name in vars(base) for base in cls.__mro__[:-1])


def test_removed_names_stay_removed():
    removed = set(_removed_names())
    assert {
        ("", "poincare_samples"),
        ("sweeping", "period_distances_sup"),
        ("sweeping", "period_distances_w12"),
        ("sweeping", "classify_convergence"),
        ("sweeping", "lambda_series"),
        ("PeriodicSignal", "__call__"),
        ("MovingPolyhedron", "offsets_at"),
        ("CrawlerRun", "margin"),
        ("cli", "cmd_compare"),
    } <= removed
    carried = sorted(
        f"{owner}.{name}".lstrip(".")
        for owner, name in removed
        if hasattr(sweeplab, name)
        or (owner and _owned(owner, name))
        or (not owner and any(hasattr(m, name) for m in MODULES))
    )
    assert carried == []
