"""The public functions take no tolerance or threshold parameters.

Every tolerance and threshold is a module constant (polyhedra.DEFAULT_TOL,
sweeping.FINITE_TIME_TOL, crawler.VELOCITY_TOL and private ones), so the
tests cover the one configuration that runs.
"""

import inspect

import pytest

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
