"""Symmetries of the discrete map on the bundled scenarios.

A run must not depend on the order in which the constraints are listed, on
which period it starts in, or (beyond rounding) on where the origin sits; and
a mirrored gait must crawl the mirrored way.
"""

import numpy as np
import pytest

from sweeplab.crawler import estimate_velocity, simulate_reduced
from sweeplab.polyhedra import MovingPolyhedron
from sweeplab.scenarios import scenario
from sweeplab.signals import combine
from sweeplab.sweeping import SweepingProblem, convergence_report, simulate

EPS = np.finfo(float).eps
PLAIN = ["wedge", "triangle", "box3"]


def _run(sc, problem=None, z0=None, t0=0.0):
    return simulate(problem or sc.problem, sc.initial_state if z0 is None else z0, t0,
                    sc.recommended_periods, sc.recommended_steps)


def _with_rows(problem, normals, offsets):
    return SweepingProblem(MovingPolyhedron(normals, offsets), problem.drift)


@pytest.mark.parametrize("name", PLAIN)
def test_row_order_changes_nothing(name):
    # Bit for bit: the same states, and the multipliers permuted with the rows.
    sc = scenario(name)
    P = sc.problem.moving_set
    base = _run(sc)
    rows = np.arange(P.num_constraints)
    for perm in (np.roll(rows, 1), rows[::-1], np.roll(rows[::-1], 1)):
        run = _run(sc, _with_rows(sc.problem, P.normals[perm], [P.offsets[i] for i in perm]))
        assert run.states.tobytes() == base.states.tobytes(), perm
        assert run.multipliers.tobytes() == base.multipliers[:, perm].tobytes(), perm


@pytest.mark.parametrize("name", PLAIN)
def test_starting_one_period_later_changes_nothing(name):
    sc = scenario(name)
    later = _run(sc, t0=sc.problem.period)
    np.testing.assert_allclose(later.states, _run(sc).states, rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", PLAIN)
@pytest.mark.parametrize("scale", [1.0, 2.0**10])
def test_translation_moves_the_states_by_rounding_only(name, scale):
    # z -> z + a maps K(t) to the set with offsets c_i + b_i . a. Each step may
    # round at the size of |a|, so the gap is bounded by |a| eps per step.
    sc = scenario(name)
    P = sc.problem.moving_set
    a = scale * np.array([0.375, -0.25, 0.125])[: P.dim]
    offsets = [combine([c], [1.0], constant=float(b @ a)) for b, c in zip(P.normals, P.offsets)]
    moved = _run(sc, _with_rows(sc.problem, P.normals, offsets), sc.initial_state + a)
    base = _run(sc)
    steps = len(base.states) - 1
    assert np.max(np.abs(moved.states - a - base.states)) <= np.linalg.norm(a) * EPS * steps
    assert convergence_report(moved).classification.kind == convergence_report(base).classification.kind


def test_mirrored_gait_crawls_the_mirrored_way():
    # crawler2-mirror swaps the friction directions: x -> -x with the blocks in
    # reverse order. v0 is an exact negative; the positions are sums in another
    # order, so they agree to rounding.
    runs = []
    for name in ("crawler2", "crawler2-mirror"):
        sc = scenario(name)
        runs.append(simulate_reduced(sc.gait, sc.initial_state, 0.0,
                                     sc.recommended_periods, sc.recommended_steps).motion)
    base, mirror = runs
    np.testing.assert_allclose(mirror.positions, -base.positions[:, ::-1], rtol=0, atol=1e-14)
    assert estimate_velocity(mirror).v0 == -estimate_velocity(base).v0
