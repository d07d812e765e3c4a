import dataclasses

import numpy as np
import pytest

from helpers import random_drift, random_moving_polyhedron, reference_simulate
from sweeplab.crawler import build_moving_set, incremental_oracle, pi_z, simulate_reduced
from sweeplab.errors import GridAlignmentError, InadmissibleStateError, InfeasibleSetError, LicqError
from sweeplab.polyhedra import FrozenPolyhedron, MovingPolyhedron
from sweeplab.scenarios import catalog, wedge_poincare, wedge_scenario
from sweeplab.signals import PIECEWISE_CONSTANT, PeriodicSignal, combine, triangle_wave
from sweeplab.sweeping import (
    SweepingProblem,
    Trajectory,
    classify_convergence,
    convergence_report,
    estimate_limit_cycle,
    hypomonotone_check,
    lambda_convergence,
    lambda_series,
    period_distance_sup,
    period_distance_w12,
    period_distances_sup,
    period_distances_w12,
    poincare_samples,
    read_trajectory_csv,
    simulate,
    step,
    validate_trajectory,
    write_trajectory_csv,
)

T1 = 1.0


def constant_interval(lo=0.0, hi=1.0, period=T1):
    return MovingPolyhedron(
        [[1.0], [-1.0]],
        (PeriodicSignal.constant(hi, period), PeriodicSignal.constant(-lo, period)),
    )


def moving_interval(lower_signal, upper_signal):
    return MovingPolyhedron([[1.0], [-1.0]], (upper_signal, combine([lower_signal], [-1.0])))


# ---------------------------------------------------------------------------
# single step

def test_step_interior_is_identity():
    F = FrozenPolyhedron([[1.0], [-1.0]], [1.0, 0.0])
    z_next, eta = step(F, np.array([0.5]), None, 0.1)
    assert z_next[0] == 0.5
    assert np.all(eta == 0)


def test_step_drift_clips_at_upper_bound():
    F = FrozenPolyhedron([[1.0], [-1.0]], [1.0, 0.0])
    z_next, eta = step(F, np.array([0.5]), np.array([2.0]), 0.5)
    assert z_next[0] == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(eta, [0.5, 0.0], atol=1e-14)


def test_step_translating_interval_catches_state():
    a = 0.7
    F = FrozenPolyhedron([[1.0], [-1.0]], [a + 1.0, -a])
    z_next, eta = step(F, np.array([0.2]), None, 0.1)
    assert z_next[0] == pytest.approx(a, abs=1e-14)
    assert eta[1] == pytest.approx(a - 0.2, abs=1e-14)


# ---------------------------------------------------------------------------
# simulate basics

def test_simulate_constant_set_constant_trajectory():
    problem = SweepingProblem(constant_interval())
    traj = simulate(problem, np.array([0.3]), 0.0, 4, 50)
    assert np.all(traj.states == 0.3)
    assert np.all(traj.multipliers == 0)


def test_simulate_rejects_inadmissible_start():
    problem = SweepingProblem(constant_interval())
    with pytest.raises(InadmissibleStateError):
        simulate(problem, np.array([2.0]), 0.0, 2, 10)


@pytest.mark.parametrize("z0", [[0.3, 0.3], [np.nan], [np.inf], [-np.inf]],
                         ids=["wrong-shape", "nan", "inf", "minus-inf"])
def test_simulate_rejects_malformed_start(z0):
    # A NaN start would pass the admissibility test: B @ z0 > c + tol is False for NaN.
    problem = SweepingProblem(constant_interval())
    with pytest.raises(ValueError, match="initial state"):
        simulate(problem, np.array(z0), 0.0, 2, 10)


def test_simulate_rejects_misaligned_breakpoints():
    tri = triangle_wave(1.0, 1.0, peak_fraction=1.0 / 3.0)
    P = moving_interval(PeriodicSignal.constant(-1.0, 1.0), tri)
    problem = SweepingProblem(P)
    with pytest.raises(GridAlignmentError):
        simulate(problem, np.array([0.0]), 0.0, 2, 100)  # 1/3 not on the h=0.01 grid


def _grid_runs(t0, periods, M):
    """simulate on box1, simulate_reduced and incremental_oracle on crawler2."""
    cat = catalog()
    box, crawler = cat["box1"], cat["crawler2"]
    return [
        lambda: simulate(box.problem, box.initial_state, t0, periods, M),
        lambda: simulate_reduced(crawler.gait, crawler.initial_state, t0, periods, M),
        lambda: incremental_oracle(crawler.gait, crawler.initial_state, t0, periods, M),
    ]


@pytest.mark.parametrize("periods,M", [(0, 10), (-1, 10), (2, 0)])
def test_runs_reject_an_empty_grid(periods, M):
    for run in _grid_runs(0.0, periods, M):
        with pytest.raises(ValueError, match="must be positive"):
            run()


@pytest.mark.parametrize("t0", [1e17, -1e17, 1e300])
def test_runs_reject_a_clock_that_cannot_resolve_the_step(t0):
    # Floats near 1e17 are 16 apart, so every t0 + k*h would round to one time.
    for run in _grid_runs(t0, 3, 100):
        with pytest.raises(GridAlignmentError, match="too large for the step"):
            run()


def test_runs_accept_a_large_clock_that_resolves_the_step():
    # Near 2^20 floats are 2.3e-10 apart, within 1e-6 * h = 1e-8.
    for run in _grid_runs(2.0**20, 1, 100):
        run()


def test_simulate_error_names_step_and_time():
    # {z <= hi(t), -z <= 0} with hi going 1 -> -0.5 over the first half period is
    # empty on (T/3, 2T/3); the first grid time inside is step 4's, t = 5T/12.
    hi = PeriodicSignal(T1, [(0.0, 1.0), (T1 / 2, -0.5)])
    P = MovingPolyhedron([[1.0], [-1.0]], (hi, PeriodicSignal.constant(0.0, T1)), validate=False)
    with pytest.raises(InfeasibleSetError, match=r"^step 4, t=0\.41666666666666663: no feasible"):
        simulate(SweepingProblem(P), np.array([0.5]), 0.0, 2, 12)


def test_trajectory_record_invariants():
    sc = wedge_scenario()
    traj = simulate(sc.problem, np.array([0.25, 0.0]), 0.0, 4, 200)
    validate_trajectory(traj)
    # multiplier support is active at the landing state
    B = sc.problem.moving_set.normals
    for k in range(len(traj.multipliers)):
        delta = traj.states[k] - traj.states[k + 1] - B.T @ traj.multipliers[k]
        assert np.linalg.norm(delta) <= 1e-10


# ---------------------------------------------------------------------------
# validate_trajectory on broken copies of a valid run

def twin_face_run():
    """A falling upper face pushes z down; a twin of that face lies 1 above it.

    The twin shares the face's normal, so a multiplier moved onto it keeps
    the reconstruction intact while sitting on an inactive constraint.
    """
    hi = triangle_wave(T1, -0.5, base=1.0)
    P = MovingPolyhedron(
        [[1.0], [-1.0], [1.0]], (hi, PeriodicSignal.constant(0.0, T1), combine([hi], [1.0], 1.0))
    )
    traj = simulate(SweepingProblem(P), np.array([0.9]), 0.0, 2, 100)
    validate_trajectory(traj)
    return traj


def broken_copy(traj, fault, k):
    states, multipliers = traj.states.copy(), traj.multipliers.copy()
    if fault == "infeasible":
        states[k + 1] += 2.0
    elif fault == "reconstruction":
        multipliers[k, 1] += 0.5
    else:   # the pushing face's multiplier moves to its inactive twin
        multipliers[k, 2], multipliers[k, 0] = multipliers[k, 0], 0.0
    return dataclasses.replace(traj, states=states, multipliers=multipliers)


@pytest.mark.parametrize("faults,message", [
    ((("infeasible", 0),), "state {} infeasible"),
    ((("reconstruction", 0),), "multiplier reconstruction fails at step {}"),
    ((("support", 0),), "multiplier support not active at step {}"),
    ((("infeasible", 5), ("support", 0)), "multiplier support not active at step {}"),
    ((("support", 0), ("reconstruction", 0)), "multiplier reconstruction fails at step {}"),
    ((("reconstruction", 0), ("infeasible", 0)), "state {} infeasible"),
], ids=["infeasible", "reconstruction", "support",
        "earliest-step", "reconstruction-before-support", "feasibility-before-reconstruction"])
def test_validate_trajectory_names_the_first_broken_step(faults, message):
    # Faults at step k (+ a later offset): the smallest failing step wins,
    # and at one step the checks run in loop order.
    traj = twin_face_run()
    k = int(np.flatnonzero(traj.multipliers[:, 0] > 0)[3])
    for fault, later in faults:
        traj = broken_copy(traj, fault, k + later)
    step = k + 1 if message.startswith("state") else k
    with pytest.raises(ValueError, match=f"^{message.format(step)}$"):
        validate_trajectory(traj)


def test_validate_trajectory_adds_the_drift():
    sc = catalog()["triangle"]
    traj = simulate(sc.problem, sc.initial_state, 0.0, 2, 300)
    validate_trajectory(traj)
    # The same record read as a drift-free run fails where the drift first moves the state.
    undriven = dataclasses.replace(traj, problem=SweepingProblem(sc.problem.moving_set))
    with pytest.raises(ValueError, match="^multiplier reconstruction fails at step 0$"):
        validate_trajectory(undriven)


# ---------------------------------------------------------------------------
# segment kernel against the step-by-step reference

SEGMENT_CASES = (
    ["wedge", "triangle", "box1", "box3", "crawler2", "crawler3"]
    + [f"random{i}" for i in range(4)]
    + [f"random{i}-drift" for i in range(4)]
    + ["slow-recession"]
)


def segment_case(name):
    """(problem, z0, periods, steps per period) for one kernel-check case.

    Bundled scenarios run at their recommended periods and 300 steps per
    period, which puts every bundled breakpoint on the grid.
    """
    if name == "slow-recession":
        # The upper wall pushes the state down, then recedes by half the
        # tolerance per step: the step leaving the wall is interior within
        # tolerance although the wall's multiplier is only -tol/2.
        wall = PeriodicSignal(T1, [(0.0, 0.5), (0.5, 0.0), (0.75, 5e-8)])
        interval = moving_interval(PeriodicSignal.constant(-1.0, T1), wall)
        return SweepingProblem(interval), np.array([0.3]), 2, 400
    if name.startswith("random"):
        i = int(name[6])
        rng = np.random.default_rng(700 + i)
        n = 2 + i % 2
        moving_set, z0 = random_moving_polyhedron(rng, n, n + 3)
        drift = random_drift(rng, n) if name.endswith("-drift") else None
        return SweepingProblem(moving_set, drift), z0, 4, 200
    sc = catalog()[name]
    if sc.gait is None:
        return sc.problem, sc.initial_state, sc.recommended_periods, 300
    g = sc.gait
    problem = SweepingProblem(build_moving_set(g))
    return problem, -g.stiffness * pi_z(sc.initial_state), sc.recommended_periods, 300


@pytest.mark.parametrize("name", SEGMENT_CASES)
def test_segment_kernel_matches_step_by_step_reference(name):
    problem, z0, periods, M = segment_case(name)
    traj = simulate(problem, z0, 0.0, periods, M)
    states, multipliers, masks = reference_simulate(problem, z0, 0.0, periods, M)
    assert np.any(multipliers > 0), f"{name}: the state never touches the boundary (test vacuous)"
    np.testing.assert_array_equal(traj.active_masks, masks)
    np.testing.assert_allclose(traj.states, states, rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.multipliers, multipliers, rtol=0, atol=1e-12)


@pytest.mark.parametrize("with_drift", [False, True])
def test_segment_kernel_interior_runs_are_bitwise(with_drift):
    walls = PeriodicSignal(T1, [(0.0, 1.0), (0.5, 2.0)])
    box = MovingPolyhedron([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], (walls,) * 4)
    drift = None
    if with_drift:
        drift = tuple(
            PeriodicSignal(T1, [(0.0, v), (0.5, -v)], PIECEWISE_CONSTANT) for v in (0.3, -0.7)
        )
    problem = SweepingProblem(box, drift)
    z0 = np.array([0.1, -0.2])
    traj = simulate(problem, z0, 0.0, 3, 400)
    states, multipliers, masks = reference_simulate(problem, z0, 0.0, 3, 400)
    assert not np.any(multipliers)
    np.testing.assert_array_equal(traj.states, states)
    np.testing.assert_array_equal(traj.multipliers, multipliers)
    np.testing.assert_array_equal(traj.active_masks, masks)


# ---------------------------------------------------------------------------
# wedge behaviour against the closed-form map

def test_wedge_one_period_matches_map():
    sc = wedge_scenario()
    M = 2000
    h = sc.problem.period / M
    for z1 in (0.0, 0.25, 0.5, 0.75):
        traj = simulate(sc.problem, np.array([z1, 0.0]), 0.0, 1, M)
        expected = wedge_poincare(1.0, 2.0, z1)
        assert abs(traj.states[-1][0] - expected) <= 5 * h
        assert abs(traj.states[-1][1]) <= 5 * h


def test_wedge_poincare_sequence_increasing_to_fixed_point():
    sc = wedge_scenario()
    traj = simulate(sc.problem, np.array([0.0, 0.0]), 0.0, 12, 400)
    z1 = poincare_samples(traj)[:, 0]
    assert np.all(np.diff(z1) > 0)
    assert z1[-1] < 1.0 and z1[-1] > 0.99


def test_wedge_distance_ratio_and_classification():
    sc = wedge_scenario()
    traj = simulate(sc.problem, np.array([0.25, 0.0]), 0.0, 16, 500)
    d = period_distances_sup(traj)
    ratios = d[1:] / d[:-1]
    assert np.all(np.abs(ratios - 0.5) < 0.05)
    cls = classify_convergence(traj)
    assert cls.kind == "geometric"
    assert cls.ratio == pytest.approx(0.5, abs=0.05)


def test_wedge_w12_distances_decrease():
    sc = wedge_scenario()
    traj = simulate(sc.problem, np.array([0.25, 0.0]), 0.0, 40, 500)
    d12 = period_distances_w12(traj)
    assert np.all(np.diff(d12) <= 0.05 * d12[:-1] + 1e-12)
    assert d12[-1] < 1e-6


def test_w12_dominates_value_part():
    sc = wedge_scenario()
    traj = simulate(sc.problem, np.array([0.25, 0.0]), 0.0, 6, 200)
    M = traj.steps_per_period
    for q in range(4):
        delta = traj.states[q * M : (q + 1) * M + 1] - traj.states[(q + 1) * M : (q + 2) * M + 1]
        l2_value = np.sqrt(traj.h * np.sum(delta**2))
        assert period_distance_w12(traj, q) >= l2_value - 1e-14


# ---------------------------------------------------------------------------
# finite-time n-cell behaviour

def box_problem():
    a = triangle_wave(T1, 2.0)
    b = combine([a], [1.0], constant=1.0)
    return SweepingProblem(moving_interval(a, b))


def test_box_finite_time_and_poincare_constant():
    problem = box_problem()
    traj = simulate(problem, np.array([0.0]), 0.0, 6, 100)
    d = period_distances_sup(traj)
    assert d[0] > 1e-3
    assert np.all(d[1:] <= 1e-9)
    cls = classify_convergence(traj)
    assert cls.kind == "finite-time" and cls.period == 1
    samples = poincare_samples(traj)
    assert np.all(np.abs(np.diff(samples[1:], axis=0)) <= 1e-12)


def test_period_distance_out_of_range():
    traj = simulate(box_problem(), np.array([0.0]), 0.0, 3, 50)
    with pytest.raises(IndexError):
        period_distance_sup(traj, 2)
    with pytest.raises(IndexError):
        period_distance_w12(traj, -1)


# ---------------------------------------------------------------------------
# classification on synthetic distance sequences

def _synthetic_trajectory(d_values, n=1):
    """Trajectory whose consecutive-window sup distances equal d_values."""
    M = 4
    states = [np.zeros(n)]
    level = 0.0
    levels = [level]
    for d in d_values:
        level += d
        levels.append(level)
    rows = []
    for lv in levels:
        rows.extend([np.full(n, lv)] * M)
    rows.append(np.full(n, levels[-1]))
    states = np.array(rows)
    problem = SweepingProblem(constant_interval(-1e9, 1e9))
    K = len(states) - 1
    return Trajectory(
        problem,
        0.0,
        T1 / M,
        M,
        states,
        np.zeros((K, 2)),
        np.zeros(K + 1, dtype=np.int64),
    )


def test_classify_finite_time_from_start():
    traj = _synthetic_trajectory([0.0] * 6)
    cls = classify_convergence(traj)
    assert cls.kind == "finite-time" and cls.period == 0


def test_classify_undetermined_on_wobbly_ratios():
    traj = _synthetic_trajectory([1.0, 0.5, 0.4, 0.08, 0.06, 0.008])
    assert classify_convergence(traj).kind == "undetermined"


@pytest.mark.parametrize("periods,box1,wedge", [
    (2, "undetermined", "undetermined"),
    (3, "finite-time", "undetermined"),
    (4, "finite-time", "geometric"),
])
def test_classify_from_two_periods(periods, box1, wedge):
    # One period distance is enough to classify; a geometric ratio needs two
    # ratios, so three distances.
    cat = catalog()
    for name, kind in (("box1", box1), ("wedge", wedge)):
        sc = cat[name]
        traj = simulate(sc.problem, sc.initial_state, 0.0, periods, 200)
        assert classify_convergence(traj).kind == kind
        assert convergence_report(traj).classification == classify_convergence(traj)


def test_classify_rejects_one_period():
    traj = simulate(box_problem(), np.array([0.0]), 0.0, 1, 50)
    with pytest.raises(ValueError, match="at least 2 periods"):
        classify_convergence(traj)
    with pytest.raises(ValueError, match="at least 2 periods"):
        convergence_report(traj)


# ---------------------------------------------------------------------------
# multiplier series

def test_lambda_series_zero_without_contact():
    problem = SweepingProblem(constant_interval())
    traj = simulate(problem, np.array([0.5]), 0.0, 4, 40)
    assert np.all(lambda_series(traj) == 0)


def test_lambda_series_boundary_push_rate():
    # lower bound a(t) rising at speed 4 pushes the state: lambda = speed/|b|^2
    a = triangle_wave(T1, 2.0)
    b = combine([a], [1.0], constant=1.0)
    traj = simulate(SweepingProblem(moving_interval(a, b)), np.array([0.0]), 0.0, 1, 100)
    lam = lambda_series(traj)
    # during the first half-period the state rides the lower bound (index 1)
    push = lam[10:45, 1]
    np.testing.assert_allclose(push, 4.0, atol=1e-9)


def test_lambda_reconstruction_identity():
    sc = wedge_scenario()
    traj = simulate(sc.problem, np.array([0.3, 0.0]), 0.0, 3, 250)
    lam = lambda_series(traj)
    B = sc.problem.moving_set.normals
    dz = np.diff(traj.states, axis=0) / traj.h
    recon = dz + lam @ B
    assert np.max(np.abs(recon)) <= 1e-10 / traj.h


def test_lambda_convergence_wedge_decreases():
    sc = wedge_scenario()
    traj = simulate(sc.problem, np.array([0.25, 0.0]), 0.0, 42, 500)
    dists = [np.max(lambda_convergence(traj, q)) for q in range(0, 40, 4)]
    assert dists[-1] < 1e-4
    assert dists[-1] < dists[0]


def test_lambda_convergence_box_zero_after_first_period():
    traj = simulate(box_problem(), np.array([0.0]), 0.0, 5, 100)
    for q in (1, 2, 3):
        assert np.max(lambda_convergence(traj, q)) <= 1e-8


def test_lambda_convergence_flags_degenerate_faces():
    # duplicated lower bound: the pushed state activates both copies at once
    up = PeriodicSignal.constant(1.0, T1)
    lo = triangle_wave(T1, 0.9)
    neg = combine([lo], [-1.0])
    P = MovingPolyhedron([[1.0], [-1.0], [-1.0]], (up, neg, neg))
    traj = simulate(SweepingProblem(P), np.array([0.0]), 0.0, 3, 100)
    with pytest.raises(LicqError):
        lambda_convergence(traj, 0)


# ---------------------------------------------------------------------------
# hypomonotonicity and periodic-solution structure

def test_hypomonotone_identical_starts():
    sc = wedge_scenario()
    t1 = simulate(sc.problem, np.array([0.25, 0.0]), 0.0, 3, 100)
    t2 = simulate(sc.problem, np.array([0.25, 0.0]), 0.0, 3, 100)
    assert hypomonotone_check(t1, t2)
    assert np.all(np.linalg.norm(t1.states - t2.states, axis=1) == 0)


def test_hypomonotone_wedge_pair():
    sc = wedge_scenario()
    t1 = simulate(sc.problem, np.array([0.0, 0.0]), 0.0, 6, 200)
    t2 = simulate(sc.problem, np.array([0.5, 0.0]), 0.0, 6, 200)
    assert hypomonotone_check(t1, t2)


def test_hypomonotone_grid_mismatch():
    sc = wedge_scenario()
    t1 = simulate(sc.problem, np.array([0.0, 0.0]), 0.0, 3, 100)
    t2 = simulate(sc.problem, np.array([0.0, 0.0]), 0.0, 3, 200)
    with pytest.raises(ValueError):
        hypomonotone_check(t1, t2)


def test_periodic_solutions_differ_by_constant():
    # one squeezing coordinate, one lazy coordinate: after the first period
    # both trajectories are periodic and their difference is a constant vector
    a1 = triangle_wave(T1, 2.0)
    b1 = combine([a1], [1.0], constant=1.0)
    lo = PeriodicSignal.constant(0.0, T1)
    hi = PeriodicSignal.constant(4.0, T1)
    P = MovingPolyhedron(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        (b1, combine([a1], [-1.0]), hi, combine([lo], [-1.0])),
    )
    problem = SweepingProblem(P)
    t1 = simulate(problem, np.array([0.0, 1.0]), 0.0, 4, 100)
    t2 = simulate(problem, np.array([0.5, 3.0]), 0.0, 4, 100)
    M = 100
    diff = t1.states[M:] - t2.states[M:]
    assert np.max(np.abs(diff - diff[0])) <= 1e-12
    assert hypomonotone_check(t1, t2)
    d = np.linalg.norm(t1.states - t2.states, axis=1)
    assert np.all(np.abs(np.diff(d[M:])) <= 1e-12)


def test_estimate_limit_cycle():
    sc = wedge_scenario()
    traj = simulate(sc.problem, np.array([0.25, 0.0]), 0.0, 40, 500)
    cycle, residual = estimate_limit_cycle(traj)
    assert residual < 1e-6
    # the wedge limit cycle is the constant state at the rest corner (gamma, 0)
    np.testing.assert_allclose(cycle, np.tile([1.0, 0.0], (len(cycle), 1)), atol=1e-4)

    const = simulate(SweepingProblem(constant_interval()), np.array([0.3]), 0.0, 3, 50)
    _, res0 = estimate_limit_cycle(const)
    assert res0 == 0.0


# ---------------------------------------------------------------------------
# refinement consistency

def test_refinement_consistency_on_wedge():
    """Halving h changes the end state by O(h).

    On the wedge the push phases keep a single constraint active, for which
    the catching-up step is exact, so the end-of-period state is grid
    independent and the refinement differences sit at rounding level; the
    O(h) bound holds with lots of room and no meaningful ratio exists.
    """
    sc = wedge_scenario()
    z0 = np.array([0.3, 0.0])
    ends = {}
    for M in (500, 1000, 2000):
        ends[M] = simulate(sc.problem, z0, 0.0, 2, M).states[-1]
    for M in (500, 1000):
        h = sc.problem.period / M
        diff = np.linalg.norm(ends[M] - ends[2 * M])
        assert diff <= 5 * h
    assert np.linalg.norm(ends[500] - ends[2000]) <= 1e-10


# ---------------------------------------------------------------------------
# CSV round trip

def test_trajectory_csv_round_trip(tmp_path):
    sc = wedge_scenario()
    traj = simulate(sc.problem, np.array([0.25, 0.0]), 0.0, 3, 100)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path, sc.problem)
    np.testing.assert_array_equal(back.states, traj.states)
    np.testing.assert_array_equal(back.multipliers, traj.multipliers)
    np.testing.assert_array_equal(back.active_masks, traj.active_masks)
    validate_trajectory(back)
