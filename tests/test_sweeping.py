import dataclasses

import numpy as np
import pytest

from helpers import (
    random_drift,
    random_moving_polyhedron,
    reference_csv,
    reference_periods,
    reference_simulate,
    reference_trajectory_csv,
)
from sweeplab import polyhedra, sweeping
from sweeplab.crawler import build_moving_set, incremental_oracle, pi_z, simulate_reduced
from sweeplab.errors import GridAlignmentError, InadmissibleStateError, InfeasibleSetError, LicqError
from sweeplab.polyhedra import FrozenPolyhedron, MovingPolyhedron
from sweeplab.scenarios import catalog, wedge_poincare, wedge_scenario
from sweeplab.signals import PIECEWISE_CONSTANT, PeriodicSignal, combine, eval_many, triangle_wave
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
    _CSV_BLOCK_ROWS,
    _distinct_rows,
    _write_csv,
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


def test_simulate_names_an_off_grid_drift_breakpoint():
    drift = (triangle_wave(T1, 1.0, peak_fraction=1.0 / 3.0),)
    problem = SweepingProblem(constant_interval(), drift)
    with pytest.raises(GridAlignmentError, match=r"^drift\[0\] breakpoint t=0\.333"):
        simulate(problem, np.array([0.5]), 0.0, 2, 100)


def _named_signal_lists(sc):
    if sc.gait is not None:
        g = sc.gait
        return g.period, {"rest_lengths": g.rest_lengths, "mu_plus": g.mu_plus, "mu_minus": g.mu_minus}
    return sc.problem.period, {"offset": sc.problem.moving_set.offsets, "drift": sc.problem.drift}


@pytest.mark.parametrize("name", sorted(catalog()))
def test_grid_matches_eval_many_on_bundled_scenarios(name):
    # Each table is eval_many at t0 + k*h, bit for bit, and the breakpoints
    # are the rounded grid indices, list by list in the order named.
    sc = catalog()[name]
    T, lists = _named_signal_lists(sc)
    M = sc.recommended_steps
    for t0 in (0.0, -T):
        h, breaks, *tables = sweeping._grid(T, t0, 1, M, **lists)
        assert h == T / M
        phases = np.array([t0 + k * h for k in range(M)])
        signals = [sigs for sigs in lists.values() if sigs is not None]
        expected = [np.round((s.times - t0) / h) for sigs in signals for s in sigs]
        assert breaks.dtype == np.int64
        np.testing.assert_array_equal(breaks, np.concatenate(expected))
        assert len(tables) == len(lists)
        for sigs, table in zip(lists.values(), tables):
            if sigs is None:
                assert table is None
                continue
            expected = np.column_stack([eval_many(s, phases) for s in sigs])
            assert table.shape == (M, len(sigs))
            assert table.tobytes() == expected.tobytes()


def test_grid_without_lists_is_the_step_and_no_breakpoints():
    h, breaks = sweeping._grid(2.0, 0.5, 3, 8)
    assert h == 0.25
    assert breaks.dtype == np.int64 and breaks.shape == (0,)


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


@pytest.mark.parametrize("periods,M,name,value", [
    (2, 200.5, "steps_per_period", "200.5"),
    (2.0, 200, "periods", "2.0"),
    (2, np.float64(200.0), "steps_per_period", "200.0"),
    (True, 50, "periods", "True"),
    (2, True, "steps_per_period", "True"),
])
def test_runs_reject_a_count_that_is_not_an_integer(periods, M, name, value):
    # Truncating would run int(M) steps of T/M, and a margin gate on M + 1 phases.
    for run in _grid_runs(0.0, periods, M):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got .*{value}"):
            run()


def test_runs_accept_numpy_integer_counts():
    for run in _grid_runs(0.0, np.int64(2), np.int32(100)):
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


def test_validate_trajectory_refuses_a_record_shorter_than_one_period():
    traj = simulate(box_problem(), np.array([0.0]), 0.0, 2, 100)
    short = dataclasses.replace(
        traj, states=traj.states[:51], multipliers=traj.multipliers[:50], active_masks=traj.active_masks[:51]
    )
    with pytest.raises(ValueError, match="^periods and steps_per_period must be positive$"):
        validate_trajectory(short)


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
# exact periodic orbits: simulate copies the periods that repeat

def _period_starts_repeat(states, M):
    """Entry q: does period q + 1 (or the end state) start where period q started?
    The first True is the period from which the run repeats."""
    starts = states[::M]
    return [starts[q + 1].tobytes() == starts[q].tobytes() for q in range(len(starts) - 1)]


def _assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name,cycle_from", [
    ("box1", 1), ("box3", 1), ("crawler2", 1), ("crawler3", 2), ("wedge", None),
])
def test_simulate_equals_one_period_runs(name, cycle_from):
    problem, z0, periods, M = segment_case(name)
    periods = min(periods, 6)
    traj = simulate(problem, z0, 0.0, periods, M)
    repeats = _period_starts_repeat(traj.states, M)
    assert repeats.index(True) == cycle_from if cycle_from else not any(repeats)
    for got, want in zip((traj.states, traj.multipliers, traj.active_masks),
                         reference_periods(problem, z0, 0.0, periods, M), strict=True):
        _assert_bitwise(got, want)


def _crawler3_run(periods, start_on_orbit=False):
    """crawler3 at 300 steps per period, on its orbit from period 2 on; or
    started from its state at t = 2T, on its orbit from period 0 on."""
    problem, z0, _, M = segment_case("crawler3")
    if start_on_orbit:
        z0 = simulate(problem, z0, 0.0, 3, M).states[2 * M]
    return simulate(problem, z0, 0.0, periods, M)


def test_simulate_from_a_state_on_its_orbit_copies_after_period_0():
    traj = _crawler3_run(4, start_on_orbit=True)
    M = traj.steps_per_period
    assert _period_starts_repeat(traj.states, M) == [True] * 4
    for got, want in zip((traj.states, traj.multipliers, traj.active_masks),
                         reference_periods(traj.problem, traj.states[0], 0.0, 4, M), strict=True):
        _assert_bitwise(got, want)


def test_simulate_stops_projecting_once_on_its_orbit(monkeypatch):
    # crawler3 at 300 steps per period is on its orbit from period 2 on, so
    # periods 3 to 9 are copied: 10 periods cost as many projections as 3.
    problem, z0, _, M = segment_case("crawler3")
    calls = []

    def counted(*args):
        calls.append(1)
        return project_raw(*args)

    project_raw = sweeping._project_raw
    monkeypatch.setattr(sweeping, "_project_raw", counted)
    counts = []
    for periods in (3, 10):
        calls.clear()
        simulate(problem, z0, 0.0, periods, M)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_problems_with_the_same_normals_share_face_maps(monkeypatch):
    # box3 and a copy with every offset raised by 0.25 have one normals
    # matrix, so one subset table and one set of face maps; run one after
    # the other, each matches its run from empty caches bit for bit.
    sc = catalog()["box3"]
    P = sc.problem.moving_set
    wider = MovingPolyhedron(P.normals, [combine([s], [1.0], constant=0.25) for s in P.offsets])
    problems = [sc.problem, SweepingProblem(wider)]
    tables = {}
    monkeypatch.setattr(polyhedra, "_TABLES", tables)

    def run(problem):
        traj = simulate(problem, sc.initial_state, 0.0, 4, 200)
        return traj.states.tobytes(), traj.multipliers.tobytes(), traj.active_masks.tobytes()

    cold = []
    for problem in problems:
        tables.clear()
        cold.append(run(problem))
    tables.clear()
    used, built = [], []
    face_maps = sweeping._face_maps

    def recording(B, subset, faces):
        used[-1].add(subset)
        if subset not in faces:
            built[-1].add(subset)
        return face_maps(B, subset, faces)

    monkeypatch.setattr(sweeping, "_face_maps", recording)
    warm = []
    for problem in problems:
        used.append(set())
        built.append(set())
        warm.append(run(problem))
    assert warm == cold and cold[0] != cold[1]
    assert len(tables) == 1
    assert used[1] & built[0], "the second problem used no face of the first (test vacuous)"
    assert len(next(iter(tables.values()))[3]) == len(built[0]) + len(built[1])


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


def test_lambda_convergence_names_the_first_visited_dependent_set():
    # Twin upper faces (rows 0, 1: mask 3) and twin lower faces (rows 2, 3:
    # mask 12). The rising lower bound reaches the state first, the falling
    # upper bound later; the error names the lower pair and its step.
    lo = PeriodicSignal(T1, [(0.0, -1.0), (0.25, 0.2), (0.5, -1.0)])
    up = PeriodicSignal(T1, [(0.0, 1.0), (0.5, 1.0), (0.75, -0.2)])
    neg = combine([lo], [-1.0])
    P = MovingPolyhedron([[1.0], [1.0], [-1.0], [-1.0]], (up, up, neg, neg))
    traj = simulate(SweepingProblem(P), np.array([0.0]), 0.0, 3, 100)
    masks = traj.active_masks.tolist()
    assert masks.index(12) == 21 and 21 < masks.index(3) <= 200
    message = r"^step 21, t=0\.20999999999999999: visited active set \(2, 3\) has dependent normals$"
    with pytest.raises(LicqError, match=message):
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


# ---------------------------------------------------------------------------
# CSV rows: each distinct row but for t is formatted once, the same bytes

def _broken_multiplier(traj, q):
    """A copy with one interior multiplier of period q changed (no longer a solution)."""
    multipliers = traj.multipliers.copy()
    multipliers[q * traj.steps_per_period + traj.steps_per_period // 2, 0] += 1e-3
    return dataclasses.replace(traj, multipliers=multipliers)


def _signed_zero(traj, q):
    """A copy whose period-q zero multipliers are -0.0: equal as numbers, not as bits."""
    multipliers = traj.multipliers.copy()
    M = traj.steps_per_period
    block = multipliers[q * M : (q + 1) * M]
    block[block == 0] = -0.0
    return dataclasses.replace(traj, multipliers=multipliers)


CSV_CASES = {
    "cycling": lambda: _crawler3_run(10),
    "box1-cycling": lambda: simulate(catalog()["box1"].problem, catalog()["box1"].initial_state,
                                     0.0, 12, 50),
    "not-cycling": lambda: simulate(wedge_scenario().problem, np.array([0.25, 0.0]), 0.0, 3, 100),
    "last-period-differs": lambda: _broken_multiplier(_crawler3_run(6), 5),
    "middle-period-differs": lambda: _broken_multiplier(_crawler3_run(8), 4),
    "signed-zero": lambda: _signed_zero(_crawler3_run(6), 5),
    "on-orbit-from-the-start": lambda: _crawler3_run(5, start_on_orbit=True),
    "partial-last-period-differs": lambda: _broken_multiplier(_truncated(_crawler3_run(6), 7), 5),
}


def _truncated(traj, rows):
    """A copy without its last rows, so its rows no longer fill whole periods."""
    return dataclasses.replace(traj, states=traj.states[:-rows], multipliers=traj.multipliers[:-rows],
                               active_masks=traj.active_masks[:-rows])


@pytest.mark.parametrize("name", CSV_CASES)
def test_trajectory_csv_equals_formatting_every_row(tmp_path, name):
    traj = CSV_CASES[name]()
    if name == "cycling":
        assert _period_starts_repeat(traj.states, traj.steps_per_period)[-1]
    write_trajectory_csv(traj, tmp_path / "traj.csv")
    assert (tmp_path / "traj.csv").read_bytes() == reference_trajectory_csv(traj)


def _later_block_table():
    # Bodies from four values per column, all in the first block; one body is
    # first used in the second block and again in the third, and one only in the last.
    B = _CSV_BLOCK_ROWS
    body = np.random.default_rng(3).integers(0, 4, size=(2 * B + 100, 2)).astype(float)
    body[B + 10] = body[2 * B + 50] = [7.5, -2.25]
    body[2 * B + 60] = [1e300, np.nan]
    return body


WRITE_CSV_CASES = {
    "signed-zeros-adjacent": np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, -0.0], [-0.0, -0.0]]),
    "body-reappears": np.array([[1.0, 2.0], [3.0, 4.0], [5.0, np.inf], [1.0, 2.0], [5.0, np.inf], [3.0, 4.0]]),
    "first-used-in-a-later-block": _later_block_table(),
    "one-row": np.array([[0.5, -1.0]]),
}


@pytest.mark.parametrize("name", WRITE_CSV_CASES)
@pytest.mark.parametrize("body_fmt,newline", [("%.17g,%.17g", "\n"), ("%.17g,%d", "\r\n")])
def test_write_csv_equals_formatting_every_row(tmp_path, name, body_fmt, newline):
    body = WRITE_CSV_CASES[name]
    if body_fmt.endswith("%d"):
        body = np.where(np.isfinite(body), body, 1.0)   # %d takes finite numbers only
    t = np.arange(len(body)) * -0.1   # from -0.0
    _write_csv(tmp_path / "out.csv", ["t", "a", "b"], t, body, body_fmt, newline)
    expected = reference_csv(["t", "a", "b"], np.column_stack([t, body]), "%.17g," + body_fmt, newline)
    assert (tmp_path / "out.csv").read_bytes() == expected


def test_distinct_rows_by_bits_in_order_of_first_appearance():
    ids, firsts = _distinct_rows(WRITE_CSV_CASES["signed-zeros-adjacent"])
    assert ids.tolist() == [0, 1, 0, 2, 3] and firsts.tolist() == [0, 1, 3, 4]
    ids, firsts = _distinct_rows(WRITE_CSV_CASES["body-reappears"])
    assert ids.tolist() == [0, 1, 2, 0, 2, 1] and firsts.tolist() == [0, 1, 2]
    ids, firsts = _distinct_rows(WRITE_CSV_CASES["first-used-in-a-later-block"])
    B = _CSV_BLOCK_ROWS
    assert firsts[-2:].tolist() == [B + 10, 2 * B + 60] and ids[B + 10] == ids[2 * B + 50]
    assert np.max(ids[:B]) < len(firsts) - 2 and len(firsts) == 18
