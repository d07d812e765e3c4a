import dataclasses
import re

import numpy as np
import pytest

from helpers import (
    hypomonotone_check,
    random_drift,
    random_moving_polyhedron,
    reference_csv,
    reference_period_distances,
    reference_periods,
    reference_segment,
    reference_segment_steps,
    reference_simulate,
    reference_trajectory_csv,
    reference_validate_trajectory,
    stacked_period_distances,
)
from sweeplab import polyhedra, sweeping
from sweeplab.crawler import build_moving_set, incremental_oracle, pi_z, simulate_reduced
from sweeplab.errors import GridAlignmentError, InadmissibleStateError, InfeasibleSetError, LicqError
from sweeplab.polyhedra import FrozenPolyhedron, MovingPolyhedron, project
from sweeplab.scenarios import catalog, wedge_poincare, wedge_scenario
from sweeplab.signals import PIECEWISE_CONSTANT, PeriodicSignal, combine, eval_many, triangle_wave
from sweeplab.sweeping import (
    SweepingProblem,
    Trajectory,
    convergence_report,
    lambda_convergence,
    read_trajectory_csv,
    simulate,
    _CSV_BLOCK_ROWS,
    _cell_texts,
    _classify,
    _distinct_rows,
    _grid_texts,
    _write_csv,
    validate_trajectory,
    write_trajectory_csv,
)

T1 = 1.0
TOL = 1e-9


def constant_interval(lo=0.0, hi=1.0, period=T1):
    return MovingPolyhedron(
        [[1.0], [-1.0]],
        (PeriodicSignal.constant(hi, period), PeriodicSignal.constant(-lo, period)),
    )


def moving_interval(lower_signal, upper_signal):
    return MovingPolyhedron([[1.0], [-1.0]], (upper_signal, combine([lower_signal], [-1.0])))


# ---------------------------------------------------------------------------
# single step: project z + h*drift onto the set frozen at the end of the step

def test_step_interior_is_identity():
    F = FrozenPolyhedron([[1.0], [-1.0]], [1.0, 0.0])
    res = project(F, np.array([0.5]))
    assert res.point[0] == 0.5
    assert np.all(res.multipliers == 0)


def test_step_drift_clips_at_upper_bound():
    F = FrozenPolyhedron([[1.0], [-1.0]], [1.0, 0.0])
    res = project(F, np.array([0.5]) + 0.5 * np.array([2.0]))
    assert res.point[0] == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(res.multipliers, [0.5, 0.0], atol=1e-14)


def test_step_translating_interval_catches_state():
    a = 0.7
    F = FrozenPolyhedron([[1.0], [-1.0]], [a + 1.0, -a])
    res = project(F, np.array([0.2]))
    assert res.point[0] == pytest.approx(a, abs=1e-14)
    assert res.multipliers[1] == pytest.approx(a - 0.2, abs=1e-14)


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
    message = r"has dimension \(2,\), expected \(1,\)" if len(z0) == 2 else r"\[.*\] is not finite"
    with pytest.raises(ValueError, match=f"^initial state {message}$"):
        simulate(problem, np.array(z0), 0.0, 2, 10)


def test_sweeping_problem_refuses_a_drift_that_does_not_fit():
    P = constant_interval()
    with pytest.raises(ValueError, match="^drift needs one signal per coordinate$"):
        SweepingProblem(P, (PeriodicSignal.constant(0.0, T1),) * 2)
    with pytest.raises(ValueError, match=r"^drift\[0\] has period 2.0, expected 1.0$"):
        SweepingProblem(P, (PeriodicSignal.constant(0.0, 2 * T1),))


def test_sweeping_problem_names_a_moving_set_that_is_not_a_moving_polyhedron():
    with pytest.raises(TypeError, match=r"^moving_set is not a MovingPolyhedron: 1.0$"):
        SweepingProblem(1.0)


def test_sweeping_problem_names_a_drift_that_is_not_a_signal():
    P = constant_interval()
    with pytest.raises(TypeError, match=r"^drift\[0\] is not a PeriodicSignal: 0.5$"):
        SweepingProblem(P, (0.5,))


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
    # Each table is eval_many at t0 + (k % M)*h, k = 0..M, bit for bit, list
    # by list in the order named: M + 1 rows, row M bit-equal to row 0.
    sc = catalog()[name]
    T, lists = _named_signal_lists(sc)
    M = sc.recommended_steps
    for t0 in (0.0, -T):
        h, *tables = sweeping._grid(T, t0, 1, M, **lists)
        assert h == T / M
        phases = np.array([t0 + k % M * h for k in range(M + 1)])
        assert len(tables) == len(lists)
        for sigs, table in zip(lists.values(), tables):
            if sigs is None:
                assert table is None
                continue
            expected = np.column_stack([eval_many(s, phases) for s in sigs])
            assert table.shape == (M + 1, len(sigs))
            assert table.tobytes() == expected.tobytes()
            assert table[M].tobytes() == table[0].tobytes()


def test_grid_without_lists_is_the_step_and_no_breakpoints():
    assert sweeping._grid(2.0, 0.5, 3, 8) == (0.25,)


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


@pytest.mark.parametrize("t0", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
def test_runs_refuse_a_t0_that_is_not_finite(t0):
    # Without the check, simulate warns "invalid value encountered in cast" and
    # then finds the set empty, and the crawler runs find the start outside the
    # force bounds. Every run checks its grid before its start.
    for run in _grid_runs(t0, 2, 100):
        with pytest.raises(ValueError, match=f"^t0={t0} is not finite$"):
            run()
    traj = simulate(box_problem(), np.array([0.0]), 0.0, 2, 100)
    with pytest.raises(ValueError, match=f"^t0={t0} is not finite$"):
        validate_trajectory(dataclasses.replace(traj, t0=t0))


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
    for check in (validate_trajectory, reference_validate_trajectory):
        with pytest.raises(ValueError, match=f"^{message.format(step)}$"):
            check(traj)


def test_validate_trajectory_adds_the_drift():
    sc = catalog()["triangle"]
    traj = simulate(sc.problem, sc.initial_state, 0.0, 2, 300)
    validate_trajectory(traj)
    # The same record read as a drift-free run fails where the drift first moves the state.
    undriven = dataclasses.replace(traj, problem=SweepingProblem(sc.problem.moving_set))
    for check in (validate_trajectory, reference_validate_trajectory):
        with pytest.raises(ValueError, match="^multiplier reconstruction fails at step 0$"):
            check(undriven)


@pytest.mark.parametrize("field,k,message", [
    ("states", 57, "state 57 infeasible"),
    ("multipliers", 30, "multiplier reconstruction fails at step 30"),
])
def test_validate_trajectory_fails_a_nan(field, k, message):
    # Every comparison with NaN is False, so a test that raises only where a
    # violation compares True would accept these records.
    sc = catalog()["wedge"]
    traj = simulate(sc.problem, sc.initial_state, 0.0, 2, 200)
    broken = getattr(traj, field).copy()
    broken[k] = np.nan
    traj = dataclasses.replace(traj, **{field: broken})
    for check in (validate_trajectory, reference_validate_trajectory):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check(traj)


def _certified_record(name):
    """A valid record of a bundled scenario on a small grid: the reduced run for a gait."""
    sc = catalog()[name]
    if sc.gait is not None:
        return simulate_reduced(sc.gait, sc.initial_state, 0.0, 3, 200).reduced
    return simulate(sc.problem, sc.initial_state, 0.0, 3, 300 if name == "triangle" else 200)


def _with_random_faults(traj, rng):
    """A copy of traj with 1 to 3 faults at seeded random steps k: z_{k+1}
    pushed 1e3 past a constraint, 0.5 added to a multiplier, 1e-13 put on a
    constraint inactive at z_{k+1} (the reconstruction still passes), or a
    NaN in z_{k+1} or in the multipliers."""
    B = traj.problem.moving_set.normals
    states, multipliers = traj.states.copy(), traj.multipliers.copy()
    K, m = multipliers.shape
    for _ in range(rng.integers(1, 4)):
        k, i = int(rng.integers(K)), int(rng.integers(m))
        fault = rng.integers(5)
        if fault == 0:
            states[k + 1] += 1e3 * B[i] / (B[i] @ B[i])
        elif fault == 1:
            multipliers[k, i] += 0.5
        elif fault == 2:
            inactive = [j for j in range(m) if not traj.active_masks[k + 1] >> j & 1]
            multipliers[k, inactive[i % len(inactive)]] = 1e-13
        elif fault == 3:
            states[k + 1, i % B.shape[1]] = np.nan
        else:
            multipliers[k, i] = np.nan
    return dataclasses.replace(traj, states=states, multipliers=multipliers)


def _raised(check, traj):
    try:
        check(traj)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", ["wedge", "triangle", "box3", "crawler3"])
def test_validate_trajectory_agrees_with_the_step_loop_on_random_faults(name):
    traj = _certified_record(name)
    validate_trajectory(traj)
    reference_validate_trajectory(traj)
    rng = np.random.default_rng(7)
    kinds = set()
    for _ in range(40):
        broken = _with_random_faults(traj, rng)
        message = _raised(validate_trajectory, broken)
        assert message is not None and message == _raised(reference_validate_trajectory, broken)
        kinds.add("infeasible" if message.endswith("infeasible") else message.split(" ")[1])
    assert kinds == {"infeasible", "reconstruction", "support"}


def test_validate_trajectory_judges_one_period_at_a_time(monkeypatch):
    # Every table _rows_passing scans holds at most one period's steps.
    traj = _certified_record("wedge")
    shapes = []
    real = sweeping._rows_passing

    def counted(table):
        shapes.append(table.shape)
        return real(table)

    monkeypatch.setattr(sweeping, "_rows_passing", counted)
    validate_trajectory(traj)
    assert len(shapes) == 3 * traj.periods
    assert {rows for rows, _ in shapes} == {traj.steps_per_period}


def test_validate_trajectory_refuses_a_record_shorter_than_one_period():
    traj = simulate(box_problem(), np.array([0.0]), 0.0, 2, 100)
    short = dataclasses.replace(traj, states=traj.states[:51], multipliers=traj.multipliers[:50])
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
    return (*bundled_problem(sc), sc.recommended_periods, 300)


def bundled_problem(sc):
    """(problem, z0) of a bundled scenario: a gait's reduced problem and start."""
    if sc.gait is None:
        return sc.problem, sc.initial_state
    g = sc.gait
    return SweepingProblem(build_moving_set(g)), -g.stiffness * pi_z(sc.initial_state)


@pytest.mark.parametrize("name", SEGMENT_CASES)
def test_segment_kernel_matches_step_by_step_reference(name):
    problem, z0, periods, M = segment_case(name)
    traj = simulate(problem, z0, 0.0, periods, M)
    states, multipliers, masks = reference_simulate(problem, z0, 0.0, periods, M)
    assert np.any(multipliers > 0), f"{name}: the state never touches the boundary (test vacuous)"
    np.testing.assert_array_equal(traj.active_masks, masks)
    np.testing.assert_allclose(traj.states, states, rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.multipliers, multipliers, rtol=0, atol=1e-12)


def drifted_box(velocities=None):
    """The box |z_i| <= w(t), w stepping between 1 and 2, with a drift that
    is +v on the first half-period and -v on the second (no drift for None)."""
    walls = PeriodicSignal(T1, [(0.0, 1.0), (0.5, 2.0)])
    box = MovingPolyhedron([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], (walls,) * 4)
    drift = None
    if velocities is not None:
        drift = tuple(
            PeriodicSignal(T1, [(0.0, v), (0.5, -v)], PIECEWISE_CONSTANT) for v in velocities
        )
    return SweepingProblem(box, drift)


@pytest.mark.parametrize("with_drift", [False, True])
def test_segment_kernel_interior_runs_are_bitwise(with_drift):
    problem = drifted_box((0.3, -0.7) if with_drift else None)
    z0 = np.array([0.1, -0.2])
    traj = simulate(problem, z0, 0.0, 3, 400)
    states, multipliers, masks = reference_simulate(problem, z0, 0.0, 3, 400)
    assert not np.any(multipliers)
    np.testing.assert_array_equal(traj.states, states)
    np.testing.assert_array_equal(traj.multipliers, multipliers)
    np.testing.assert_array_equal(traj.active_masks, masks)


def _recorded_segments(monkeypatch, problem, z0, periods, M):
    """(B, c, dz, z, face, stop, accepted, Z, lam) of every _segment call of one simulate run."""
    calls = []
    segment = sweeping._segment

    def record(*args):
        out = segment(*args)
        calls.append(args + out)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(sweeping, "_segment", record)
        simulate(problem, z0, 0.0, periods, M)
    return calls


def _segment_tables(B, c, dz, z, face, Z, lam):
    """A block's test tables over the rows it computed (those of Z), from the
    products the kernel forms: an interior block's (c - Z B^T >= -TOL,); a
    face block's p-inside, multiplier and feasibility tables."""
    c = c[: len(Z)]
    if face is None:
        return (c - Z @ B.T >= -TOL,)
    P = np.vstack([z, Z[:-1]])
    if dz is not None:
        P += dz[: len(Z)]
    return c - P @ B.T >= -TOL, lam >= -TOL, Z @ B.T <= c + TOL


@pytest.mark.parametrize("name", SEGMENT_CASES + ["wedge-recommended", "triangle-recommended"])
def test_segment_scan_accepts_the_rows_of_the_row_by_row_rule(monkeypatch, name):
    # The recommended grids give the longest blocks: up to a period of 2000
    # (wedge) or 3000 (triangle) rows, and blocks that the stop hint splits.
    if name.endswith("-recommended"):
        sc = catalog()[name.split("-")[0]]
        problem, z0, periods, M = sc.problem, sc.initial_state, sc.recommended_periods, sc.recommended_steps
    else:
        problem, z0, periods, M = segment_case(name)
    calls = _recorded_segments(monkeypatch, problem, z0, periods, M)
    assert calls, f"{name}: no block ran"
    stopped, parts = 0, set()
    for B, c, dz, z, face, stop, accepted, Z, lam in calls:
        assert accepted == reference_segment_steps(*_segment_tables(B, c, dz, z, face, Z, lam))
        stopped += accepted < len(c)
        # A split block computes rows 0..stop+1, and the rest of the period
        # only when all of those pass; any other block computes every row.
        split = stop is not None and len(c) - stop - 2 >= sweeping._SPLIT_ROWS
        assert len(Z) == (stop + 2 if split and accepted < stop + 2 else len(c))
        if split:
            parts.add(len(Z) == len(c))
    assert stopped, f"{name}: no block stopped early (test vacuous)"
    if name.endswith("-recommended"):
        assert parts == {False, True}, f"{name}: no split block stopped in or passed its first part"


@pytest.mark.parametrize("with_drift", [False, True])
def test_a_split_block_equals_the_whole_block_bit_for_bit(monkeypatch, with_drift):
    # The blocks of runs on random moving polyhedra, replayed with the stop
    # hint before the true stop, at it, one row after it and at L - 2. With
    # _SPLIT_ROWS = 2 every hint below L - 2 splits: each part keeps 2 rows
    # or more, since one-row products (gemv) need not match the block's rows.
    rng = np.random.default_rng(41 + with_drift)
    blocks = []
    for n in (2, 3, 4):
        moving_set, z0 = random_moving_polyhedron(rng, n, n + 3)
        problem = SweepingProblem(moving_set, random_drift(rng, n) if with_drift else None)
        blocks += [call[:5] for call in _recorded_segments(monkeypatch, problem, z0, 2, 2000)]
    monkeypatch.setattr(sweeping, "_SPLIT_ROWS", 2)
    seen = set()
    for B, c, dz, z, face in blocks:
        used, Z, lam = reference_segment(B, c, dz, z, face)
        hints = {int(rng.integers(used)) if used else 0, used, used + 1, len(c) - 2}
        for stop in sorted(h for h in hints if 0 <= h <= len(c) - 2):
            got_used, got_Z, got_lam = sweeping._segment(B, c, dz, z, face, stop)
            assert got_used == used
            _assert_bitwise(np.asarray(got_Z[:used]), np.asarray(Z[:used]))
            if face is None:
                assert got_lam is None
            else:
                _assert_bitwise(got_lam[:used], lam[:used])
            if stop + 2 < len(c):
                seen.add((face is None, used >= stop + 2))
    # interior and face blocks, each stopping in its first part and running a second
    assert seen == {(True, False), (True, True), (False, False), (False, True)}


def _breakpoint_grid(problem):
    """The fewest steps per period that put every breakpoint of the problem on the grid."""
    for M in range(1, 1001):
        try:
            sweeping._grid(problem.period, 0.0, 1, M, offset=problem.moving_set.offsets, drift=problem.drift)
            return M
        except GridAlignmentError:
            pass
    raise AssertionError("no grid of at most 1000 steps holds every breakpoint")


def _assert_split_run_is_bitwise(monkeypatch, problem, z0, periods, M):
    """simulate equals simulate with every block run whole by the one-part
    kernel, byte for byte; returns the number of blocks it split."""
    splits = []
    rows = sweeping._segment_rows

    def count(B, c, dz, q, start, face, part):
        splits.append(part.start == 0 and part.stop < len(c))
        return rows(B, c, dz, q, start, face, part)

    with monkeypatch.context() as patch:
        patch.setattr(sweeping, "_segment_rows", count)
        traj = simulate(problem, z0, 0.0, periods, M)
    with monkeypatch.context() as patch:
        patch.setattr(sweeping, "_segment", lambda B, c, dz, z, face, stop: reference_segment(B, c, dz, z, face))
        whole = simulate(problem, z0, 0.0, periods, M)
    _assert_bitwise(traj.states, whole.states)
    _assert_bitwise(traj.multipliers, whole.multipliers)
    return sum(splits)


@pytest.mark.parametrize("name,grid", [(name, grid) for name in catalog() for grid in ("recommended", "breakpoint")]
                         + [("wedge", (40, 2000)), ("triangle", (24, 3000))])
def test_split_blocks_leave_every_bundled_run_bitwise(monkeypatch, name, grid):
    sc = catalog()[name]
    problem, z0 = bundled_problem(sc)
    periods, M = {"recommended": (sc.recommended_periods, sc.recommended_steps),
                  "breakpoint": (sc.recommended_periods, _breakpoint_grid(problem))}.get(grid, grid)
    splits = _assert_split_run_is_bitwise(monkeypatch, problem, z0, periods, M)
    if name in ("wedge", "triangle") and grid != "breakpoint":
        assert splits, f"{name} {grid}: no block was split (test vacuous)"


@pytest.mark.parametrize("velocities,walls", [(None, False), ((0.3, -0.7), False), ((3.0, -5.0), True),
                                              ((8.0, 2.0), True)])
@pytest.mark.parametrize("M", [400, 2000])
def test_split_blocks_leave_drifted_box_runs_bitwise(monkeypatch, velocities, walls, M):
    # The state stays inside (walls False) or the drift pushes it onto the walls.
    splits = _assert_split_run_is_bitwise(monkeypatch, drifted_box(velocities), np.array([0.1, -0.2]), 3, M)
    assert bool(splits) == walls


def test_interior_block_and_scalar_step_agree_at_the_tolerance():
    # With B = [[1]], c = 0 and z = DEFAULT_TOL, c - zB = -DEFAULT_TOL exactly:
    # _project_raw calls p interior, so an interior block from z must accept
    # every row. A row whose offset is NaN fails on both paths.
    B, tol = np.array([[1.0]]), polyhedra.DEFAULT_TOL
    z = np.array([tol])
    table = polyhedra._subset_table(B)
    z_next, lam, subset, face = polyhedra._project_raw(B, np.zeros(1), table, z)
    assert face is None and subset == () and z_next.tobytes() == z.tobytes()
    c = np.zeros((5, 1))
    assert sweeping._segment(B, c, None, z, None)[0] == len(c)
    c[3] = np.nan
    assert sweeping._segment(B, c, None, z, None)[0] == 3
    with pytest.raises(InfeasibleSetError):
        polyhedra._project_raw(B, c[3], table, z)


_JUST_BELOW_MINUS_TOL = np.nextafter(-TOL, -np.inf)
_JUST_ABOVE_TOL = np.nextafter(TOL, np.inf)


SCAN_KINDS = ("random", "nan", "at-tol", "last-column", "all-pass", "row-0-fails")


def _scan_tables(rng, kind):
    """The pass patterns of one random face block of L <= 39 rows, m <= 7
    bounds and k <= m multipliers: (p inside each bound, multipliers
    passing, new-state bounds passing)."""
    L, m = int(rng.integers(1, 40)), int(rng.integers(1, 8))
    k = int(rng.integers(1, m + 1))
    inside = rng.random((L, m)) < 0.6
    lam_ok = rng.random((L, k)) < 0.97
    feasible = rng.random((L, m)) < 0.97
    if kind in ("last-column", "all-pass"):
        # p is outside its last bound only, on every row up to a random one
        # (all rows for all-pass); the other tests pass everywhere.
        lam_ok[:], feasible[:], inside[:] = True, True, True
        last = L if kind == "all-pass" else int(rng.integers(0, L))
        inside[:last, -1] = False
        if kind == "last-column":
            # ... or the one False of a later row is the last column of a test.
            (lam_ok, feasible)[rng.integers(2)][rng.integers(L), -1] = False
    if kind == "row-0-fails":
        (lam_ok, feasible)[rng.integers(2)][0, rng.integers(k)] = False
    return inside, lam_ok, feasible


def _table_values(rng, passing, ok, bad):
    """Floats that pass where passing is True: drawn from ok there, from bad elsewhere."""
    return np.where(passing, rng.choice(ok, passing.shape), rng.choice(bad, passing.shape))


@pytest.mark.parametrize("kind", SCAN_KINDS)
def test_segment_scan_equals_the_row_by_row_rule_on_random_tables(kind):
    # With c = 0 every test compares a drawn value with +-TOL exactly: p is
    # inside bound i when PB_i <= TOL, and the new state when ZB_i <= TOL.
    # at-tol draws only the values at and just beyond the thresholds; nan
    # makes every failing value NaN.
    rng = np.random.default_rng(SCAN_KINDS.index(kind))
    below, above = [TOL, 0.0, -2.0], [_JUST_ABOVE_TOL, np.nan, 2.0]
    lam_good, lam_bad = [-TOL, 0.0, 2.0], [_JUST_BELOW_MINUS_TOL, np.nan, -2.0]
    if kind == "at-tol":
        below, above, lam_good, lam_bad = below[:1], above[:1], lam_good[:1], lam_bad[:1]
    if kind == "nan":
        above, lam_bad = [np.nan], [np.nan]
    for _ in range(200):
        inside, lam_ok, feasible = _scan_tables(rng, kind)
        c = np.zeros(inside.shape)
        PB = _table_values(rng, inside, below, above)
        lam = _table_values(rng, lam_ok, lam_good, lam_bad)
        ZB = _table_values(rng, feasible, below, above)
        tables = (c - PB >= -TOL, lam >= -TOL, ZB <= c + TOL)
        for got, want in zip(tables, (inside, lam_ok, feasible)):
            np.testing.assert_array_equal(got, want)
        assert sweeping._face_steps(c, PB, lam, ZB) == reference_segment_steps(*tables)
        assert sweeping._rows_passing(tables[0]) == reference_segment_steps(tables[0])
        if kind == "all-pass":
            assert sweeping._face_steps(c, PB, lam, ZB) == len(c)
        if kind == "row-0-fails":
            assert sweeping._face_steps(c, PB, lam, ZB) == 0
        if kind == "last-column":
            # An interior block whose one False is the last column of a row.
            row = int(rng.integers(len(c)))
            one = np.ones_like(inside)
            one[row, -1] = False
            assert sweeping._rows_passing(one) == row == reference_segment_steps(one)
            assert sweeping._rows_passing(np.ones_like(inside)) == len(c)


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


def test_a_copied_period_has_the_masks_of_the_period_it_copies():
    # box3 at 1000 steps per period is on its orbit from period 1 on, so
    # periods 2 to 5 are copies of period 1.
    sc = catalog()["box3"]
    traj = simulate(sc.problem, sc.initial_state, 0.0, 6, 1000)
    M = traj.steps_per_period
    assert _period_starts_repeat(traj.states, M).index(True) == 1
    masks = traj.active_masks[1:].reshape(6, M)
    assert masks[1].any()
    for q in range(2, 6):
        _assert_bitwise(masks[q], masks[1])


def test_a_record_cut_to_a_partial_last_period_keeps_its_rows_masks():
    whole = _crawler3_run(6)
    cut = _truncated(whole, 7)
    assert len(cut.states) - 1 > cut.periods * cut.steps_per_period
    _assert_bitwise(cut.active_masks, whole.active_masks[:-7])


def test_masks_are_read_off_the_states_on_first_use_and_kept(monkeypatch):
    calls = []
    active_mask = sweeping._active_mask

    def counted(*args):
        calls.append(1)
        return active_mask(*args)

    monkeypatch.setattr(sweeping, "_active_mask", counted)
    traj = simulate(wedge_scenario().problem, np.array([0.25, 0.0]), 0.0, 3, 100)
    assert not calls
    masks = traj.active_masks
    assert calls and not masks.flags.writeable
    calls.clear()
    assert traj.active_masks is masks and not calls


def test_masks_are_read_with_the_offsets_table_of_their_run(monkeypatch, tmp_path):
    # A record from simulate reads its masks with the table simulate ran on;
    # one from dataclasses.replace or read_trajectory_csv builds its own.
    grid, calls = sweeping._grid, []

    def counted(*args, **lists):
        calls.append(args[1])
        return grid(*args, **lists)

    monkeypatch.setattr(sweeping, "_grid", counted)
    traj = simulate(wedge_scenario().problem, np.array([0.25, 0.0]), 0.0, 3, 100)
    masks = traj.active_masks
    assert calls == [0.0]   # simulate's own
    calls.clear()
    write_trajectory_csv(traj, tmp_path / "traj.csv")
    _assert_bitwise(dataclasses.replace(traj).active_masks, masks)
    _assert_bitwise(read_trajectory_csv(tmp_path / "traj.csv", traj.problem).active_masks, masks)
    assert calls == [0.0, 0.0]
    calls.clear()
    P, Q = traj.problem.moving_set, catalog()["triangle"].problem.moving_set
    for record, t0, R in ((dataclasses.replace(traj, t0=0.5), 0.5, P),
                          (dataclasses.replace(traj, problem=SweepingProblem(Q)), 0.0, Q)):
        table = grid(R.period, t0, 1, 100, offset=R.offsets)[1]
        assert not np.array_equal(table, traj._offsets_phase)
        _assert_bitwise(record._offsets_phase, table)
    assert calls == [0.5, 0.0]


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
    project_raw = sweeping._project_raw

    def recording(B, c, table, p):
        faces = len(table[3])
        result = project_raw(B, c, table, p)
        assert result[3] is table[3].get(result[2])
        if result[2]:
            used[-1].add(result[2])
        if len(table[3]) > faces:
            built[-1].add(result[2])
        return result

    monkeypatch.setattr(sweeping, "_project_raw", recording)
    warm = []
    for problem in problems:
        used.append(set())
        built.append(set())
        warm.append(run(problem))
    assert warm == cold and cold[0] != cold[1]
    assert len(tables) == 1
    assert used[1] & built[0], "the second problem used no face of the first (test vacuous)"
    assert len(next(iter(tables.values()))[3]) == len(built[0]) + len(built[1])


def test_face_maps_reuse_the_tables_gram_inverses():
    # Each face's G_S^-1 is a row of its table's read-only stack, bit-equal
    # to inverting the subset's Gram matrix on its own.
    sc = catalog()["box3"]
    B = sc.problem.moving_set.normals
    simulate(sc.problem, sc.initial_state, 0.0, 4, 200)
    table = polyhedra._subset_table(B)
    assert table[3]
    for subset, (idx, BS, Ginv, _Pi, _R) in table[3].items():
        stack = table[4][len(subset) - 1]
        assert not stack.flags.writeable and np.shares_memory(Ginv, stack)
        assert tuple(idx.tolist()) == subset and BS.tobytes() == B[list(subset)].tobytes()
        assert Ginv.tobytes() == np.linalg.inv(BS @ BS.T).tobytes()


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
    z1 = traj.states[:: traj.steps_per_period, 0]
    assert np.all(np.diff(z1) > 0)
    assert z1[-1] < 1.0 and z1[-1] > 0.99


def test_wedge_distance_ratio_and_classification():
    sc = wedge_scenario()
    traj = simulate(sc.problem, np.array([0.25, 0.0]), 0.0, 16, 500)
    d = convergence_report(traj).d_sup
    ratios = d[1:] / d[:-1]
    assert np.all(np.abs(ratios - 0.5) < 0.05)
    cls = convergence_report(traj).classification
    assert cls.kind == "geometric"
    assert cls.ratio == pytest.approx(0.5, abs=0.05)


def test_wedge_w12_distances_decrease():
    sc = wedge_scenario()
    traj = simulate(sc.problem, np.array([0.25, 0.0]), 0.0, 40, 500)
    d12 = convergence_report(traj).d_w12
    assert np.all(np.diff(d12) <= 0.05 * d12[:-1] + 1e-12)
    assert d12[-1] < 1e-6


def test_w12_dominates_value_part():
    sc = wedge_scenario()
    traj = simulate(sc.problem, np.array([0.25, 0.0]), 0.0, 6, 200)
    M = traj.steps_per_period
    d12 = convergence_report(traj).d_w12
    for q in range(4):
        delta = traj.states[q * M : (q + 1) * M + 1] - traj.states[(q + 1) * M : (q + 2) * M + 1]
        l2_value = np.sqrt(traj.h * np.sum(delta**2))
        assert d12[q] >= l2_value - 1e-14


# ---------------------------------------------------------------------------
# finite-time n-cell behaviour

def box_problem():
    a = triangle_wave(T1, 2.0)
    b = combine([a], [1.0], constant=1.0)
    return SweepingProblem(moving_interval(a, b))


def test_box_finite_time_and_poincare_constant():
    problem = box_problem()
    traj = simulate(problem, np.array([0.0]), 0.0, 6, 100)
    d = convergence_report(traj).d_sup
    assert d[0] > 1e-3
    assert np.all(d[1:] == 0)
    cls = convergence_report(traj).classification
    assert cls.kind == "finite-time" and cls.period == 1
    samples = traj.states[:: traj.steps_per_period]
    assert np.all(np.abs(np.diff(samples[1:], axis=0)) <= 1e-12)


@pytest.mark.parametrize("name", ["wedge", "triangle", "box3", "random-walk"])
def test_period_distances_match_a_window_by_window_reference(name):
    if name == "random-walk":
        rng = np.random.default_rng(3)
        M, K = 7, 35
        P = random_moving_polyhedron(rng, 3, 7)[0]
        states = np.cumsum(rng.standard_normal((K + 1, 3)), axis=0)
        traj = Trajectory(SweepingProblem(P), 0.0, M, states, np.zeros((K, 7)))
    else:
        sc = catalog()[name]
        traj = simulate(sc.problem, sc.initial_state, 0.0, 4, 48)
    sup, w12 = reference_period_distances(traj.states, traj.steps_per_period, traj.h)
    report = convergence_report(traj)
    for d, ref in ((report.d_sup, sup), (report.d_w12, w12)):
        # one window per pair of consecutive periods, no more
        assert d.shape == (traj.periods - 1,)
        np.testing.assert_allclose(d, ref, rtol=1e-13, atol=0)
    np.testing.assert_allclose(report.residual, sup[-1], rtol=1e-13, atol=0)


# The records the blocked report must match the stacked reference on: the
# recommended grids (a few long windows per block), wedge 400x4 (hundreds of
# windows in one block), triangle 3x6000 (one window longer than a block), a
# record read back from CSV (its states a strided view), a record cut to a
# partial last period, and box1 at M = 1 (windows of 2 rows).
REPORT_RECORDS = ("wedge-recommended", "triangle-recommended", "wedge-400x4", "triangle-3x6000",
                  "csv-read", "partial-last-period", "box1-M1")


def _report_record(name, tmp_path):
    cat = catalog()
    scenario, _, grid = name.partition("-")
    if grid == "recommended":
        sc = cat[scenario]
        return simulate(sc.problem, sc.initial_state, 0.0, sc.recommended_periods, sc.recommended_steps)
    if scenario in ("wedge", "triangle"):
        periods, M = map(int, grid.split("x"))
        return simulate(cat[scenario].problem, cat[scenario].initial_state, 0.0, periods, M)
    if name == "box1-M1":
        # box1 has breakpoints at half periods, so its M = 1 record is every
        # other row of an M = 2 run.
        box = simulate(cat["box1"].problem, cat["box1"].initial_state, 0.0, 5, 2)
        return dataclasses.replace(box, steps_per_period=1, states=box.states[::2],
                                   multipliers=box.multipliers[::2])
    traj = simulate(cat["wedge"].problem, cat["wedge"].initial_state, 0.0, 6, 300)
    if name == "partial-last-period":
        return dataclasses.replace(traj, states=traj.states[:-100], multipliers=traj.multipliers[:-100])
    write_trajectory_csv(traj, tmp_path / "trajectory.csv")
    back = read_trajectory_csv(tmp_path / "trajectory.csv", traj.problem)
    assert not back.states.flags.c_contiguous
    return back


@pytest.mark.parametrize("name", REPORT_RECORDS)
def test_report_equals_the_stacked_reference_bit_for_bit(name, tmp_path):
    traj = _report_record(name, tmp_path)
    d_sup, d_w12 = stacked_period_distances(traj.states, traj.steps_per_period, traj.h)
    report = convergence_report(traj)
    assert report.d_sup.shape == report.d_w12.shape == (traj.periods - 1,)
    assert report.d_sup.tobytes() == d_sup.tobytes()
    assert report.d_w12.tobytes() == d_w12.tobytes()
    assert report.classification == _classify(d_sup)


@pytest.mark.parametrize("name", ["wedge-recommended", "triangle-recommended", "csv-read", "box1-M1"])
def test_a_record_steps_by_its_problems_grid(name, tmp_path):
    # h is the problem's T/M, the step _grid computes, so no record carries a
    # second grid: simulate's, read_trajectory_csv's and a replaced M.
    traj = _report_record(name, tmp_path)
    h = sweeping._grid(traj.problem.period, traj.t0, 1, traj.steps_per_period)[0]
    assert np.float64(traj.h).tobytes() == np.float64(h).tobytes()
    assert traj.times.tobytes() == (traj.t0 + np.arange(len(traj.states)) * h).tobytes()
    with pytest.raises(TypeError):
        dataclasses.replace(traj, h=2 * traj.h)


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
    return Trajectory(problem, 0.0, M, states, np.zeros((K, 2)))


def test_classify_finite_time_from_start():
    traj = _synthetic_trajectory([0.0] * 6)
    cls = convergence_report(traj).classification
    assert cls.kind == "finite-time" and cls.period == 0


def test_classify_undetermined_on_wobbly_ratios():
    traj = _synthetic_trajectory([1.0, 0.5, 0.4, 0.08, 0.06, 0.008])
    assert convergence_report(traj).classification.kind == "undetermined"


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
        cls = convergence_report(traj).classification
        assert cls.kind == kind
        ref = _classify(reference_period_distances(traj.states, traj.steps_per_period, traj.h)[0])
        assert (cls.kind, cls.period) == (ref.kind, ref.period)


def test_classify_rejects_one_period():
    traj = simulate(box_problem(), np.array([0.0]), 0.0, 1, 50)
    with pytest.raises(ValueError, match="^need at least 2 periods, have 1$"):
        _classify(np.empty(0))
    with pytest.raises(ValueError, match="^need at least 2 periods, have 1$"):
        convergence_report(traj)


# ---------------------------------------------------------------------------
# multiplier series

def test_lambda_series_zero_without_contact():
    problem = SweepingProblem(constant_interval())
    traj = simulate(problem, np.array([0.5]), 0.0, 4, 40)
    assert np.all(traj.multipliers / traj.h == 0)


def test_lambda_series_boundary_push_rate():
    # lower bound a(t) rising at speed 4 pushes the state: lambda = speed/|b|^2
    a = triangle_wave(T1, 2.0)
    b = combine([a], [1.0], constant=1.0)
    traj = simulate(SweepingProblem(moving_interval(a, b)), np.array([0.0]), 0.0, 1, 100)
    lam = traj.multipliers / traj.h
    # during the first half-period the state rides the lower bound (index 1)
    push = lam[10:45, 1]
    np.testing.assert_allclose(push, 4.0, atol=1e-9)


def test_lambda_reconstruction_identity():
    sc = wedge_scenario()
    traj = simulate(sc.problem, np.array([0.3, 0.0]), 0.0, 3, 250)
    lam = traj.multipliers / traj.h
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


def test_lambda_convergence_equals_the_rates_of_the_whole_run_bit_for_bit():
    # Dividing only the two windows read is elementwise, so it gives the bits
    # of dividing the whole run's multipliers.
    sc = wedge_scenario()
    traj = simulate(sc.problem, np.array([0.25, 0.0]), 0.0, 6, 500)
    M = traj.steps_per_period
    lam = traj.multipliers / traj.h
    for q in range(traj.periods - 1):
        a, b = lam[q * M : (q + 1) * M], lam[(q + 1) * M : (q + 2) * M]
        want = np.sqrt(traj.h * np.sum((a - b) ** 2, axis=0))
        assert np.any(want > 0)
        assert lambda_convergence(traj, q).tobytes() == want.tobytes()


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


def test_lambda_convergence_refuses_a_window_outside_the_record():
    traj = simulate(box_problem(), np.array([0.0]), 0.0, 3, 50)
    lambda_convergence(traj, 1)
    for q in (-1, 2):
        with pytest.raises(IndexError, match=f"^window {q} out of range$"):
            lambda_convergence(traj, q)


@pytest.mark.parametrize("q", [0.5, True, 1.0, "1"], ids=["half", "bool", "float", "str"])
def test_lambda_convergence_refuses_a_window_index_that_is_not_a_count(q):
    # sweeping._checked_count's rule, before the range check: 0.5 would
    # reach slicing and True would read window 1.
    traj = simulate(box_problem(), np.array([0.0]), 0.0, 3, 50)
    with pytest.raises(ValueError, match=f"^q must be an integer, got {re.escape(repr(q))}$"):
        lambda_convergence(traj, q)
    assert lambda_convergence(traj, np.int64(1)).tobytes() == lambda_convergence(traj, 1).tobytes()


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
    cycle = traj.states[-(traj.steps_per_period + 1) :]
    residual = convergence_report(traj).residual
    assert residual < 1e-6
    # the wedge limit cycle is the constant state at the rest corner (gamma, 0)
    np.testing.assert_allclose(cycle, np.tile([1.0, 0.0], (len(cycle), 1)), atol=1e-4)

    const = simulate(SweepingProblem(constant_interval()), np.array([0.3]), 0.0, 3, 50)
    res0 = convergence_report(const).residual
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
    assert not back.states.flags.writeable and not back.multipliers.flags.writeable
    validate_trajectory(back)


def test_trajectory_csv_of_another_problem_is_refused(tmp_path):
    traj = simulate(wedge_scenario().problem, np.array([0.25, 0.0]), 0.0, 1, 10)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    with pytest.raises(ValueError, match="^CSV columns do not match the problem dimensions$"):
        read_trajectory_csv(path, box_problem())


@pytest.mark.parametrize("rows", [0, 1])
def test_trajectory_csv_with_fewer_than_two_rows_is_refused(tmp_path, rows):
    # One row cannot fix the step, and a header alone holds no trajectory.
    sc = wedge_scenario()
    traj = simulate(sc.problem, np.array([0.25, 0.0]), 0.0, 1, 10)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_bytes().split(b"\r\n")
    path.write_bytes(b"\r\n".join(lines[: 1 + rows]) + b"\r\n")
    with pytest.raises(ValueError, match=f"holds {rows} data rows; a trajectory needs at least 2$"):
        read_trajectory_csv(path, sc.problem)


@pytest.mark.parametrize("period,rows", [(2.01, 301), (2.0, 294)], ids=["off-step", "part-period"])
def test_trajectory_csv_that_is_not_whole_periods_is_refused(tmp_path, period, rows):
    # Period 2.01 would read the file's step 0.02 as 100 steps of 0.0201 and
    # give other distances; 294 rows are 2 periods of 100 steps and 93 more,
    # which convergence_report would drop.
    traj = simulate(wedge_scenario().problem, np.array([0.25, 0.0]), 0.0, 3, 100)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_bytes().split(b"\r\n")
    path.write_bytes(b"\r\n".join(lines[: 1 + rows]) + b"\r\n")
    with pytest.raises(ValueError, match=f"traj.csv holds {rows} data rows at step 0.02"):
        read_trajectory_csv(path, wedge_scenario(period=period).problem)


@pytest.mark.parametrize("shift", [float("nan"), 1e-5, -1.0], ids=["nan", "off-slack", "step-back"])
def test_trajectory_csv_with_a_time_off_the_grid_is_refused(tmp_path, shift):
    # Only rows 0 and 1 fix t0 and h; every later t must lie within 1e-6*h
    # of t0 + k*h too, and a shift of 1e-7*h still does.
    traj = simulate(wedge_scenario().problem, np.array([0.25, 0.0]), 0.0, 3, 40)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_bytes().split(b"\r\n")

    def with_t5(t):
        rest = lines[6].split(b",", 1)[1]
        path.write_bytes(b"\r\n".join([*lines[:6], b"%.17g," % t + rest, *lines[7:]]))

    with_t5(traj.times[5] + 1e-7 * traj.h)
    assert read_trajectory_csv(path, wedge_scenario().problem).states.tobytes() == traj.states.tobytes()
    with_t5(traj.times[5] + shift * traj.h)
    with pytest.raises(ValueError, match=r"traj.csv data row 5 has t = \S+, not t0 \+ 5\*h = 0.25$"):
        read_trajectory_csv(path, wedge_scenario().problem)


@pytest.mark.parametrize("row,column,cell,error", [
    (5, -1, b"3.7", r"has active_bitmask 3.7000000000000002, not its state's mask 2$"),
    (5, -1, b"1e30", r"has active_bitmask 1e\+30, not its state's mask 2$"),
    (5, -1, b"nan", r"holds a cell that is not finite$"),
    (5, 1, b"inf", r"holds a cell that is not finite$"),
    (0, 3, b"7.5", r"has a multiplier that is not 0, but no step lands at its state$"),
], ids=["fractional-mask", "huge-mask", "nan-mask", "inf-state", "row-0-multiplier"])
def test_trajectory_csv_with_a_cell_the_record_would_not_keep_is_refused(tmp_path, row, column, cell, error):
    # A mask cell must be the mask the record reads off its state, and no
    # step lands at row 0. Non-finite cells are refused before the masks are
    # read, so reading never warns (pyproject turns warnings into errors).
    traj = simulate(wedge_scenario().problem, np.array([0.25, 0.0]), 0.0, 3, 40)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[1 + row].split(b",")
    cells[column] = cell
    lines[1 + row] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ValueError, match=rf"traj.csv data row {row} {error}"):
        read_trajectory_csv(path, wedge_scenario().problem)


@pytest.mark.parametrize("name,periods,steps,new_steps,nan_row,error", [
    ("box1", 3, 4, 3, None, r"offset\[0\] breakpoint t=0.5 is not on the grid \(t0=0.0, h=0.3333333333333333\)"),
    ("triangle", 2, 6, 4, None, r"drift\[0\] breakpoint t=2.0 is not on the grid \(t0=0.0, h=0.75\)"),
    ("box1", 3, 4, 3, 5, r"offset\[0\] breakpoint t=0.5 is not on the grid"),
], ids=["offset-breakpoint", "drift-breakpoint", "and-a-nan-cell"])
def test_trajectory_csv_off_its_problems_grid_is_refused_before_its_rows(
        tmp_path, name, periods, steps, new_steps, nan_row, error):
    # The file's t column is rewritten to whole periods of new_steps steps,
    # a grid that misses a breakpoint of the problem: _grid refuses it before
    # any row is checked, so a NaN cell is not what the error names.
    sc = catalog()[name]
    traj = simulate(sc.problem, sc.initial_state, 0.0, periods, steps)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_bytes().split(b"\r\n")
    h = sc.problem.period / new_steps
    lines[1:-1] = [b"%.17g," % (k * h) + line.split(b",", 1)[1] for k, line in enumerate(lines[1:-1])]
    if nan_row is not None:
        lines[1 + nan_row] = lines[1 + nan_row].rsplit(b",", 1)[0] + b",nan"
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(GridAlignmentError, match=f"^{error}"):
        read_trajectory_csv(path, sc.problem)


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
    return dataclasses.replace(traj, states=traj.states[:-rows], multipliers=traj.multipliers[:-rows])


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


def _value_in_the_last_block_table():
    # More distinct bodies than a block holds, so templates are made in
    # several rounds; the value 6.25 is first seen in the last block.
    B = _CSV_BLOCK_ROWS
    body = np.column_stack([np.arange(2 * B + 9) * 0.5, np.tile([0.0, 1.0, 2.0], 2 * B + 3)[: 2 * B + 9]])
    body[-3] = [6.25, 1.0]
    body[-1] = [0.0, 6.25]
    return body


def _nans():
    # quiet and signalling NaNs of both signs: four bit patterns, each printed as nan
    bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0xFFF0000000000001],
                    dtype=np.uint64)
    return bits.view(np.float64)


WRITE_CSV_CASES = {
    "signed-zeros-adjacent": np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, -0.0], [-0.0, -0.0]]),
    "body-reappears": np.array([[1.0, 2.0], [3.0, 4.0], [5.0, np.inf], [1.0, 2.0], [5.0, np.inf], [3.0, 4.0]]),
    "first-used-in-a-later-block": _later_block_table(),
    "one-row": np.array([[0.5, -1.0]]),
    "one-value-in-every-cell": np.full((7, 2), 0.1),
    "one-value-across-columns-and-rows": np.array([[0.1, 0.1], [0.1, 2.0], [2.0, 0.1], [0.1, 0.1]]),
    "signed-zeros-in-one-row": np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0]]),
    "nans-of-both-signs-and-payloads": np.column_stack([_nans(), _nans()[::-1]]),
    "infinities": np.array([[np.inf, -np.inf], [-np.inf, np.inf], [np.inf, np.inf]]),
    "int-column-equal-to-float-cells": np.array([[3.0, 3.0], [3.5, 3.0], [3.0, 3.5], [3.5, 3.5]]),
    "value-first-seen-in-the-last-block": _value_in_the_last_block_table(),
}


def _as_masks(column):
    """column as active-set masks would be: nonnegative integral floats, 0.0 where it is not finite."""
    return np.floor(np.where(np.isfinite(column) & (column > 0), column, 0.0))


@pytest.mark.parametrize("name", WRITE_CSV_CASES)
@pytest.mark.parametrize("reference_fmt,newline", [("%.17g,%.17g", "\n"), ("%.17g,%d", "\r\n")])
def test_write_csv_equals_formatting_every_row(tmp_path, name, reference_fmt, newline):
    # The writer prints every cell with %.17g. Against a reference that
    # prints column b with %d, as reference_trajectory_csv prints the masks,
    # column b holds masks, and the files are the same.
    body = WRITE_CSV_CASES[name]
    if reference_fmt.endswith("%d"):
        body = np.column_stack([body[:, 0], _as_masks(body[:, 1])])
    t = np.arange(len(body)) * -0.1   # from -0.0
    _write_csv(tmp_path / "out.csv", ["t", "a", "b"], _grid_texts(t), body, newline)
    expected = reference_csv(["t", "a", "b"], np.column_stack([t, body]), "%.17g," + reference_fmt, newline)
    assert (tmp_path / "out.csv").read_bytes() == expected


def test_cell_texts_of_integral_floats_are_their_ints_texts():
    # Masks are ints below 2**24 (ENUMERATION_CAP bits), exact in a float64,
    # and %.17g prints such a float as %d prints its int.
    ints = [0] + [2**k + d for k in range(25) for d in (-1, 0, 1)]
    ints += np.random.default_rng(41).integers(0, 2**24, size=10_000).tolist()
    texts = _cell_texts(np.array(ints, dtype=float).reshape(-1, 1)).ravel().tolist()
    assert texts == ["%d" % i for i in ints]


def test_cell_texts_share_one_text_for_a_mask_and_an_equal_float_cell():
    body = np.column_stack([WRITE_CSV_CASES["int-column-equal-to-float-cells"][:, 0],
                            _as_masks(WRITE_CSV_CASES["int-column-equal-to-float-cells"][:, 1])])
    cells = _cell_texts(body)
    assert cells.tolist() == [["3", "3"], ["3.5", "3"], ["3", "3"], ["3.5", "3"]]
    assert len({id(cell) for cell in cells.ravel()}) == 2   # one string per distinct value


def test_distinct_rows_by_bits_in_order_of_first_appearance():
    ids, firsts = _distinct_rows(WRITE_CSV_CASES["signed-zeros-adjacent"])
    assert ids.tolist() == [0, 1, 0, 2, 3] and firsts.tolist() == [0, 1, 3, 4]
    ids, firsts = _distinct_rows(WRITE_CSV_CASES["body-reappears"])
    assert ids.tolist() == [0, 1, 2, 0, 2, 1] and firsts.tolist() == [0, 1, 2]
    ids, firsts = _distinct_rows(WRITE_CSV_CASES["first-used-in-a-later-block"])
    B = _CSV_BLOCK_ROWS
    assert firsts[-2:].tolist() == [B + 10, 2 * B + 60] and ids[B + 10] == ids[2 * B + 50]
    assert np.max(ids[:B]) < len(firsts) - 2 and len(firsts) == 18
