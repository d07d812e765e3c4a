import numpy as np
import pytest

from sweeplab.crawler import check_gait_uniqueness
from sweeplab.errors import SweepLabError
from sweeplab.polyhedra import FrozenPolyhedron, freeze
from sweeplab.scenarios import (
    acute_corner_note,
    bottom_edge_coordinate,
    catalog,
    edge_map,
    ncell_scenario,
    reference_gaits,
    triangle_scenario,
    wedge_poincare,
    wedge_scenario,
)
from sweeplab.signals import PeriodicSignal, eval_many, triangle_wave
from sweeplab.sweeping import (
    classify_convergence,
    period_distances_sup,
    poincare_samples,
    simulate,
)


# ---------------------------------------------------------------------------
# closed-form maps

def test_wedge_poincare_values():
    assert wedge_poincare(1.0, 2.0, 0.5) == pytest.approx(0.75)
    assert wedge_poincare(1.0, 2.0, 0.0) == pytest.approx(0.5)
    gamma = 2.0 / (2 * 1.0)
    assert wedge_poincare(1.0, 2.0, gamma) == gamma
    assert wedge_poincare(1.0, 2.0, 1.7) == 1.7
    with pytest.raises(ValueError):
        wedge_poincare(1.0, 2.0, -0.1)


def test_wedge_parameter_validation():
    with pytest.raises(ValueError):
        wedge_scenario(alpha=1.0, beta=0.9, period=2.0)   # beta <= gamma
    with pytest.raises(ValueError):
        wedge_scenario(alpha=4.0, beta=2.0, period=2.0)   # 2*beta <= T*alpha


def test_edge_map_values():
    assert edge_map(1.0 / 3.0) == pytest.approx(1.0 / 3.0)
    assert edge_map(0.0) == pytest.approx(0.5)
    # iterates from 0: 0.5, 0.25, 0.375, 0.3125, ...
    z = 0.0
    seen = []
    for _ in range(4):
        z = edge_map(z)
        seen.append(z)
    assert seen == pytest.approx([0.5, 0.25, 0.375, 0.3125])


# ---------------------------------------------------------------------------
# wedge scenario dynamics

def test_wedge_simulation_follows_map():
    sc = wedge_scenario()
    M = 500
    h = sc.problem.period / M
    traj = simulate(sc.problem, np.array([0.1, 0.0]), 0.0, 10, M)
    z1 = poincare_samples(traj)[:, 0]
    for q in range(len(z1) - 1):
        assert abs(z1[q + 1] - wedge_poincare(1.0, 2.0, z1[q])) <= 5 * h


def test_wedge_reference_tags():
    sc = wedge_scenario()
    assert sc.reference["poincare_map"]["source"] == "closed-form"
    assert sc.reference["classification"]["ratio"] == pytest.approx(0.5)


def test_wedge_nondefault_parameters_follow_map():
    # alpha=2, beta=3: gamma = 0.5 and the map is (4*gamma + z1)/5
    sc = wedge_scenario(alpha=2.0, beta=3.0, period=2.0)
    M = 1000
    h = 2.0 / M
    for z1 in (0.0, 0.2, 0.4):
        traj = simulate(sc.problem, np.array([z1, 0.0]), 0.0, 1, M)
        assert abs(traj.states[-1][0] - wedge_poincare(2.0, 2.0, z1)) <= 5 * h


def test_triangle_nondefault_parameters_follow_map():
    side = 0.8
    sc = triangle_scenario(alpha=3.0, period=1.5, side=side)
    M = 300
    traj = simulate(sc.problem, np.array([0.7 * side, 0.0]), 0.0, 6, M)
    coords = [
        bottom_edge_coordinate(traj.states[q * M + M // 3], side, tol=1e-4)
        for q in range(6)
    ]
    for q in range(5):
        want = edge_map(edge_map(edge_map(coords[q])))
        assert coords[q + 1] == pytest.approx(want, abs=1e-6)


def test_wedge_frozen_at_zero_is_base_set():
    # at t = 0 the vertical displacement vanishes and the offsets are (0, 0, beta)
    sc = wedge_scenario(alpha=1.0, beta=2.0, period=2.0)
    F0 = freeze(sc.problem.moving_set, 0.0)
    np.testing.assert_allclose(F0.offsets, [0.0, 0.0, 2.0], atol=1e-14)
    FT = freeze(sc.problem.moving_set, 2.0)
    np.testing.assert_allclose(FT.offsets, F0.offsets, atol=1e-14)


# ---------------------------------------------------------------------------
# cells

def test_ncell_rejects_inverted_interval():
    a = triangle_wave(1.0, 2.0)
    b = PeriodicSignal.constant(1.0, 1.0)   # a exceeds b near the peak
    with pytest.raises((ValueError, SweepLabError)):
        ncell_scenario([a], [b])


def test_ncell_finite_time_random_starts():
    sc = catalog()["box3"]
    rng = np.random.default_rng(17)
    F0 = freeze(sc.problem.moving_set, 0.0)
    lo = -F0.offsets[3:]
    hi = F0.offsets[:3]
    for _ in range(10):
        z0 = rng.uniform(lo, hi)
        traj = simulate(sc.problem, z0, 0.0, 6, sc.recommended_steps)
        cls = classify_convergence(traj)
        assert cls.kind == "finite-time" and cls.period <= 1
        assert np.all(period_distances_sup(traj)[1:] <= 1e-9)


def test_ncell_constant_interval_is_stationary():
    a = PeriodicSignal.constant(0.0, 1.0)
    b = PeriodicSignal.constant(1.0, 1.0)
    sc = ncell_scenario([a], [b])
    traj = simulate(sc.problem, np.array([0.3]), 0.0, 6, 50)
    assert np.all(traj.states == 0.3)
    assert classify_convergence(traj).period == 0


# ---------------------------------------------------------------------------
# triangle scenario

def test_triangle_rejects_small_drive():
    with pytest.raises(SweepLabError, match="cannot reach"):
        triangle_scenario(alpha=0.2, period=3.0, side=1.0)


def test_triangle_apex_reaches_bottom_edge_empirically():
    sc = triangle_scenario()
    R = sc.reference["geometry"]["R"]
    M = sc.recommended_steps
    traj = simulate(sc.problem, R, 0.0, 1, M)
    state_third = traj.states[M // 3]
    assert abs(state_third[1]) <= 1e-9


def test_triangle_edge_dynamics_match_map():
    sc = triangle_scenario()
    M = sc.recommended_steps
    side = sc.reference["geometry"]["side"]
    traj = simulate(sc.problem, sc.initial_state, 0.0, 8, M)
    coords = [bottom_edge_coordinate(traj.states[q * M + M // 3], side) for q in range(8)]
    for q in range(len(coords) - 1):
        stepped = edge_map(edge_map(edge_map(coords[q])))
        assert coords[q + 1] == pytest.approx(stepped, abs=1e-6)
    assert coords[-1] == pytest.approx(1.0 / 3.0, abs=0.01)


def test_triangle_contraction_ratio_and_classification():
    sc = triangle_scenario()
    M = sc.recommended_steps
    side = sc.reference["geometry"]["side"]
    traj = simulate(sc.problem, sc.initial_state, 0.0, 10, M)
    coords = np.array(
        [bottom_edge_coordinate(traj.states[q * M + M // 3], side) for q in range(10)]
    )
    diffs = np.abs(np.diff(coords))
    ratios = diffs[1:5] / diffs[:4]
    assert np.all(np.abs(ratios - 0.125) < 0.02)
    cls = classify_convergence(traj)
    assert cls.kind == "geometric"
    assert cls.ratio == pytest.approx(0.125, abs=0.02)


def test_triangle_drift_and_moving_forms_agree():
    sc = triangle_scenario()
    M = sc.recommended_steps
    h = sc.problem.period / M
    traj = simulate(sc.problem, sc.initial_state, 0.0, 6, M)
    moving = sc.reference["moving_form"]
    traj2 = simulate(moving, sc.initial_state, 0.0, 6, M)
    prim = sc.reference["drift_primitive"]
    shift = np.column_stack([eval_many(s, traj2.times) for s in prim])
    gap = np.max(np.linalg.norm(traj.states - (traj2.states + shift), axis=1))
    assert gap <= 10 * h


# ---------------------------------------------------------------------------
# acute corners

def test_acute_corner_square_none():
    F = FrozenPolyhedron([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0])
    assert acute_corner_note(F) == []


def test_acute_corner_wedge_flags_apex():
    F = FrozenPolyhedron([[0, -1], [-1, 1], [1, 0]], [0, 0, 2])
    flagged = acute_corner_note(F)
    points = {tuple(np.round(v, 9)) for v, _ in flagged}
    assert (0.0, 0.0) in points


def test_acute_corner_regular_pentagon_none():
    angles = 2 * np.pi * np.arange(5) / 5
    B = np.column_stack([np.cos(angles), np.sin(angles)])
    F = FrozenPolyhedron(B, np.ones(5))
    assert acute_corner_note(F) == []


def test_acute_corner_equilateral_triangle_all_three():
    sc = triangle_scenario()
    F = freeze(sc.problem.moving_set, 0.0)
    flagged = acute_corner_note(F)
    assert len(flagged) == 3


def test_acute_corner_rejects_3d():
    eye = np.eye(3)
    F = FrozenPolyhedron(np.vstack([eye, -eye]), np.ones(6))
    with pytest.raises(ValueError):
        acute_corner_note(F)


# ---------------------------------------------------------------------------
# reference gaits and catalog

def test_reference_gait_margins():
    gaits = reference_gaits()
    grid = np.linspace(0, 1, 21)
    margins = [check_gait_uniqueness(g, grid).min_margin for g in gaits]
    assert margins[0] == pytest.approx(1.0)
    assert margins[1] == pytest.approx(1.0)
    assert margins[2] == pytest.approx(0.5)
    assert margins[3] == 0.0


def test_reference_gaits_signals_piecewise_linear():
    for g in reference_gaits():
        for s in (*g.rest_lengths, *g.mu_plus, *g.mu_minus):
            assert s.kind == "pl"


def test_catalog_contents_and_export():
    cat = catalog()
    assert {"wedge", "triangle", "box1", "box3", "crawler2"} <= set(cat)
    for name, sc in cat.items():
        assert sc.kind in ("gait", "sweeping")
        exported = sc.export_json()
        assert ("gait" in exported) == (sc.kind == "gait")
        for entry in sc.reference.values():
            if isinstance(entry, dict) and "source" in entry:
                assert entry["source"] in ("closed-form", "derived", "construction")


def test_bundled_scenarios_w12_monotone():
    # discrete W12 distances decrease (5% slack, absolute floor for the
    # rounding-collapsed tail) on every bundled system
    from sweeplab.crawler import simulate_reduced
    from sweeplab.sweeping import period_distances_w12

    cat = catalog()
    trajectories = []
    for name, steps in (("wedge", 200), ("box1", 200), ("box3", 200), ("triangle", 600)):
        sc = cat[name]
        trajectories.append(simulate(sc.problem, sc.initial_state, 0.0, 8, steps))
    sc = cat["triangle"]
    trajectories.append(
        simulate(sc.reference["moving_form"], sc.initial_state, 0.0, 8, 600)
    )
    for name in ("crawler2", "crawler2-mirror", "crawler3"):
        sc = cat[name]
        run = simulate_reduced(sc.gait, sc.initial_state, 0.0, 8, 400)
        trajectories.append(run.reduced)
    for traj in trajectories:
        d12 = period_distances_w12(traj)
        assert np.all(np.diff(d12) <= 0.05 * d12[:-1] + 1e-12)


def test_catalog_initial_states_admissible():
    from sweeplab.crawler import admissible
    from sweeplab.polyhedra import contains

    cat = catalog()
    for sc in cat.values():
        if sc.kind == "sweeping":
            F = freeze(sc.problem.moving_set, 0.0)
            assert contains(F, sc.initial_state)
        else:
            assert admissible(sc.gait, 0.0, sc.initial_state)
