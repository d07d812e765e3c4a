import numpy as np
import pytest

from helpers import acute_corner_note, bottom_edge_coordinate, random_polyhedron, reference_acute_corners
from sweeplab.crawler import estimate_velocity, simulate_reduced
from sweeplab.errors import SweepLabError
from sweeplab.polyhedra import FrozenPolyhedron, MovingPolyhedron, freeze, vertices
from sweeplab.scenarios import (
    catalog,
    degenerate_gait,
    edge_map,
    ncell_scenario,
    scenario,
    three_block_gait,
    triangle_scenario,
    two_block_gait,
    wedge_poincare,
    wedge_scenario,
)
from sweeplab.signals import PeriodicSignal, combine, eval_many, triangle_wave
from sweeplab.sweeping import (
    SweepingProblem,
    convergence_report,
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


def test_scenario_builders_name_the_rule_they_refuse():
    # 2*beta > T*alpha holds here, so the second rule decides.
    with pytest.raises(ValueError, match=r"^requires beta > period/\(2\*alpha\)$"):
        wedge_scenario(alpha=0.5, beta=1.0, period=2.0)
    with pytest.raises(ValueError, match="^need matching lower/upper signal lists$"):
        ncell_scenario([PeriodicSignal.constant(0.0, 1.0)], [])


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
    z1 = traj.states[:: traj.steps_per_period, 0]
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
        cls = convergence_report(traj).classification
        assert cls.kind == "finite-time" and cls.period <= 1
        assert np.all(convergence_report(traj).d_sup[1:] == 0)


def test_ncell_constant_interval_is_stationary():
    a = PeriodicSignal.constant(0.0, 1.0)
    b = PeriodicSignal.constant(1.0, 1.0)
    sc = ncell_scenario([a], [b])
    traj = simulate(sc.problem, np.array([0.3]), 0.0, 6, 50)
    assert np.all(traj.states == 0.3)
    assert convergence_report(traj).classification.period == 0


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
    cls = convergence_report(traj).classification
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


@pytest.mark.parametrize("name,periods,fine,grids,bound", [
    ("wedge", 20, 4000, (4, 500, 2000), 2.0**-53),   # 1.1e-16, half an ulp of 1
    ("triangle", 12, 3000, (6, 12, 600), 3.0e-14),
    ("box3", 6, 1000, (4, 100), 0.0),
    ("box1", 6, 4000, (2, 4), 0.0),
])
def test_bundled_maps_do_not_depend_on_the_grid(name, periods, fine, grids, bound):
    # At the grid points that a coarse grid shares with the fine one, the
    # states agree to the bound: down to one step per linear piece.
    sc = scenario(name)
    ref = simulate(sc.problem, sc.initial_state, 0.0, periods, fine).states
    for M in grids:
        states = simulate(sc.problem, sc.initial_state, 0.0, periods, M).states
        assert np.max(np.abs(states - ref[:: fine // M])) <= bound, M


# ---------------------------------------------------------------------------
# the periodic-orbit rule: finite-time means an exact repeat of a period

_ORBIT_RUNS = {   # 39 runs: scenario -> (breakpoint and fine grids, period counts)
    "wedge": ((4, 2000), (2, 20, 40)),
    "triangle": ((6, 3000), (2, 12, 13, 24)),
    "box1": ((2, 200), (2, 6, 12)),
    "box3": ((4, 200), (2, 6, 12)),
    "crawler2": ((2, 2000), (3, 10)),
    "crawler3": ((4, 300, 2000), (3, 10, 12)),
}


def _bundled_run(name, periods, M):
    """The trajectory of scenario name's own start: the reduced run for a gait."""
    sc = scenario(name)
    if sc.gait is None:
        return simulate(sc.problem, sc.initial_state, 0.0, periods, M)
    return simulate_reduced(sc.gait, sc.initial_state, 0.0, periods, M).reduced


@pytest.mark.parametrize("name", _ORBIT_RUNS)
def test_finite_time_exactly_when_a_period_repeats_bit_for_bit(name):
    # A run is finite-time when the state at the start of some window q
    # recurs bit for bit one period later, and its period is the least such q.
    grids, counts = _ORBIT_RUNS[name]
    for M in grids:
        for Q in counts:
            traj = _bundled_run(name, Q, M)
            s = traj.states
            repeats = [q for q in range(Q - 1) if s[q * M].tobytes() == s[(q + 1) * M].tobytes()]
            cls = convergence_report(traj).classification
            assert (cls.kind == "finite-time") == bool(repeats), (M, Q)
            assert cls.period == (repeats[0] if repeats else None), (M, Q)


@pytest.mark.parametrize("name,periods,grids,kind,period,ratio", [
    # The paper's asymptotic-only example: d_sup shrinks by 1/8 per period to
    # 1.5e-10 at 13 periods, and at 24 the map freezes on an orbit that
    # period 18 repeats (d_17 = 5.2e-16, d_18 = 0).
    ("triangle", 12, (6, 3000), "geometric", None, 0.125),
    ("triangle", 13, (6, 3000), "geometric", None, 0.125),
    ("triangle", 24, (6, 3000), "finite-time", 18, None),
    # One ulp (d_sup = [1.58, 2.2e-16]) off the orbit that period 2 repeats.
    ("crawler3", 3, (300,), "undetermined", None, None),
    ("crawler3", 10, (300,), "finite-time", 2, None),
    # Asymptotic too (ratio 1/2), but DEFAULT_TOL freezes the map on an orbit
    # from period 29. ROADMAP item 12, the verdict read from the faces each
    # period applies, will call this run geometric with ratio 0.5.
    ("wedge", 40, (4, 2000), "finite-time", 29, None),
])
def test_orbit_rule_verdicts(name, periods, grids, kind, period, ratio):
    for M in grids:
        cls = convergence_report(_bundled_run(name, periods, M)).classification
        assert (cls.kind, cls.period) == (kind, period), M
        if ratio is None:
            assert cls.ratio is None
        else:
            assert abs(cls.ratio - ratio) <= 1e-6, M


def _translated_box(rng):
    """A box of half-width 0.3 about a(t), cut by 1 to 3 random unit normals r
    with offsets r.a(t) + U(0, 0.25); a is piecewise linear with knots at the
    quarter periods and values U(-0.8, 0.8)^n, n = 2 or 3, and T = 1.
    Returns the problem and the start a(0)."""
    n = int(rng.integers(2, 4))
    a = rng.uniform(-0.8, 0.8, size=(4, n))
    shift = [PeriodicSignal(1.0, list(zip(np.arange(4) / 4.0, a[:, i]))) for i in range(n)]
    R = rng.normal(size=(int(rng.integers(1, 4)), n))
    R /= np.linalg.norm(R, axis=1, keepdims=True)
    slack = rng.uniform(0.0, 0.25, size=len(R))
    offsets = ([combine([s], [1.0], 0.3) for s in shift] + [combine([s], [-1.0], 0.3) for s in shift]
               + [combine(shift, list(r), c) for r, c in zip(R, slack)])
    normals = np.vstack([np.eye(n), -np.eye(n), R])
    return SweepingProblem(MovingPolyhedron(normals, offsets)), a[0]


def test_translated_box_maps_do_depend_on_the_grid():
    # The bundled maps' grid independence is a property of their geometry.
    # Of these 16 sets, cases 4 and 11 differ from M = 4000 at period ends,
    # by 2.5e-2 and 4.2e-2 at M = 4, 8.2e-3 and 7.2e-3 at M = 40 and 5.2e-4
    # and 3.4e-4 at M = 400; the other 14 agree within 2.3e-16.
    rng = np.random.default_rng(5)
    gaps = []
    for _ in range(16):
        problem, z0 = _translated_box(rng)
        ref = simulate(problem, z0, 0.0, 6, 4000).states[::4000]
        for M in (4, 40, 400):
            gaps.append(np.max(np.abs(simulate(problem, z0, 0.0, 6, M).states[::M] - ref)))
    assert max(gaps) > 1e-6
    assert sorted(gaps)[-7] <= 1e-15   # six gaps are large, the rest rounding


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


def _assert_acute_corners_match_geometry(F):
    vs = vertices(F)
    assert len(vs) >= 3
    flagged = sorted({tuple(v) for v, _ in acute_corner_note(F)})
    assert flagged == sorted(reference_acute_corners(vs))


def test_acute_corner_matches_polygon_geometry_on_random_polygons():
    rng = np.random.default_rng(3)
    for _ in range(300):
        m = int(rng.integers(3, 9))
        _assert_acute_corners_match_geometry(random_polyhedron(rng, 2, m))


def test_acute_corner_ignores_a_duplicated_facet():
    # x <= 1 is listed twice; every corner is a right angle.
    F = FrozenPolyhedron([[1, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 0, 0])
    assert acute_corner_note(F) == []
    _assert_acute_corners_match_geometry(F)


def test_acute_corner_on_a_tiny_wedge():
    F = FrozenPolyhedron([[0, -1], [-1, 1], [1, 0]], [0, 0, 4e-8])
    assert [p for _, p in acute_corner_note(F)] == [(0, 1), (1, 2)]
    _assert_acute_corners_match_geometry(F)


def test_acute_corner_skips_a_constraint_that_only_touches_a_vertex():
    # x + y <= 2 touches the unit square at (1, 1) only, so it is not an edge there.
    F = FrozenPolyhedron([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]], [1, 1, 0, 0, 2])
    assert acute_corner_note(F) == []


def test_acute_corner_rejects_3d():
    eye = np.eye(3)
    F = FrozenPolyhedron(np.vstack([eye, -eye]), np.ones(6))
    with pytest.raises(ValueError):
        acute_corner_note(F)


# ---------------------------------------------------------------------------
# reference gaits and catalog

def test_reference_gait_margins():
    gaits = [two_block_gait(), two_block_gait(mirrored=True), three_block_gait(), degenerate_gait()]
    margins = [g.period_margin.min_margin for g in gaits]
    assert margins[0] == pytest.approx(1.0)
    assert margins[1] == pytest.approx(1.0)
    assert margins[2] == pytest.approx(0.5)
    assert margins[3] == 0.0


def test_reference_gaits_signals_piecewise_linear():
    for g in [two_block_gait(), two_block_gait(mirrored=True), three_block_gait(), degenerate_gait()]:
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


def test_every_reference_value_of_a_bundled_scenario_matches_its_run():
    # At the recommended grid: an expected classification is the run's kind,
    # within 1e-9 of its ratio and at most its max_period; an expected v0 is
    # the run's converged velocity within 1e-9.
    checked = set()
    for name, sc in catalog().items():
        Q, M = sc.recommended_periods, sc.recommended_steps
        expected = sc.reference.get("classification")
        if expected is not None:
            got = convergence_report(simulate(sc.problem, sc.initial_state, 0.0, Q, M)).classification
            assert got.kind == expected["kind"], name
            if "ratio" in expected:
                assert abs(got.ratio - expected["ratio"]) <= 1e-9, name
            if got.kind == "finite-time":
                assert got.period <= expected["max_period"], name
            checked.add(name)
        if "v0" in sc.reference:
            vel = estimate_velocity(simulate_reduced(sc.gait, sc.initial_state, 0.0, Q, M).motion)
            assert vel.converged and abs(vel.v0 - sc.reference["v0"]["value"]) <= 1e-9, name
            checked.add(name)
    assert checked == {"wedge", "triangle", "box1", "box3", "crawler2", "crawler2-mirror"}


def test_scenario_builds_the_catalog_entry_alone():
    for name, sc in catalog().items():
        one = scenario(name)
        assert one.name == name
        assert one.export_json() == sc.export_json()
        assert (one.recommended_periods, one.recommended_steps) == (
            sc.recommended_periods, sc.recommended_steps)
        np.testing.assert_array_equal(one.initial_state, sc.initial_state)
    with pytest.raises(KeyError):
        scenario("no-such-scenario")


def test_bundled_scenarios_w12_monotone():
    # discrete W12 distances decrease (5% slack, absolute floor for the
    # rounding-collapsed tail) on every bundled system
    from sweeplab.crawler import simulate_reduced

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
        d12 = convergence_report(traj).d_w12
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
