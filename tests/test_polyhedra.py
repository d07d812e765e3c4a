import numpy as np
import pytest

from helpers import (
    brute_force_cone_coefficients,
    random_moving_polyhedron,
    random_point_outside,
    random_polyhedron,
)
from sweeplab.errors import (
    EnumerationCapError,
    InfeasibleSetError,
    LicqError,
    MembershipError,
    NormalConeError,
)
from sweeplab.polyhedra import (
    FrozenPolyhedron,
    MovingPolyhedron,
    active_set,
    bounding_box,
    check_licq,
    contains,
    decompose_normal,
    enumerate_faces,
    freeze,
    gamma_constant,
    positively_spanning,
    project,
    vertices,
)
from sweeplab.signals import PeriodicSignal, eval_signal, triangle_wave

TOL = 1e-9


def unit_square():
    return FrozenPolyhedron([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0])


def wedge(alpha=1.0, beta=2.0):
    # 0 <= z2 <= alpha*z1, z1 <= beta
    return FrozenPolyhedron([[0, -1], [-alpha, 1], [1, 0]], [0, 0, beta])


# ---------------------------------------------------------------------------
# membership / active sets

def test_contains_square():
    F = unit_square()
    assert contains(F, [0.5, 0.5])
    assert not contains(F, [1 + 2 * TOL, 0])
    assert contains(F, [1 + 0.5 * TOL, 0])


def test_contains_wedge_boundary():
    assert contains(wedge(), [1.0, 1.0])


def test_active_set_square():
    F = unit_square()
    assert active_set(F, [0.5, 0.5]).size == 0
    assert list(active_set(F, [1.0, 1.0])) == [0, 1]
    with pytest.raises(MembershipError):
        active_set(F, [2.0, 0.0])


def test_active_set_wedge_vertex():
    assert list(active_set(wedge(), [0.0, 0.0])) == [0, 1]


# ---------------------------------------------------------------------------
# projection

def test_project_square_face():
    res = project(unit_square(), np.array([2.0, 0.5]))
    np.testing.assert_allclose(res.point, [1.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(res.multipliers, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_project_wedge_vertex_multipliers():
    # At (2,2) the active normals are the slant (-1,1) and z1<=beta (1,0);
    # solving the Gram system for p - z* = (1,1) gives lam = (1, 2).
    res = project(wedge(), np.array([3.0, 3.0]))
    np.testing.assert_allclose(res.point, [2.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(res.multipliers, [0.0, 1.0, 2.0], atol=1e-12)


def test_project_interior_identity():
    F = unit_square()
    res = project(F, np.array([0.25, 0.75]))
    np.testing.assert_array_equal(res.point, [0.25, 0.75])
    assert np.all(res.multipliers == 0)


def test_project_dimension_mismatch():
    with pytest.raises(ValueError):
        project(unit_square(), np.array([1.0, 2.0, 3.0]))


def test_project_empty_set():
    F = FrozenPolyhedron([[1.0], [-1.0]], [-1.0, -2.0])  # x <= -1 and x >= 2
    with pytest.raises(InfeasibleSetError):
        project(F, np.array([0.0]))


def test_enumeration_cap():
    m = 25
    angles = np.linspace(0, 2 * np.pi, m, endpoint=False)
    B = np.column_stack([np.cos(angles), np.sin(angles)])
    F = FrozenPolyhedron(B, np.ones(m))
    with pytest.raises(EnumerationCapError):
        project(F, np.array([3.0, 3.0]))


def test_projection_property_suite():
    rng = np.random.default_rng(42)
    for _ in range(150):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n + 1, 9))
        F = random_polyhedron(rng, n, m)
        p = random_point_outside(rng, F)
        q = rng.normal(scale=4.0, size=n)
        rp = project(F, p)
        rq = project(F, q)
        # landing point feasible
        assert np.all(F.normals @ rp.point <= F.offsets + 10 * TOL)
        # KKT reconstruction
        recon = p - rp.point - F.normals.T @ rp.multipliers
        assert np.linalg.norm(recon) <= 1e-10 * (1 + np.linalg.norm(p))
        # multipliers supported on the active set
        act = set(np.flatnonzero(F.offsets - F.normals @ rp.point <= 1e-7).tolist())
        assert set(np.flatnonzero(rp.multipliers > 1e-12).tolist()) <= act
        # nonexpansiveness
        assert np.linalg.norm(rp.point - rq.point) <= np.linalg.norm(p - q) + 1e-10
        # idempotence
        r2 = project(F, rp.point)
        np.testing.assert_allclose(r2.point, rp.point, atol=1e-9)
        assert np.all(r2.multipliers <= 1e-9)


# ---------------------------------------------------------------------------
# normal-cone decomposition

def test_decompose_zero_vector():
    F = unit_square()
    lam = decompose_normal(F, [1.0, 0.5], np.zeros(2))
    assert np.all(lam == 0)


def test_decompose_single_face():
    F = unit_square()
    lam = decompose_normal(F, [0.5, 0.0], np.array([0.0, -3.0]))
    np.testing.assert_allclose(lam, [0, 0, 0, 3.0], atol=1e-12)


def test_decompose_gram_pair():
    # active normals (1,0) and (-1,1): v = (1,1) = 2*(1,0) + 1*(-1,1)
    F = FrozenPolyhedron([[1, 0], [-1, 1], [0, -1]], [1, 0, 0])
    lam = decompose_normal(F, [1.0, 1.0], np.array([1.0, 1.0]))
    np.testing.assert_allclose(lam, [2.0, 1.0, 0.0], atol=1e-12)


def test_decompose_base_point_independent():
    F = unit_square()
    v = np.array([0.0, 2.5])
    lam1 = decompose_normal(F, [0.2, 1.0], v)
    lam2 = decompose_normal(F, [0.8, 1.0], v)
    np.testing.assert_allclose(lam1, lam2, atol=1e-13)


def test_decompose_rejects_outside_cone():
    F = unit_square()
    with pytest.raises(NormalConeError):
        decompose_normal(F, [0.5, 1.0], np.array([0.0, -1.0]))
    with pytest.raises(NormalConeError):
        decompose_normal(F, [0.5, 0.5], np.array([1.0, 0.0]))  # interior point
    with pytest.raises(NormalConeError):
        # tangential to the bottom face: outside the span of the active normal
        decompose_normal(F, [0.5, 0.0], np.array([1.0, 0.0]))


def test_decompose_rejects_dependent_active():
    F = FrozenPolyhedron([[1, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 0, 0])
    with pytest.raises(LicqError):
        decompose_normal(F, [1.0, 0.5], np.array([2.0, 0.0]))


def test_decompose_matches_brute_force_nnls():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n + 1, 9))
        F = random_polyhedron(rng, n, m)
        res = project(F, random_point_outside(rng, F))
        act = active_set(F, res.point)
        BS = F.normals[act]
        if len(act) == 0 or np.linalg.matrix_rank(BS, tol=1e-10) < len(act):
            continue
        weights = rng.uniform(0.0, 2.0, size=len(act))
        v = BS.T @ weights
        lam = decompose_normal(F, res.point, v)
        ref, resid = brute_force_cone_coefficients(BS, v)
        assert resid <= 1e-9
        np.testing.assert_allclose(lam[act], ref, atol=1e-8)
        checked += 1


# ---------------------------------------------------------------------------
# vertices / LICQ / faces

def test_vertices_square():
    vs = vertices(unit_square())
    assert len(vs) == 4
    got = {tuple(np.round(v, 9)) for v in vs}
    assert got == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_bounding_box():
    lo, hi = bounding_box(wedge())
    np.testing.assert_allclose(lo, [0, 0], atol=1e-12)
    np.testing.assert_allclose(hi, [2, 2], atol=1e-12)


def test_check_licq_square_and_wedge():
    assert check_licq(unit_square()).holds
    assert check_licq(wedge()).holds


def test_check_licq_duplicated_constraint():
    F = FrozenPolyhedron([[1, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 0, 0])
    report = check_licq(F)
    assert not report.holds
    assert report.witness == (0, 1)


def test_check_licq_flat_set():
    # segment {y = 0, 0 <= x <= 1}: three constraints meet at each endpoint
    F = FrozenPolyhedron([[0, 1], [0, -1], [1, 0], [-1, 0]], [0, 0, 1, 0])
    report = check_licq(F)
    assert not report.holds


def test_enumerate_faces_interval():
    F = FrozenPolyhedron([[1.0], [-1.0]], [1.0, 0.0])
    assert enumerate_faces(F) == {(), (0,), (1,)}


def test_enumerate_faces_square():
    faces = enumerate_faces(unit_square())
    assert len(faces) == 9
    assert () in faces and (0, 1) in faces and (0,) in faces


def test_enumerate_faces_duplicated_constraint():
    F = FrozenPolyhedron([[1, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 0, 0])
    faces = enumerate_faces(F)
    assert (0, 1) in faces
    assert (0,) not in faces and (1,) not in faces


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_faces_box_count(n):
    eye = np.eye(n)
    F = FrozenPolyhedron(np.vstack([eye, -eye]), np.ones(2 * n))
    assert len(enumerate_faces(F)) == 3**n


# ---------------------------------------------------------------------------
# gamma constant

def test_gamma_single_constraint_cell():
    F = FrozenPolyhedron([[1.0], [-1.0]], [1.0, 0.0])
    assert gamma_constant(F) == pytest.approx(1.0, abs=1e-12)


def test_gamma_orthonormal_pair():
    assert gamma_constant(unit_square()) == pytest.approx(np.sqrt(2.0), rel=1e-6)


def test_gamma_grows_for_nearly_parallel_normals():
    # thin triangle whose apex (1, 0.5) realizes the nearly parallel active
    # pair {(1,0), (-1,eps)}; there lam=(1,1) gives ratio ~ 2/eps
    values = []
    for eps in (0.1, 0.01, 0.001):
        F = FrozenPolyhedron(
            [[1, 0], [-1, eps], [0, -1], [0, 1]],
            [1, -1 + 0.5 * eps, 1, 1],
        )
        values.append(gamma_constant(F))
    assert values[0] < values[1] < values[2]
    assert values[2] > 100


def test_gamma_requires_licq():
    F = FrozenPolyhedron([[1, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 0, 0])
    with pytest.raises(LicqError):
        gamma_constant(F)


def test_gamma_matches_continuous_optimizer_on_wedge():
    # independent cross-check: per-pair 1-d maximization of the same ratio
    from scipy.optimize import minimize_scalar

    F = wedge()
    B = F.normals
    best = 1.0
    for face in enumerate_faces(F):
        if len(face) != 2:
            continue
        b1, b2 = B[face[0]], B[face[1]]
        n1, n2 = np.linalg.norm(b1), np.linalg.norm(b2)

        def neg_ratio(s):
            num = (1 - s) * n1 + s * n2
            den = np.linalg.norm((1 - s) * b1 + s * b2)
            return -num / den if den > 1e-14 else 0.0

        res = minimize_scalar(neg_ratio, bounds=(0.0, 1.0), method="bounded")
        best = max(best, -res.fun)
    assert gamma_constant(F) == pytest.approx(best, rel=2e-3)


# ---------------------------------------------------------------------------
# moving polyhedra

def test_positively_spanning():
    assert positively_spanning(np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]]))
    assert not positively_spanning(np.array([[1.0, 0], [0, 1]]))


def test_moving_polyhedron_rejects_unbounded():
    with pytest.raises(ValueError):
        MovingPolyhedron(
            [[1.0, 0.0], [0.0, 1.0]],
            (PeriodicSignal.constant(1.0, 1.0), PeriodicSignal.constant(1.0, 1.0)),
        )


def test_moving_polyhedron_rejects_infeasible_instant():
    # interval [tri(t), 1 - tri(t)] inverts when tri(t) > 0.5
    tri = triangle_wave(1.0, 2.0)
    upper = PeriodicSignal(1.0, [(0.0, 1.0)])
    with pytest.raises(InfeasibleSetError):
        MovingPolyhedron(
            [[1.0], [-1.0]],
            (
                upper,
                PeriodicSignal(1.0, [(0.0, -0.0), (0.5, -2.0)]),
            ),
        )


def test_moving_polyhedron_breakpoints_decide_nonemptiness():
    # Offsets are affine between breakpoints, so checking the breakpoints only
    # must accept or reject exactly as a dense grid of times does.
    rng = np.random.default_rng(41)
    dense = np.arange(160) / 160.0   # contains the period/4 knots
    outcomes = set()
    for case in range(16):
        n = 2 + case % 2
        P, _ = random_moving_polyhedron(rng, n, n + 2 + case % 3)
        B, offsets = P.normals, list(P.offsets)
        if case % 4:
            # Move one offset at one knot to just below or just above the
            # smallest value of its constraint on the set there.
            i = int(rng.integers(len(offsets)))
            s = offsets[i]
            j = int(rng.integers(len(s.times)))
            low = float(np.min(vertices(freeze(P, s.times[j])) @ B[i]))
            values = s.values.copy()
            values[j] = low + rng.uniform(-0.3, 0.3)
            offsets[i] = PeriodicSignal(s.period, list(zip(s.times, values)))

        def nonempty(t):
            try:
                vertices(FrozenPolyhedron(B, [eval_signal(s, t) for s in offsets]))
            except InfeasibleSetError:
                return False
            return True

        expected = all(nonempty(t) for t in dense)
        outcomes.add(expected)
        if expected:
            MovingPolyhedron(B, offsets)
        else:
            with pytest.raises(InfeasibleSetError):
                MovingPolyhedron(B, offsets)
    assert outcomes == {True, False}


def test_freeze_periodicity_and_values():
    tri = triangle_wave(2.0, 1.0)
    P = MovingPolyhedron([[1.0], [-1.0]], (tri, PeriodicSignal.constant(0.5, 2.0)))
    F1 = freeze(P, 0.7)
    F2 = freeze(P, 0.7 + 2.0)
    np.testing.assert_allclose(F1.offsets, F2.offsets, atol=1e-14)


def test_moving_polyhedron_rejects_pc_offsets():
    pc = PeriodicSignal(1.0, [(0.0, 1.0), (0.5, 2.0)], kind="pc")
    with pytest.raises(ValueError):
        MovingPolyhedron([[1.0], [-1.0]], (pc, PeriodicSignal.constant(0.0, 1.0)))


def test_moving_polyhedron_json_round_trip():
    tri = triangle_wave(2.0, 1.0)
    P = MovingPolyhedron([[1.0], [-1.0]], (tri, PeriodicSignal.constant(0.5, 2.0)))
    back = MovingPolyhedron.from_json(P.to_json())
    np.testing.assert_array_equal(back.normals, P.normals)
    for a, b in zip(back.offsets, P.offsets):
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.values, b.values)
