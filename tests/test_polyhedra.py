import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import sweeplab.crawler
import sweeplab.polyhedra
import sweeplab.signals
import sweeplab.sweeping
from helpers import (
    brute_force_cone_coefficients,
    load_perfbench,
    lu_solve,
    peristaltic_starts,
    random_gait,
    random_moving_polyhedron,
    random_point_outside,
    random_polyhedron,
    reference_dependent_witness,
    reference_enumerate_faces,
    reference_gamma,
    reference_positively_spanning,
    reference_project_raw,
    reference_subset_table,
    reference_vertices,
)
from sweeplab.crawler import build_moving_set, margin_at, simulate_reduced
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
    _dependent_witness,
    _gram_inverses,
    _independent,
    _project_raw,
    _subset_table,
    _active_mask,
    _vertex_active_sets,
)
from sweeplab.scenarios import catalog
from sweeplab.signals import PeriodicSignal, eval_signal, triangle_wave

TOL = 1e-9


def nearly_parallel_pair():
    # Normals 0 and 1 are 1e-10 apart: their Gram matrix is singular in floats.
    return FrozenPolyhedron([[1, 0], [1, 1e-10], [-1, 0], [0, -1], [0, 1]], np.ones(5))


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


@pytest.mark.parametrize("m", range(1, 25))
def test_active_mask_packs_the_bits_of_the_residual_test(m):
    # The rows of Z[-1] are active on random subsets within TOL, the last on
    # every constraint, so bit m - 1 (bit 23 at m = 24) is set; those of Z[0]
    # where their random residuals are below TOL.
    rng = np.random.default_rng(m)
    B = rng.normal(size=(m, 3))
    Z = rng.normal(size=(2, 5, 3))
    active = rng.random((5, m)) < 0.5
    active[-1] = True
    C = Z[-1] @ B.T + np.where(active, rng.choice([-TOL, 0.0, 0.5 * TOL], (5, m)), 1.0)
    bits = np.left_shift(1, np.arange(m, dtype=np.int64))
    for c, z in ((C, Z), (C[0], Z[0]), (C[-1], Z[:, -1])):
        got = _active_mask(B, c, z)
        want = (c - z @ B.T <= TOL) @ bits
        assert got.dtype == np.int64 and got.shape == z.shape[:-1]
        np.testing.assert_array_equal(got, want)
    assert _active_mask(B, C[-1], Z[-1, -1:])[0] == (1 << m) - 1


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


@pytest.mark.parametrize("normals,offsets,message", [
    ([1.0, -1.0], [1.0, 1.0], r"normals must be a 2-d array \(m, n\)"),
    ([[1.0], [-1.0]], [1.0], "offsets must have one entry per normal"),
    ([[1.0], [0.0]], [1.0, 1.0], "zero normal vector"),
], ids=["1-d-normals", "offset-count", "zero-normal"])
def test_frozen_polyhedron_names_a_malformed_array(normals, offsets, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FrozenPolyhedron(normals, offsets)


@pytest.mark.parametrize("normals,count,message", [
    ([1.0, -1.0], 2, r"normals must be a 2-d array \(m, n\)"),
    ([[1.0], [-1.0]], 1, "need one offset signal per normal"),
    ([[1.0], [0.0]], 2, "zero normal vector"),
], ids=["1-d-normals", "offset-count", "zero-normal"])
def test_moving_polyhedron_names_a_malformed_array(normals, count, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MovingPolyhedron(normals, (PeriodicSignal.constant(1.0, 1.0),) * count)


def test_moving_polyhedron_names_an_offset_that_is_not_a_signal_of_its_period():
    one = PeriodicSignal.constant(1.0, 1.0)
    with pytest.raises(TypeError, match=r"^offsets\[1\] is not a PeriodicSignal: 1.0$"):
        MovingPolyhedron([[1.0], [-1.0]], (one, 1.0))
    with pytest.raises(ValueError, match=r"^offsets\[1\] has period 2.0, expected 1.0$"):
        MovingPolyhedron([[1.0], [-1.0]], (one, PeriodicSignal.constant(1.0, 2.0)))
    pc = PeriodicSignal(1.0, [(0.0, 1.0)], kind="pc")
    with pytest.raises(ValueError, match=r"^offsets\[1\] has kind 'pc', expected 'pl'$"):
        MovingPolyhedron([[1.0], [-1.0]], (one, pc))


def test_moving_polyhedron_names_a_first_offset_that_is_not_a_signal():
    one = PeriodicSignal.constant(1.0, 1.0)
    with pytest.raises(TypeError, match=r"^offsets\[0\] is not a PeriodicSignal: 1.0$"):
        MovingPolyhedron([[1.0], [-1.0]], (1.0, one))


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


def _assert_projection_bit_equal(B, c, p):
    table = _subset_table(B)
    z, lam, subset = _project_raw(B, c, table, p)[:3]
    z_ref, lam_ref, subset_ref = reference_project_raw(B, c, table, p)
    assert np.array_equal(z, z_ref) and np.array_equal(lam, lam_ref), (B, c, p)
    assert subset == subset_ref
    return subset


def _random_draws(count):
    rng = np.random.default_rng(7)
    for _ in range(count):
        n = int(rng.integers(2, 6))
        F = random_polyhedron(rng, n, int(rng.integers(n + 1, 11)))
        yield rng, F


def test_project_bit_equal_to_candidate_loop_on_random_polyhedra():
    for rng, F in _random_draws(50):
        for _ in range(4):
            _assert_projection_bit_equal(F.normals, F.offsets, random_point_outside(rng, F))


@pytest.mark.parametrize("normals,offsets,p,subset,also_passing", [
    # {x <= 1} and {x <= 1, y <= 1} (multiplier 0 on y) both pass: the smaller size wins.
    ([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0], [2.0, 1.0], (0,), (0, 1)),
    # x + y <= 2 also passes through the vertex (1, 1): two pairs pass, the first wins.
    ([[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1]], [1, 1, 2, 0, 0], [2.0, 1.5], (0, 1), (0, 2)),
], ids=["larger-size", "same-size"])
def test_project_tie_goes_to_the_first_passing_candidate(normals, offsets, p, subset, also_passing):
    B, c, p = np.array(normals, float), np.array(offsets, float), np.array(p)
    assert _assert_projection_bit_equal(B, c, p) == subset
    S = list(also_passing)
    lam = np.linalg.solve(B[S] @ B[S].T, B[S] @ p - c[S])
    assert np.all(lam >= 0) and np.all(B @ (p - B[S].T @ lam) <= c + TOL)


def test_project_falls_through_a_size_whose_every_candidate_has_a_negative_multiplier():
    # A table of the unit square whose size-1 stack keeps only -x <= 0 and
    # -y <= 0: at p = (2, 2) both have multiplier -2, so no size-1 row
    # passes the sign test, and the search goes on to the pairs.
    B = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    c, p = np.array([1.0, 1.0, 0.0, 0.0]), np.array([2.0, 2.0])
    full = reference_subset_table(B)[2]
    stacks = [tuple(a[2:] for a in full[0]), full[1]]
    entries = [e for stack in stacks for e in zip(*stack)]
    table = (entries, {tuple(e[0]): i for i, e in enumerate(entries)}, stacks, {}, [None, None])
    z, lam, subset, face = _project_raw(B, c, table, p)
    z_ref, lam_ref, subset_ref = reference_project_raw(B, c, table, p)
    assert np.array_equal(z, z_ref) and np.array_equal(lam, lam_ref)
    assert subset == subset_ref == (0, 1) and z.tolist() == [1.0, 1.0]
    assert face is table[3][(0, 1)]


def _gait_wide_full_searches(monkeypatch):
    """(B, c, table, p, result) of every projection of seed 101's gait_wide
    runs that accepted a nonempty subset."""
    calls = []

    def recording(B, c, table, p):
        result = _project_raw(B, c, table, p)
        calls.append((B, c.copy(), table, p.copy(), result[:3]))
        return result

    monkeypatch.setattr(sweeplab.sweeping, "_project_raw", recording)
    wide = load_perfbench("workloads").GaitWide
    for g, x0 in peristaltic_starts(101):
        simulate_reduced(g, x0, 0.0, wide.PERIODS, wide.STEPS)
    full = [call for call in calls if call[4][2]]
    assert len(full) > 100
    return full


def test_project_bit_equal_on_the_gait_wide_searches(monkeypatch):
    for B, c, table, p, (z, lam, subset) in _gait_wide_full_searches(monkeypatch):
        z_ref, lam_ref, subset_ref = reference_project_raw(B, c, table, p)
        assert np.array_equal(z, z_ref) and np.array_equal(lam, lam_ref)
        assert subset == subset_ref


# The projection applies each G_S^-1 as an explicit inverse; the loop that
# solves G_S by LU accepts the same subset, with values this close.
LU_ATOL = 1e-13


def _assert_projection_near_lu_loop(B, c, table, p, result):
    z, lam, subset = result
    z_ref, lam_ref, subset_ref = reference_project_raw(B, c, table, p, solver=lu_solve)
    assert subset == subset_ref
    np.testing.assert_allclose(z, z_ref, rtol=0, atol=LU_ATOL)
    np.testing.assert_allclose(lam, lam_ref, rtol=0, atol=LU_ATOL)


def test_project_matches_lu_solve_loop_on_random_polyhedra():
    for rng, F in _random_draws(50):
        table = _subset_table(F.normals)
        for _ in range(4):
            p = random_point_outside(rng, F)
            result = _project_raw(F.normals, F.offsets, table, p)[:3]
            _assert_projection_near_lu_loop(F.normals, F.offsets, table, p, result)


def test_project_matches_lu_solve_loop_on_the_gait_wide_searches(monkeypatch):
    for B, c, table, p, result in _gait_wide_full_searches(monkeypatch):
        _assert_projection_near_lu_loop(B, c, table, p, result)


def test_gram_inverses_are_built_for_the_sizes_a_search_reaches(monkeypatch):
    # A point beyond one facet of the 3-d box is accepted at size 1, so only
    # size 1 is inverted; a point beyond a corner reaches size 3 and inverts
    # every size on the way.
    monkeypatch.setattr(sweeplab.polyhedra, "_TABLES", {})
    B = np.vstack([np.eye(3), -np.eye(3)])
    c = np.ones(6)
    table = _subset_table(B)
    assert table[4] == [None, None, None]
    assert _project_raw(B, c, table, np.array([2.0, 0.0, 0.0]))[2] == (0,)
    assert table[4][0] is not None and table[4][1:] == [None, None]
    assert _project_raw(B, c, table, np.full(3, 2.0))[2] == (0, 1, 2)
    for size, (Ginv, (_idx, _BS, G)) in enumerate(zip(table[4], table[2]), 1):
        assert _gram_inverses(table, size) is Ginv
        assert not Ginv.flags.writeable
        np.testing.assert_allclose(Ginv @ G, np.broadcast_to(np.eye(size), G.shape), rtol=0, atol=1e-14)


def test_project_retries_ill_conditioned_candidates_by_qr():
    # The normal equations of every passing candidate miss the 1e-9 band here
    # (cond(B_S) is about 3.2e3), so the stacked search finds nothing although
    # 0 lies in the set; the QR retry accepts a candidate that satisfies KKT.
    B = np.random.default_rng(663).normal(size=(12, 5))
    F = FrozenPolyhedron(B, np.zeros(12))
    p = np.eye(5)[1]
    assert contains(F, np.zeros(5))
    with pytest.raises(InfeasibleSetError):
        reference_project_raw(B, F.offsets, _subset_table(B), p)
    res = project(F, p)
    assert res.subset == (5, 7, 8, 9, 10)
    assert np.all(B @ res.point <= TOL)
    assert np.all(res.multipliers >= 0)
    np.testing.assert_allclose(p - res.point, B.T @ res.multipliers, rtol=0, atol=1e-10)
    assert np.all(-B[res.multipliers > 0] @ res.point <= 10 * TOL)


@pytest.mark.parametrize("e,subset", [(31, (0, 1)), (29, (0, 2))])
def test_project_accepts_a_multiplier_within_the_tolerance_below_zero(e, subset):
    # The cone z2 <= 0, z1 <= 0, z2 <= 4*z1 with apex 0, and p = b_0 - d*b_1:
    # candidate (0, 1) has multipliers (1, -d) exactly, and is accepted when
    # d = 2^-31 <= 1e-9. At d = 2^-29 it is not, and (0, 2) is, with
    # lam_2 = d/4. (0,) fails in both: it stops at (-d, 0), where z2 <= 4*z1
    # fails by 4*d > 1e-9. The sign test's tolerance alone tells them apart.
    B = np.array([[0.0, 1.0], [1.0, 0.0], [-4.0, 1.0]])
    res = project(FrozenPolyhedron(B, np.zeros(3)), np.array([-(2.0**-e), 1.0]))
    assert res.subset == subset
    assert res.point.tolist() == [0.0, 0.0]
    if e == 31:
        assert res.multipliers.tolist() == [1.0, 0.0, 0.0]   # -2^-31 clipped at 0


@pytest.mark.parametrize("normals,offsets", [
    ([[1.0], [-1.0]], [-1.0, -2.0]),
    ([[1, 0], [0, 1], [-1, -1]], [0.0, 0.0, -1.0]),
], ids=["interval", "triangle"])
def test_project_empty_set_matches_candidate_loop(normals, offsets):
    B, c = np.array(normals, float), np.array(offsets, float)
    p = np.full(B.shape[1], 3.0)
    table = _subset_table(B)
    with pytest.raises(InfeasibleSetError) as ref:
        reference_project_raw(B, c, table, p)
    with pytest.raises(InfeasibleSetError) as got:
        _project_raw(B, c, table, p)
    assert str(got.value) == str(ref.value)


# ---------------------------------------------------------------------------
# independence rule and subset table

def test_independent_ignores_row_scale():
    assert _independent(np.array([[1e9, 0.0], [0.0, 1.0]]))


def test_independent_rejects_more_rows_than_columns():
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(50, 3, 2))
    assert not _independent(stack[0])
    assert not _independent(stack).any()


def test_independent_rejects_a_pair_with_a_singular_gram_matrix():
    B = nearly_parallel_pair().normals[:2]
    assert not _independent(B)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(B @ B.T, np.ones(2))


def test_independent_stacked_equals_per_item_calls():
    # Random rows, rows scaled over 1e-3..1e3, and nearly dependent families
    # around the sqrt(eps) bound.
    rng = np.random.default_rng(11)
    for s, n in [(1, 1), (1, 3), (2, 2), (2, 5), (3, 3), (4, 6), (3, 2)]:
        stack = rng.normal(size=(60, s, n)) * 10.0 ** rng.uniform(-3, 3, size=(60, s, 1))
        if 1 < s <= n:
            mix = rng.normal(size=(60, 1, s - 1)) @ stack[:, : s - 1]
            eps = 10.0 ** rng.uniform(-16, -4, size=(60, 1, 1))
            stack[30:, -1:] = (mix + eps * rng.normal(size=(60, 1, n)))[30:]
        stacked = _independent(stack)
        assert stacked.dtype == bool and stacked.shape == (60,)
        assert stacked.tolist() == [_independent(BS) for BS in stack]


def _table_inputs():
    for name, K in _bundled_moving_sets():
        yield name, K.normals
    yield "triangle-moving", catalog()["triangle"].reference["moving_form"].moving_set.normals
    for n in range(1, 5):
        yield f"box{n}", np.vstack([np.eye(n), -np.eye(n)])
    yield "half-plane", np.array([[1.0, 0.0]])
    for i, (_, F) in enumerate(_random_draws(50)):
        yield f"random{i}", F.normals


def _assert_table_equal(B):
    entries, index, stacks = _subset_table(B)[:3]
    ref_entries, ref_index, ref_stacks = reference_subset_table(B)
    assert index == ref_index
    for stack, ref in zip(stacks, ref_stacks, strict=True):
        for a, b in zip(stack, ref, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            assert not a.flags.writeable
    for entry, ref in zip(entries, ref_entries, strict=True):
        stack = stacks[len(entry[0]) - 1]
        for a, b, whole in zip(entry, ref, stack, strict=True):
            assert np.shares_memory(a, whole) and np.array_equal(a, b)


def test_subset_table_equals_combination_loop():
    for name, B in _table_inputs():
        _assert_table_equal(B)


@pytest.mark.parametrize("N", range(3, 10))
def test_subset_table_equals_combination_loop_on_peristaltic_gaits(N):
    sl = SimpleNamespace(signals=sweeplab.signals, crawler=sweeplab.crawler,
                         polyhedra=sweeplab.polyhedra)
    g = load_perfbench("workloads").peristaltic_gait(sl, N)
    _assert_table_equal(build_moving_set(g).normals)


def _with_row(n, row):
    """The n-d box normals, then one more row."""
    return np.vstack([np.eye(n), -np.eye(n), [row]])


PLANTED = {
    # name: (normals, a dependent family, its subfamilies that must be kept)
    "dependent-triple": (_with_row(4, [1, 1, 0, 0]), (0, 1, 8), [(0, 1), (0, 8), (1, 8)]),
    "dependent-quadruple": (_with_row(4, [1, 1, 1, 0]), (0, 1, 2, 8),
                            [(0, 1, 2), (0, 1, 8), (0, 2, 8), (1, 2, 8)]),
    "parallel-pair": (_with_row(3, [0, 0, 1]), (2, 6), [(2,), (6,)]),
    "antiparallel-pair": (np.array([[1, 2, 0], [0, 1, 1], [1, 0, -1], [-1, -2, 0]], dtype=float),
                          (0, 3), [(0,), (3,)]),
    "scaled-duplicate": (_with_row(3, [0, 2.5, 0]), (1, 6), [(1,), (6,), (0, 1, 2), (0, 2, 6)]),
}


@pytest.mark.parametrize("name", PLANTED)
def test_subset_table_drops_planted_dependent_families(name):
    B, dependent, kept = PLANTED[name]
    _assert_table_equal(B)
    index = _subset_table(B)[1]
    assert dependent not in index and all(sub in index for sub in kept)
    # No kept family holds the dependent one.
    assert not any(set(dependent) <= set(idx) for idx in index)


@pytest.mark.parametrize("N", [7, 9])
def test_subset_table_tests_only_families_whose_pairs_are_kept(monkeypatch, N):
    # Sizes 1 and 2 test every row and pair; from size 3 on a family is tested
    # only when all its pairs are kept, which on K(t) leaves few to reject.
    tested = []
    independent = sweeplab.polyhedra._independent

    def counted(BS):
        tested.append(len(BS))
        return independent(BS)

    sl = SimpleNamespace(signals=sweeplab.signals, crawler=sweeplab.crawler,
                         polyhedra=sweeplab.polyhedra)
    B = build_moving_set(load_perfbench("workloads").peristaltic_gait(sl, N)).normals
    monkeypatch.setattr(sweeplab.polyhedra, "_TABLES", {})
    monkeypatch.setattr(sweeplab.polyhedra, "_independent", counted)
    stacks = _subset_table(B)[2]
    m = len(B)
    assert sum(tested) <= m + math.comb(m, 2) + sum(len(s[0]) for s in stacks[2:])


def test_subset_table_half_plane_has_empty_stacks():
    sweeplab.polyhedra._TABLES.clear()
    _, index, stacks = _subset_table(np.array([[1.0, 0.0]]))[:3]
    assert list(index) == [(0,)]
    assert [a.shape for a in stacks[1]] == [(0, 2), (0, 2, 2), (0, 2, 2)]


def test_subset_table_drops_a_pair_with_a_singular_gram_matrix():
    index = _subset_table(nearly_parallel_pair().normals)[1]
    assert (0, 1) not in index and (0, 3) in index


def test_subset_table_cap_raises_before_any_array_is_built(monkeypatch):
    # m = 20, n = 9: 431,909 combinations of sizes 1..9 exceed MAX_TABLE_SIZE.
    def untouched(*args):
        raise AssertionError("the table tested a combination before checking the cap")

    monkeypatch.setattr(sweeplab.polyhedra, "_independent", untouched)
    B = np.random.default_rng(0).normal(size=(20, 9))
    with pytest.raises(EnumerationCapError, match="^candidate subset enumeration too large$"):
        _subset_table(B)


# ---------------------------------------------------------------------------
# normal-cone decomposition

def test_decompose_zero_vector():
    F = unit_square()
    lam = decompose_normal(F, [1.0, 0.5], np.zeros(2))
    assert np.all(lam == 0)


def test_decompose_reads_a_vector_up_to_the_tolerance_as_zero():
    # At an interior point only v = 0 lies in the normal cone. |v| <= TOL
    # counts as 0, and TOL = 1e-9 lies between 2^-30 and 2^-29.
    F = FrozenPolyhedron([[1.0], [-1.0]], [1.0, 1.0])
    assert decompose_normal(F, [0.0], [2.0**-30]).tolist() == [0.0, 0.0]
    with pytest.raises(NormalConeError, match="interior point"):
        decompose_normal(F, [0.0], [2.0**-29])


def test_decompose_admits_a_negative_coefficient_up_to_the_tolerance():
    # At the corner z = (1, 1) of the box |z_i| <= 1 the active normals are
    # e1 and e2, and v = (1, -eps) has the coefficient -eps on e2. TOL = 1e-9
    # lies between 2^-30 and 2^-29: -2^-31 counts as 0, -2^-29 is refused.
    F = FrozenPolyhedron([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0] * 4)
    assert decompose_normal(F, [1.0, 1.0], [1.0, -(2.0**-31)]).tolist() == [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(NormalConeError, match="negative coefficient"):
        decompose_normal(F, [1.0, 1.0], [1.0, -(2.0**-29)])


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


def test_decompose_rejects_a_pair_with_a_singular_gram_matrix():
    with pytest.raises(LicqError, match=r"^active normals \(0, 1\) are linearly dependent$"):
        decompose_normal(nearly_parallel_pair(), (1.0, 0.0), (1.0, 0.0))


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


def _bundled_moving_sets():
    for sc in catalog().values():
        yield sc.name, build_moving_set(sc.gait) if sc.gait else sc.problem.moving_set


def test_vertices_bit_equal_to_square_subsystem_loop():
    for _, F in _random_draws(50):
        assert np.array_equal(vertices(F), reference_vertices(F))
    for name, K in _bundled_moving_sets():
        for t in np.unique(np.concatenate([s.times for s in K.offsets])):
            F = freeze(K, t)
            assert np.array_equal(vertices(F), reference_vertices(F)), (name, t)


def _peristaltic_moving_sets():
    workloads = load_perfbench("workloads")
    sl = SimpleNamespace(signals=sweeplab.signals, crawler=sweeplab.crawler, polyhedra=sweeplab.polyhedra)
    for N in range(3, 9):
        yield f"peristaltic{N}", build_moving_set(workloads.peristaltic_gait(sl, N))


def test_vertex_active_sets_equal_the_per_vertex_active_set():
    # One stacked residual test gives what active_set gives one vertex at a time.
    sets = [F for _, F in _random_draws(50)]
    for _, K in [*_bundled_moving_sets(), *_peristaltic_moving_sets()]:
        sets += [freeze(K, t) for t in np.unique(np.concatenate([s.times for s in K.offsets]))]
    for F in sets:
        got = _vertex_active_sets(F)
        want = [active_set(F, v) for v in vertices(F)]
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


_S60, _C60 = np.sin(np.pi / 3), np.cos(np.pi / 3)


@pytest.mark.parametrize("normals,offsets,scale,shift", [
    ([[0, -1], [1, 0], [-_S60, _C60]], [0, 1, 0], 1e-8, [0, 0]),
    ([[0, -1], [-1, 1], [1, 0]], [0, 0, 2], 1e-8, [0, 0]),
    ([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0], 1e-5, [1000, 1000]),
], ids=["triangle-30-60-90", "wedge", "square-at-1000"])
def test_vertex_rule_is_scale_and_translation_invariant(normals, offsets, scale, shift):
    from helpers import acute_corner_note

    unit = FrozenPolyhedron(normals, offsets)
    B, shift = unit.normals, np.array(shift, dtype=float)
    F = FrozenPolyhedron(B, scale * unit.offsets + B @ shift)
    np.testing.assert_allclose(vertices(F), shift + scale * vertices(unit), rtol=1e-12, atol=1e-12 * scale)
    lo, hi = bounding_box(F)
    assert np.all(hi - lo > 0.5 * scale)
    assert enumerate_faces(F) == enumerate_faces(unit)
    assert check_licq(F) == check_licq(unit)
    assert gamma_constant(F) == pytest.approx(gamma_constant(unit), rel=1e-12)
    assert [p for _, p in acute_corner_note(F)] == [p for _, p in acute_corner_note(unit)]


def test_degenerate_vertex_keeps_its_whole_active_set():
    # x + y <= 2 touches the unit square at (1, 1) only.
    F = FrozenPolyhedron([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]], [1, 1, 0, 0, 2])
    vs = vertices(F)
    assert len(vs) == 4
    acts = {tuple(np.round(v, 12)): tuple(a.tolist()) for v, a in zip(vs, _vertex_active_sets(F))}
    assert acts[(1.0, 1.0)] == (0, 1, 4)


def test_check_licq_square_and_wedge():
    assert check_licq(unit_square()).holds
    assert check_licq(wedge()).holds


def test_check_licq_duplicated_constraint():
    F = FrozenPolyhedron([[1, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 0, 0])
    report = check_licq(F)
    assert not report.holds
    assert report.witness == (0, 1)


def test_check_licq_nearly_parallel_pair():
    report = check_licq(nearly_parallel_pair())
    assert not report.holds
    assert report.witness == (0, 1)


def _assert_witness_matches_per_item_loop(F):
    checked = 0
    for act in _vertex_active_sets(F):
        if not _independent(F.normals[act]):
            assert _dependent_witness(F.normals, act) == reference_dependent_witness(F.normals, act)
            checked += 1
    return checked


def test_dependent_witness_matches_per_item_loop():
    F = FrozenPolyhedron([[1, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 0, 0])
    assert _assert_witness_matches_per_item_loop(F) == 2
    # Three copies of x <= 1: the pairs (0, 1), (0, 2) and (1, 2) are all dependent.
    F = FrozenPolyhedron([[1, 0], [1, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 1, 0, 0])
    assert _assert_witness_matches_per_item_loop(F) == 2
    assert check_licq(F).witness == (0, 1)
    # Criterion 08's draws, at its zero-margin instants.
    rng = np.random.default_rng(88)
    checked = 0
    for _ in range(20):
        g = random_gait(rng, int(rng.integers(2, 4)))
        K = build_moving_set(g)
        for t in np.linspace(0.0, g.period, 100, endpoint=False):
            if margin_at(g, float(t))[0] <= TOL:
                checked += _assert_witness_matches_per_item_loop(freeze(K, float(t)))
    assert checked > 0


def test_check_licq_witness_is_the_whole_active_set():
    # At the vertex (1, 1) of {x <= 1, y <= 1, x + y <= 2, -x <= 0, -y <= 0}
    # the three active normals are dependent, but every pair is independent.
    F = FrozenPolyhedron([[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1]], [1, 1, 2, 0, 0])
    report = check_licq(F)
    assert not report.holds
    assert report.witness == (0, 1, 2)
    assert _assert_witness_matches_per_item_loop(F) == 1


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


def pyramid(k):
    """The pyramid in R^3 over the regular k-gon of circumradius 1, apex (0, 0, 1):
    constraint j < k holds the j-th edge of the base and the apex, constraint k is z >= 0."""
    theta = 2 * np.pi * np.arange(k) / k
    r = np.cos(np.pi / k)
    sides = np.column_stack([np.cos(theta), np.sin(theta), np.full(k, r)])
    return FrozenPolyhedron(np.vstack([sides, [0, 0, -1]]), np.append(np.full(k, r), 0.0))


def _face_cases():
    for _, F in _random_draws(30):
        yield "random", F
    for n in range(1, 7):
        eye = np.eye(n)
        yield f"box{n}", FrozenPolyhedron(np.vstack([eye, -eye]), np.ones(2 * n))
    yield "segment", FrozenPolyhedron([[0, 1], [0, -1], [1, 0], [-1, 0]], [0, 0, 1, 0])
    yield "flat-square", FrozenPolyhedron(np.vstack([np.eye(3), -np.eye(3)]), [1, 1, 0, 0, 0, 0])
    yield "duplicated", FrozenPolyhedron([[1, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 0, 0])
    yield "triplicated", FrozenPolyhedron(
        [[1, 0], [1, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 1, 0, 0])
    for k in range(3, 13):
        yield f"pyramid{k}", pyramid(k)


def test_enumerate_faces_equals_the_subset_loop():
    for name, F in _face_cases():
        assert enumerate_faces(F) == reference_enumerate_faces(F), name


def test_enumerate_faces_pyramid_over_a_20_gon():
    # k + 1 vertices, 2k edges, k + 1 facets and the interior: 4k + 3 faces.
    # The apex has degree 20, so the subset loop would try 2^20 subsets there.
    k = 20
    faces = enumerate_faces(pyramid(k))
    assert len(faces) == 4 * k + 3
    sizes = sorted(len(f) for f in faces)
    assert sizes == [0] + [1] * (k + 1) + [2] * (2 * k) + [3] * k + [k]
    assert tuple(range(k)) in faces


# ---------------------------------------------------------------------------
# gamma constant

def test_gamma_single_constraint_cell():
    F = FrozenPolyhedron([[1.0], [-1.0]], [1.0, 0.0])
    assert gamma_constant(F) == pytest.approx(1.0, abs=1e-12)


def test_gamma_orthonormal_pair():
    assert gamma_constant(unit_square()) == pytest.approx(np.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gamma_box_is_sqrt_n(n):
    eye = np.eye(n)
    F = FrozenPolyhedron(np.vstack([eye, -eye]), np.ones(2 * n))
    assert gamma_constant(F) == pytest.approx(np.sqrt(n), rel=1e-12)


@pytest.mark.parametrize("F,alpha", [
    (wedge(), np.pi / 4),
    (FrozenPolyhedron([[0, -1], [-np.sqrt(3), 1], [np.sqrt(3), 1]], [0, 0, np.sqrt(3)]), np.pi / 3),
], ids=["wedge", "equilateral"])
def test_gamma_triangle_is_set_by_its_sharpest_corner(F, alpha):
    # at a corner of interior angle alpha the unit normals are pi - alpha
    # apart, so their hull is sin(alpha/2) from the origin
    assert gamma_constant(F) == pytest.approx(1.0 / np.sin(alpha / 2), rel=1e-12)


def test_gamma_matches_min_norm_reference_on_random_polyhedra():
    # Draws 7, 12 and 18 have a vertex whose affine-hull point of all active
    # unit normals has a negative weight, so they pin the support sign test.
    rng = np.random.default_rng(0)
    for _ in range(20):
        F = random_polyhedron(rng, 3, 6)
        assert gamma_constant(F) == pytest.approx(reference_gamma(F), rel=1e-6)


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


def test_gamma_enumerates_the_vertices_once(monkeypatch):
    calls = []

    def counting(F):
        calls.append(F)
        return vertices(F)

    monkeypatch.setattr(sweeplab.polyhedra, "vertices", counting)
    eye = np.eye(4)
    gamma_constant(FrozenPolyhedron(np.vstack([eye, -eye]), np.ones(8)))
    assert len(calls) == 1


def test_gamma_solves_each_support_once(monkeypatch):
    # The 16 vertices of the 4-box hold 176 supports of size >= 2, 72 of them distinct.
    solve = np.linalg.solve
    calls = []

    def counting(G, rhs):
        if np.ndim(G) == 2:   # vertices' one stacked solve has a 3-d G
            calls.append(G)
        return solve(G, rhs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    eye = np.eye(4)
    assert gamma_constant(FrozenPolyhedron(np.vstack([eye, -eye]), np.ones(8))) == 2.0
    assert len(calls) == 72


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
    assert gamma_constant(F) == pytest.approx(best, rel=1e-10)


# ---------------------------------------------------------------------------
# moving polyhedra

def test_positively_spanning():
    assert positively_spanning(np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]]))
    assert not positively_spanning(np.array([[1.0, 0], [0, 1]]))


@pytest.mark.parametrize("B, spans", [
    ([[1.0]], False),                                   # n = 1, one side only
    ([[2.0], [-1e-3]], True),                           # n = 1, row scale ignored
    ([[1.0], [3.0]], False),
    ([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], False),  # rank 2 < n = 3
    ([[1.0, 0, 0], [0, 1, 0]], False),                  # m < n
    ([[1.0, 0], [0, 1], [1, 1]], False),                # rank n, all in a half-plane
    ([[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]], True),  # simplex, m = n + 1
    ([[1.0, 0, 0], [0, 1, 0], [0, 0, 1]], False),       # m = n
])
def test_positively_spanning_hand_cases(B, spans):
    assert positively_spanning(np.array(B)) is spans
    assert reference_positively_spanning(np.array(B)) is spans


def test_positively_spanning_decides_at_the_working_tolerance():
    # With unit rows, -e_2 breaks the third row by delta / |(-1, -delta)|; the
    # rule needs more than DEFAULT_TOL. (NNLS accepts both: -e_2 is in the cone
    # with coefficients near 1/delta.)
    for delta, spans in [(2e-9, True), (0.5e-9, False)]:
        assert positively_spanning(np.array([[1.0, 0], [0, 1], [-1, -delta]])) is spans


_SPANNING_FAMILIES = ("gaussian", "unit", "shrunk-row", "low-rank", "half-space")


def _spanning_draw(rng, family):
    n = int(rng.integers(2 if family == "low-rank" else 1, 6))
    m = int(rng.integers(max(n - 1, 1), n + 6))
    B = rng.normal(size=(m, n))
    if family == "unit":
        B /= np.linalg.norm(B, axis=1, keepdims=True)
    elif family == "shrunk-row":
        B[rng.integers(m)] = -(10.0 ** rng.uniform(-12, -1)) * np.eye(n)[rng.integers(n)]
    elif family == "low-rank":
        r = int(rng.integers(1, n))
        B = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
    elif family == "half-space":
        a = rng.normal(size=n)
        B -= 2.0 * np.minimum(B @ a, 0.0)[:, None] * a / (a @ a)
    return B


@pytest.mark.parametrize("family", _SPANNING_FAMILIES)
def test_positively_spanning_agrees_with_nnls(family):
    rng = np.random.default_rng(_SPANNING_FAMILIES.index(family))
    answers = []
    for _ in range(200):
        B = _spanning_draw(rng, family)
        answers.append(positively_spanning(B))
        assert answers[-1] is reference_positively_spanning(B), B
    if family in ("low-rank", "half-space"):
        assert not any(answers)
    else:
        assert 20 <= sum(answers) <= 180


def test_positively_spanning_caps_at_the_enumeration_cap():
    B = np.vstack([np.eye(3), -np.eye(3), np.random.default_rng(0).normal(size=(19, 3))])
    with pytest.raises(EnumerationCapError):
        positively_spanning(B)
    # A non-spanning set of 25 constraints hits the cap before the rule.
    signals = [PeriodicSignal.constant(1.0, 1.0)] * 25
    with pytest.raises(EnumerationCapError):
        MovingPolyhedron(np.abs(B), signals)


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
def test_polyhedra_reject_non_finite_normals(bad):
    offsets = (PeriodicSignal.constant(1.0, 1.0),) * 2
    with pytest.raises(ValueError, match="^normals must be finite$"):
        FrozenPolyhedron([[bad], [-1.0]], [1.0, 1.0])
    with pytest.raises(ValueError, match="^normals must be finite$"):
        MovingPolyhedron([[bad], [-1.0]], offsets)


def test_moving_polyhedron_refuses_an_empty_constraint_list():
    # The period is read from the first offset, so there must be one.
    with pytest.raises(ValueError, match="^need at least one constraint$"):
        MovingPolyhedron(np.zeros((0, 2)), [])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
def test_frozen_polyhedron_rejects_non_finite_offsets(bad):
    with pytest.raises(ValueError, match="^offsets must be finite$"):
        FrozenPolyhedron([[1.0], [-1.0]], [bad, 1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
def test_point_operations_reject_a_non_finite_point_or_vector(bad):
    # Each is refused before any arithmetic: no RuntimeWarning, no empty-set
    # error, no empty active set, no NaN coefficients.
    F = unit_square()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (project, contains, active_set):
            with pytest.raises(ValueError, match=r"^point \[.*\] is not finite$"):
                call(F, [bad, 0.0])
        with pytest.raises(ValueError, match=r"^vector \[.*\] is not finite$"):
            decompose_normal(F, [1.0, 0.5], [bad, 0.0])
        with pytest.raises(ValueError, match=r"^point \[.*\] is not finite$"):
            decompose_normal(F, [bad, 0.5], [1.0, 0.0])


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
def test_freeze_refuses_a_time_that_is_not_finite(t):
    # Without the check, inf % T warns "invalid value encountered in remainder".
    P = MovingPolyhedron([[1.0], [-1.0]], (triangle_wave(1.0, 1.0, base=1.0),) * 2)
    with pytest.raises(ValueError, match=f"^time {t} is not finite$"):
        freeze(P, t)


@pytest.mark.parametrize("bad", ["1", True], ids=["string", "bool"])
def test_moving_polyhedron_from_json_rejects_non_numbers(bad):
    obj = MovingPolyhedron([[1.0], [-1.0]], (PeriodicSignal.constant(1.0, 1.0),) * 2).to_json()
    obj["normals"][0][0] = bad
    with pytest.raises(TypeError, match="^normals must be JSON numbers"):
        MovingPolyhedron.from_json(obj)
