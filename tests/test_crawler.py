import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import sweeplab.crawler
import sweeplab.polyhedra
import sweeplab.signals
from helpers import (
    central_difference_gradient,
    load_perfbench,
    gait_margin_floor,
    gait_slips_from_rest,
    random_gait,
    random_gait_with_margin,
    reference_margin_at,
    reference_oracle,
    uniform_signal,
)
from sweeplab.crawler import (
    Gait,
    MarginReport,
    admissible,
    assemble_positions,
    build_force_polyhedron,
    build_moving_set,
    check_gait_uniqueness,
    dissipation,
    energy,
    energy_gradient,
    estimate_velocity,
    friction_values,
    incremental_oracle,
    margin_at,
    pi_y,
    pi_z,
    recover_translation,
    rest_length_values,
    running_periodic_decomposition,
    simulate_reduced,
)
from sweeplab.errors import (
    DegenerateGaitError,
    EnumerationCapError,
    InadmissibleStateError,
    PatternSearchError,
)
from sweeplab.polyhedra import (
    MovingPolyhedron,
    check_licq,
    contains,
    freeze,
    positively_spanning,
)
from sweeplab.scenarios import degenerate_gait, three_block_gait, two_block_gait
from sweeplab.signals import PeriodicSignal, eval_signal, triangle_wave

TOL = 1e-9


def constant_gait(N=2, L=0.0, mu_plus=1.0, mu_minus=2.0, T=1.0, k=1.0):
    return Gait(
        num_blocks=N,
        period=T,
        stiffness=k,
        rest_lengths=tuple(PeriodicSignal.constant(L, T) for _ in range(N - 1)),
        mu_plus=tuple(PeriodicSignal.constant(mu_plus, T) for _ in range(N)),
        mu_minus=tuple(PeriodicSignal.constant(mu_minus, T) for _ in range(N)),
    )


# ---------------------------------------------------------------------------
# projections between position and (mean, shape) coordinates

def test_position_split_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=int(rng.integers(2, 7)))
        back = assemble_positions(pi_y(x), pi_z(x))
        np.testing.assert_allclose(back, x, atol=1e-12)


# ---------------------------------------------------------------------------
# energy and dissipation

def test_energy_zero_at_rest():
    g = two_block_gait()
    t = 0.3
    z = np.array([eval_signal(g.rest_lengths[0], t)])
    x = assemble_positions(0.0, z)
    assert energy(g, t, x) == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(energy_gradient(g, t, x), 0.0, atol=1e-12)


def test_energy_single_spring():
    g = constant_gait(L=0.0)
    x = np.array([0.0, 1.0])
    assert energy(g, 0.0, x) == pytest.approx(0.5)
    np.testing.assert_allclose(energy_gradient(g, 0.0, x), [-1.0, 1.0], atol=1e-14)


def test_gradient_matches_finite_differences():
    g = three_block_gait()
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = float(rng.uniform(0, 1))
        x = rng.normal(scale=2.0, size=3)
        fd = central_difference_gradient(lambda v: energy(g, t, v), x)
        np.testing.assert_allclose(energy_gradient(g, t, x), fd, atol=1e-6)


def test_dissipation_values_and_homogeneity():
    g = constant_gait(mu_plus=1.0, mu_minus=2.0)
    assert dissipation(g, 0.0, np.zeros(2)) == 0.0
    assert dissipation(g, 0.0, np.array([1.0, -1.0])) == pytest.approx(3.0)
    v = np.array([0.7, -0.2])
    for c in (0.0, 0.5, 2.0):
        assert dissipation(g, 0.0, c * v) == pytest.approx(c * dissipation(g, 0.0, v))


# ---------------------------------------------------------------------------
# model polyhedra

def test_force_polyhedron_is_friction_box():
    g = constant_gait(mu_plus=1.0, mu_minus=2.0)
    C0 = freeze(build_force_polyhedron(g), 0.0)
    np.testing.assert_allclose(C0.offsets, [1, 1, 2, 2])
    assert contains(C0, [0.0, 0.0])
    assert contains(C0, [1.0, -2.0])
    assert not contains(C0, [1.1, 0.0])


def test_force_polyhedron_always_licq_and_contains_zero():
    g = two_block_gait()
    C = build_force_polyhedron(g)
    for t in np.linspace(0, 1, 9):
        F = freeze(C, t)
        assert check_licq(F).holds
        assert np.all(F.normals @ np.zeros(2) <= F.offsets)


def test_moving_set_interval_two_blocks():
    g = constant_gait(mu_plus=1.0, mu_minus=2.0)
    K0 = freeze(build_moving_set(g), 0.0)
    # intersection of [-1, 2] (block 1 bounds) and [-2, 1] (block 2 bounds)
    assert contains(K0, [-1.0]) and contains(K0, [1.0])
    assert not contains(K0, [1.0 + 1e-6]) and not contains(K0, [-1.0 - 1e-6])


def test_moving_set_translates_with_actuation():
    g = two_block_gait()   # mu+ = 1, mu- = 2, L triangle 0->4->0, k = 1
    K = build_moving_set(g)
    for t in (0.0, 0.2, 0.5, 0.8):
        L = eval_signal(g.rest_lengths[0], t)
        F = freeze(K, t)
        assert contains(F, [1.0 - L]) and contains(F, [-1.0 - L])
        assert not contains(F, [1.0 - L + 1e-6])
        assert not contains(F, [-1.0 - L - 1e-6])


def test_force_identity_pins_constraints():
    # residual of constraint i at w = -k*pi_Z(x) equals the force-bound margin
    rng = np.random.default_rng(9)
    for g in (two_block_gait(), three_block_gait(), constant_gait(N=4)):
        K = build_moving_set(g)
        N = g.num_blocks
        for _ in range(8):
            t = float(rng.uniform(0, g.period))
            x = rng.normal(scale=2.0, size=N)
            w = -g.stiffness * pi_z(x)
            force = -energy_gradient(g, t, x)
            F = freeze(K, t)
            resid = F.offsets - F.normals @ w
            mup = np.array([eval_signal(s, t) for s in g.mu_plus])
            mum = np.array([eval_signal(s, t) for s in g.mu_minus])
            np.testing.assert_allclose(resid[:N], mup - force, atol=1e-12)
            np.testing.assert_allclose(resid[N:], mum + force, atol=1e-12)


def test_moving_set_nonempty_and_bounded_by_construction():
    # build_moving_set skips validation: the rest shape w = -k*ell(t) must keep
    # a slack of at least the smallest friction threshold at every breakpoint.
    rng = np.random.default_rng(21)
    gaits = [random_gait(rng, N) for N in range(2, 8) for _ in range(2)]
    workloads = load_perfbench("workloads")
    sl = SimpleNamespace(signals=sweeplab.signals, crawler=sweeplab.crawler)
    gaits += [workloads.peristaltic_gait(sl, N) for N in (6, 7)]
    for g in gaits:
        K = build_moving_set(g)
        assert positively_spanning(K.normals)
        for t in np.unique(np.concatenate([s.times for s in K.offsets])):
            F = freeze(K, t)
            w = -g.stiffness * rest_length_values(g, t)
            mup, mum = friction_values(g, t)
            slack = F.offsets - F.normals @ w
            assert slack.min() >= min(mup.min(), mum.min()) - 1e-12, (g.num_blocks, t)
        MovingPolyhedron(K.normals, K.offsets)   # validates, raises if K(t) is ever empty


# ---------------------------------------------------------------------------
# uniqueness margin

def test_margin_two_block_reference():
    report = check_gait_uniqueness(two_block_gait(), np.linspace(0, 1, 11))
    assert report.min_margin == pytest.approx(1.0)
    assert report.worst_subset in ((0,), (1,))


def test_margin_symmetric_gait_is_zero():
    report = check_gait_uniqueness(degenerate_gait(), [0.0, 0.5])
    assert report.min_margin == 0.0


def test_margin_three_block_reference():
    val, _ = margin_at(three_block_gait(), 0.37)
    assert val == pytest.approx(0.5)


def test_margin_zero_iff_licq_fails():
    rng = np.random.default_rng(13)
    for g in (two_block_gait(), degenerate_gait(), three_block_gait()):
        K = build_moving_set(g)
        for t in rng.uniform(0, 1, size=8):
            margin, _ = margin_at(g, float(t))
            licq = check_licq(freeze(K, float(t))).holds
            assert (margin <= TOL) == (not licq)


def test_margin_matches_subset_loop_reference():
    # Exact equality of the value and the first minimizing subset, including
    # the exact ties that lattice-valued thresholds produce; uniform thresholds
    # at N >= 8 show any change in the order of summation. Over the times, the
    # scan reports the first minimum, also when several times tie.
    rng = np.random.default_rng(17)
    gaits = [random_gait(rng, N) for N in range(2, 9) for _ in range(3)] + [degenerate_gait()]
    gaits += [random_gait(rng, N, signal=uniform_signal) for N in (8, 9, 12)]
    tied = 0
    for g in gaits:
        times = np.concatenate([np.arange(8) / 8.0, rng.uniform(0, 1, size=8)])
        refs = [reference_margin_at(g, float(t)) for t in times]
        for t, ref in zip(times, refs):
            assert margin_at(g, float(t)) == ref, (g.num_blocks, t)
        first = min(range(len(times)), key=lambda i: refs[i][0])
        expected = MarginReport(refs[first][0], float(times[first]), refs[first][1])
        assert check_gait_uniqueness(g, times) == expected, g.num_blocks
        tied += sum(val == refs[first][0] for val, _ in refs) > 1
    assert tied > 0, "no gait has tied minima over time (test vacuous)"


def test_margin_scan_memory_is_bounded():
    # The subset-sum table is built in blocks: an N=12 scan over 2000 times
    # would need 64 MiB for one unblocked table.
    g = random_gait(np.random.default_rng(23), 12, signal=uniform_signal)
    times = np.linspace(0.0, 1.0, 2000)
    tracemalloc.start()
    try:
        check_gait_uniqueness(g, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_margin_enumeration_cap():
    g = constant_gait(N=2)
    object.__setattr__(g, "num_blocks", 17)  # force the guard
    with pytest.raises(EnumerationCapError):
        margin_at(g, 0.0)


# ---------------------------------------------------------------------------
# admissibility

def test_admissible_rest_and_overstretched():
    g = constant_gait(mu_plus=1.0, mu_minus=2.0)
    assert admissible(g, 0.0, np.array([0.0, 0.0]))
    # gap 5 gives force (5, -5), outside [-2, 1]^2
    assert not admissible(g, 0.0, np.array([0.0, 5.0]))


def test_admissible_equals_reduced_membership():
    rng = np.random.default_rng(21)
    g = three_block_gait()
    K = build_moving_set(g)
    agree = 0
    for _ in range(100):
        t = float(rng.uniform(0, 1))
        x = rng.normal(scale=1.5, size=3)
        w = -g.stiffness * pi_z(x)
        assert admissible(g, t, x) == contains(freeze(K, t), w)
        agree += 1
    assert agree == 100


# ---------------------------------------------------------------------------
# reduced simulation

def test_constant_actuation_no_motion():
    g = constant_gait(L=1.0)
    x0 = assemble_positions(0.0, np.array([1.0]))
    run = simulate_reduced(g, x0, 0.0, 4, 100)
    assert np.max(np.abs(run.motion.positions - x0)) <= 1e-14
    vel = estimate_velocity(run.motion)
    assert vel.v0 == 0.0 and vel.converged


def test_reduced_rejects_inadmissible_start():
    g = constant_gait()
    with pytest.raises(InadmissibleStateError):
        simulate_reduced(g, np.array([0.0, 5.0]), 0.0, 3, 100)


def test_reduced_rejects_degenerate_gait():
    g = degenerate_gait()
    x0 = np.array([0.0, 0.0])
    with pytest.raises(DegenerateGaitError):
        simulate_reduced(g, x0, 0.0, 3, 100)


def test_reduced_warns_on_isolated_margin_zeros():
    # mu_1^+ crosses mu_2^- at exactly two grid instants: 2/2000 of the grid
    # is degenerate, below the rejection fraction, so the run warns and goes on
    T = 1.0
    mu1p = PeriodicSignal(T, [(0.0, 1.0), (0.5, 3.0)])
    g = Gait(
        2, T, 1.0,
        (PeriodicSignal.constant(0.0, T),),
        (mu1p, PeriodicSignal.constant(1.0, T)),
        (PeriodicSignal.constant(2.0, T), PeriodicSignal.constant(2.0, T)),
    )
    with pytest.warns(UserWarning, match="margin vanishes"):
        run = simulate_reduced(g, np.array([0.0, 0.0]), 0.0, 3, 2000)
    assert len(run.reduced.states) == 3 * 2000 + 1


def test_two_block_velocity_reference():
    g = two_block_gait()
    run = simulate_reduced(g, np.array([0.0, 0.0]), 0.0, 8, 1000)
    vel = estimate_velocity(run.motion)
    assert vel.converged
    assert vel.v0 == pytest.approx(2.0, abs=0.02)
    assert vel.per_period[-1] == pytest.approx(2.0, abs=0.02)


def test_mirrored_gait_reverses_velocity():
    g = two_block_gait(mirrored=True)
    run = simulate_reduced(g, np.array([0.0, 0.0]), 0.0, 8, 1000)
    vel = estimate_velocity(run.motion)
    assert vel.v0 == pytest.approx(-2.0, abs=0.02)


def test_reduced_states_stay_admissible():
    g = two_block_gait()
    run = simulate_reduced(g, np.array([0.0, 0.0]), 0.0, 4, 400)
    K = run.reduced.problem.moving_set
    from sweeplab.signals import eval_many

    phases = 0.0 + run.reduced.h * np.arange(400)
    offsets = np.column_stack([eval_many(s, phases) for s in K.offsets])
    for k in range(1, len(run.reduced.states)):
        resid = offsets[k % 400] - K.normals @ run.reduced.states[k]
        assert np.min(resid) >= -10 * TOL


def test_single_block_slip_advances_mean_by_half_gap_change():
    # during steps where only the block-2 forward constraint is active,
    # dy = dz/2 for two blocks
    g = two_block_gait()
    run = simulate_reduced(g, np.array([0.0, 0.0]), 0.0, 2, 200)
    eta = run.reduced.multipliers
    y = run.motion.mean_positions
    z = run.motion.gaps[:, 0]
    hits = 0
    for k in range(len(eta)):
        support = np.flatnonzero(eta[k] > 1e-12)
        if list(support) == [1]:   # block-2 forward slip only
            dy = y[k + 1] - y[k]
            dz = z[k + 1] - z[k]
            assert dy == pytest.approx(dz / 2.0, abs=1e-12)
            assert dz > 0
            hits += 1
    assert hits > 10


def test_velocity_independent_of_start():
    g = two_block_gait()
    rng = np.random.default_rng(2)
    v0s = []
    M = 500
    for _ in range(5):
        w0 = rng.uniform(-1.0, 1.0)
        x0 = assemble_positions(0.0, np.array([-w0 / g.stiffness]))
        run = simulate_reduced(g, x0, 0.0, 6, M)
        v0s.append(estimate_velocity(run.motion).v0)
    assert max(v0s) - min(v0s) <= 1e-6 + 10.0 / M


def test_recover_translation_homogeneity():
    rng = np.random.default_rng(8)
    eta = rng.uniform(0, 2, size=6)
    base = recover_translation(eta, 1.5, 3)
    for c in (0.0, 0.25, 2.0, 10.0):
        assert recover_translation(c * eta, 1.5, 3) == pytest.approx(c * base, abs=1e-14)


# ---------------------------------------------------------------------------
# incremental oracle

def test_oracle_stick_below_threshold():
    # small actuation: forces stay inside the friction bounds, nothing moves
    T = 1.0
    g = Gait(
        num_blocks=2,
        period=T,
        stiffness=1.0,
        rest_lengths=(triangle_wave(T, 0.5),),
        mu_plus=(PeriodicSignal.constant(1.0, T),) * 2,
        mu_minus=(PeriodicSignal.constant(2.0, T),) * 2,
    )
    x0 = np.array([0.0, 0.0])
    run = incremental_oracle(g, x0, 0.0, 2, 100)
    assert np.max(np.abs(run.motion.positions - x0)) <= 1e-14
    assert np.all(run.patterns == 0)


def test_oracle_trajectory_admissible_each_step():
    g = two_block_gait()
    run = incremental_oracle(g, np.array([0.0, 0.0]), 0.0, 3, 300)
    h = g.period / 300
    for k in range(1, len(run.motion.positions)):
        assert admissible(g, k * h, run.motion.positions[k])


def test_oracle_matches_reduced_pipeline():
    g = two_block_gait()
    x0 = np.array([0.0, 0.0])
    run = simulate_reduced(g, x0, 0.0, 5, 2000)
    oracle = incremental_oracle(g, x0, 0.0, 5, 2000)
    gap = np.max(np.abs(run.motion.positions - oracle.motion.positions))
    assert gap <= 0.01


def test_oracle_three_blocks_matches_reduced():
    g = three_block_gait()
    x0 = assemble_positions(0.0, np.array([0.0, 0.0]))
    run = simulate_reduced(g, x0, 0.0, 3, 400)
    oracle = incremental_oracle(g, x0, 0.0, 3, 400)
    gap = np.max(np.abs(run.motion.positions - oracle.motion.positions))
    assert gap <= 0.01


def test_oracle_four_blocks_matches_reduced():
    from helpers import random_gait_with_margin

    rng = np.random.default_rng(4242)
    g = random_gait_with_margin(rng, 4, 0.1)
    x0 = assemble_positions(0.0, np.array([eval_signal(s, 0.0) for s in g.rest_lengths]))
    run = simulate_reduced(g, x0, 0.0, 3, 400)
    oracle = incremental_oracle(g, x0, 0.0, 3, 400)
    gap = np.max(np.abs(run.motion.positions - oracle.motion.positions))
    assert gap <= 0.01


def test_oracle_error_names_step_and_time(monkeypatch):
    # At rest, step 0 starts in the all-stick block. The first block is cut
    # after steps 0, 1 and 2 with a violation of 1, and every scalar try
    # fails by 2, so step 3 (landing at t = 4h) is the first to fail and the
    # block's pattern, with the block's violation, is the nearest miss.
    real_block = sweeplab.crawler._pattern_block

    def failing_try_pattern(x, *args):
        return x, 2.0

    def short_block(*args):
        rows, violation = real_block(*args)
        assert len(rows) > 3 and violation is None
        return rows[:3], 1.0

    monkeypatch.setattr(sweeplab.crawler, "_try_pattern", failing_try_pattern)
    monkeypatch.setattr(sweeplab.crawler, "_pattern_block", short_block)
    with pytest.raises(
        PatternSearchError,
        match=r"^step 3, t=0\.040000000000000001: no consistent slip pattern; "
        r"nearest miss \(0, 0\) violates by 1\.000e\+00$",
    ):
        incremental_oracle(constant_gait(), np.zeros(2), 0.0, 2, 100)


def _rest_start(g):
    return assemble_positions(0.0, rest_length_values(g, 0.0))


# The benchmark's gait_wide workload: its gaits, and the start sampler it uses.
_WORKLOADS = load_perfbench("workloads")
_SL = SimpleNamespace(signals=sweeplab.signals, crawler=sweeplab.crawler, polyhedra=sweeplab.polyhedra)


@pytest.mark.parametrize("gait", [two_block_gait(), two_block_gait(mirrored=True), three_block_gait()],
                         ids=["crawler2", "crawler2-mirror", "crawler3"])
def test_oracle_bit_equal_to_reference(gait):
    x0 = _rest_start(gait)
    run = incremental_oracle(gait, x0, 0.0, 10, 1000)
    positions, patterns = reference_oracle(gait, x0, 0.0, 10, 1000)
    assert run.motion.positions.tobytes() == positions.tobytes()
    np.testing.assert_array_equal(run.patterns, patterns)


def test_oracle_matches_reference_on_random_gaits():
    # The criterion-05 gaits: random lattice gaits with a margin that slip from rest.
    rng = np.random.default_rng(555)
    for N in (2, 3, 3):
        g = random_gait_with_margin(rng, N, 0.1)
        while not gait_slips_from_rest(g):
            g = random_gait_with_margin(rng, N, 0.1)
        x0 = _rest_start(g)
        run = incremental_oracle(g, x0, 0.0, 5, 1000)
        positions, patterns = reference_oracle(g, x0, 0.0, 5, 1000)
        assert np.any(patterns != 0)
        np.testing.assert_allclose(run.motion.positions, positions, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(run.patterns, patterns)


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_oracle_matches_reference_on_peristaltic_gaits(seed):
    # Starts drawn as the gait_wide workload draws them for this seed.
    wide = _WORKLOADS.GaitWide
    rng = np.random.default_rng(seed)
    for N, count in wide.STARTS.items():
        g = _WORKLOADS.peristaltic_gait(_SL, N)
        K = build_moving_set(g)
        for _ in range(count):
            x0 = assemble_positions(0.0, -_WORKLOADS._admissible_point(_SL, K, rng) / g.stiffness)
            run = incremental_oracle(g, x0, 0.0, wide.PERIODS, wide.STEPS)
            positions, patterns = reference_oracle(g, x0, 0.0, wide.PERIODS, wide.STEPS)
            np.testing.assert_allclose(run.motion.positions, positions, rtol=0, atol=1e-14)
            np.testing.assert_array_equal(run.patterns, patterns)


@pytest.mark.parametrize("gait,M", [(three_block_gait(), 400), (_WORKLOADS.peristaltic_gait(_SL, 7), 240)],
                         ids=["crawler3", "peristaltic7"])
def test_pattern_block_rows_and_cut_match_single_steps(gait, M):
    # Each block row is bit-equal to the single-step solution from the row
    # before it, and the violation at the cut is the one _try_pattern reports.
    cr = sweeplab.crawler
    N = gait.num_blocks
    positions, patterns = reference_oracle(gait, _rest_start(gait), 0.0, 2, M)
    PZ = cr.shape_matrix(N)
    ell, mup, mum = (np.array([[eval_signal(s, k / M) for s in sigs] for k in range(M)])
                     for sigs in (gait.rest_lengths, gait.mu_plus, gait.mu_minus))
    b = np.array([gait.stiffness * (PZ.T @ row) for row in ell])
    table = cr._PatternTable(gait.stiffness * (PZ.T @ PZ))
    fixed = [(0,) * N, (1,) + (0,) * (N - 1), (0,) * (N - 2) + (-1, 1)]
    slip_rows = cuts = 0
    for k in range(0, M, 7):
        ph = (k + 1) % M
        x = positions[k]
        for pat in dict.fromkeys([tuple(int(s) for s in patterns[k]), *fixed]):
            system = table[pat]
            rows, violation = cr._pattern_block(x, system, b[ph:], mup[ph:], mum[ph:])
            prev = x
            for r, row in enumerate(rows):
                single, v = cr._try_pattern(prev, b[ph + r], mup[ph + r], mum[ph + r], system)
                assert single.tobytes() == row.tobytes() and v <= TOL
                prev = row
            slip_rows += len(rows) if len(system.slips) else 0
            if violation is not None:
                cuts += 1
                r = ph + len(rows)
                assert cr._try_pattern(prev, b[r], mup[r], mum[r], system)[1] == violation > TOL
    assert slip_rows > 20 and cuts > 0


def test_pattern_list_leaves_out_all_slip():
    for N in range(2, 6):
        pats = sweeplab.crawler._pattern_list(N)
        assert len(set(pats)) == len(pats) == 3**N - 2**N
        assert all(0 in p for p in pats)
        assert pats[0] == (0,) * N


def test_oracle_searches_only_at_block_cuts(monkeypatch):
    # Step 0 starts in a block, and every search follows a block that was cut.
    cr = sweeplab.crawler
    real_block, real_step = cr._pattern_block, cr._oracle_step
    calls = []

    def block(*args):
        rows, violation = real_block(*args)
        calls.append(("block", violation is not None))
        return rows, violation

    def search(*args):
        calls.append(("search", None))
        return real_step(*args)

    monkeypatch.setattr(cr, "_pattern_block", block)
    monkeypatch.setattr(cr, "_oracle_step", search)
    gait = three_block_gait()
    incremental_oracle(gait, _rest_start(gait), 0.0, 2, 200)
    assert calls[0][0] == "block"
    searches = [i for i, (kind, _) in enumerate(calls) if kind == "search"]
    assert searches and all(calls[i - 1] == ("block", True) for i in searches)


# Random lattice gaits whose uniqueness margin vanishes on the 200-step grid.
_ZERO_MARGIN_GAITS = [random_gait(np.random.default_rng(0), N) for N in (2, 3, 4, 5)]


@pytest.mark.parametrize(
    "gait,periods,M",
    [(degenerate_gait(), 10, 1000)] + [(g, 3, 200) for g in _ZERO_MARGIN_GAITS],
    ids=["crawler2-degenerate"] + [f"random-N{g.num_blocks}" for g in _ZERO_MARGIN_GAITS],
)
def test_oracle_bit_equal_to_reference_where_margin_vanishes(gait, periods, M):
    # At a grid phase with zero margin, some all-slip force balance is
    # consistent. The oracle leaves the all-slip patterns out; the reference
    # enumerates all 3^N, and the two must still agree bit for bit.
    assert gait_margin_floor(gait) == 0
    assert min(reference_margin_at(gait, gait.period * k / M)[0] for k in range(M)) == 0
    x0 = _rest_start(gait)
    run = incremental_oracle(gait, x0, 0.0, periods, M)
    positions, patterns = reference_oracle(gait, x0, 0.0, periods, M)
    assert np.any(patterns != 0)
    assert run.motion.positions.tobytes() == positions.tobytes()
    np.testing.assert_array_equal(run.patterns, patterns)


def test_oracle_block_cap():
    g = constant_gait(N=9)
    x0 = np.zeros(9)
    with pytest.raises(EnumerationCapError):
        incremental_oracle(g, x0, 0.0, 2, 10)


# ---------------------------------------------------------------------------
# running-periodic decomposition

def test_decomposition_constant_gait():
    g = constant_gait(L=1.0)
    x0 = assemble_positions(0.0, np.array([1.0]))
    run = simulate_reduced(g, x0, 0.0, 4, 100)
    dec = running_periodic_decomposition(run.motion)
    assert dec.v_bar0 == 0.0
    assert dec.residual <= 1e-12
    assert np.max(np.abs(dec.p_window - dec.p_window[0])) <= 1e-12


def test_decomposition_two_block_reference():
    g = two_block_gait()
    run = simulate_reduced(g, np.array([0.0, 0.0]), 0.0, 10, 500)
    dec = running_periodic_decomposition(run.motion)
    assert dec.converged
    assert dec.residual < 1e-3
    np.testing.assert_allclose(dec.x_bar0, [0.0, 0.0], atol=1e-12)


def test_decomposition_invariant_under_period_shift():
    g = two_block_gait()
    run0 = simulate_reduced(g, np.array([0.0, 0.0]), 0.0, 8, 500)
    run1 = simulate_reduced(g, np.array([0.0, 0.0]), g.period, 8, 500)
    d0 = running_periodic_decomposition(run0.motion)
    d1 = running_periodic_decomposition(run1.motion)
    assert d1.v_bar0 == pytest.approx(d0.v_bar0, abs=1e-9)
    np.testing.assert_allclose(
        np.diff(d1.p_window, axis=0), np.diff(d0.p_window, axis=0), atol=1e-9
    )


def test_decomposition_warns_when_not_converged():
    # From rest the first period carries the transient: the per-period
    # displacements 2.5, 2, 2 spread by far more than VELOCITY_TOL.
    g = two_block_gait()
    motion = simulate_reduced(g, np.array([0.0, 0.0]), 0.0, 3, 100).motion
    assert not estimate_velocity(motion).converged
    with pytest.warns(UserWarning):
        dec = running_periodic_decomposition(motion)
    assert not dec.converged


# ---------------------------------------------------------------------------
# gait validation and serialization

def test_gait_json_round_trip():
    g = three_block_gait()
    back = Gait.from_json(g.to_json())
    assert back.num_blocks == g.num_blocks
    assert back.period == g.period
    for a, b in zip(back.rest_lengths, g.rest_lengths):
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.values, b.values)


def test_gait_validation_errors():
    T = 1.0
    mu = (PeriodicSignal.constant(1.0, T),) * 2
    with pytest.raises(ValueError):
        Gait(1, T, 1.0, (), mu[:1], mu[:1])
    with pytest.raises(ValueError):
        Gait(2, T, 0.0, (PeriodicSignal.constant(0.0, T),), mu, mu)
    bad_mu = (PeriodicSignal.constant(0.0, T), PeriodicSignal.constant(1.0, T))
    with pytest.raises(ValueError):
        Gait(2, T, 1.0, (PeriodicSignal.constant(0.0, T),), bad_mu, mu)
    pc = (PeriodicSignal(T, [(0.0, 1.0)], kind="pc"), PeriodicSignal.constant(1.0, T))
    with pytest.raises(ValueError):
        Gait(2, T, 1.0, (PeriodicSignal.constant(0.0, T),), pc, mu)