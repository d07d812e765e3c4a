import dataclasses
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import sweeplab.crawler
import sweeplab.polyhedra
import sweeplab.signals
from helpers import (
    build_force_polyhedron,
    canonical_patterns,
    central_difference_gradient,
    dissipation,
    energy,
    load_perfbench,
    lu_solve,
    gait_margin_floor,
    gait_slips_from_rest,
    oracle_kkt_violations,
    peristaltic_starts,
    perturbed_peristaltic_gait,
    random_gait,
    random_gait_with_margin,
    reference_chain_minimizers,
    reference_margin_at,
    reference_oracle,
    uniform_signal,
)
from sweeplab.crawler import (
    Gait,
    MarginReport,
    admissible,
    assemble_positions,
    build_moving_set,
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
    _period_margin,
)
from sweeplab.errors import (
    DegenerateGaitError,
    EnumerationCapError,
    GridAlignmentError,
    InadmissibleStateError,
    PatternSearchError,
)
from sweeplab.polyhedra import (
    DEFAULT_TOL,
    MovingPolyhedron,
    check_licq,
    contains,
    freeze,
    positively_spanning,
)
from sweeplab.scenarios import catalog, degenerate_gait, three_block_gait, two_block_gait
from sweeplab.signals import PeriodicSignal, eval_many, eval_signal, triangle_wave

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
    report = _period_margin(two_block_gait())
    assert report.min_margin == pytest.approx(1.0)
    assert report.worst_subset in ((0,), (1,))


def test_margin_symmetric_gait_is_zero():
    assert _period_margin(degenerate_gait()).min_margin == 0.0


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


def _threshold_breakpoints(g):
    """The times that _period_margin scans: t = 0 and the breakpoints of mu^+-."""
    return np.unique(np.concatenate([[0.0], *(s.times for s in g.mu_plus + g.mu_minus)]))


def _away_from_zero(g):
    """g with each threshold mu made 1 + mu/64 (forward) or 9/8 + mu/64
    (backward). A signed sum over |J| = j blocks is then j - 9/8 (N - j)
    within N/32, so for N <= 12 no sum vanishes or changes sign."""
    mup, mum = (tuple(PeriodicSignal(g.period, zip(s.times, base + s.values / 64)) for s in mu)
                for base, mu in ((1.0, g.mu_plus), (1.125, g.mu_minus)))
    return dataclasses.replace(g, mu_plus=mup, mu_minus=mum)


def test_margin_matches_subset_loop_reference():
    # Exact equality of the value and the first minimizing subset, including
    # the exact ties that lattice-valued thresholds produce; uniform thresholds
    # at N >= 8 show any change in the order of summation. Where no signed sum
    # vanishes or changes sign, the period scan reports the first minimum over
    # its breakpoints, also when several breakpoints tie.
    rng = np.random.default_rng(17)
    gaits = [random_gait(rng, N) for N in range(2, 9) for _ in range(3)] + [degenerate_gait()]
    gaits += [random_gait(rng, N, signal=uniform_signal) for N in (8, 9, 12)]
    tied = 0
    for g in gaits:
        for t in np.concatenate([np.arange(8) / 8.0, rng.uniform(0, 1, size=8)]):
            assert margin_at(g, float(t)) == reference_margin_at(g, float(t)), (g.num_blocks, t)
        g = _away_from_zero(g)
        times = _threshold_breakpoints(g)
        refs = [reference_margin_at(g, float(t)) for t in times]
        first = min(range(len(times)), key=lambda i: refs[i][0])
        expected = MarginReport(refs[first][0], float(times[first]), refs[first][1])
        assert _period_margin(g) == expected, g.num_blocks
        tied += sum(val == refs[first][0] for val, _ in refs) > 1
    assert gait_margin_floor(g) > 0   # the N = 12 gait: no sum changes sign
    assert tied > 0, "no gait has tied minima over time (test vacuous)"


def test_period_margin_keeps_the_first_minimum_in_bitmask_order_then_in_time():
    # mu^- = 3 and mu_1^+ = mu_2^+ fall from 4 to 3.5 at t = 0.25 and 0.75:
    # the margin 0.5 is reached there by the subsets {0} and {1} alike.
    T = 1.0
    mu = PeriodicSignal(T, [(0.0, 4.0), (0.25, 3.5), (0.5, 4.0), (0.75, 3.5)])
    g = dataclasses.replace(
        two_block_gait(), mu_plus=(mu, mu), mu_minus=(PeriodicSignal.constant(3.0, T),) * 2
    )
    assert [margin_at(g, t) for t in (0.25, 0.75)] == [(0.5, (0,))] * 2
    assert _period_margin(g) == MarginReport(0.5, 0.25, (0,))


def _many_breakpoint_gait(shifts, which):
    """A 12-block gait whose thresholds at breakpoint k of K = len(which) are
    vectors[which[k]]: two random vectors near mu^+ = 1, mu^- = 1.5, then
    vector 0 with mu^+ raised and mu^- lowered by each of shifts.

    Near the base, a signed sum over |J| = j blocks is j - 1.5 (12 - j)
    within 0.12: none vanishes, and those with j = 7 are the least, near
    -0.5. A shift s moves them by 12 s toward 0 and beyond.
    """
    N, K, T = 12, len(which), 1.0
    rng = np.random.default_rng(23)
    vectors = np.repeat([1.0, 1.5], N) + rng.uniform(-0.01, 0.01, size=(2, 2 * N))
    vectors = np.vstack([vectors, *(vectors[0] + np.repeat([s, -s], N) for s in shifts)])
    times = np.arange(K) * (T / K)
    mu = [PeriodicSignal(T, zip(times, vectors[which, j])) for j in range(2 * N)]
    g = Gait(N, T, 1.0, (PeriodicSignal.constant(1.0, T),) * (N - 1), tuple(mu[:N]), tuple(mu[N:]))
    assert np.array_equal(_threshold_breakpoints(g), times)
    assert K > sweeplab.crawler._MARGIN_BLOCK_SUMS >> N   # several blocks
    return g, times


def test_margin_scan_memory_is_bounded():
    # An N=12 table over 2000 breakpoints would take 64 MiB unblocked; the scan
    # builds blocks of 256 times that share one time. Vector 2 brings every
    # j = 7 sum 0.24 nearer 0, and no sum changes sign: the least margin, first
    # reached at breakpoint 1001, in the fourth block, and again in later ones.
    K = 2000
    which = [k % 2 if k < K // 2 else k % 3 for k in range(K)]
    g, times = _many_breakpoint_gait([0.02], which)
    tracemalloc.start()
    try:
        report = _period_margin(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    # The loop over the breakpoints runs the reference once per vector, at its
    # first breakpoint, as the thresholds repeat there exactly.
    refs = {}
    for k, t in enumerate(times):
        if which[k] not in refs:
            refs[which[k]] = reference_margin_at(g, float(t))
    first = min(range(K), key=lambda k: refs[which[k]][0])
    assert first == K // 2 + 1 and refs[2][0] > 0
    assert report == MarginReport(refs[2][0], float(times[first]), refs[2][1])
    assert margin_at(g, float(times[-2])) == refs[which[-2]]


def test_period_margin_reports_the_first_sign_change_across_blocks():
    # Vector 2 turns every j = 7 sum positive, at breakpoints 256 and 1500.
    # The pieces on either side of each change sign. The first, from 255 to
    # 256, begins at the last time of the first block of 256 times, so only
    # the time that blocks share puts it in one block.
    which = [2 if k in (256, 1500) else k % 2 for k in range(2000)]
    g, times = _many_breakpoint_gait([0.1], which)
    report = _period_margin(g)
    assert report.min_margin == 0.0 and times[255] < report.worst_time < times[256]
    assert len(report.worst_subset) == 7


def test_period_margin_equals_the_eighth_point_floor():
    # Lattice thresholds on the period/8 grid sum exactly, so the exact
    # margin over the period equals gait_margin_floor's, zeros included.
    rng = np.random.default_rng(29)
    zero = 0
    for N in range(2, 7):
        for _ in range(6):
            g = random_gait(rng, N)
            report = _period_margin(g)
            assert report.min_margin == gait_margin_floor(g), N
            assert margin_at(g, report.worst_time)[0] <= TOL + report.min_margin
            zero += report.min_margin == 0
    assert zero > 0, "no draw has a vanishing margin (test vacuous)"


def test_period_margin_finds_a_zero_between_breakpoints():
    # mu1^+ - mu2^- is 1 + 4t - 2.0123 on [0, 0.5]: zero at 0.253075, while
    # the scan at t = 0 and t = 0.5 sees margins 1.0123 and 0.9877 only.
    report = _period_margin(_sign_change_gait([(0.0, 1.0), (0.5, 3.0)]))
    assert report == MarginReport(0.0, report.worst_time, (0,))
    assert report.worst_time == pytest.approx(0.253075, abs=1e-12)
    # t = 0 is no breakpoint: mu1^+ is 2.0 there, on its way from 1 at 0.75
    # to 3 at 1.25, so the first zero is at 0.25 * 0.0123 / 1.0.
    report = _period_margin(_sign_change_gait([(0.25, 3.0), (0.75, 1.0)]))
    assert report == MarginReport(0.0, report.worst_time, (0,))
    assert report.worst_time == pytest.approx(0.003075, abs=1e-12)


def test_period_margin_keeps_an_earlier_zero_at_a_breakpoint():
    # mu1^+ - mu2^- is exactly 0 at the breakpoint 0.25, before it changes
    # sign inside (0.5, 0.75): the scan's report stands.
    report = _period_margin(_sign_change_gait([(0.25, 2.0123), (0.5, 1.0), (0.75, 3.0)]))
    assert report == MarginReport(0.0, 0.25, (0,))


def test_period_margin_finds_a_zero_where_a_sum_falls():
    # mu1^+ - mu2^- is 0.9877 - 4t on [0, 0.5]: it falls through 0 at
    # 0.246925, and rises back only on the piece that wraps around.
    report = _period_margin(_sign_change_gait([(0.0, 3.0), (0.5, 1.0)]))
    assert report == MarginReport(0.0, report.worst_time, (0,))
    assert report.worst_time == pytest.approx(0.246925, abs=1e-12)


def _sign_change_gait(mu1_plus):
    T = 1.0
    return dataclasses.replace(
        two_block_gait(),
        mu_plus=(PeriodicSignal(T, mu1_plus), PeriodicSignal.constant(5.0, T)),
        mu_minus=(PeriodicSignal.constant(3.0, T), PeriodicSignal.constant(2.0123, T)),
    )


def test_margin_enumeration_cap():
    g = constant_gait(N=2)
    object.__setattr__(g, "num_blocks", 17)  # force the guard
    with pytest.raises(EnumerationCapError):
        margin_at(g, 0.0)


def _no_sums(monkeypatch):
    def signed_sums(*args, **kwargs):
        raise AssertionError("a sum was built")

    monkeypatch.setattr(sweeplab.crawler, "_signed_sums", signed_sums)


def test_margin_at_refuses_a_nan_time(monkeypatch):
    _no_sums(monkeypatch)
    with pytest.raises(ValueError, match="^time nan is not finite$"):
        margin_at(two_block_gait(), float("nan"))


def test_margin_at_refuses_an_infinite_time(monkeypatch):
    # Without the check, inf % T warned "invalid value encountered in
    # remainder" (an error under this suite's filters) and still gave a margin.
    _no_sums(monkeypatch)
    with pytest.raises(ValueError, match="^time inf is not finite$"):
        margin_at(two_block_gait(), float("inf"))


# ---------------------------------------------------------------------------
# admissibility

def test_admissible_rest_and_overstretched():
    g = constant_gait(mu_plus=1.0, mu_minus=2.0)
    assert admissible(g, 0.0, np.array([0.0, 0.0]))
    # gap 5 gives force (5, -5), outside [-2, 1]^2
    assert not admissible(g, 0.0, np.array([0.0, 5.0]))


def test_admissible_allows_a_backward_force_up_to_the_tolerance():
    # Gap 2 + eps over rest length 1 gives block 1 the force -1 - eps against
    # its backward bound mu^- = 1. TOL = 1e-9 lies between 2^-30 and 2^-29.
    signals = lambda *vs: tuple(PeriodicSignal.constant(v, 1.0) for v in vs)
    g = Gait(2, 1.0, 1.0, signals(1.0), mu_plus=signals(2.0, 2.0), mu_minus=signals(1.0, 1.0))
    inside, outside = np.array([0.0, 2.0 + 2.0**-31]), np.array([0.0, 2.0 + 2.0**-29])
    assert -energy_gradient(g, 0.0, inside)[1] == -1.0 - 2.0**-31
    assert admissible(g, 0.0, inside)
    assert not admissible(g, 0.0, outside)
    with pytest.raises(InadmissibleStateError):
        simulate_reduced(g, outside, 0.0, 1, 4)


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


@pytest.mark.parametrize("runner", [simulate_reduced, incremental_oracle],
                         ids=["simulate_reduced", "incremental_oracle"])
@pytest.mark.parametrize("x0", [[np.nan, 0.0], [np.inf, np.inf]], ids=["nan", "inf"])
def test_runners_reject_a_non_finite_start(runner, x0):
    # Checked before admissibility, which would read nan as a force-bound
    # violation and warn on inf - inf.
    with pytest.raises(ValueError, match=r"^initial state \[.*\] is not finite$"):
        runner(two_block_gait(), np.array(x0), 0.0, 3, 100)


@pytest.mark.parametrize("runner", [simulate_reduced, incremental_oracle],
                         ids=["simulate_reduced", "incremental_oracle"])
def test_runners_reject_a_start_of_the_wrong_dimension(runner):
    with pytest.raises(ValueError, match=r"^initial state has dimension \(3,\), expected \(2,\)$"):
        runner(two_block_gait(), np.zeros(3), 0.0, 3, 100)


def test_estimate_velocity_needs_three_periods():
    g = two_block_gait()
    run = simulate_reduced(g, _rest_start(g), 0.0, 2, 100)
    with pytest.raises(ValueError, match="^need at least 3 periods to estimate the velocity$"):
        estimate_velocity(run.motion)


def test_reduced_rejects_degenerate_gait():
    g = degenerate_gait()
    x0 = np.array([0.0, 0.0])
    with pytest.raises(DegenerateGaitError):
        simulate_reduced(g, x0, 0.0, 3, 100)


@pytest.mark.parametrize("t0", [0.0, 0.1])
@pytest.mark.parametrize("M", [200, 2000])
def test_reduced_rejects_isolated_margin_zeros(M, t0):
    # mu_1^+ crosses mu_2^- at t = 0.25 and 0.75 only: any zero of the margin
    # rejects the gait, whatever the grid and wherever it starts
    T = 1.0
    mu1p = PeriodicSignal(T, [(0.0, 1.0), (0.5, 3.0)])
    g = Gait(
        2, T, 1.0,
        (PeriodicSignal.constant(0.0, T),),
        (mu1p, PeriodicSignal.constant(1.0, T)),
        (PeriodicSignal.constant(2.0, T), PeriodicSignal.constant(2.0, T)),
    )
    with pytest.raises(DegenerateGaitError, match=r"t=0\.25: .* \[0\]"):
        simulate_reduced(g, np.array([0.0, 0.0]), t0, 3, M)


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
    z = np.diff(run.motion.positions, axis=1)[:, 0]
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
    # At rest, step 0 starts in the all-stick block. The kernel's first call
    # keeps steps 0, 1 and 2 and misses by 1 at step 3, and every try of the
    # search there fails its first step by 2, so step 3 (landing at t = 4h) is
    # the first to fail and the block's pattern, with the block's miss, is the
    # nearest miss.
    real_try = sweeplab.crawler._try_pattern
    calls = []

    def try_pattern(*args):
        rows, n, miss = real_try(*args)
        calls.append(None)
        if len(calls) == 1:
            assert n > 3 and miss is None
            return rows, 3, 1.0
        return rows, 0, 2.0

    monkeypatch.setattr(sweeplab.crawler, "_try_pattern", try_pattern)
    with pytest.raises(
        PatternSearchError,
        match=r"^step 3, t=0\.040000000000000001: no consistent slip pattern; "
        r"nearest miss \(0, 0\) violates by 1\.000e\+00$",
    ):
        incremental_oracle(constant_gait(), np.zeros(2), 0.0, 2, 100)


def _rest_start(g):
    return assemble_positions(0.0, rest_length_values(g, 0.0))


def _assert_patterns_match_reference(run, positions, chosen):
    # The oracle reports canonical patterns; the reference records the
    # patterns it accepted, which may call a block slipping that did not move.
    canonical = canonical_patterns(positions)
    np.testing.assert_array_equal(run.patterns, canonical)
    assert np.all(np.abs(np.diff(positions, axis=0))[chosen != canonical] <= TOL)


# The benchmark's gait_wide workload and its gaits.
_WORKLOADS = load_perfbench("workloads")
_SL = SimpleNamespace(signals=sweeplab.signals, crawler=sweeplab.crawler, polyhedra=sweeplab.polyhedra)


@pytest.mark.parametrize("gait", [two_block_gait(), two_block_gait(mirrored=True), three_block_gait()],
                         ids=["crawler2", "crawler2-mirror", "crawler3"])
def test_oracle_bit_equal_to_reference(gait):
    x0 = _rest_start(gait)
    run = incremental_oracle(gait, x0, 0.0, 10, 1000)
    positions, patterns = reference_oracle(gait, x0, 0.0, 10, 1000)
    assert run.motion.positions.tobytes() == positions.tobytes()
    _assert_patterns_match_reference(run, positions, patterns)


def _criterion_05_random_gaits():
    # Random lattice gaits with a margin that slip from rest, drawn as criterion 05 draws them.
    rng = np.random.default_rng(555)
    gaits = []
    for N in (2, 3, 3):
        g = random_gait_with_margin(rng, N, 0.1)
        while not gait_slips_from_rest(g):
            g = random_gait_with_margin(rng, N, 0.1)
        gaits.append(g)
    return gaits


def test_oracle_matches_reference_on_random_gaits():
    for g in _criterion_05_random_gaits():
        x0 = _rest_start(g)
        run = incremental_oracle(g, x0, 0.0, 5, 1000)
        positions, patterns = reference_oracle(g, x0, 0.0, 5, 1000)
        assert np.any(patterns != 0)
        np.testing.assert_allclose(run.motion.positions, positions, rtol=0, atol=1e-14)
        _assert_patterns_match_reference(run, positions, patterns)


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_oracle_matches_reference_on_peristaltic_gaits(seed):
    wide = _WORKLOADS.GaitWide
    for g, x0 in peristaltic_starts(seed):
        run = incremental_oracle(g, x0, 0.0, wide.PERIODS, wide.STEPS)
        positions, patterns = reference_oracle(g, x0, 0.0, wide.PERIODS, wide.STEPS)
        np.testing.assert_allclose(run.motion.positions, positions, rtol=0, atol=1e-14)
        _assert_patterns_match_reference(run, positions, patterns)


def _canonical_pattern_runs(case):
    """(gait, x0, periods, M) of the runs whose canonical patterns are checked."""
    if case.startswith("peristaltic"):
        wide = _WORKLOADS.GaitWide
        return [(g, x0, wide.PERIODS, wide.STEPS) for g, x0 in peristaltic_starts(int(case[-3:]))]
    if case == "criterion05":
        return [(g, _rest_start(g), 5, 2000) for g in [two_block_gait(), *_criterion_05_random_gaits()]]
    gait = {"crawler2": two_block_gait(), "crawler2-mirror": two_block_gait(mirrored=True),
            "crawler3": three_block_gait()}[case]
    return [(gait, _rest_start(gait), 10, 1000)]


@pytest.mark.parametrize("case", ["crawler2", "crawler2-mirror", "crawler3", "peristaltic-101",
                                  "peristaltic-102", "peristaltic-103", "criterion05"])
def test_canonical_patterns_are_kkt_patterns_shared_by_both_solvers(case):
    # Every canonical row passes the oracle's own KKT test from the row before
    # and lands on the next row; none is all-slip; and the reduced pipeline's
    # motion has the same canonical patterns.
    cr = sweeplab.crawler
    for gait, x0, periods, M in _canonical_pattern_runs(case):
        oracle = incremental_oracle(gait, x0, 0.0, periods, M)
        reduced = simulate_reduced(gait, x0, 0.0, periods, M)
        pats, xs = oracle.patterns, oracle.motion.positions
        N = gait.num_blocks
        assert pats.dtype == np.int8 and pats.shape == (periods * M, N)
        assert np.any(pats != 0) and not np.any(np.all(pats != 0, axis=1))
        np.testing.assert_array_equal(canonical_patterns(reduced.motion.positions), pats)
        PZ = cr.shape_matrix(N)
        ts = gait.period * np.arange(M) / M
        ell, mup, mum = (np.column_stack([eval_many(s, ts) for s in sigs])
                         for sigs in (gait.rest_lengths, gait.mu_plus, gait.mu_minus))
        b = gait.stiffness * ell @ PZ
        table = cr._PatternTable(gait.stiffness * (PZ.T @ PZ))
        for k, pat in enumerate(pats.tolist()):
            step = slice((k + 1) % M, (k + 1) % M + 1)
            rows, n, miss = cr._try_pattern(xs[k], b[step], mup[step], mum[step], table[tuple(pat)])
            assert n == 1 and miss is None
            assert np.max(np.abs(rows[0] - xs[k + 1])) <= 1e-14


def test_oracle_rejects_breakpoints_off_its_grid():
    sc = catalog()["crawler2"]
    for run in (simulate_reduced, incremental_oracle):
        with pytest.raises(GridAlignmentError, match="is not on the grid"):
            run(sc.gait, sc.initial_state, 0.0005, 3, 100)


@pytest.mark.parametrize("field,i", [("rest_lengths", 0), ("mu_plus", 1), ("mu_minus", 0)])
def test_oracle_names_the_list_of_an_off_grid_breakpoint(field, i):
    # One signal of one list gets a breakpoint at T/3, off the grid of 100 steps.
    sc = catalog()["crawler2"]
    g = sc.gait
    sigs = list(getattr(g, field))
    value = float(sigs[i].values[0])
    sigs[i] = PeriodicSignal(g.period, [(0.0, value), (g.period / 3, value)])
    gait = dataclasses.replace(g, **{field: tuple(sigs)})
    with pytest.raises(GridAlignmentError, match=rf"^{field}\[{i}\] breakpoint t=\S+ is not on the grid"):
        incremental_oracle(gait, sc.initial_state, 0.0, 3, 100)


@pytest.mark.parametrize("gait,M", [(three_block_gait(), 400), (_WORKLOADS.peristaltic_gait(_SL, 7), 240)],
                         ids=["crawler3", "peristaltic7"])
def test_pattern_block_rows_and_cut_match_single_steps(gait, M):
    # Each passing row of a block is bit-equal to the one-step solution from
    # the row before it, and the block's miss is the one-step miss there.
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
            rows, n, miss = cr._try_pattern(x, b[ph:], mup[ph:], mum[ph:], system)
            prev = x
            for r, row in enumerate(rows[:n]):
                step = slice(ph + r, ph + r + 1)
                single, one, v = cr._try_pattern(prev, b[step], mup[step], mum[step], system)
                assert single[0].tobytes() == row.tobytes() and one == 1 and v is None
                prev = row
            slip_rows += n if len(system.slips) else 0
            if miss is not None:
                cuts += 1
                step = slice(ph + n, ph + n + 1)
                assert cr._try_pattern(prev, b[step], mup[step], mum[step], system)[1:] == (0, miss)
                assert miss > TOL
    assert slip_rows > 20 and cuts > 0


def test_oracle_searches_only_at_block_cuts(monkeypatch):
    # Step 0 starts in a block, and every search follows a kernel call that
    # reported a miss.
    cr = sweeplab.crawler
    real_try, real_step = cr._try_pattern, cr._oracle_step
    calls = []

    def kernel(*args):
        rows, n, miss = real_try(*args)
        calls.append(("kernel", miss is not None))
        return rows, n, miss

    def search(*args):
        calls.append(("search", None))
        return real_step(*args)

    monkeypatch.setattr(cr, "_try_pattern", kernel)
    monkeypatch.setattr(cr, "_oracle_step", search)
    gait = three_block_gait()
    incremental_oracle(gait, _rest_start(gait), 0.0, 2, 200)
    assert calls[0][0] == "kernel"
    searches = [i for i, (kind, _) in enumerate(calls) if kind == "search"]
    assert searches and all(calls[i - 1] == ("kernel", True) for i in searches)


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
    _assert_patterns_match_reference(run, positions, patterns)


def test_oracle_bit_equal_to_reference_at_eight_blocks():
    gait = perturbed_peristaltic_gait(8)
    M = 140   # a multiple of the 2(N-1) breakpoint grid
    assert _period_margin(gait).min_margin > 0
    x0 = _rest_start(gait)
    run = incremental_oracle(gait, x0, 0.0, 2, M)
    positions, patterns = reference_oracle(gait, x0, 0.0, 2, M)
    assert np.any(patterns != 0)
    assert run.motion.positions.tobytes() == positions.tobytes()
    _assert_patterns_match_reference(run, positions, patterns)


def test_oracle_matches_lu_solve_reference_at_eight_blocks():
    # The oracle applies each A_SS^-1 as an explicit inverse; the reference
    # that solves A_SS by LU takes the same patterns, with positions this close.
    gait = perturbed_peristaltic_gait(8)
    x0 = _rest_start(gait)
    run = incremental_oracle(gait, x0, 0.0, 2, 140)
    positions, patterns = reference_oracle(gait, x0, 0.0, 2, 140, solver=lu_solve)
    np.testing.assert_allclose(run.motion.positions, positions, rtol=0, atol=1e-13)
    _assert_patterns_match_reference(run, positions, patterns)


@pytest.mark.parametrize("N", [12, 20])
def test_oracle_steps_are_kkt_points_on_large_crawlers(N):
    # No block cap: every step of a 12- and a 20-block run, in which every
    # block slips, passes the optimality conditions read from the positions.
    gait = perturbed_peristaltic_gait(N)
    M = 20 * (N - 1)
    if N == 12:
        assert _period_margin(gait).min_margin > 0
    run = incremental_oracle(gait, _rest_start(gait), 0.0, 2, M)
    assert np.all(np.any(run.patterns != 0, axis=0))   # every block slips
    assert np.max(oracle_kkt_violations(gait, run.motion.positions, 0.0, M)) <= 10 * TOL


def _step_data(g, t):
    """Rest lengths and friction thresholds of g at time t, as lists of floats."""
    return [[eval_signal(s, t) for s in sigs] for sigs in (g.rest_lengths, g.mu_plus, g.mu_minus)]


def _assert_chain_minimizers_bit_equal(x, ell, mup, mum, k):
    fast = sweeplab.crawler._chain_minimizers(x.tolist(), ell, mup, mum, k)
    ref = reference_chain_minimizers(x, np.array(ell), np.array(mup), np.array(mum), k)
    assert [np.array(y).tobytes() for y in fast] == [y.tobytes() for y in ref]
    return len(fast)


def test_chain_minimizers_bit_equal_to_numpy_reference_on_random_gaits():
    rng = np.random.default_rng(17)
    for N in [*range(2, 13), 20, 33, 50]:
        for _ in range(4):
            g = random_gait(rng, N, signal=uniform_signal)
            ell, mup, mum = _step_data(g, float(rng.uniform(0.0, 2.0)))
            x = np.cumsum(np.array([0.0, *ell]) + rng.normal(scale=0.5, size=N))
            _assert_chain_minimizers_bit_equal(x, ell, mup, mum, float(rng.uniform(0.5, 3.0)))


def test_chain_minimizers_bit_equal_on_lattice_gaits_with_segments_and_vertex_starts(monkeypatch):
    # Lattice gaits at phases where their margin vanishes, and starts on the
    # 0.25 lattice: the stages' vertices are lattice points, so starts and
    # backward-pass points land exactly on them, and G is often flat at 0, so
    # that two segment ends come back.
    cr = sweeplab.crawler
    real_interp = cr._interp
    on_vertex = []

    def interp(c, xs, fs):
        on_vertex.append(c in xs)
        return real_interp(c, xs, fs)

    monkeypatch.setattr(cr, "_interp", interp)
    rng = np.random.default_rng(23)
    ends = []
    for N in (2, 3, 4, 5, 6):
        t = None
        while t is None or margin_at(g, t)[0] != 0:
            g, t = random_gait(rng, N), int(rng.integers(8)) / 8
        ell, mup, mum = _step_data(g, t)
        for _ in range(40):
            x = 0.25 * np.cumsum(rng.integers(-8, 9, size=N))
            ends.append(_assert_chain_minimizers_bit_equal(x, ell, mup, mum, 1.0))
    assert ends.count(2) >= 10 and ends.count(1) >= 10
    assert sum(on_vertex) >= 20


@pytest.mark.parametrize("e,expected", [(31, [[0.0, 2.0], [3.0, 5.0]]), (29, [[3.0, 5.0]])])
def test_chain_minimizers_tie_is_a_flat_level_within_the_tolerance_of_zero(e, expected):
    # Two blocks 5 apart on a unit spring of rest length 1: the polyline of
    # the last block is flat at level -2**-e for y_2 from 2 to 5. Within
    # DEFAULT_TOL of 0 (at 2**-31) the minimizers form a segment and both of
    # its ends come back; beyond it (at 2**-29) only y_2 = 5, where G
    # crosses 0.
    args = [0.0, 5.0], [1.0], [1.0, 1.0], [1.0, 1.0 + 2.0**-e]
    assert 2.0**-31 <= DEFAULT_TOL < 2.0**-29
    assert sweeplab.crawler._chain_minimizers(*args, 1.0) == expected
    _assert_chain_minimizers_bit_equal(np.array(args[0]), *args[1:], 1.0)


def test_interp_bit_equal_to_numpy_on_polylines_with_jumps():
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        for _ in range(30):
            xs = np.sort(rng.choice(np.round(rng.normal(size=4), 3), size=n))   # repeats are jumps
            fs = np.sort(rng.normal(size=n)) if rng.random() < 0.5 else rng.normal(size=n)
            mids = (xs[:-1] + xs[1:]) / 2
            for c in [*xs, *mids, xs[0] - 1.0, xs[-1] + 1.0, *rng.normal(size=5)]:
                fast = sweeplab.crawler._interp(float(c), xs.tolist(), fs.tolist())
                assert np.float64(fast).tobytes() == np.interp(c, xs, fs).tobytes()


def _grid_breakpoints(g, t0, M):
    h = g.period / M
    signals = (*g.rest_lengths, *g.mu_plus, *g.mu_minus)
    return {int(round((t - t0) / h)) % M for s in signals for t in s.times}


@pytest.mark.parametrize("gait,t0,M,crosses", [
    (three_block_gait(), 0.0, 400, True),
    (three_block_gait(), 0.0175, 400, True),
    (_WORKLOADS.peristaltic_gait(_SL, 6), 0.0, 240, False),
    (perturbed_peristaltic_gait(8), 0.0, 140, True),
], ids=["crawler3", "crawler3-shifted", "peristaltic6", "perturbed8"])
def test_oracle_blocks_run_to_the_end_of_their_period(monkeypatch, gait, t0, M, crosses):
    # Every kernel call, in a block or in a search, starts at the first step
    # not yet kept and runs to the end of its period, and the positions still
    # equal the step-by-step reference. Where the slip pattern holds across a
    # grid phase at which a gait signal has a breakpoint, one call keeps the
    # steps on both sides of it; on the peristaltic wave from rest a search
    # starts at every breakpoint, so no call does.
    cr = sweeplab.crawler
    real_try, real_step = cr._try_pattern, cr._oracle_step
    calls = []

    def kernel(x, b, mup, mum, system):
        rows, n, miss = real_try(x, b, mup, mum, system)
        calls.append((x.tobytes(), len(b), n))
        return rows, n, miss

    def search(*args):
        calls.append(None)
        return real_step(*args)

    monkeypatch.setattr(cr, "_try_pattern", kernel)
    monkeypatch.setattr(cr, "_oracle_step", search)
    x0 = assemble_positions(0.0, rest_length_values(gait, t0))
    periods = 2
    xs = incremental_oracle(gait, x0, t0, periods, M).motion.positions
    breaks = _grid_breakpoints(gait, t0, M)
    k = crossing = 0
    for call in calls:
        if call is None:
            continue
        x, length, n = call
        assert x == xs[k].tobytes() and length == M - k % M
        # the steps kept land at phases k % M + 1 .. k % M + n
        crossing += any(k % M < q < k % M + n for q in breaks)
        k += n
    assert k == periods * M and sum(call is None for call in calls) > 0
    assert (crossing > 0) == crosses
    positions, _ = reference_oracle(gait, x0, t0, periods, M)
    assert xs.tobytes() == positions.tobytes()


@pytest.mark.parametrize("gait,M", [(three_block_gait(), 200), (_WORKLOADS.peristaltic_gait(_SL, 7), 240)],
                         ids=["crawler3", "peristaltic7"])
def test_oracle_keeps_each_step_from_the_kernel_call_that_judged_it(monkeypatch, gait, M):
    # A search's try is the start of its block: every kernel call, in a block
    # or in a search, starts at the first step not yet kept and judges the
    # rest of its period from there, and the steps it passes are kept from its
    # rows. So the calls are the blocks not started by a search (step 0, and
    # each block after one that every step passed) plus the candidates tried;
    # a searched step solved apart from its block would add a call.
    cr = sweeplab.crawler
    real_try, real_step = cr._try_pattern, cr._oracle_step
    searching, calls = [False], []

    def try_pattern(x, b, mup, mum, system):
        rows, n, miss = real_try(x, b, mup, mum, system)
        calls.append((searching[0], x.tobytes(), len(b), rows.copy(), n, miss))
        return rows, n, miss

    def search(*args):
        searching[0] = True
        try:
            return real_step(*args)
        finally:
            searching[0] = False

    monkeypatch.setattr(cr, "_try_pattern", try_pattern)
    monkeypatch.setattr(cr, "_oracle_step", search)
    periods = 2
    K = periods * M
    xs = incremental_oracle(gait, _rest_start(gait), 0.0, periods, M).motion.positions
    k = fresh = 0
    for in_search, x, length, rows, n, miss in calls:
        assert x == xs[k].tobytes() and length == M - k % M
        assert xs[k + 1 : k + 1 + n].tobytes() == rows[:n].tobytes()
        fresh += miss is None and k + n < K
        k += n
    assert k == K
    candidates = sum(in_search for in_search, *_ in calls)
    assert len(calls) == 1 + fresh + candidates
    assert max(n for in_search, *_, n, _miss in calls if in_search) > 1


def _first_search_sticks(monkeypatch):
    """Make the chain search of the first search return the start, so that
    its canonical pattern is all-stick, the pattern the block failed with."""
    cr = sweeplab.crawler
    real = cr._chain_minimizers
    calls = []

    def chain_minimizers(x, *args):
        calls.append(None)
        return [x.copy()] if len(calls) == 1 else real(x, *args)

    monkeypatch.setattr(cr, "_chain_minimizers", chain_minimizers)


def test_oracle_flips_the_violated_sticking_blocks_when_the_pattern_fails(monkeypatch):
    # From rest, the first search of crawler2 and crawler3 finds all-stick
    # failing; the blocks whose force breaks a bound slip, and that pattern is
    # the one the chain search finds, so the run is unchanged.
    cr = sweeplab.crawler
    for gait in (two_block_gait(), three_block_gait()):
        x0 = _rest_start(gait)
        expected = incremental_oracle(gait, x0, 0.0, 2, 200)
        first_slip = int(np.flatnonzero(np.any(expected.patterns != 0, axis=1))[0])
        with monkeypatch.context() as m:
            _first_search_sticks(m)
            searches = []   # the patterns tried from each search on
            real_try, real_step = cr._try_pattern, cr._oracle_step

            def try_pattern(x, b, mup, mum, system):
                if searches:
                    searches[-1].append(system)
                return real_try(x, b, mup, mum, system)

            def search(*args):
                searches.append([])
                return real_step(*args)

            m.setattr(cr, "_try_pattern", try_pattern)
            m.setattr(cr, "_oracle_step", search)
            run = incremental_oracle(gait, x0, 0.0, 2, 200)
        assert run.motion.positions.tobytes() == expected.motion.positions.tobytes()
        stick, flipped = searches[0][:2]
        signs = expected.patterns[first_slip]
        assert len(stick.slips) == 0
        assert flipped.slips.tolist() == np.flatnonzero(signs).tolist()
        assert flipped.forward.tolist() == (signs[signs != 0] > 0).tolist()


def test_oracle_error_names_the_nearest_miss_after_the_flip(monkeypatch):
    # Every pattern the search tries misses its first step by at least 2e-9;
    # the flipped pattern misses by exactly that, less than the block's miss.
    cr = sweeplab.crawler
    gait = two_block_gait()
    x0 = _rest_start(gait)
    patterns = incremental_oracle(gait, x0, 0.0, 2, 200).patterns
    k = int(np.flatnonzero(np.any(patterns != 0, axis=1))[0])
    _first_search_sticks(monkeypatch)
    real_try, real_step = cr._try_pattern, cr._oracle_step

    def failing_try_pattern(*args):
        rows, n, miss = real_try(*args)
        return rows, 0, 2e-9 if n else max(miss, 2e-9)

    def search(*args):
        with monkeypatch.context() as m:
            m.setattr(cr, "_try_pattern", failing_try_pattern)
            return real_step(*args)

    monkeypatch.setattr(cr, "_oracle_step", search)
    pattern = tuple(patterns[k].tolist())
    with pytest.raises(
        PatternSearchError,
        match=re.escape(f"step {k}, t={(k + 1) * (1.0 / 200):.17g}: no consistent slip pattern; "
                        f"nearest miss {pattern} violates by 2.000e-09") + "$",
    ):
        incremental_oracle(gait, x0, 0.0, 2, 200)


@pytest.mark.parametrize("b,flipped", [
    ((2.0, 1.0 + 2.0**-31, 0.0), (1, 0, 0)),      # block 1's force is within 1e-9 above mu^+
    ((-2.5, -1.5 - 2.0**-31, 0.0), (-1, 0, 0)),   # block 1's force is within 1e-9 below -mu^-
], ids=["forward", "backward"])
def test_oracle_flips_only_the_blocks_that_break_a_bound_by_more_than_the_tolerance(monkeypatch, b, flipped):
    # One search of a three-block chain (k = 1, mu^+ = 1, mu^- = 1.5) from
    # x = 0, where the all-stick force is b; the chain search returns the
    # start, so all-stick is tried first. Block 0 breaks its bound by 1 and
    # slips; block 1 breaks it by 2^-31 < 1e-9 and sticks.
    cr = sweeplab.crawler
    _first_search_sticks(monkeypatch)
    tried, real_try = [], cr._try_pattern

    def try_pattern(x, b, mup, mum, system):
        tried.append(tuple(system.sign.astype(int).tolist()))
        return real_try(x, b, mup, mum, system)

    monkeypatch.setattr(cr, "_try_pattern", try_pattern)
    PZ = cr.shape_matrix(3)
    with pytest.raises(PatternSearchError):
        cr._oracle_step(np.zeros(3), np.array([b]), np.zeros(2), np.ones((1, 3)), np.full((1, 3), 1.5), 1.0,
                        cr._PatternTable(PZ.T @ PZ), (np.inf, None))
    assert tried[:2] == [(0, 0, 0), flipped]


# ---------------------------------------------------------------------------
# values kept on the gait: K(t), the period margin, the pattern systems

def _counting(monkeypatch, owner, name, calls):
    """Replace owner.name by a wrapper that appends its first argument to calls."""
    real = getattr(owner, name)

    def wrapper(first, *args):
        calls.append(first)
        return real(first, *args)

    monkeypatch.setattr(owner, name, wrapper)


def test_reduced_runs_of_one_gait_build_k_and_the_margin_once(monkeypatch):
    cr = sweeplab.crawler
    builds, margins, gates = [], [], []
    _counting(monkeypatch, cr, "build_moving_set", builds)
    _counting(monkeypatch, cr, "_period_margin", margins)
    _counting(monkeypatch, cr, "_margin_gate", gates)
    g = three_block_gait()
    x0 = _rest_start(g)
    for shift in (0.0, 0.1, -0.2):
        simulate_reduced(g, x0 + shift, 0.0, 3, 200)
    assert builds == [g] and margins == [g]
    assert len(gates) == 3   # the gate still judges every run


def test_oracle_runs_of_one_gait_build_each_pattern_system_once(monkeypatch):
    cr = sweeplab.crawler
    real = cr._PatternSystem
    patterns = []

    def pattern_system(A, pat):
        patterns.append(pat)
        return real(A, pat)

    monkeypatch.setattr(cr, "_PatternSystem", pattern_system)
    g = three_block_gait()
    x0 = _rest_start(g)
    first = incremental_oracle(g, x0, 0.0, 2, 200)
    count = len(patterns)
    second = incremental_oracle(g, x0, 0.0, 2, 200)
    assert count > 1 and len(patterns) == count == len(set(patterns))
    assert second.motion.positions.tobytes() == first.motion.positions.tobytes()


def _run_bytes(g, x0):
    red = simulate_reduced(g, x0, 0.0, 3, 200)
    orc = incremental_oracle(g, x0, 0.0, 3, 200)
    return (red.reduced.states.tobytes(), red.reduced.multipliers.tobytes(),
            red.reduced.active_masks.tobytes(), red.motion.positions.tobytes(),
            red.gait.period_margin,
            orc.motion.positions.tobytes(), orc.patterns.tobytes())


@pytest.mark.parametrize("cold", [True, False], ids=["tables-cleared", "tables-warm"])
def test_gait_caches_do_not_leak_between_gaits(monkeypatch, cold):
    # A twin equal by value, and a gait that differs in one mu value (so has
    # the same normals and shares the subset table and face maps), each run
    # as a freshly built copy of itself runs.
    tables = {}
    monkeypatch.setattr(sweeplab.polyhedra, "_TABLES", tables)

    def runs(g):
        if cold:
            tables.clear()
        return _run_bytes(g, _rest_start(g))

    g = three_block_gait()
    original = runs(g)
    twin = dataclasses.replace(g)
    assert twin == g and twin is not g
    assert runs(twin) == original
    mu = list(g.mu_plus)
    mu[1] = PeriodicSignal.constant(1.2, g.period)
    changed = dataclasses.replace(g, mu_plus=tuple(mu))
    got = runs(changed)
    tables.clear()
    expected = _run_bytes(Gait.from_json(changed.to_json()), _rest_start(changed))
    assert got == expected and got != original
    assert changed.moving_set is not g.moving_set
    assert changed._pattern_table is not g._pattern_table


def _frozen_arrays(*arrays):
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_values_kept_on_the_gait_refuse_writes():
    g = three_block_gait()
    x0 = _rest_start(g)
    simulate_reduced(g, x0, 0.0, 2, 200)
    incremental_oracle(g, x0, 0.0, 2, 200)
    table = g._pattern_table
    assert len(table) > 1
    _frozen_arrays(table.A, g.moving_set.normals)
    for system in table.values():
        assert system.A is table.A
        blocks = [system.sign, system.slips, system.sticks, system.forward]
        if len(system.slips):
            blocks += [system.A_SS_inv, system.A_ST]
        _frozen_arrays(*blocks)
    faces, inverses = sweeplab.polyhedra._subset_table(g.moving_set.normals)[3:]
    assert faces
    for face in faces.values():
        _frozen_arrays(*face)
    _frozen_arrays(*(Ginv for Ginv in inverses if Ginv is not None))


def test_pattern_table_keeps_a_read_only_copy_of_a():
    A = np.eye(2)
    table = sweeplab.crawler._PatternTable(A)
    assert A.flags.writeable and table.A is not A
    np.testing.assert_array_equal(table.A, A)


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


@pytest.mark.parametrize("key,value,error", [
    ("N", 2.7, ValueError),
    ("N", "2", TypeError),
    ("N", True, TypeError),
    ("T", "1", TypeError),
    ("k", True, TypeError),
], ids=["N-fractional", "N-string", "N-bool", "T-string", "k-bool"])
def test_gait_from_json_reads_n_t_and_k_as_json_numbers(key, value, error):
    # The rule of PeriodicSignal.from_json: an int or a float, not a bool or a
    # str; and N is integral.
    gait = two_block_gait().to_json()
    with pytest.raises(error, match="a gait's N"):
        Gait.from_json({**gait, key: value})
    assert Gait.from_json({**gait, "N": 2.0}).num_blocks == 2


@pytest.mark.parametrize("num_blocks", [2.5, 2.0, np.float64(3.0), True], ids=["2.5", "2.0", "float64", "bool"])
def test_gait_refuses_a_block_count_that_is_not_an_integer(num_blocks):
    # _grid's count rule: operator.index accepts N, and a bool is not one.
    T = 1.0
    mu = (PeriodicSignal.constant(1.0, T),) * 2
    L = (PeriodicSignal.constant(0.0, T),)
    with pytest.raises(ValueError, match=f"^num_blocks must be an integer, got {re.escape(repr(num_blocks))}$"):
        Gait(num_blocks, T, 1.0, L, mu, mu)
    assert Gait(np.int64(2), T, 1.0, L, mu, mu).moving_set.num_constraints == 4


def test_gait_rejects_a_stiffness_whose_moving_set_slopes_overflow():
    # crawler3's offsets of K(t) reach 1 + 3k, finite at k = 1.6e307, but
    # their slopes reach 12k, which is not: K(t) could not be built.
    gait = three_block_gait().to_json()
    gait["k"] = 1.6e307
    with pytest.raises(ValueError, match="rest-length slopes up to 12.0 overflows"):
        Gait.from_json(gait)
    gait["k"] = 1e300
    assert build_moving_set(Gait.from_json(gait)).num_constraints == 6


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


def test_gait_names_a_signal_that_is_not_one_or_of_the_wrong_kind_or_period():
    g = two_block_gait()
    for field, index, bad, error, message in (
        ("rest_lengths", 0, 1.0, TypeError, "is not a PeriodicSignal: 1.0"),
        ("mu_plus", 1, 2.0, TypeError, "is not a PeriodicSignal: 2.0"),
        ("mu_minus", 0, PeriodicSignal(g.period, [(0.0, 1.0)], kind="pc"), ValueError,
         "has kind 'pc', expected 'pl'"),
        ("mu_minus", 1, PeriodicSignal.constant(1.0, 2 * g.period), ValueError,
         f"has period {2 * g.period}, expected {g.period}"),
    ):
        sigs = list(getattr(g, field))
        sigs[index] = bad
        with pytest.raises(error, match=f"^{re.escape(f'{field}[{index}] {message}')}$"):
            dataclasses.replace(g, **{field: tuple(sigs)})


def test_gait_rejects_a_stiffness_whose_moving_set_offsets_overflow():
    # crawler2's rest length reaches 4, so k = 1e308 puts k*L beyond the
    # largest float; k = 1e300 still gives finite offsets.
    gait = catalog()["crawler2"].gait.to_json()
    gait["k"] = 1e308
    with pytest.raises(ValueError, match="offsets of K\\(t\\) cannot be finite"):
        Gait.from_json(gait)
    gait["k"] = 1e300
    offsets = build_moving_set(Gait.from_json(gait)).offsets
    assert all(np.isfinite(s.values).all() for s in offsets)


@pytest.mark.parametrize("period,stiffness", [
    (float("nan"), 1.0),
    (float("inf"), 1.0),
    (1.0, float("nan")),
    (1.0, float("inf")),
], ids=["period-nan", "period-infinite", "stiffness-nan", "stiffness-infinite"])
def test_gait_rejects_non_finite_period_or_stiffness(period, stiffness):
    mu = (PeriodicSignal.constant(1.0, 1.0),) * 2
    with pytest.raises(ValueError, match="must be finite and positive"):
        Gait(2, period, stiffness, (PeriodicSignal.constant(0.0, 1.0),), mu, mu)


@pytest.mark.parametrize("name,period,stiffness", [
    ("period", True, 1.0),
    ("stiffness", 1.0, True),
    ("stiffness", 1.0, np.True_),
])
def test_gait_refuses_a_bool_period_or_stiffness(name, period, stiffness):
    # signals.is_json_number's rule: a bool would build a gait whose
    # to_json config Gait.from_json refuses.
    mu = (PeriodicSignal.constant(1.0, 1.0),) * 2
    bad = re.escape(repr(period if name == "period" else stiffness))
    with pytest.raises(TypeError, match=f"^the {name} must be a number, not the bool {bad}$"):
        Gait(2, period, stiffness, (PeriodicSignal.constant(0.0, 1.0),), mu, mu)


@pytest.mark.parametrize("key", ["N", "T", "k"])
def test_gait_from_json_rejects_an_int_that_no_float_can_hold(key):
    gait = catalog()["crawler2"].gait.to_json()
    gait[key] = 10**400
    with pytest.raises(TypeError, match="^a gait's N, T and k must be JSON numbers that a float can hold"):
        Gait.from_json(gait)
    gait[key] = -(10**400)
    with pytest.raises(TypeError, match="^a gait's N, T and k must be JSON numbers that a float can hold"):
        Gait.from_json(gait)
