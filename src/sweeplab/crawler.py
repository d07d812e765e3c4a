"""Quasistatic chain-of-blocks crawler driven by periodic actuation.

A crawler is N blocks on a line, joined by N-1 series actuator+spring links,
each block subject to time-dependent dry friction with thresholds mu_i^+(t)
(forward) and mu_i^-(t) (backward). The quasistatic force balance reduces, in
the shape variable w = -k * pi_Z(x), to a sweeping process on a moving
polyhedron K(t) in R^{N-1}; the mean position y = pi_Y(x) is recovered from
the projection multipliers. An independent full-space incremental-minimization
solver cross-checks the reduced pipeline: one kernel solves a slip pattern over
a block of steps and judges each step by the KKT test, and where a step fails,
an exact dynamic program along the chain proposes the patterns to try.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateGaitError,
    EnumerationCapError,
    InadmissibleStateError,
    PatternSearchError,
)
from .polyhedra import DEFAULT_TOL, MovingPolyhedron, _checked_vector
from .signals import (
    PeriodicSignal,
    _checked_signals,
    combine,
    eval_many,
    eval_signal,
    is_json_number,
    lipschitz_constant,
)
from .sweeping import SweepingProblem, Trajectory, _checked_count, _grid, _rows_passing, simulate

_MARGIN_BLOCK_SUMS = 1 << 20   # subset-sum table entries per block of the margin scan
VELOCITY_TOL = 1e-6            # spread of the last per-period displacements for a converged v0


@dataclass(frozen=True)
class Gait:
    """Periodic actuation lengths and friction thresholds for an N-block crawler.

    A gait and its signals are read-only, so what depends on the gait alone
    is computed on first use and kept with it: K(t) (``moving_set``), the
    period-margin report (``period_margin``) and the oracle's pattern systems
    (``_pattern_table``). Every run of the gait shares them.
    """

    num_blocks: int
    period: float
    stiffness: float
    rest_lengths: tuple
    mu_plus: tuple
    mu_minus: tuple

    def __post_init__(self):
        N = self.num_blocks
        _checked_count("num_blocks", N)
        if N < 2:
            raise ValueError("a crawler needs at least 2 blocks")
        for name, x in (("period", self.period), ("stiffness", self.stiffness)):
            if isinstance(x, (bool, np.bool_)):
                raise TypeError(f"the {name} must be a number, not the bool {x!r}")
        if not all(x > 0 and np.isfinite(x) for x in (self.period, self.stiffness)):
            raise ValueError("the period and stiffness must be finite and positive")
        if len(self.rest_lengths) != N - 1:
            raise ValueError(f"need {N - 1} rest-length signals, got {len(self.rest_lengths)}")
        if len(self.mu_plus) != N or len(self.mu_minus) != N:
            raise ValueError(f"need {N} friction signals per direction")
        for name in ("rest_lengths", "mu_plus", "mu_minus"):
            object.__setattr__(self, name, _checked_signals(getattr(self, name), name, self.period))
        for s in (*self.mu_plus, *self.mu_minus):
            if np.min(s.values) <= 0:
                raise ValueError("friction thresholds must be strictly positive")
        # K(t)'s offsets are mu_i(t) -+ k (L_{i-1}(t) - L_i(t)) (build_moving_set), so
        # |offset| <= max mu + 2 k max|L|, and their slopes are bounded alike (a
        # signal's slopes must be finite); Python floats overflow to inf without a warning.
        mus = (*self.mu_plus, *self.mu_minus)
        for name, mu, length in (
            ("rest lengths", max(float(np.max(s.values)) for s in mus),
             max(float(np.max(np.abs(s.values))) for s in self.rest_lengths)),
            ("rest-length slopes", max(map(lipschitz_constant, mus)),
             max(map(lipschitz_constant, self.rest_lengths))),
        ):
            if not np.isfinite(mu + 2 * float(self.stiffness) * length):
                raise ValueError(
                    f"stiffness {self.stiffness} times {name} up to {length} overflows: "
                    "the offsets of K(t) cannot be finite"
                )

    @cached_property
    def moving_set(self) -> MovingPolyhedron:
        """K(t), from build_moving_set."""
        return build_moving_set(self)

    @cached_property
    def period_margin(self) -> "MarginReport":
        """The least uniqueness margin over a period, from _period_margin."""
        return _period_margin(self)

    @cached_property
    def _pattern_table(self) -> "_PatternTable":
        """The oracle's pattern systems for A = k PZ^T PZ, filled as runs use them."""
        PZ = shape_matrix(self.num_blocks)
        return _PatternTable(self.stiffness * (PZ.T @ PZ))

    def to_json(self) -> dict:
        return {
            "N": self.num_blocks,
            "T": self.period,
            "k": self.stiffness,
            "L": [s.to_json() for s in self.rest_lengths],
            "mu_plus": [s.to_json() for s in self.mu_plus],
            "mu_minus": [s.to_json() for s in self.mu_minus],
        }

    @staticmethod
    def from_json(obj: dict) -> "Gait":
        numbers = {key: obj[key] for key in ("N", "T", "k")}
        if not all(map(is_json_number, numbers.values())):
            raise TypeError(
                f"a gait's N, T and k must be JSON numbers that a float can hold, got {numbers!r}"
            )
        if type(obj["N"]) is float and not obj["N"].is_integer():
            raise ValueError(f"a gait's N must be an integer, got {obj['N']!r}")
        return Gait(
            int(obj["N"]),
            float(obj["T"]),
            float(obj["k"]),
            tuple(PeriodicSignal.from_json(s) for s in obj["L"]),
            tuple(PeriodicSignal.from_json(s) for s in obj["mu_plus"]),
            tuple(PeriodicSignal.from_json(s) for s in obj["mu_minus"]),
        )


# ---------------------------------------------------------------------------
# Shape/position split

def shape_matrix(N: int) -> np.ndarray:
    """PZ with z = PZ @ x, z_j = x_{j+1} - x_j."""
    PZ = np.zeros((N - 1, N))
    for j in range(N - 1):
        PZ[j, j] = -1.0
        PZ[j, j + 1] = 1.0
    return PZ


def pi_y(x) -> float:
    return float(np.mean(np.asarray(x, dtype=float)))


def pi_z(x) -> np.ndarray:
    return np.diff(np.asarray(x, dtype=float))


def assemble_positions(y, z) -> np.ndarray:
    """Invert (pi_Y, pi_Z): unique x with mean y and consecutive gaps z.

    Works row by row on stacks: y of shape (...) and z of shape (..., N-1)
    give positions of shape (..., N).
    """
    z = np.asarray(z, dtype=float)
    N = z.shape[-1] + 1
    prefix = np.concatenate((np.zeros(z.shape[:-1] + (1,)), np.cumsum(z, axis=-1)), axis=-1)
    x0 = np.asarray(y, dtype=float) - prefix.sum(axis=-1) / N
    return x0[..., None] + prefix


# ---------------------------------------------------------------------------
# Forces and admissibility

def rest_length_values(g: Gait, t: float) -> np.ndarray:
    return np.array([eval_signal(s, t) for s in g.rest_lengths])


def friction_values(g: Gait, t: float):
    mup = np.array([eval_signal(s, t) for s in g.mu_plus])
    mum = np.array([eval_signal(s, t) for s in g.mu_minus])
    return mup, mum


def energy_gradient(g: Gait, t: float, x) -> np.ndarray:
    z = pi_z(x)
    ell = rest_length_values(g, t)
    PZ = shape_matrix(g.num_blocks)
    return PZ.T @ (g.stiffness * (z - ell))


def admissible(g: Gait, t: float, x) -> bool:
    """True iff the elastic force -dE/dx lies within the friction bounds."""
    force = -energy_gradient(g, t, x)
    mup, mum = friction_values(g, t)
    return bool(np.all(force <= mup + DEFAULT_TOL) and np.all(force >= -mum - DEFAULT_TOL))


def _checked_start(g: Gait, t0: float, x0) -> np.ndarray:
    """x0 as a float array, checked for shape, finiteness and admissibility at t0."""
    x0 = _checked_vector(x0, g.num_blocks, "initial state")
    if not admissible(g, t0, x0):
        raise InadmissibleStateError("initial configuration violates the force bounds")
    return x0


# ---------------------------------------------------------------------------
# The reduced moving set

def build_moving_set(g: Gait) -> MovingPolyhedron:
    """Moving set K(t) of the reduced shape sweeping process in R^{N-1}.

    With nu_i = pi_Z(e_i) and the shift g_sh(t) = k*(L_1(t),...,L_{N-1}(t)),
    the constraints are <nu_i, w> <= mu_i^+(t) - <nu_i, g_sh(t)> for i < N and
    <-nu_i, w> <= mu_i^-(t) + <nu_i, g_sh(t)> for the backward bounds, i.e.
    K(t) is the friction box in shape coordinates translated by -g_sh(t).
    Then w = -k*pi_Z(x) lies in K(t) iff x is admissible: the residual of
    constraint i equals the margin of block i's forward force bound
    (backward for i >= N), which pins both the index convention and the sign
    of the shift.
    """
    N = g.num_blocks
    k = g.stiffness
    PZ = shape_matrix(N)
    normals = []
    offsets = []
    for sign, mu in ((1.0, g.mu_plus), (-1.0, g.mu_minus)):
        for i in range(N):
            nu = sign * PZ[:, i]
            coeffs = [1.0] + [-k * nu[j] for j in range(N - 1)]
            offsets.append(combine([mu[i], *g.rest_lengths], coeffs))
            normals.append(nu)
    # Nonempty and bounded by construction: the rest shape w = -k*ell(t) has slack
    # mu_i^+(t) or mu_i^-(t) > 0 (Gait checks) in every constraint, and the
    # +-nu_i positively span R^{N-1}.
    return MovingPolyhedron(np.array(normals), tuple(offsets), validate=False)


# ---------------------------------------------------------------------------
# Uniqueness margin

@dataclass(frozen=True)
class MarginReport:
    min_margin: float
    worst_time: float
    worst_subset: tuple   # block indices (0-based) of the forward-slip side


def margin_at(g: Gait, t: float):
    """min over subsets J of |sum_J mu^+ - sum_{J^c} mu^-| at time t, with the
    first minimizing subset in bitmask order.

    Raises ValueError, before any sum is built, unless t is finite.
    """
    if not np.isfinite(t):
        raise ValueError(f"time {t} is not finite")
    ((_, sums),) = _signed_sums(g, [t])
    np.abs(sums, out=sums)
    bits = int(sums[0].argmin())
    return float(sums[0, bits]), _blocks_in(bits, g.num_blocks)


def _signed_sums(g: Gait, times):
    """Yield (block, sums) for slices block of times; consecutive blocks share
    one time.

    Column bits of sums holds sum_J mu^+ - sum_{J^c} mu^- for the blocks J set
    in bits: the sum of mu_i^+ + mu_i^- over J, added in ascending block order,
    less sum mu^-. Blocks of rows (at least 16, as N <= 16) bound the memory.
    """
    N = g.num_blocks
    if N > 16:
        raise EnumerationCapError("margin enumeration supports at most 16 blocks")
    # (times x N) tables: each row of mum sums in the same order as a 1-d array.
    mup = np.column_stack([eval_many(s, times) for s in g.mu_plus])
    mum = np.column_stack([eval_many(s, times) for s in g.mu_minus])
    both = mup + mum
    total_minus = mum.sum(axis=1)
    rows = _MARGIN_BLOCK_SUMS >> N
    for lo in range(0, max(len(times) - 1, 1), rows - 1):
        block = slice(lo, lo + rows)
        sums = np.zeros((len(total_minus[block]), 1 << N))
        for i in range(N):
            np.add(sums[:, : 1 << i], both[block, i, None], out=sums[:, 1 << i : 2 << i])
        sums -= total_minus[block, None]
        yield block, sums


def _blocks_in(bits, N: int) -> tuple:
    """The blocks set in the bitmask bits, in ascending order."""
    return tuple(j for j in range(N) if int(bits) >> j & 1)


def _period_margin(g: Gait) -> MarginReport:
    """The least uniqueness margin over a whole period, exact for
    piecewise-linear thresholds.

    Between consecutive times of t = 0 and the breakpoints of mu^+-, every
    signed sum is affine. Its absolute value is least at an end of the piece,
    where the scan looks, unless it changes sign inside, where the margin is
    0. One pass over the sums finds both: the least |sum| at each time, the
    first minimum in bitmask order, then in time; and, until one is found,
    the earliest sign change. The report is margin 0 at that sign change,
    unless the scan found margin 0 earlier. The piece that wraps around from
    the last time to the period needs no look: a sign change there means that
    the sum changes sign, or vanishes, between t = 0 and the last time too.
    """
    N = g.num_blocks
    times = np.unique(np.concatenate([[0.0], *(s.times for s in g.mu_plus + g.mu_minus)]))
    report = zero = None
    for block, sums in _signed_sums(g, times):
        ts = times[block]
        if zero is None:
            neg, pos = sums < 0, sums > 0
            piece, bits = np.nonzero(neg[:-1] & pos[1:] | pos[:-1] & neg[1:])
            if len(piece):
                s0, s1 = sums[piece, bits], sums[piece + 1, bits]
                zeros = ts[piece] + (ts[piece + 1] - ts[piece]) * (s0 / (s0 - s1))
                i = int(np.argmin(zeros))
                zero = MarginReport(0.0, float(zeros[i]), _blocks_in(bits[i], N))
        np.abs(sums, out=sums)
        best = sums.argmin(axis=1)
        margins = sums.min(axis=1)
        i = int(np.argmin(margins))
        if report is None or margins[i] < report.min_margin:
            report = MarginReport(float(margins[i]), float(ts[i]), _blocks_in(best[i], N))
    if zero is not None and (report.min_margin > 0 or zero.worst_time < report.worst_time):
        report = zero
    return report


def _margin_gate(report: MarginReport) -> MarginReport:
    """The `_period_margin` report of a gait, unless the margin vanishes
    somewhere in the period (at most DEFAULT_TOL): then the gait is rejected."""
    if report.min_margin <= DEFAULT_TOL:
        raise DegenerateGaitError(
            f"uniqueness margin vanishes at t={report.worst_time:.6g}: {report.min_margin:.3e} "
            f"for the forward-slip subset (0-based blocks) {list(report.worst_subset)}"
        )
    return report


# ---------------------------------------------------------------------------
# Reduced pipeline

@dataclass(frozen=True)
class Motion:
    """Block positions over a run; the mean position is computed on each access."""

    times: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)   # (K+1, N)
    steps_per_period: int
    period: float

    @property
    def mean_positions(self) -> np.ndarray:
        return self.positions.mean(axis=1)

    @property
    def periods(self) -> int:
        return (len(self.positions) - 1) // self.steps_per_period


@dataclass(frozen=True)
class CrawlerRun:
    gait: Gait
    reduced: Trajectory
    motion: Motion


def recover_translation(eta, stiffness: float, num_blocks: int):
    """Mean-position increment from projection multipliers on K(t).

    Positively homogeneous of degree one: forward-slip multipliers (first N)
    push the mean forward, backward-slip multipliers pull it back.
    """
    eta = np.asarray(eta, dtype=float)
    N = num_blocks
    fwd = eta[..., :N].sum(axis=-1)
    back = eta[..., N:].sum(axis=-1)
    return (fwd - back) / (stiffness * N)


def simulate_reduced(
    g: Gait,
    x0,
    t0: float,
    periods: int,
    steps_per_period: int,
) -> CrawlerRun:
    """Integrate the reduced sweeping process and recover the full motion.

    Raises DegenerateGaitError, before any step, if the gait's uniqueness
    margin vanishes anywhere in the period."""
    _grid(g.period, t0, periods, steps_per_period)   # t0 and the counts first, as in every run
    x0 = _checked_start(g, t0, x0)
    _margin_gate(g.period_margin)

    problem = SweepingProblem(g.moving_set)
    w0 = -g.stiffness * pi_z(x0)
    traj = simulate(problem, w0, t0, periods, steps_per_period)

    dy = recover_translation(traj.multipliers, g.stiffness, g.num_blocks)
    y = pi_y(x0) + np.concatenate(([0.0], np.cumsum(dy)))
    z = -traj.states / g.stiffness
    positions = assemble_positions(y, z)
    motion = Motion(traj.times, positions, steps_per_period, g.period)
    return CrawlerRun(g, traj, motion)


# ---------------------------------------------------------------------------
# Velocity estimation and running-periodic decomposition

@dataclass(frozen=True)
class VelocityEstimate:
    v0: float
    per_period: list
    converged: bool


def estimate_velocity(motion: Motion) -> VelocityEstimate:
    """Per-period mean-position displacements and the final-period velocity."""
    Q = motion.periods
    if Q < 3:
        raise ValueError("need at least 3 periods to estimate the velocity")
    M = motion.steps_per_period
    y = motion.mean_positions
    per_period = [
        float((y[q * M] - y[(q - 1) * M]) / motion.period) for q in range(1, Q + 1)
    ]
    last3 = per_period[-3:]
    converged = bool(max(last3) - min(last3) < VELOCITY_TOL)
    return VelocityEstimate(per_period[-1], per_period, converged)


@dataclass(frozen=True)
class RunningPeriodicDecomposition:
    x_bar0: np.ndarray
    v_bar0: float
    p_window: np.ndarray = field(repr=False)   # (M+1, N) periodic part over the last period
    residual: float
    converged: bool


def running_periodic_decomposition(motion: Motion) -> RunningPeriodicDecomposition:
    """Split x(t) = x_bar0 + (t - t0) v_bar0 + p(t) over the last period.

    The endpoint mismatch of p over that window is reported as the residual;
    a non-converged velocity estimate is flagged (and warned), not fatal.
    """
    vel = estimate_velocity(motion)
    if not vel.converged:
        warnings.warn("velocity estimate has not settled; decomposition residual may be large")
    M = motion.steps_per_period
    x_bar0 = motion.positions[0].copy()
    t_rel = motion.times[-(M + 1) :] - motion.times[0]
    window = motion.positions[-(M + 1) :]
    p = window - x_bar0 - np.outer(t_rel, np.ones(window.shape[1])) * vel.v0
    residual = float(np.max(np.abs(p[-1] - p[0])))
    return RunningPeriodicDecomposition(x_bar0, vel.v0, p, residual, vel.converged)


# ---------------------------------------------------------------------------
# Incremental-minimization oracle

@dataclass(frozen=True)
class OracleRun:
    gait: Gait
    motion: Motion
    patterns: np.ndarray = field(repr=False)   # (K, N) int8 signs of each step's displacement


class _PatternSystem:
    """Index sets, signs and matrix blocks of one slip pattern.

    Sticking blocks T keep their positions; slipping blocks S solve
    A_SS x_S = b_S - target_S - A_ST x_T, with target mu^+ for forward and
    -mu^- for backward slip. A pattern with a sticking block pins the chain,
    so its A_SS is positive definite and is inverted once, as A_SS_inv.
    """

    def __init__(self, A: np.ndarray, pat: tuple):
        self.A = A   # the pattern table's own read-only A
        self.sign = np.array(pat, dtype=float)
        self.slips = np.flatnonzero(self.sign)
        self.sticks = np.flatnonzero(self.sign == 0)
        self.forward = self.sign[self.slips] > 0
        blocks = [self.sign, self.slips, self.sticks, self.forward]
        if len(self.slips):
            self.A_SS_inv = np.linalg.inv(A[np.ix_(self.slips, self.slips)])
            self.A_ST = A[np.ix_(self.slips, self.sticks)]
            blocks += [self.A_SS_inv, self.A_ST]
        for a in blocks:
            a.setflags(write=False)


class _PatternTable(dict):
    """Cache of the pattern systems of one matrix A, filled on first use.

    A gait keeps one (Gait._pattern_table), so every oracle run of the gait
    shares its systems; they are read-only, and A is a read-only copy.
    """

    def __init__(self, A: np.ndarray):
        super().__init__()
        self.A = np.array(A, dtype=float)
        self.A.setflags(write=False)

    def __missing__(self, pat):
        system = self[pat] = _PatternSystem(self.A, pat)
        return system


def incremental_oracle(
    g: Gait,
    x0,
    t0: float,
    periods: int,
    steps_per_period: int,
) -> OracleRun:
    """Full-space incremental minimizer x_{k+1} = argmin E(t,x) + R(t, x - x_k).

    Every step is solved for a forward/stick/backward slip pattern with at
    least one sticking block: sticking blocks are pinned, slipping blocks
    satisfy the linear force balance at their saturated threshold, and the
    pattern is accepted when its solution passes the sign and bound checks
    (the KKT test). Step k reads ``_grid``'s tables at the row of the phase
    it lands on.

    One kernel, ``_try_pattern``, solves and judges a pattern over a block
    of steps: from the current step to the end of its period, as
    ``simulate``'s blocks run. It keeps the steps before the first one the
    pattern fails. Sticking blocks keep the block's start and each slipping
    row is its own stacked solve, so a row's bits do not depend on the
    block it is solved in. A block that no step fails is followed by
    another with the same pattern, all-stick at step 0. Where a step fails,
    a search (``_oracle_step``) runs: a dynamic program along the chain
    minimizes the step, and each slip pattern read off its displacement is
    tried through the kernel over the block from that step, with the miss
    that stopped the last block as the nearest miss. The first pattern that
    passes the step is accepted with the steps of its block that it passes.
    There is no cap on the number of blocks: a search costs O(N^2)
    operations on Python floats.

    The run's ``patterns`` are the signs of each step's displacement, 0 where
    |dx| <= DEFAULT_TOL, not the accepted patterns: at a zero-speed slip both
    slip and stick pass, and which one is accepted depends on the search.
    """
    M = steps_per_period
    h, ell_phase, mup_phase, mum_phase = _grid(
        g.period, t0, periods, M,
        rest_lengths=g.rest_lengths, mu_plus=g.mu_plus, mu_minus=g.mu_minus,
    )
    N = g.num_blocks
    x0 = _checked_start(g, t0, x0)

    PZ = shape_matrix(N)
    # force(x) = b - A x with b = k PZ^T ell, and A = k PZ^T PZ held by the gait's pattern table.
    # One stacked matrix-vector product per phase, bit-equal to PZ.T @ ell per row.
    b_phase = g.stiffness * (PZ.T @ ell_phase[..., None])[..., 0]
    table = g._pattern_table

    K = periods * M
    xs = np.empty((K + 1, N))
    xs[0] = x = x0
    hint, miss = (0,) * N, None   # all-stick: step 0 starts in a block
    k = 0
    while k < K:
        r = k % M + 1   # the row of the phase that step k lands on
        b, mup, mum = b_phase[r:], mup_phase[r:], mum_phase[r:]
        if miss is None:
            rows, n, miss = _try_pattern(x, b, mup, mum, table[hint])
        else:
            try:
                rows, n, miss, hint = _oracle_step(
                    x, b, ell_phase[r], mup, mum, g.stiffness, table, (miss, hint)
                )
            except PatternSearchError as exc:
                raise PatternSearchError(f"step {k}, t={t0 + (k + 1) * h:.17g}: {exc}") from exc
        xs[k + 1 : k + 1 + n] = rows[:n]
        k += n
        x = xs[k]
    times = t0 + h * np.arange(K + 1)
    motion = Motion(times, xs, M, g.period)
    return OracleRun(g, motion, _signs(np.diff(xs, axis=0)))


def _try_pattern(x, b, mup, mum, system):
    """Run one slip pattern from x over consecutive steps: the oracle's KKT test.

    b, mup and mum hold one row per step. Sticking blocks keep x, so every
    slipping row is one product with A_SS^-1, stacked per row: a 2-D product
    would let the BLAS change a row's bits with the row count, and the
    stacked one keeps them those of a one-row block. A step passes when no term
    exceeds DEFAULT_TOL: a slipping block gives sign * (previous row - row),
    so it must move in its direction, and a sticking block gives
    max(force - mu^+, -mu^- - force), so its force stays within the bounds.
    The signs are +-1, so the terms are exact differences. Returns every
    solved row, the number n of leading steps that pass (_rows_passing) and
    the worst term at step n (None if every step passes). A NaN term never
    counts as a violation.
    """
    S = system.slips
    rows = np.repeat(x[None, :], len(b), axis=0)
    if len(S):
        target = np.where(system.forward, mup[:, S], -mum[:, S])
        rhs = b[:, S] - target - system.A_ST @ x[system.sticks]
        rows[:, S] = (system.A_SS_inv @ rhs[..., None])[..., 0]
    force = b - (system.A @ rows[..., None])[..., 0]
    prev = np.concatenate((x[None, :], rows[:-1]))
    sign = system.sign
    terms = np.where(sign != 0, sign * (prev - rows), np.maximum(force - mup, -mum - force))
    n = _rows_passing(~(terms > DEFAULT_TOL))
    return rows, n, None if n == len(rows) else float(np.nanmax(terms[n]))


def _oracle_step(x, b, ell, mup, mum, k, table, nearest):
    """The slip pattern of a search at a failed step, with its block from that step.

    b, mup and mum hold one row per step of the block, as for
    ``_try_pattern``; ell holds the first step's rest lengths. The
    candidates are the canonical patterns (the signs of the displacement, 0
    where |dx| <= DEFAULT_TOL) of the minimizers that ``_chain_minimizers``
    returns for the first step, without the all-slip ones, fewest slips
    first, then in tuple order. Each is tried through ``_try_pattern`` over
    the block, so the positions are the kernel's, and the first that passes
    the first step is accepted. If none is, every sticking block of the
    first candidate whose force exceeds a bound slips in that bound's
    direction, and that pattern is tried once. nearest is the closest miss
    already seen, as (violation, pattern). Returns the accepted try's rows,
    passing steps and miss, and its pattern.
    """
    N = len(x)
    start = x.tolist()
    pats = {
        tuple((yi - xi > DEFAULT_TOL) - (yi - xi < -DEFAULT_TOL) for yi, xi in zip(y, start))
        for y in _chain_minimizers(start, ell.tolist(), mup[0].tolist(), mum[0].tolist(), k)
    }
    pats = sorted((p for p in pats if 0 in p), key=lambda p: (N - p.count(0), p))
    for i, pat in enumerate(pats):   # the flipped pattern, appended below, is tried last
        system = table[pat]
        rows, n, miss = _try_pattern(x, b, mup, mum, system)
        if n:
            return rows, n, miss, pat
        if miss < nearest[0]:
            nearest = (miss, pat)
        if i == 0:
            force = b[0] - system.A @ rows[0]
            flipped = np.array(pat)
            stuck = flipped == 0
            flipped[stuck & (force - mup[0] > DEFAULT_TOL)] = 1
            flipped[stuck & (-mum[0] - force > DEFAULT_TOL)] = -1
            flipped = tuple(flipped.tolist())
            if 0 in flipped and flipped not in pats:
                pats.append(flipped)
    raise PatternSearchError(
        f"no consistent slip pattern; nearest miss {nearest[1]} violates by {nearest[0]:.3e}"
    )


def _signs(dx) -> np.ndarray:
    """Canonical slip patterns of displacements: their signs, 0 where |dx| <= DEFAULT_TOL."""
    return (dx > DEFAULT_TOL).astype(np.int8) - (dx < -DEFAULT_TOL)


def _chain_minimizers(x, ell, mup, mum, k):
    """Minimizers of one oracle step from x, by dynamic programming along the chain.

    The step minimizes k/2 sum_j (y_{j+1} - y_j - ell_j)^2 + sum_i phi_i(y_i - x_i)
    with phi_i(v) = mup_i v for v > 0 and -mum_i v for v < 0. The
    subdifferential of the value function of blocks 1..j, in y_j, is kept as
    a monotone polyline (X, G) with flat end rays; for block 1 it is phi_1's
    jump from -mum_1 to mup_1 at x_1. The spring to block j+1 maps each
    vertex (X, G) to (X + G/k + ell_j, G), a graph (Y_j, G_j) with Y_j
    increasing, and phi_{j+1} then lowers G by mum left of x_{j+1}, raises it
    by mup right of it, and puts its jump there. The last block sits where G
    reaches 0, and each other block follows from the next one by
    y_j = y_{j+1} - G_j(y_{j+1})/k - ell_j.

    The arguments are lists of Python floats (and k a float); arrays of at
    most a few dozen numbers cost more in numpy's per-call overhead than in
    arithmetic. Returns one minimizer, or, where G is flat at a level within
    DEFAULT_TOL of 0 (the minimizers form a segment y* + c*1), both ends of
    that flat piece, each as a list.
    """
    N = len(x)
    X = [x[0], x[0]]
    G = [-mum[0], mup[0]]
    springs = []
    for j in range(N - 1):
        e = ell[j]
        Y = [a + g / k + e for a, g in zip(X, G)]
        springs.append((Y, G))
        c, down, up = x[j + 1], mum[j + 1], mup[j + 1]
        lo, hi = bisect_left(Y, c), bisect_right(Y, c)
        gc = _interp(c, Y, G)
        X = Y[:lo] + [c, c] + Y[hi:]
        G = [g - down for g in G[:lo]] + [gc - down, gc + up] + [g + up for g in G[hi:]]
    flat = [i for i in range(len(G) - 1)
            if G[i] == G[i + 1] and abs(G[i]) <= DEFAULT_TOL and X[i] < X[i + 1]]
    ends = (X[flat[0]], X[flat[-1] + 1]) if flat else (_interp(0.0, G, X),)
    minimizers = []
    for end in ends:
        y = [end] * N
        for j in range(N - 2, -1, -1):
            Y, G = springs[j]
            y[j] = y[j + 1] - _interp(y[j + 1], Y, G) / k - ell[j]
        minimizers.append(y)
    return minimizers


def _interp(c, xs, fs):
    """np.interp(c, xs, fs) for one point on Python floats, bit for bit.

    xs is nondecreasing and may repeat a value (a vertical jump); all numbers
    are finite. As in numpy, j is the last index with xs[j] <= c: before xs[0]
    the value is fs[0], at or beyond xs[-1] it is fs[-1], at a vertex it is
    fs[j], and otherwise slope*(c - xs[j]) + fs[j].
    """
    j = bisect_right(xs, c) - 1
    if j < 0:
        return fs[0]
    if j == len(xs) - 1 or xs[j] == c:
        return fs[j]
    return (fs[j + 1] - fs[j]) / (xs[j + 1] - xs[j]) * (c - xs[j]) + fs[j]
