"""Quasistatic chain-of-blocks crawler driven by periodic actuation.

A crawler is N blocks on a line, joined by N-1 series actuator+spring links,
each block subject to time-dependent dry friction with thresholds mu_i^+(t)
(forward) and mu_i^-(t) (backward). The quasistatic force balance reduces, in
the shape variable w = -k * pi_Z(x), to a sweeping process on a moving
polyhedron K(t) in R^{N-1}; the mean position y = pi_Y(x) is recovered from
the projection multipliers. An independent full-space incremental-minimization
solver (exact slip-pattern enumeration) cross-checks the reduced pipeline.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateGaitError,
    EnumerationCapError,
    InadmissibleStateError,
    PatternSearchError,
)
from .polyhedra import DEFAULT_TOL, MovingPolyhedron
from .signals import PIECEWISE_LINEAR, PeriodicSignal, combine, eval_many, eval_signal
from .sweeping import SweepingProblem, Trajectory, _grid_step, _phase_table, simulate

MARGIN_REJECT_FRACTION = 1e-3  # grid fraction of zero-margin times that rejects a gait
_MARGIN_BLOCK_SUMS = 1 << 20   # subset-sum table entries per block of the margin scan
VELOCITY_TOL = 1e-6            # spread of the last per-period displacements for a converged v0


@dataclass(frozen=True)
class Gait:
    """Periodic actuation lengths and friction thresholds for an N-block crawler."""

    num_blocks: int
    period: float
    stiffness: float
    rest_lengths: tuple
    mu_plus: tuple
    mu_minus: tuple

    def __post_init__(self):
        N = self.num_blocks
        if N < 2:
            raise ValueError("a crawler needs at least 2 blocks")
        if self.stiffness <= 0:
            raise ValueError("stiffness must be positive")
        if len(self.rest_lengths) != N - 1:
            raise ValueError(f"need {N - 1} rest-length signals, got {len(self.rest_lengths)}")
        if len(self.mu_plus) != N or len(self.mu_minus) != N:
            raise ValueError(f"need {N} friction signals per direction")
        for s in (*self.rest_lengths, *self.mu_plus, *self.mu_minus):
            if s.kind != PIECEWISE_LINEAR:
                raise ValueError("gait signals must be piecewise-linear")
            if abs(s.period - self.period) > 1e-12 * max(1.0, self.period):
                raise ValueError("all gait signals must share the gait period")
        for s in (*self.mu_plus, *self.mu_minus):
            if np.min(s.values) <= 0:
                raise ValueError("friction thresholds must be strictly positive")
        object.__setattr__(self, "rest_lengths", tuple(self.rest_lengths))
        object.__setattr__(self, "mu_plus", tuple(self.mu_plus))
        object.__setattr__(self, "mu_minus", tuple(self.mu_minus))

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
# Energy, dissipation, admissibility

def rest_length_values(g: Gait, t: float) -> np.ndarray:
    return np.array([eval_signal(s, t) for s in g.rest_lengths])


def friction_values(g: Gait, t: float):
    mup = np.array([eval_signal(s, t) for s in g.mu_plus])
    mum = np.array([eval_signal(s, t) for s in g.mu_minus])
    return mup, mum


def energy(g: Gait, t: float, x) -> float:
    z = pi_z(x)
    ell = rest_length_values(g, t)
    return float(0.5 * g.stiffness * np.sum((z - ell) ** 2))


def energy_gradient(g: Gait, t: float, x) -> np.ndarray:
    z = pi_z(x)
    ell = rest_length_values(g, t)
    PZ = shape_matrix(g.num_blocks)
    return PZ.T @ (g.stiffness * (z - ell))


def dissipation(g: Gait, t: float, v) -> float:
    v = np.asarray(v, dtype=float)
    mup, mum = friction_values(g, t)
    return float(np.sum(mup * np.maximum(v, 0.0) + mum * np.maximum(-v, 0.0)))


def admissible(g: Gait, t: float, x) -> bool:
    """True iff the elastic force -dE/dx lies within the friction bounds."""
    force = -energy_gradient(g, t, x)
    mup, mum = friction_values(g, t)
    return bool(np.all(force <= mup + DEFAULT_TOL) and np.all(force >= -mum - DEFAULT_TOL))


# ---------------------------------------------------------------------------
# Polyhedra of the model

def build_force_polyhedron(g: Gait) -> MovingPolyhedron:
    """Admissible-force set {xi : -mu_i^-(t) <= xi_i <= mu_i^+(t)} in R^N.

    Constraint i < N is the block-i forward bound (+mu^+), constraint N+i the
    block-i backward bound.
    """
    N = g.num_blocks
    eye = np.eye(N)
    normals = np.vstack([eye, -eye])
    offsets = tuple(g.mu_plus) + tuple(g.mu_minus)
    return MovingPolyhedron(normals, offsets)


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
    """min over subsets J of |sum_J mu^+ - sum_{J^c} mu^-| at time t."""
    report = _margin_scan(g, [t])[0]
    return report.min_margin, report.worst_subset


def _margin_scan(g: Gait, times):
    """Margins at each time and the report on their first minimum.

    Column bits of the subset-sum table holds the sum of mu_i^+ + mu_i^- over the
    blocks i set in bits, added in ascending block order; argmin keeps the first
    minimum in bitmask order, then in time. Blocks of rows bound the memory.
    """
    N = g.num_blocks
    if N > 16:
        raise EnumerationCapError("margin enumeration supports at most 16 blocks")
    times = np.asarray(times, dtype=float)
    # (times x N) tables: each row of mum sums in the same order as a 1-d array.
    mup = np.column_stack([eval_many(s, times) for s in g.mu_plus])
    mum = np.column_stack([eval_many(s, times) for s in g.mu_minus])
    both = mup + mum
    total_minus = mum.sum(axis=1)
    margins = np.empty(len(times))
    best = np.empty(len(times), dtype=np.int64)
    rows = max(1, _MARGIN_BLOCK_SUMS >> N)
    for lo in range(0, len(times), rows):
        block = slice(lo, lo + rows)
        sums = np.zeros((len(margins[block]), 1 << N))
        for i in range(N):
            np.add(sums[:, : 1 << i], both[block, i, None], out=sums[:, 1 << i : 2 << i])
        sums -= total_minus[block, None]
        np.abs(sums, out=sums)
        best[block] = sums.argmin(axis=1)
        margins[block] = sums.min(axis=1)
    i = int(np.argmin(margins))
    bits = int(best[i])
    subset = tuple(j for j in range(N) if bits >> j & 1)
    return MarginReport(float(margins[i]), float(times[i]), subset), margins


def check_gait_uniqueness(g: Gait, times) -> MarginReport:
    return _margin_scan(g, times)[0]


def _margin_gate(g: Gait, times) -> MarginReport:
    report, margins = _margin_scan(g, times)
    frac = float(np.mean(margins <= DEFAULT_TOL))
    if frac > MARGIN_REJECT_FRACTION:
        raise DegenerateGaitError(
            f"uniqueness margin vanishes on {frac:.1%} of the grid "
            f"(worst {report.min_margin:.3e} at t={report.worst_time})"
        )
    if frac > 0:
        warnings.warn(
            f"uniqueness margin vanishes on {frac:.1%} of the grid; results may be fragile",
            stacklevel=2,
        )
    return report


# ---------------------------------------------------------------------------
# Reduced pipeline

@dataclass(frozen=True)
class Motion:
    """Block positions over a run, with the shape/mean split precomputed."""

    times: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)   # (K+1, N)
    steps_per_period: int
    period: float

    @property
    def mean_positions(self) -> np.ndarray:
        return self.positions.mean(axis=1)

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(self.positions, axis=1)

    @property
    def periods(self) -> int:
        return (len(self.positions) - 1) // self.steps_per_period


@dataclass(frozen=True)
class CrawlerRun:
    gait: Gait
    reduced: Trajectory
    motion: Motion
    margin: MarginReport


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
    """Integrate the reduced sweeping process and recover the full motion."""
    h = _grid_step(g.period, t0, periods, steps_per_period)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (g.num_blocks,):
        raise ValueError(f"x0 must have {g.num_blocks} entries")
    if not admissible(g, t0, x0):
        raise InadmissibleStateError("initial configuration violates the force bounds")
    grid = t0 + h * np.arange(steps_per_period)
    margin = _margin_gate(g, grid)

    K = build_moving_set(g)
    problem = SweepingProblem(K)
    w0 = -g.stiffness * pi_z(x0)
    traj = simulate(problem, w0, t0, periods, steps_per_period)

    dy = recover_translation(traj.multipliers, g.stiffness, g.num_blocks)
    y = pi_y(x0) + np.concatenate(([0.0], np.cumsum(dy)))
    z = -traj.states / g.stiffness
    positions = assemble_positions(y, z)
    motion = Motion(traj.times, positions, steps_per_period, g.period)
    return CrawlerRun(g, traj, motion, margin)


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
    patterns: np.ndarray = field(repr=False)   # (K, N) in {-1, 0, +1}


def _pattern_list(N: int):
    """The 3^N - 2^N slip patterns with a sticking block, fewest slips first.

    An all-slip pattern leaves the enumeration: its force balance is
    consistent only where the uniqueness margin vanishes, and there its
    solutions form a segment x* + c*1 with a block at rest at one end, and
    the pattern that makes that block stick passes with N-1 slips, earlier.
    """
    pats = [p for p in itertools.product((0, 1, -1), repeat=N) if 0 in p]
    pats.sort(key=lambda p: (sum(1 for s in p if s != 0), p))
    return pats


class _PatternSystem:
    """Index sets and matrix blocks of one slip pattern.

    Sticking blocks T keep their positions; slipping blocks S solve
    A_SS x_S = b_S - target_S - A_ST x_T, with target mu^+ for forward and
    -mu^- for backward slip.
    """

    def __init__(self, A: np.ndarray, negA: np.ndarray, pat: tuple):
        N = len(pat)
        self.negA = negA
        self.slips = np.array([i for i in range(N) if pat[i] != 0], dtype=np.intp)
        self.sticks = np.array([i for i in range(N) if pat[i] == 0], dtype=np.intp)
        self.forward = np.array(pat)[self.slips] > 0
        self.ahead = [i for i in range(N) if pat[i] > 0]
        self.back = [i for i in range(N) if pat[i] < 0]
        self.still = self.sticks.tolist()
        if len(self.slips):
            self.A_SS = A[np.ix_(self.slips, self.slips)]
            self.A_ST = A[np.ix_(self.slips, self.sticks)]


class _PatternTable(dict):
    """Per-run cache of pattern systems, filled on first use."""

    def __init__(self, A: np.ndarray):
        super().__init__()
        self.A = A
        self.negA = -A

    def __missing__(self, pat):
        system = self[pat] = _PatternSystem(self.A, self.negA, pat)
        return system


def incremental_oracle(
    g: Gait,
    x0,
    t0: float,
    periods: int,
    steps_per_period: int,
) -> OracleRun:
    """Full-space incremental minimizer x_{k+1} = argmin E(t,x) + R(t, x - x_k).

    Solved exactly per step by enumerating the forward/stick/backward slip
    patterns with at least one sticking block (``_pattern_list``): sticking
    blocks are pinned, slipping blocks satisfy the linear force balance at
    their saturated threshold, and the first pattern passing the sign and
    bound checks is accepted (patterns with fewer slipping blocks first).

    Every step starts in a block (``_pattern_block``): the current pattern,
    all-stick at step 0, is solved over the steps up to the end of the
    period and cut at the first step where it fails. Only there does the
    enumeration run, with the block's miss as its nearest miss, and the
    pattern it accepts starts the next block.
    """
    M = int(steps_per_period)
    h = _grid_step(g.period, t0, periods, M)
    N = g.num_blocks
    if N > 8:
        raise EnumerationCapError("slip-pattern enumeration supports at most 8 blocks")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (N,):
        raise ValueError(f"x0 must have {N} entries")
    if not admissible(g, t0, x0):
        raise InadmissibleStateError("initial configuration violates the force bounds")

    ell_phase = _phase_table(g.rest_lengths, t0, h, M)
    mup_phase = _phase_table(g.mu_plus, t0, h, M)
    mum_phase = _phase_table(g.mu_minus, t0, h, M)

    PZ = shape_matrix(N)
    A = g.stiffness * (PZ.T @ PZ)   # force(x) = -A x + k PZ^T ell
    # One stacked matrix-vector product per phase, bit-equal to PZ.T @ ell per row.
    b_phase = g.stiffness * (PZ.T @ ell_phase[..., None])[..., 0]
    patterns = _pattern_list(N)
    table = _PatternTable(A)

    K = periods * M
    xs = np.empty((K + 1, N))
    xs[0] = x0
    chosen = np.zeros((K, N), dtype=np.int8)
    x = x0.copy()
    hint = patterns[0]   # all-stick: every step starts in a block
    k = 0
    while k < K:
        ph = (k + 1) % M
        end = ph + min(M - ph, K - k)
        rows, violation = _pattern_block(
            x, table[hint], b_phase[ph:end], mup_phase[ph:end], mum_phase[ph:end]
        )
        n = len(rows)
        if n:
            xs[k + 1 : k + 1 + n] = rows
            chosen[k : k + n] = hint
            x = rows[-1]
            k += n
        if violation is None:
            continue
        # The block stopped at step k: enumerate there, with the block's
        # pattern as the nearest miss.
        ph = (k + 1) % M
        try:
            x, hint = _oracle_step(
                x, b_phase[ph], mup_phase[ph], mum_phase[ph], table, patterns, (violation, hint)
            )
        except PatternSearchError as exc:
            raise PatternSearchError(f"step {k}, t={t0 + (k + 1) * h:.17g}: {exc}") from exc
        xs[k + 1] = x
        chosen[k] = hint
        k += 1
    times = t0 + h * np.arange(K + 1)
    motion = Motion(times, xs, M, g.period)
    return OracleRun(g, motion, chosen)


def _pattern_block(x, system, b, mup, mum):
    """Run one slip pattern over consecutive steps, cut at the first step it fails.

    b, mup and mum hold one row per step. Sticking blocks keep x, so every
    slipping row is solved at once; each row must then pass ``_try_pattern``'s
    own tests: slipping blocks move in their direction from the previous row,
    sticking forces stay within the friction bounds. The stacked solve and
    matrix-vector products make the same LAPACK/BLAS call per row as the
    single-step path, so the rows are bit-equal to it. Returns the rows that
    pass and the pattern's violation at the first failing row (None if every
    row passes).
    """
    S, T = system.slips, system.sticks
    rows = np.repeat(x[None, :], len(b), axis=0)
    if len(S):
        target = np.where(system.forward, mup[:, S], -mum[:, S])
        rhs = b[:, S] - target - system.A_ST @ x[T]
        rows[:, S] = np.linalg.solve(system.A_SS, rhs[..., None])[..., 0]
    force = (system.negA @ rows[..., None])[..., 0] + b
    prev = np.concatenate((x[None, :], rows[:-1]))
    terms = np.concatenate(
        (
            prev[:, system.ahead] - rows[:, system.ahead],
            rows[:, system.back] - prev[:, system.back],
            force[:, T] - mup[:, T],
            -mum[:, T] - force[:, T],
        ),
        axis=1,
    )
    # As in _try_pattern's running max, a NaN term never counts as a violation.
    failing = np.flatnonzero((terms > DEFAULT_TOL).any(axis=1))
    if not len(failing):
        return rows, None
    cut = failing[0]
    return rows[:cut], float(np.nanmax(terms[cut]))


def _oracle_step(x, b, mup, mum, table, patterns, nearest):
    """First of patterns whose KKT violation is within DEFAULT_TOL, with its solution.

    nearest is the closest miss already seen, as (violation, pattern).
    """
    for pat in patterns:
        x_new, violation = _try_pattern(x, b, mup, mum, table[pat])
        if violation <= DEFAULT_TOL:
            return x_new, pat
        if violation < nearest[0]:
            nearest = (violation, pat)
    raise PatternSearchError(
        f"no consistent slip pattern; nearest miss {nearest[1]} violates by {nearest[0]:.3e}"
    )


def _try_pattern(x, b, mup, mum, system):
    """Solve a slip pattern and return (candidate, worst KKT violation)."""
    S = system.slips
    x_new = x.copy()
    if len(S):
        target = np.where(system.forward, mup[S], -mum[S])
        rhs = b[S] - target - system.A_ST @ x[system.sticks]
        x_new[S] = np.linalg.solve(system.A_SS, rhs)
    force = (system.negA @ x_new + b).tolist()
    old, new = x.tolist(), x_new.tolist()
    hi, lo = mup.tolist(), mum.tolist()
    violation = 0.0
    for i in system.ahead:
        violation = max(violation, old[i] - new[i])          # must move forward
    for i in system.back:
        violation = max(violation, new[i] - old[i])          # must move backward
    for i in system.still:
        violation = max(violation, force[i] - hi[i], -lo[i] - force[i])
    return x_new, violation
