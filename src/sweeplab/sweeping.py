"""Catching-up integration of dz/dt in -N_{C(t)}(z) and convergence diagnostics.

The integrator is the classical catching-up scheme: project the previous
state (plus an explicit-Euler drift increment) onto the set frozen at the end
of the step. The step size h = T/M divides the period exactly and all signal
breakpoints must lie on the grid; offsets are evaluated once per grid phase,
so the discrete system is exactly T-periodic and finite-time convergence can
be tested at tolerances near machine precision instead of O(h).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import GridAlignmentError, InadmissibleStateError, InfeasibleSetError, LicqError
from .polyhedra import (
    DEFAULT_TOL,
    FrozenPolyhedron,
    MovingPolyhedron,
    _active_mask,
    _independent,
    _project_raw,
    _subset_table,
    project,
)
from .signals import PeriodicSignal, eval_many, shares_period

FLOAT_FMT = "%.17g"
FINITE_TIME_TOL = 1e-9   # period distance at which a run counts as converged
_RATIO_SPREAD = 0.2      # relative spread below which per-period ratios count as geometric
_MONOTONE_SLACK = 1e-12  # rounding allowance per step of hypomonotone_check
_CSV_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class SweepingProblem:
    """A moving polyhedron plus an optional additive drift term."""

    moving_set: MovingPolyhedron
    drift: tuple | None = None

    def __post_init__(self):
        if self.drift is not None:
            drift = tuple(self.drift)
            if len(drift) != self.moving_set.dim:
                raise ValueError("drift needs one signal per coordinate")
            for s in drift:
                if not shares_period(s, self.period):
                    raise ValueError("drift signals must share the moving-set period")
            object.__setattr__(self, "drift", drift)

    @property
    def period(self) -> float:
        return self.moving_set.period

    @property
    def dim(self) -> int:
        return self.moving_set.dim

    def to_json(self) -> dict:
        return {
            "moving_set": self.moving_set.to_json(),
            "drift": None if self.drift is None else [s.to_json() for s in self.drift],
        }

    @staticmethod
    def from_json(obj: dict) -> "SweepingProblem":
        drift = obj.get("drift")
        return SweepingProblem(
            MovingPolyhedron.from_json(obj["moving_set"]),
            None if drift is None else tuple(PeriodicSignal.from_json(s) for s in drift),
        )


@dataclass(frozen=True)
class Trajectory:
    """Discrete solution record of a catching-up run.

    states has Q*M+1 rows; multipliers row k holds the projection multipliers
    of the step landing at states[k+1]; active_masks[k] is the bitmask of the
    active set at states[k] against the set frozen at t_k.
    """

    problem: SweepingProblem
    t0: float
    h: float
    steps_per_period: int
    states: np.ndarray = field(repr=False)
    multipliers: np.ndarray = field(repr=False)
    active_masks: np.ndarray = field(repr=False)

    @property
    def periods(self) -> int:
        return (len(self.states) - 1) // self.steps_per_period

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.states)) * self.h


def _grid(T: float, t0: float, periods: int, M: int, **signals):
    """The grid of a run of `periods` periods of M steps from t0:
    (h, breaks, *tables), one table per named signal list.

    h = T/M. breaks holds the int64 grid indices i of the breakpoints
    t0 + i*h of every list that is not None, in the order named (empty when
    none is). A table holds a list's (M x len) values at the phases t0 + k*h,
    k < M, or is None for a list that is None.

    Raises ValueError unless periods and M are positive integers (a bool is
    not one); GridAlignmentError when floats near |t0| + T lie more than
    1e-6*h apart, so the clock t0 + k*h could not resolve the steps, or when
    a breakpoint lies more than 1e-6*h off the grid, named by its keyword.
    """
    for name, count in (("periods", periods), ("steps_per_period", M)):
        try:
            operator.index(count)
            if isinstance(count, bool):
                raise TypeError
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {count!r}") from None
    if periods < 1 or M < 1:
        raise ValueError("periods and steps_per_period must be positive")
    h = T / M
    spacing = float(np.spacing(abs(t0) + T))
    if spacing > 1e-6 * h:
        raise GridAlignmentError(
            f"t0={t0} is too large for the step h={h}: floats near it are {spacing:.3e} apart"
        )
    breaks = [np.empty(0)]
    for label, sigs in signals.items():
        for i, s in enumerate(sigs or ()):
            r = (s.times - t0) / h
            breaks.append(np.round(r))
            off = np.abs(r - breaks[-1])
            if np.any(off > 1e-6):
                bad = s.times[int(np.argmax(off))]
                raise GridAlignmentError(
                    f"{label}[{i}] breakpoint t={bad} is not on the grid (t0={t0}, h={h})"
                )
    phases = t0 + np.arange(M) * h
    tables = [None if sigs is None else np.column_stack([eval_many(s, phases) for s in sigs])
              for sigs in signals.values()]
    return (h, np.concatenate(breaks).astype(np.int64), *tables)


def step(F_next: FrozenPolyhedron, z, drift_value, h: float):
    """One catching-up step: project z + h*drift onto the next frozen set."""
    z = np.asarray(z, dtype=float)
    p = z if drift_value is None else z + h * np.asarray(drift_value, dtype=float)
    res = project(F_next, p)
    return res.point, res.multipliers


def _face_maps(B, subset, faces):
    """(idx, B_S, G_S^-1, Pi_S, R_S) for an accepted subset, read-only, built
    on first use into faces, the face-map dict of B's subset table."""
    face = faces.get(subset)
    if face is None:
        idx = np.array(subset)
        BS = B[idx]
        Ginv = np.linalg.inv(BS @ BS.T)
        R = BS.T @ Ginv
        face = faces[subset] = (idx, BS, Ginv, np.eye(B.shape[1]) - R @ BS, R)
        for a in face:
            a.setflags(write=False)
    return face


def _segment(B, c, dz, z, face):
    """Run the steps of one block from z with the accepted subset held fixed.

    c holds the offsets each step projects onto and dz its drift increments
    (None without drift); face is _face_maps's tuple, or None for interior
    steps. Every step must pass the tests _project_raw applies to each
    candidate, in the same order: p not interior, multipliers >= -DEFAULT_TOL,
    the new state feasible. Returns (accepted steps, states, multipliers on
    the subset), the arrays covering the whole block.
    """
    L = len(c)
    # Running sum of the drift increments, added in the same order as the
    # scalar loop, so interior blocks are bit-identical to scalar steps.
    q = z if dz is None else np.cumsum(np.vstack([z, dz]), axis=0)[1:]
    if face is None:
        Z = np.broadcast_to(q, (L, len(z)))
        return _accepted(np.all(c - Z @ B.T >= -DEFAULT_TOL, axis=1)), Z, None
    idx, BS, Ginv, Pi, R = face
    cS = c[:, idx]
    # With S fixed, z_{j+1} = Pi_S (z_k + h sum d) + R_S c_S(j), since Pi_S R_S = 0.
    Z = q @ Pi.T + cS @ R.T
    P = np.vstack([z, Z[:-1]])
    if dz is not None:
        P += dz
    lam = (P @ BS.T - cS) @ Ginv.T
    ok = (
        ~np.all(c - P @ B.T >= -DEFAULT_TOL, axis=1)
        & np.all(lam >= -DEFAULT_TOL, axis=1)
        & np.all(Z @ B.T <= c + DEFAULT_TOL, axis=1)
    )
    return _accepted(ok), Z, lam


def _accepted(ok) -> int:
    """Length of the leading run of True in ok."""
    return len(ok) if ok.all() else int(np.argmin(ok))


def simulate(
    problem: SweepingProblem,
    z0,
    t0: float,
    periods: int,
    steps_per_period: int,
) -> Trajectory:
    """Run Q*M catching-up steps with h = T/M from an admissible state.

    Offsets and drift are evaluated at the M grid phases once, so offsets are
    bit-identical across periods and the discrete flow is exactly periodic.
    The drift is evaluated at the left endpoint of each step.

    Each scalar projection is followed by one vectorized block over the rest
    of its period, with the accepted subset held fixed: between active-set
    changes the scheme is a fixed affine map. The block stops at the first
    step that would not accept that subset, which goes back to the scalar
    projection, a full search in the fixed candidate order. The block is the
    only warm start.

    A period of the loop is a pure function of the state it starts from: the
    phase tables, the subset table and its face maps are fixed for the run,
    and blocks never cross a period boundary. So once a period starts from
    the state, bit for bit, that the period before started from, the run is
    on an exact periodic orbit, and the remaining periods are copies of the
    last one.
    """
    M = steps_per_period
    P = problem.moving_set
    h, _, offsets_phase, drift_phase = _grid(
        problem.period, t0, periods, M, offset=P.offsets, drift=problem.drift
    )

    B = P.normals
    m, n = B.shape
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (n,):
        raise ValueError(f"initial state has shape {z0.shape}, expected ({n},)")
    if not np.isfinite(z0).all():
        raise ValueError(f"initial state {z0} is not finite")

    if np.any(B @ z0 > offsets_phase[0] + DEFAULT_TOL):
        worst = float(np.max(B @ z0 - offsets_phase[0]))
        raise InadmissibleStateError(f"constraint violation {worst:.3e} at t0={t0}")

    table = _subset_table(B)
    K = periods * M
    states = np.empty((K + 1, n))
    multipliers = np.zeros((K, m))
    states[0] = z0

    # Row ph holds what step k with k % M == ph uses: the offsets frozen at
    # its end and its drift increment.
    c_next = np.roll(offsets_phase, -1, axis=0)
    dz = None if drift_phase is None else h * drift_phase

    z = z0.copy()
    k = 0
    while k < K:
        ph = k % M
        if ph == 0 and k >= M and states[k].tobytes() == states[k - M].tobytes():
            states[k + 1 :].reshape(-1, M, n)[:] = states[k - M + 1 : k + 1]
            multipliers[k:].reshape(-1, M, m)[:] = multipliers[k - M : k]
            break
        p = z if dz is None else z + dz[ph]
        try:
            z, lam, subset = _project_raw(B, c_next[ph], table, p)
        except InfeasibleSetError as exc:
            raise InfeasibleSetError(f"step {k}, t={t0 + (k + 1) * h:.17g}: {exc}") from exc
        states[k + 1] = z
        multipliers[k] = lam
        k += 1
        # Blocks never cross a period boundary, so every period starts with a
        # scalar step and the discrete map stays exactly T-periodic.
        if k % M:
            rows = slice(k % M, M)
            face = _face_maps(B, subset, table[3]) if subset else None
            used, Z, lam = _segment(
                B, c_next[rows], None if dz is None else dz[rows], z, face
            )
            states[k + 1 : k + 1 + used] = Z[:used]
            if face is not None:
                multipliers[k : k + used, face[0]] = np.maximum(lam[:used], 0.0)
            k += used
            z = states[k]

    # One product per period, so a copied period's masks are its source's.
    masks = np.concatenate([
        _active_mask(B, offsets_phase[0], states[:1]),
        _active_mask(B, c_next, states[1:].reshape(periods, M, n)).ravel(),
    ])
    states.setflags(write=False)
    multipliers.setflags(write=False)
    masks.setflags(write=False)
    return Trajectory(problem, float(t0), h, M, states, multipliers, masks)


# ---------------------------------------------------------------------------
# Per-period distances and classification

def poincare_samples(traj: Trajectory) -> np.ndarray:
    """States at t0, t0+T, ..., t0+QT read off the grid."""
    return traj.states[:: traj.steps_per_period]


def _period_deltas(traj: Trajectory) -> np.ndarray:
    """z(t_k + qT) - z(t_k + (q+1)T) over grid points qM..(q+1)M of every window q,
    as a contiguous (Q-1, M+1, n) array, so that per-window sums keep their order."""
    M = traj.steps_per_period
    s = traj.states[: traj.periods * M + 1]
    delta = s[:-M] - s[M:]
    return np.concatenate([delta[:-1].reshape(-1, M, s.shape[1]), delta[M::M, None]], axis=1)


def period_distance_sup(traj: Trajectory, q: int) -> float:
    """max_k |z(t_k + qT) - z(t_k + (q+1)T)| over one period window."""
    if q < 0 or q + 2 > traj.periods:
        raise IndexError(f"window {q} out of range for {traj.periods} periods")
    return float(period_distances_sup(traj)[q])


def period_distances_sup(traj: Trajectory) -> np.ndarray:
    return _sup_distances(_period_deltas(traj))


def _sup_distances(delta: np.ndarray) -> np.ndarray:
    return np.max(np.linalg.norm(delta, axis=2), axis=1)


def period_distance_w12(traj: Trajectory, q: int) -> float:
    """Discrete W^{1,2} distance between consecutive period windows.

    Uses forward divided differences; the last grid point of the window
    reuses the previous difference.
    """
    if q < 0 or q + 2 > traj.periods:
        raise IndexError(f"window {q} out of range for {traj.periods} periods")
    return float(period_distances_w12(traj)[q])


def period_distances_w12(traj: Trajectory) -> np.ndarray:
    return _w12_distances(_period_deltas(traj), traj.h)


def _w12_distances(delta: np.ndarray, h: float) -> np.ndarray:
    dd = np.diff(delta, axis=1) / h
    dd = np.concatenate([dd, dd[:, -1:]], axis=1)
    return np.sqrt(h * np.sum(delta**2, axis=(1, 2)) + h * np.sum(dd**2, axis=(1, 2)))


@dataclass(frozen=True)
class Classification:
    kind: str                 # "finite-time" | "geometric" | "undetermined"
    period: int | None = None
    ratio: float | None = None

    def to_json(self) -> dict:
        return {"kind": self.kind, "period": self.period, "ratio": self.ratio}


def classify_convergence(traj: Trajectory) -> Classification:
    """Classify the per-period sup-distance sequence of a run of at least 2 periods.

    Finite-time at q* when d_q <= FINITE_TIME_TOL for all q >= q* (q* minimal).
    Otherwise geometric with the median ratio over the largest suffix of the
    above-tolerance run whose ratios have relative spread below _RATIO_SPREAD
    (early windows may carry a transient in the sup geometry and are dropped
    only when the full run fails the spread test); undetermined when no
    suffix with at least two ratios qualifies.
    """
    return _classify(period_distances_sup(traj))


def _classify(d: np.ndarray) -> Classification:
    if len(d) < 1:
        raise ValueError(f"need at least 2 periods, have {len(d) + 1}")
    if d[-1] <= FINITE_TIME_TOL:
        above = np.flatnonzero(d > FINITE_TIME_TOL)
        qstar = 0 if len(above) == 0 else int(above[-1]) + 1
        return Classification("finite-time", period=qstar)
    qa = len(d) - 1
    while qa > 0 and d[qa - 1] > FINITE_TIME_TOL:
        qa -= 1
    ratios = d[qa + 1 :] / d[qa:-1]
    for start in range(len(ratios) - 1):
        tail = ratios[start:]
        med = float(np.median(tail))
        spread = float((np.max(tail) - np.min(tail)) / med) if med > 0 else np.inf
        if spread < _RATIO_SPREAD:
            return Classification("geometric", ratio=med)
    return Classification("undetermined")


# ---------------------------------------------------------------------------
# Multiplier diagnostics

def lambda_series(traj: Trajectory) -> np.ndarray:
    """Per-constraint rate coefficients lambda_i(t_k) = eta_{k,i} / h."""
    return traj.multipliers / traj.h


def _visited_licq(traj: Trajectory, lo: int, hi: int) -> None:
    """Raise LicqError for the first active set visited at steps lo..hi-1
    whose normals are dependent, naming the step of that first visit and its time."""
    B = traj.problem.moving_set.normals
    masks = traj.active_masks[lo:hi]
    for j in np.sort(np.unique(masks, return_index=True)[1]).tolist():
        mask = int(masks[j])
        idx = [i for i in range(B.shape[0]) if mask >> i & 1]
        if len(idx) > 1 and not _independent(B[idx]):
            k = lo + j
            raise LicqError(
                f"step {k}, t={traj.t0 + k * traj.h:.17g}: "
                f"visited active set {tuple(idx)} has dependent normals"
            )


def lambda_convergence(traj: Trajectory, q: int) -> np.ndarray:
    """Per-constraint discrete L2 distance between the multiplier rates of
    windows q and q+1. Raises LicqError if a visited face is degenerate."""
    M = traj.steps_per_period
    if q < 0 or (q + 2) * M > len(traj.multipliers):
        raise IndexError(f"window {q} out of range")
    lam = lambda_series(traj)
    a = lam[q * M : (q + 1) * M]
    b = lam[(q + 1) * M : (q + 2) * M]
    _visited_licq(traj, q * M + 1, (q + 2) * M + 1)
    return np.sqrt(traj.h * np.sum((a - b) ** 2, axis=0))


def hypomonotone_check(traj1: Trajectory, traj2: Trajectory) -> bool:
    """True iff |z1_k - z2_k| is nonincreasing (same problem, same grid).

    Discrete projections onto a common convex set are jointly nonexpansive,
    so for zero-drift problems this holds exactly up to rounding.
    """
    if (
        traj1.steps_per_period != traj2.steps_per_period
        or len(traj1.states) != len(traj2.states)
        or abs(traj1.t0 - traj2.t0) > 1e-12
        or abs(traj1.h - traj2.h) > 1e-15
    ):
        raise ValueError("trajectories live on different grids")
    d = np.linalg.norm(traj1.states - traj2.states, axis=1)
    return bool(np.all(np.diff(d) <= _MONOTONE_SLACK))


def estimate_limit_cycle(traj: Trajectory):
    """Last full period window and its residual sup-distance to the window before."""
    return _limit_cycle(traj, period_distances_sup(traj))


def _limit_cycle(traj: Trajectory, d_sup: np.ndarray):
    if traj.periods < 2:
        raise ValueError("need at least 2 periods to estimate a limit cycle")
    return traj.states[-(traj.steps_per_period + 1) :], float(d_sup[-1])


@dataclass(frozen=True)
class ConvergenceReport:
    d_sup: np.ndarray
    d_w12: np.ndarray
    classification: Classification
    cycle: np.ndarray = field(repr=False)
    residual: float

    def to_json(self) -> dict:
        return {
            "d_sup": [float(x) for x in self.d_sup],
            "d_w12": [float(x) for x in self.d_w12],
            "classification": self.classification.to_json(),
            "residual": float(self.residual),
        }


def convergence_report(traj: Trajectory) -> ConvergenceReport:
    delta = _period_deltas(traj)
    d_sup = _sup_distances(delta)
    cycle, residual = _limit_cycle(traj, d_sup)
    return ConvergenceReport(
        d_sup=d_sup,
        d_w12=_w12_distances(delta, traj.h),
        classification=_classify(d_sup),
        cycle=cycle,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# Trajectory validation and CSV round trip

def validate_trajectory(traj: Trajectory) -> None:
    """Check the discrete-solution invariants; raise ValueError on violation.

    The record's grid is checked first, by _grid over its whole periods, so
    a record shorter than one period is refused.
    """
    P = traj.problem.moving_set
    B = P.normals
    M = traj.steps_per_period
    K = len(traj.states) - 1
    h, _, offsets_phase, drift_phase = _grid(
        P.period, traj.t0, traj.periods, M, offset=P.offsets, drift=traj.problem.drift
    )
    for k in range(K):
        z_next = traj.states[k + 1]
        c_next = offsets_phase[(k + 1) % M]
        if np.any(B @ z_next > c_next + 10 * DEFAULT_TOL):
            raise ValueError(f"state {k + 1} infeasible")
        p = traj.states[k]
        if drift_phase is not None:
            p = p + h * drift_phase[k % M]
        recon = p - z_next - B.T @ traj.multipliers[k]
        if np.linalg.norm(recon) > 1e-10 * (1.0 + np.linalg.norm(p)):
            raise ValueError(f"multiplier reconstruction fails at step {k}")
        resid = c_next - B @ z_next
        support = np.flatnonzero(traj.multipliers[k] > 0)
        if np.any(resid[support] > 10 * DEFAULT_TOL):
            raise ValueError(f"multiplier support not active at step {k}")


def _write_csv(path, header, t, body: np.ndarray, body_fmt: str, newline: str) -> None:
    """Header, then one line per row: its t, then the text of its body row.

    Each distinct body (by its bits, so -0.0 and 0.0 differ) is formatted
    once, by one `%` in the first block of _CSV_BLOCK_ROWS lines that uses it,
    into a line template; a second `%` over the block's joined templates fills
    in its t values. Body text holds no '%': %.17g and %d print only digits,
    signs, '.', 'e', 'nan' and 'inf'. The file is the same as formatting every row.
    """
    ids, firsts = _distinct_rows(body)
    line = FLOAT_FMT.replace("%", "%%") + "," + body_fmt + newline
    templates = []
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + newline)
        for lo in range(0, len(t), _CSV_BLOCK_ROWS):
            block = ids[lo : lo + _CSV_BLOCK_ROWS].tolist()
            new = body[firsts[len(templates) : max(block) + 1]]
            templates += (line * len(new) % tuple(new.ravel().tolist())).split(newline)[:-1]
            text = newline.join([templates[i] for i in block]) + newline
            fh.write(text % tuple(t[lo : lo + _CSV_BLOCK_ROWS].tolist()))


def _distinct_rows(table: np.ndarray):
    """(ids, firsts): each row's number among the table's distinct rows by
    bits, numbered in order of first appearance, and the row where each first appears."""
    bits = np.ascontiguousarray(table).view(np.int64)
    order = np.lexsort(bits.T[::-1])   # stable: equal rows keep their order
    starts = np.zeros(len(order), dtype=bool)   # where a run of equal sorted rows starts
    starts[:1] = True
    for col in bits.T:                 # a column at a time: no sorted copy of the table
        col = col[order]
        starts[1:] |= col[1:] != col[:-1]
    firsts = order[starts]             # each distinct row's first, in sorted order
    rank = np.argsort(firsts)
    number = np.empty_like(rank)
    number[rank] = np.arange(len(rank))
    ids = np.empty_like(order)
    ids[order] = number[np.cumsum(starts) - 1]
    return ids, firsts[rank]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Rows t, z, the multipliers of the step landing at z, active bitmask; \\r\\n line ends.

    The rows of a state at rest, and the periods of an exact orbit (see
    simulate), repeat one another but for t: _write_csv formats each once.
    """
    n = traj.problem.dim
    m = traj.problem.moving_set.num_constraints
    header = (
        ["t"]
        + [f"z{i + 1}" for i in range(n)]
        + [f"eta_{i + 1}" for i in range(m)]
        + ["active_bitmask"]
    )
    body = np.column_stack([traj.states, np.vstack([np.zeros(m), traj.multipliers]), traj.active_masks])
    _write_csv(path, header, traj.times, body, ",".join([FLOAT_FMT] * (n + m) + ["%d"]), "\r\n")


def read_trajectory_csv(path, problem: SweepingProblem) -> Trajectory:
    """Rebuild a Trajectory from a CSV written by write_trajectory_csv."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = problem.dim
    m = problem.moving_set.num_constraints
    if data.shape[1] != 1 + n + m + 1:
        raise ValueError("CSV columns do not match the problem dimensions")
    times = data[:, 0]
    states = data[:, 1 : 1 + n]
    etas = data[1:, 1 + n : 1 + n + m]
    masks = data[:, -1].astype(np.int64)
    h = float(times[1] - times[0])
    M = int(round(problem.period / h))
    return Trajectory(problem, float(times[0]), problem.period / M, M, states, etas, masks)
