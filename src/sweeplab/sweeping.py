"""Catching-up integration of dz/dt in -N_{C(t)}(z) and convergence diagnostics.

The integrator is the classical catching-up scheme: project the previous
state (plus an explicit-Euler drift increment) onto the set frozen at the end
of the step. The step size h = T/M divides the period exactly and all signal
breakpoints must lie on the grid; offsets are evaluated once per grid phase,
so the discrete system is exactly T-periodic and finite-time convergence can
be tested at tolerances near machine precision instead of O(h).
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridAlignmentError, InadmissibleStateError, InfeasibleSetError, LicqError
from .polyhedra import (
    DEFAULT_TOL,
    MovingPolyhedron,
    _active_mask,
    _checked_vector,
    _independent,
    _project_raw,
    _subset_table,
)
from .signals import PeriodicSignal, _checked_signals, eval_many

FLOAT_FMT = "%.17g"
_RATIO_SPREAD = 0.2      # relative spread below which per-period ratios count as geometric
_CSV_BLOCK_ROWS = 1024
_REPORT_BLOCK_ROWS = 4096   # grid rows per block of convergence_report's period windows
_SPLIT_ROWS = 256           # fewest rows a stop hint must spare for _segment to split a block


@dataclass(frozen=True)
class SweepingProblem:
    """A moving polyhedron plus an optional additive drift term."""

    moving_set: MovingPolyhedron
    drift: tuple | None = None

    def __post_init__(self):
        if not isinstance(self.moving_set, MovingPolyhedron):
            raise TypeError(f"moving_set is not a MovingPolyhedron: {self.moving_set!r}")
        if self.drift is not None:
            drift = tuple(self.drift)
            if len(drift) != self.moving_set.dim:
                raise ValueError("drift needs one signal per coordinate")
            _checked_signals(drift, "drift", self.period, linear=False)
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
    active set at states[k] against the set frozen at t_k. h is T/M.
    """

    problem: SweepingProblem
    t0: float
    steps_per_period: int
    states: np.ndarray = field(repr=False)
    multipliers: np.ndarray = field(repr=False)

    @property
    def h(self) -> float:
        """The problem's T/M, as _grid computes it: a record has one grid."""
        return self.problem.period / self.steps_per_period

    @property
    def periods(self) -> int:
        return (len(self.states) - 1) // self.steps_per_period

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.states)) * self.h

    @cached_property
    def _offsets_phase(self) -> np.ndarray:
        """The (M+1 x m) offsets at the grid phases, from _grid.

        simulate and read_trajectory_csv store the table their _grid call
        built here; a record built otherwise, such as by dataclasses.replace,
        builds its own on first use."""
        P = self.problem.moving_set
        return _grid(P.period, self.t0, 1, self.steps_per_period, offset=P.offsets)[1]

    @cached_property
    def active_masks(self) -> np.ndarray:
        """Read off the states on first use, read-only: state k against table
        row k % M, states 0..QM-1 in one batched _active_mask call, then the rest."""
        P, M, Q = self.problem.moving_set, self.steps_per_period, self.periods
        c, z = self._offsets_phase, self.states
        masks = np.concatenate([_active_mask(P.normals, c[:M], z[: Q * M].reshape(Q, M, P.dim)).ravel(),
                                _active_mask(P.normals, c[: len(z) - Q * M], z[Q * M :])])
        masks.setflags(write=False)
        return masks


def _checked_count(name: str, count) -> None:
    """ValueError, naming the count, unless operator.index accepts it and it
    is not a bool."""
    try:
        operator.index(count)
        if isinstance(count, bool):
            raise TypeError
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {count!r}") from None


def _grid(T: float, t0: float, periods: int, M: int, **signals):
    """The grid of a run of `periods` periods of M steps from t0:
    (h, *tables), one table per named signal list.

    h = T/M. A table holds a list's (M+1 x len) values at the phases
    t0 + (k % M)*h, k = 0..M, or is None for a list that is None: row k is
    phase k, and row M repeats row 0. A step from phase ph departs from row
    ph (drift) and lands on row ph + 1 (offsets, rest lengths, thresholds).

    Raises ValueError unless periods and M are positive integers (a bool is
    not one) and t0 is finite; GridAlignmentError when floats near |t0| + T
    lie more than 1e-6*h apart, so the clock t0 + k*h could not resolve the
    steps, or when a breakpoint lies more than 1e-6*h off the grid, named by
    its keyword.
    """
    _checked_count("periods", periods)
    _checked_count("steps_per_period", M)
    if periods < 1 or M < 1:
        raise ValueError("periods and steps_per_period must be positive")
    if not math.isfinite(t0):
        raise ValueError(f"t0={t0} is not finite")
    h = T / M
    spacing = float(np.spacing(abs(t0) + T))
    if spacing > 1e-6 * h:
        raise GridAlignmentError(
            f"t0={t0} is too large for the step h={h}: floats near it are {spacing:.3e} apart"
        )
    for label, sigs in signals.items():
        for i, s in enumerate(sigs or ()):
            r = (s.times - t0) / h
            off = np.abs(r - np.round(r))
            if np.any(off > 1e-6):
                bad = s.times[int(np.argmax(off))]
                raise GridAlignmentError(
                    f"{label}[{i}] breakpoint t={bad} is not on the grid (t0={t0}, h={h})"
                )
    phases = t0 + np.arange(M + 1) % M * h
    tables = [None if sigs is None else np.column_stack([eval_many(s, phases) for s in sigs])
              for sigs in signals.values()]
    return (h, *tables)


def _segment(B, c, dz, z, face, stop=None):
    """Run the steps of one block from z with the accepted subset held fixed.

    c holds the offsets each step projects onto and dz its drift increments
    (None without drift); face is _project_raw's, or None for interior
    steps. Every step must pass the tests _project_raw applies to each
    candidate: p not interior, multipliers >= -DEFAULT_TOL, the new state
    feasible. Returns (accepted steps, states, multipliers on the subset)
    over the rows the block computed.

    stop is the row where the block is expected to fail, or None. When at
    least _SPLIT_ROWS rows follow row stop + 1, the block computes rows
    0..stop+1 first and the rest only if all of those pass. Each part is
    one product per quantity over at least 2 rows, and such a part's rows
    equal the same rows of the whole block's products bit for bit.
    """
    L = len(c)
    # Running sum of the drift increments, added in the same order as the
    # scalar loop, so interior blocks are bit-identical to scalar steps.
    q = z if dz is None else np.cumsum(np.vstack([z, dz]), axis=0)[1:]
    cut = L if stop is None or L - stop - 2 < _SPLIT_ROWS else stop + 2
    used, Z, lam = _segment_rows(B, c, dz, q, z, face, slice(0, cut))
    if used == cut < L:
        more, Z_rest, lam_rest = _segment_rows(B, c, dz, q, Z[-1], face, slice(cut, L))
        used, Z = used + more, np.concatenate([Z, Z_rest])
        lam = None if face is None else np.concatenate([lam, lam_rest])
    return used, Z, lam


def _segment_rows(B, c, dz, q, start, face, rows):
    """(passing steps, states, multipliers) of the block rows `rows`, from
    the running drift sums q (the block's start z without drift) and the
    state start that the step before the first row landed on."""
    c = c[rows]
    if dz is not None:
        q, dz = q[rows], dz[rows]
    if face is None:
        Z = np.broadcast_to(q, (len(c), len(start)))
        return _rows_passing(c - Z @ B.T >= -DEFAULT_TOL), Z, None
    idx, BS, Ginv, Pi, R = face
    cS = c[:, idx]
    # With S fixed, z_{j+1} = Pi_S (z_k + h sum d) + R_S c_S(j), since Pi_S R_S = 0.
    Z = q @ Pi.T + cS @ R.T
    P = np.vstack([start, Z[:-1]])
    if dz is not None:
        P += dz
    lam = (P @ BS.T - cS) @ Ginv.T
    return _face_steps(c, P @ B.T, lam, Z @ B.T), Z, lam


def _face_steps(c, PB, lam, ZB) -> int:
    """The leading rows of a face block that pass its three tests, from the
    block's products PB = P B^T and ZB = Z B^T and its multipliers lam.

    The rows before the first multiplier below -DEFAULT_TOL or the first
    bound that the new state exceeds by more than DEFAULT_TOL are found by
    scans; "p is not interior" needs whole rows, so it is tested only on
    the rows before that cut.
    """
    used = min(_rows_passing(lam >= -DEFAULT_TOL), _rows_passing(ZB <= c + DEFAULT_TOL))
    interior = np.all(c[:used] - PB[:used] >= -DEFAULT_TOL, axis=1)
    return int(np.argmax(interior)) if interior.any() else used


def _rows_passing(table) -> int:
    """The number of leading rows of the 2-D bool table that hold no False:
    one argmin over the flattened row-major table, which stops at the first False."""
    flat = table.ravel()
    i = int(np.argmin(flat))
    return len(table) if flat[i] else i // table.shape[1]


def simulate(
    problem: SweepingProblem,
    z0,
    t0: float,
    periods: int,
    steps_per_period: int,
) -> Trajectory:
    """Run Q*M catching-up steps with h = T/M from an admissible state.

    Offsets and drift are evaluated at the grid phases once, so offsets are
    bit-identical across periods and the discrete flow is exactly periodic.
    A step reads _grid's rows: its drift at its start, its offsets at its end.

    Each scalar projection is followed by one vectorized block over the rest
    of its period, with the accepted subset held fixed: between active-set
    changes the scheme is a fixed affine map. The block stops at the first
    step that would not accept that subset, which goes back to the scalar
    projection, a full search in the fixed candidate order. The block is the
    only warm start.

    The map is exactly T-periodic, so a block tends to stop where a block of
    the period before stopped: a block from phase r takes the previous
    period's first stop at or after r as its hint (_segment), and computes
    the rest of its period only when it passes the rows up to that stop.
    The hint changes which rows are computed, not their values.

    A period of the loop is a pure function of the state it starts from: the
    phase tables, the subset table and its face maps are fixed for the run,
    and blocks never cross a period boundary. So once a period starts from
    the state, bit for bit, that the period before started from, the run is
    on an exact periodic orbit, and the remaining periods are copies of the
    last one. That repeat is the one rule by which _classify calls a run
    finite-time: its per-period sup distances are exactly 0 from there on.
    """
    M = steps_per_period
    P = problem.moving_set
    h, c, drift_phase = _grid(
        problem.period, t0, periods, M, offset=P.offsets, drift=problem.drift
    )

    B = P.normals
    m, n = B.shape
    z0 = _checked_vector(z0, n, "initial state")

    if np.any(B @ z0 > c[0] + DEFAULT_TOL):
        worst = float(np.max(B @ z0 - c[0]))
        raise InadmissibleStateError(f"constraint violation {worst:.3e} at t0={t0}")

    table = _subset_table(B)
    K = periods * M
    states = np.empty((K + 1, n))
    multipliers = np.zeros((K, m))
    states[0] = z0

    dz = None if drift_phase is None else h * drift_phase[:M]

    z = z0.copy()
    k = 0
    stops = []   # the phases where this period's blocks stopped, in order
    while k < K:
        ph = k % M
        if ph == 0:
            if k >= M and states[k].tobytes() == states[k - M].tobytes():
                states[k + 1 :].reshape(-1, M, n)[:] = states[k - M + 1 : k + 1]
                multipliers[k:].reshape(-1, M, m)[:] = multipliers[k - M : k]
                break
            before, stops = stops, []
        p = z if dz is None else z + dz[ph]
        try:
            z, lam, _, face = _project_raw(B, c[ph + 1], table, p)
        except InfeasibleSetError as exc:
            raise InfeasibleSetError(f"step {k}, t={t0 + (k + 1) * h:.17g}: {exc}") from exc
        states[k + 1] = z
        multipliers[k] = lam
        k += 1
        # Blocks never cross a period boundary, so every period starts with a
        # scalar step and the discrete map stays exactly T-periodic.
        r = k % M
        if r:
            # The previous period's first stop at or after r, as this block's hint.
            i = bisect.bisect_left(before, r)
            used, Z, lam = _segment(
                B, c[r + 1 :], None if dz is None else dz[r:], z, face,
                before[i] - r if i < len(before) else None,
            )
            states[k + 1 : k + 1 + used] = Z[:used]
            if face is not None:
                multipliers[k : k + used, face[0]] = np.maximum(lam[:used], 0.0)
            k += used
            z = states[k]
            if k % M:
                stops.append(k % M)

    states.setflags(write=False)
    multipliers.setflags(write=False)
    traj = Trajectory(problem, float(t0), M, states, multipliers)
    traj.__dict__["_offsets_phase"] = c   # fills the cached_property: the run's own table
    return traj


# ---------------------------------------------------------------------------
# Per-period distances and classification

@dataclass(frozen=True)
class Classification:
    kind: str                 # "finite-time" | "geometric" | "undetermined"
    period: int | None = None
    ratio: float | None = None

    def to_json(self) -> dict:
        return {"kind": self.kind, "period": self.period, "ratio": self.ratio}


def _classify(d: np.ndarray) -> Classification:
    """Classify the per-period sup distances d of a run of at least 2 periods.

    Finite-time at q* when d_q == 0 for all q >= q* (q* minimal): the run
    repeats a whole period bit for bit, the test simulate makes before it copies.
    Otherwise geometric with the median ratio over the largest suffix of the
    trailing run of nonzero distances whose ratios have relative spread below
    _RATIO_SPREAD (early windows may carry a transient in the sup geometry and
    are dropped only when the full run fails the spread test); undetermined
    when no suffix with at least two ratios qualifies.
    """
    if len(d) < 1:
        raise ValueError(f"need at least 2 periods, have {len(d) + 1}")
    if d[-1] == 0:
        nonzero = np.flatnonzero(d)
        return Classification("finite-time", period=0 if len(nonzero) == 0 else int(nonzero[-1]) + 1)
    qa = len(d) - 1
    while qa > 0 and d[qa - 1] > 0:
        qa -= 1
    ratios = d[qa + 1 :] / d[qa:-1]
    for start in range(len(ratios) - 1):
        tail = ratios[start:]
        med = float(np.median(tail))
        spread = float((np.max(tail) - np.min(tail)) / med) if med > 0 else np.inf
        if spread < _RATIO_SPREAD:
            return Classification("geometric", ratio=med)
    return Classification("undetermined")


@dataclass(frozen=True)
class ConvergenceReport:
    d_sup: np.ndarray
    d_w12: np.ndarray
    classification: Classification
    residual: float

    def to_json(self) -> dict:
        return {
            "d_sup": [float(x) for x in self.d_sup],
            "d_w12": [float(x) for x in self.d_w12],
            "classification": self.classification.to_json(),
            "residual": float(self.residual),
        }


def convergence_report(traj: Trajectory) -> ConvergenceReport:
    """The per-period distances of a run of at least 2 periods, their
    classification (_classify) and the last sup distance as the residual.

    d_sup[q] is max_k |z(t_k + qT) - z(t_k + (q+1)T)| over period window q.
    d_w12[q] is the discrete W^{1,2} distance between windows q and q+1, from
    forward divided differences; the last grid point of the window reuses the
    previous difference.

    The windows are taken in blocks of about _REPORT_BLOCK_ROWS grid rows (one
    window when M + 1 is larger). A block's differences and divided differences
    fill two (k, M+1, n) buffers, squared once in place; the root of the
    largest row sum is the largest root, so d_sup needs one root per window.
    """
    h, M, s = traj.h, traj.steps_per_period, traj.states
    W, n = max(traj.periods - 1, 0), s.shape[1]
    k = max(1, _REPORT_BLOCK_ROWS // (M + 1))
    delta, slope = np.empty((2, min(k, W), M + 1, n))
    d_sup, d_w12 = np.empty(W), np.empty(W)
    rs, cs = s.strides
    for q in range(0, W, k):
        b = min(k, W - q)
        # Windows q..q+b, each of M+1 rows, overlapping in their end rows.
        win = np.lib.stride_tricks.as_strided(s[q * M :], (b + 1, M + 1, n), (M * rs, rs, cs),
                                              writeable=False)
        d, dd = delta[:b], slope[:b]
        np.subtract(win[:-1], win[1:], out=d)
        np.subtract(d[:, 1:], d[:, :-1], out=dd[:, :-1])
        np.divide(dd[:, :-1], h, out=dd[:, :-1])
        dd[:, -1] = dd[:, -2]
        np.square(d, out=d)
        np.square(dd, out=dd)
        d_sup[q : q + b] = np.sqrt(np.max(np.sum(d, axis=2), axis=1))
        d_w12[q : q + b] = np.sqrt(h * np.sum(d, axis=(1, 2)) + h * np.sum(dd, axis=(1, 2)))
    return ConvergenceReport(
        d_sup=d_sup,
        d_w12=d_w12,
        classification=_classify(d_sup),
        residual=float(d_sup[-1]),
    )


# ---------------------------------------------------------------------------
# Multiplier diagnostics

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
    """Per-constraint discrete L2 distance between the multiplier rates
    lambda_i(t_k) = eta_{k,i} / h of windows q and q+1. q must pass
    _checked_count; raises LicqError if a visited face is degenerate."""
    M = traj.steps_per_period
    _checked_count("q", q)
    if q < 0 or (q + 2) * M > len(traj.multipliers):
        raise IndexError(f"window {q} out of range")
    a = traj.multipliers[q * M : (q + 1) * M] / traj.h
    b = traj.multipliers[(q + 1) * M : (q + 2) * M] / traj.h
    _visited_licq(traj, q * M + 1, (q + 2) * M + 1)
    return np.sqrt(traj.h * np.sum((a - b) ** 2, axis=0))


# ---------------------------------------------------------------------------
# Trajectory validation and CSV round trip

def validate_trajectory(traj: Trajectory) -> None:
    """Check the discrete-solution invariants; raise ValueError on violation.

    The record's grid is checked first, by _grid over its whole periods, so
    a record shorter than one period is refused. Step k, from p = z_k plus
    its drift increment, must land on a feasible z_{k+1}, rebuild p - z_{k+1}
    from its multipliers and have every positive multiplier on an active
    bound. A test passes only where its comparisons hold, so a NaN fails it.
    _rows_passing judges one period's steps at a time; the error names the
    first failing step and, at it, the first failing test in that order.
    """
    P = traj.problem.moving_set
    B = P.normals
    M = traj.steps_per_period
    h, c, drift_phase = _grid(
        P.period, traj.t0, traj.periods, M, offset=P.offsets, drift=traj.problem.drift
    )
    dz = np.zeros((M, 1)) if drift_phase is None else h * drift_phase
    for lo in range(0, len(traj.states) - 1, M):
        Z = traj.states[lo + 1 : lo + 1 + M]
        L = len(Z)
        p, eta, C = traj.states[lo : lo + L] + dz[:L], traj.multipliers[lo : lo + L], c[1 : L + 1]
        ZB = Z @ B.T
        recon = np.linalg.norm(p - Z - eta @ B, axis=1) <= 1e-10 * (1.0 + np.linalg.norm(p, axis=1))
        firsts = [_rows_passing(ZB <= C + 10 * DEFAULT_TOL), _rows_passing(recon[:, None]),
                  _rows_passing((eta <= 0) | (C - ZB <= 10 * DEFAULT_TOL))]
        k = lo + min(firsts)
        if k < lo + L:
            raise ValueError((f"state {k + 1} infeasible", f"multiplier reconstruction fails at step {k}",
                              f"multiplier support not active at step {k}")[firsts.index(k - lo)])


def _write_csv(path, header, t_texts, body: np.ndarray, newline: str) -> None:
    """Header, then one line per row: its t, then the text of its body row.

    Each distinct body (by its bits, so -0.0 and 0.0 differ) has one line
    template: a comma, its cells and the newline. Templates are made in
    rounds of _CSV_BLOCK_ROWS distinct bodies, in order of first use, from
    the texts of the distinct values of the round (_cell_texts).
    Lines are written in blocks of _CSV_BLOCK_ROWS: each t's text, then its
    body's template. t_texts is an iterable of the blocks' t texts, as
    _grid_texts yields them. The file is the same as formatting every row
    with one `%`.
    """
    ids, firsts = _distinct_rows(body)
    line = "," + ",".join(["%s"] * body.shape[1]) + newline
    templates = []
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + newline)
        for lo, t_text in zip(range(0, len(body), _CSV_BLOCK_ROWS), t_texts):
            block = ids[lo : lo + _CSV_BLOCK_ROWS].tolist()
            while len(templates) <= max(block):
                new = _cell_texts(body[firsts[len(templates) : len(templates) + _CSV_BLOCK_ROWS]])
                # No cell text holds a line break, so the lines split at the newlines.
                templates += (line * len(new) % tuple(new.ravel().tolist())).splitlines(keepends=True)
            parts = [None] * (2 * len(block))
            parts[::2] = t_text.split("\n")[:-1]
            parts[1::2] = [templates[i] for i in block]
            fh.write("".join(parts))


def _text(values: list) -> str:
    """The FLOAT_FMT text of each of the values, each ended by a newline: one `%` over all of them."""
    return (FLOAT_FMT + "\n") * len(values) % tuple(values)


def _grid_texts(t: np.ndarray):
    """Yield the %.17g text of t for _write_csv: a _text string per block of _CSV_BLOCK_ROWS."""
    return (_text(t[lo : lo + _CSV_BLOCK_ROWS].tolist()) for lo in range(0, len(t), _CSV_BLOCK_ROWS))


def _cell_texts(rows: np.ndarray) -> np.ndarray:
    """The FLOAT_FMT text of every cell of rows, as an object array.

    Each distinct value (by bits) is formatted once, and its cells hold that
    one string; an integral float below 10**17, such as a mask, prints as
    its int's digits alone. No text holds '%' or a line break: %.17g prints
    only digits, signs, '.', 'e', 'nan' and 'inf'.
    """
    # 1-D, so that np.unique's inverse is flat at every numpy version
    bits, inverse = np.unique(rows.ravel().view(np.int64), return_inverse=True)
    text = np.array(_text(bits.view(np.float64).tolist()).split("\n")[:-1], dtype=object)
    return text[inverse].reshape(rows.shape)


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


def write_trajectory_csv(traj: Trajectory, path, *, _t_texts=None) -> None:
    """Rows t, z, the multipliers of the step landing at z, active bitmask; \\r\\n line ends.

    The rows of a state at rest, and the periods of an exact orbit (see
    simulate), repeat one another but for t, and distinct rows repeat values
    and masks: _write_csv formats each distinct row once, from the distinct
    values of its round. _t_texts is a list of _grid_texts(traj.times) when
    the caller has formatted it for every file on the grid.
    """
    n = traj.problem.dim
    m = traj.problem.moving_set.num_constraints
    header = (
        ["t"]
        + [f"z{i + 1}" for i in range(n)]
        + [f"eta_{i + 1}" for i in range(m)]
        + ["active_bitmask"]
    )
    body = np.zeros((len(traj.states), n + m + 1))   # filled in place: no stacked copies
    body[:, :n] = traj.states
    body[1:, n:-1] = traj.multipliers
    body[:, -1] = traj.active_masks
    t_texts = _grid_texts(traj.times) if _t_texts is None else _t_texts
    _write_csv(path, header, t_texts, body, "\r\n")


def read_trajectory_csv(path, problem: SweepingProblem) -> Trajectory:
    """Rebuild a Trajectory from a CSV written by write_trajectory_csv.

    Raises ValueError when the file holds fewer than two data rows, which
    could not fix the step, or when its rows are not whole periods of the
    problem's grid: with h the file's step and M = round(T/h), unless
    |T - M*h| <= 1e-6*h (the slack _grid allows a breakpoint), the rows
    after the first are a positive multiple of M. Then _grid checks the grid
    from t0, the first t, and raises GridAlignmentError, as simulate's does;
    the record keeps its offsets table. Then, in this order, ValueError
    refuses the file at the first row whose t lies outside that slack of
    t0 + k*T/M, that holds a cell that is not finite, whose multipliers are
    not 0 when it is row 0, or whose active_bitmask is not the mask the
    record reads off its state; the error names that row."""
    with open(path) as f:
        next(f, None)
        rows = len(list(itertools.islice((line for line in f if line.strip()), 2)))
    if rows < 2:
        raise ValueError(f"{path} holds {rows} data rows; a trajectory needs at least 2")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    P = problem.moving_set
    n, m = problem.dim, P.num_constraints
    if data.shape[1] != 1 + n + m + 1:
        raise ValueError("CSV columns do not match the problem dimensions")
    data.setflags(write=False)   # as simulate's: the masks cached below must match the states
    times = data[:, 0]
    T = problem.period
    h = float(times[1] - times[0])
    M = round(T / h) if h > 0 and math.isfinite(T / h) else 0
    if M < 1 or abs(T - M * h) > 1e-6 * h or (len(times) - 1) % M:
        raise ValueError(
            f"{path} holds {len(times)} data rows at step {h}: not whole periods of "
            f"the problem's period {T}"
        )
    offsets_phase = _grid(T, float(times[0]), (len(times) - 1) // M, M, offset=P.offsets, drift=problem.drift)[1]
    traj = Trajectory(problem, float(times[0]), M, data[:, 1 : 1 + n], data[1:, 1 + n : -1])
    traj.__dict__["_offsets_phase"] = offsets_phase   # fills the cached_property, as simulate does

    def refuse(bad, why):
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(f"{path} data row {k} {why(k)}")

    refuse(~(np.abs(times - traj.times) <= 1e-6 * h),
           lambda k: f"has t = {times[k]:.17g}, not t0 + {k}*h = {traj.times[k]:.17g}")
    # Before the masks: a state that is not finite would make their product warn.
    refuse(~np.isfinite(data).all(axis=1), lambda k: "holds a cell that is not finite")
    refuse(np.any(data[:1, 1 + n : -1] != 0, axis=1),
           lambda k: "has a multiplier that is not 0, but no step lands at its state")
    refuse(data[:, -1] != traj.active_masks,
           lambda k: f"has active_bitmask {data[k, -1]:.17g}, not its state's mask {traj.active_masks[k]}")
    return traj
