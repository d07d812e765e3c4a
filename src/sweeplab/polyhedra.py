"""Convex polyhedra with fixed normals and (possibly moving) offsets.

All sets are of the form {z : <b_i, z> <= c_i}. A MovingPolyhedron keeps the
normals b_i fixed and lets the offsets c_i(t) vary periodically; freezing at a
time instant yields a FrozenPolyhedron on which the geometric operations run.

Euclidean projection uses exhaustive active-set enumeration: every subset of
constraints with linearly independent normals is a candidate equality set, and
the unique projection is the first candidate, in size-then-lexicographic
order, that is primal feasible with nonnegative multipliers. Problems here
are small (n <= ~8, m <= 24), so the enumeration is exact and cheap, and its
multipliers feed the sweeping-process integrator directly.

All candidates of one size are tested together: one stacked solve for their
multipliers, one stacked product for their points, and the first passing row
in table order wins. Stacked LAPACK/BLAS calls run the same routine per item
as one-at-a-time calls, so the result is bit-equal to trying the candidates in
a loop; tests/helpers.py:reference_project_raw is that loop and pins it.

One rule, _independent, decides linear independence everywhere: s <= n rows
and sigma_min > sqrt(eps) * sigma_max with the rows scaled to unit length, so
an independent family's Gram matrix is invertible in floats. It replaced a
rank test at tolerance 1e-12 (plus, in the table, a factorization of G_S).

Vertices are identified by their active sets, not by a distance between points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EnumerationCapError,
    InfeasibleSetError,
    LicqError,
    MembershipError,
    NormalConeError,
)
from .signals import PIECEWISE_LINEAR, PeriodicSignal, eval_many, eval_signal, is_json_number, shares_period

DEFAULT_TOL = 1e-9        # the working tolerance of every membership and sign test
ENUMERATION_CAP = 24      # max number of constraints for subset enumeration
MAX_TABLE_SIZE = 300_000  # safety cap on the number of candidate subsets


@dataclass(frozen=True)
class FrozenPolyhedron:
    """A polyhedron {z : normals @ z <= offsets} at one time instant."""

    normals: np.ndarray
    offsets: np.ndarray

    def __init__(self, normals, offsets):
        B = np.array(normals, dtype=float)
        c = np.array(offsets, dtype=float)
        if B.ndim != 2:
            raise ValueError("normals must be a 2-d array (m, n)")
        if c.shape != (B.shape[0],):
            raise ValueError("offsets must have one entry per normal")
        if not np.isfinite(B).all():
            raise ValueError("normals must be finite")
        if np.any(np.linalg.norm(B, axis=1) == 0):
            raise ValueError("zero normal vector")
        B.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "normals", B)
        object.__setattr__(self, "offsets", c)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def num_constraints(self) -> int:
        return self.normals.shape[0]


@dataclass(frozen=True)
class MovingPolyhedron:
    """Fixed normals with periodic offset signals c_i(t).

    Construction checks compactness once (the normals must positively span the
    whole space) and nonemptiness at every offset breakpoint.
    """

    normals: np.ndarray
    offsets: tuple = field(repr=False)

    def __init__(self, normals, offsets, validate: bool = True):
        B = np.array(normals, dtype=float)
        offs = tuple(offsets)
        if B.ndim != 2 or B.shape[0] != len(offs):
            raise ValueError("need one offset signal per normal")
        if not np.isfinite(B).all():
            raise ValueError("normals must be finite")
        if np.any(np.linalg.norm(B, axis=1) == 0):
            raise ValueError("zero normal vector")
        period = offs[0].period
        for s in offs:
            if not isinstance(s, PeriodicSignal):
                raise TypeError("offsets must be PeriodicSignal instances")
            if s.kind != PIECEWISE_LINEAR:
                raise ValueError("polyhedron offsets must be piecewise-linear signals")
            if not shares_period(s, period):
                raise ValueError("offset signals must share one period")
        B.setflags(write=False)
        object.__setattr__(self, "normals", B)
        object.__setattr__(self, "offsets", offs)
        if validate:
            if not positively_spanning(B):
                raise ValueError("normals do not positively span the space; the set is unbounded")
            self.validate_nonempty()

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def num_constraints(self) -> int:
        return self.normals.shape[0]

    @property
    def period(self) -> float:
        return self.offsets[0].period

    def offsets_at(self, t: float) -> np.ndarray:
        return np.array([eval_signal(s, t) for s in self.offsets])

    def validate_nonempty(self) -> None:
        """Check nonemptiness at the offset breakpoints, which decides it exactly: between
        consecutive breakpoints (wrap-around included) every offset is affine in t, so a
        convex combination of points feasible at both ends is feasible in between."""
        ts = np.unique(np.concatenate([s.times for s in self.offsets]))
        for c in np.column_stack([eval_many(s, ts) for s in self.offsets]):
            vertices(FrozenPolyhedron(self.normals, c))  # raises InfeasibleSetError when empty

    def to_json(self) -> dict:
        return {
            "n": self.dim,
            "normals": [[float(x) for x in row] for row in self.normals],
            "offsets": [s.to_json() for s in self.offsets],
        }

    @staticmethod
    def from_json(obj: dict) -> "MovingPolyhedron":
        normals = obj["normals"]
        if not all(is_json_number(x) for row in normals for x in row):
            raise TypeError(f"normals must be JSON numbers that a float can hold, got {normals!r}")
        return MovingPolyhedron(
            np.array(normals, dtype=float),
            [PeriodicSignal.from_json(s) for s in obj["offsets"]],
        )


def freeze(P: MovingPolyhedron, t: float) -> FrozenPolyhedron:
    """Snapshot of the moving set at time t."""
    return FrozenPolyhedron(P.normals, P.offsets_at(t))


def positively_spanning(normals: np.ndarray) -> bool:
    """True iff the recession cone {d : B d <= 0} is {0}: B has rank n, and for the
    null direction d of every n-1 independent rows (each extreme ray of a pointed
    cone is one), both d and -d break some unit row by more than DEFAULT_TOL."""
    B = np.asarray(normals, dtype=float)
    n = B.shape[1]
    stacks = _subset_table(B)[2]
    if not len(stacks[n - 1][0]):
        return False
    D = np.linalg.svd(stacks[n - 2][1])[2][:, -1] if n > 1 else np.ones((1, 1))
    V = (B / np.linalg.norm(B, axis=1, keepdims=True)) @ D.T
    return bool(np.all((V > DEFAULT_TOL).any(axis=0) & (V < -DEFAULT_TOL).any(axis=0)))


# ---------------------------------------------------------------------------
# Candidate-subset table (shared by projection, vertices, faces)

def _independent(BS: np.ndarray):
    """The module's independence rule for one (s, n) matrix (a bool) or a
    stack (K, s, n) (a boolean array of length K)."""
    s, n = BS.shape[-2:]
    sv = np.linalg.svd(BS / np.linalg.norm(BS, axis=-1, keepdims=True), compute_uv=False)
    ok = (s <= n) & (sv[..., -1] > np.sqrt(np.finfo(float).eps) * sv[..., 0])
    return ok if ok.ndim else bool(ok)


_TABLES: dict = {}


def _subset_table(B: np.ndarray):
    """All index subsets with linearly independent normals, sizes 1..n.

    Built hereditarily: a subfamily of an independent family has sigma_min no
    smaller and sigma_max no larger, so it is independent too. A size-s
    candidate is a kept size-(s-1) set plus a larger index, for s >= 3 one
    that forms a kept pair with every member, and _independent decides as it
    would over all combinations.

    Returns (entries, index, stacks, faces). Entries are (indices, B_S, G_S)
    with G_S = B_S B_S^T, ordered by size then lexicographically; index maps
    each index tuple to its entry number. stacks[s - 1] holds the size-s
    entries as read-only arrays (K_s, s), (K_s, s, n) and (K_s, s, s) in table
    order, and the entries are views into them. faces starts empty: it holds
    the face maps that sweeping._face_maps builds for B, by subset. Cached
    per distinct normals matrix, so every run on B shares them.
    """
    key = (B.tobytes(), B.shape)
    table = _TABLES.get(key)
    if table is not None:
        return table
    m, n = B.shape
    if m > ENUMERATION_CAP:
        raise EnumerationCapError(f"{m} constraints exceed the enumeration cap {ENUMERATION_CAP}")
    if sum(math.comb(m, size) for size in range(1, n + 1)) > MAX_TABLE_SIZE:
        raise EnumerationCapError("candidate subset enumeration too large")
    entries = []
    stacks = []
    # allowed[i, j]: j may extend a set holding i; from size 3 on, only when
    # (i, j) is a kept pair.
    allowed = np.triu(np.ones((m, m), dtype=bool), 1)
    idx = np.arange(m).reshape(-1, 1)
    for size in range(1, n + 1):
        if size > 1:
            rows, j = np.nonzero(allowed[idx].all(axis=1))
            idx = np.column_stack([idx[rows], j])
        idx = idx[_independent(B[idx])]
        if size == 2:
            allowed = np.zeros((m, m), dtype=bool)
            allowed[idx[:, 0], idx[:, 1]] = True
        BS = B[idx]
        stack = (idx, BS, BS @ BS.transpose(0, 2, 1))
        for a in stack:
            a.setflags(write=False)
        stacks.append(stack)
        entries.extend(zip(*stack))
    # Only the benchmark's tracer (perfbench/spans.py, on_project) reads the index.
    table = (entries, {tuple(e[0]): i for i, e in enumerate(entries)}, stacks, {})
    if len(_TABLES) > 512:
        _TABLES.clear()
    _TABLES[key] = table
    return table


def _solve_multipliers(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve G lam = rhs, for one system (rhs (s,)) or a stack (rhs (K, s, 1))."""
    lam = np.linalg.solve(G, rhs)
    # One step of iterative refinement keeps equality residuals near machine eps
    # even for moderately ill-conditioned active sets.
    lam += np.linalg.solve(G, rhs - G @ lam)
    return lam


# ---------------------------------------------------------------------------
# Membership and active sets

def _active_mask(B, C, Z) -> np.ndarray:
    """The active-set bitmask of each row of Z against the matching (broadcast)
    row of C: bit i is set when c_i - <b_i, z> <= DEFAULT_TOL (exact: m <= 24)."""
    return (C - Z @ B.T <= DEFAULT_TOL) @ np.left_shift(1, np.arange(B.shape[0], dtype=np.int64))


def contains(F: FrozenPolyhedron, z) -> bool:
    z = np.asarray(z, dtype=float)
    if z.shape != (F.dim,):
        raise ValueError(f"point has dimension {z.shape}, expected ({F.dim},)")
    return bool(np.all(F.normals @ z <= F.offsets + DEFAULT_TOL))


def active_set(F: FrozenPolyhedron, z) -> np.ndarray:
    """Indices of constraints active at z (empty for interior points)."""
    z = np.asarray(z, dtype=float)
    resid = F.offsets - F.normals @ z
    if np.any(resid < -DEFAULT_TOL):
        raise MembershipError(f"point violates constraints by {-resid.min():.3e} > tol")
    return np.flatnonzero(resid <= DEFAULT_TOL)


# ---------------------------------------------------------------------------
# Projection

@dataclass(frozen=True)
class ProjectionResult:
    point: np.ndarray
    multipliers: np.ndarray        # length m, nonnegative, supported on the active set
    subset: tuple                  # indices of the accepted equality set


def _project_raw(B, c, table, p):
    """Core projection onto {B z <= c}; returns (z*, lambda, subset).

    Where no candidate passes from the normal equations, whose rounding grows
    with cond(B_S)^2, the candidates are tried again in table order, with the
    same two tests, from a QR factorization B_S^T = Q R: y = R^-T (B_S p - c_S),
    lam = R^-1 y and z = p - Q y.
    """
    resid = c - B @ p
    if np.all(resid >= -DEFAULT_TOL):
        return p.copy(), np.zeros(B.shape[0]), ()
    bound = (c + DEFAULT_TOL)[:, None]
    for idx, BS, G in table[2]:
        # Per row: multipliers >= -tol, then the point feasible; the first
        # row passing both wins, as in a loop over the candidates.
        lam_s = _solve_multipliers(G, (BS @ p - c[idx])[..., None])
        rows = np.flatnonzero(~(lam_s < -DEFAULT_TOL).any(axis=(1, 2)))
        if not len(rows):
            continue
        Z = p[:, None] - BS[rows].transpose(0, 2, 1) @ lam_s[rows]
        feasible = (B @ Z <= bound).all(axis=(1, 2))
        first = feasible.argmax()
        if feasible[first]:
            return _candidate(B, idx[rows[first]], lam_s[rows[first]], Z[first])
    for idx, BS, _G in table[2]:
        Q, R = np.linalg.qr(BS.transpose(0, 2, 1))
        y = np.linalg.solve(R.transpose(0, 2, 1), (BS @ p - c[idx])[..., None])
        lam_s = np.linalg.solve(R, y)
        Z = p[:, None] - Q @ y
        ok = ~(lam_s < -DEFAULT_TOL).any(axis=(1, 2)) & (B @ Z <= bound).all(axis=(1, 2))
        if ok.any():
            j = ok.argmax()
            return _candidate(B, idx[j], lam_s[j], Z[j])
    raise InfeasibleSetError("no feasible projection candidate; the set appears empty")


def _candidate(B, subset, lam_s, z):
    """_project_raw's result for an accepted candidate: z and lam_s are (n, 1)
    and (s, 1) columns; lam is zero off the subset and clipped at zero on it."""
    lam = np.zeros(B.shape[0])
    lam[subset] = np.maximum(lam_s[:, 0], 0.0)
    return z[:, 0].copy(), lam, tuple(int(i) for i in subset)


def project(F: FrozenPolyhedron, p) -> ProjectionResult:
    """Euclidean projection of p onto F with KKT multipliers.

    Returns the unique nearest point z* and the nonnegative multipliers lam
    with p - z* = sum_i lam_i b_i, supported on constraints active at z*.
    Subsets are tried in size-then-lexicographic order, which makes the
    reported multipliers deterministic.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (F.dim,):
        raise ValueError(f"point has dimension {p.shape}, expected ({F.dim},)")
    table = _subset_table(F.normals)
    z, lam, subset = _project_raw(F.normals, F.offsets, table, p)
    return ProjectionResult(z, lam, subset)


# ---------------------------------------------------------------------------
# Normal-cone decomposition

def decompose_normal(F: FrozenPolyhedron, z, v) -> np.ndarray:
    """Unique nonnegative coefficients with v = sum_i lam_i b_i on the active set.

    Requires the active normals at z to be linearly independent; the
    coefficients then depend only on v and the face, not on the base point.
    """
    v = np.asarray(v, dtype=float)
    act = active_set(F, z)
    lam = np.zeros(F.num_constraints)
    vnorm = np.linalg.norm(v)
    if vnorm <= DEFAULT_TOL:
        return lam
    if len(act) == 0:
        raise NormalConeError("normal cone at an interior point is {0}, but v != 0")
    BS = F.normals[act]
    if not _independent(BS):
        raise LicqError(f"active normals {tuple(act.tolist())} are linearly dependent")
    G = BS @ BS.T
    lam_s = _solve_multipliers(G, BS @ v)
    if np.any(lam_s < -DEFAULT_TOL):
        raise NormalConeError(f"negative coefficient {lam_s.min():.3e}: v not in the normal cone")
    lam_s = np.maximum(lam_s, 0.0)
    if np.linalg.norm(v - BS.T @ lam_s) > DEFAULT_TOL * (1.0 + vnorm):
        raise NormalConeError("residual too large: v not in the span of the active normals")
    lam[act] = lam_s
    return lam


# ---------------------------------------------------------------------------
# Vertices, LICQ, faces

def vertices(F: FrozenPolyhedron) -> np.ndarray:
    """All vertices of a compact F, found from square independent subsystems.

    A vertex is fixed by its active set, which has rank n, so of the feasible
    candidates the first, in table order, of each distinct active set is kept.
    Raises InfeasibleSetError if no vertex exists (empty or unbounded set).
    """
    B, c = F.normals, F.offsets
    idx, BS, _G = _subset_table(B)[2][F.dim - 1]
    Z = np.linalg.solve(BS, c[idx][..., None])
    feasible = np.all(B @ Z <= (c + DEFAULT_TOL)[:, None], axis=(1, 2))
    if not feasible.any():
        raise InfeasibleSetError("no vertex found: the set is empty (or not compact)")
    Z = Z[feasible, :, 0]
    return Z[np.sort(np.unique(_active_mask(B, c, Z), return_index=True)[1])]


@dataclass(frozen=True)
class LicqReport:
    holds: bool
    witness: tuple | None   # a dependent constraint subset realized on a nonempty face


def check_licq(F: FrozenPolyhedron) -> LicqReport:
    """Check linear independence of active normals everywhere on F.

    Any dependent active family appears (as a subfamily) in the active set of
    some vertex, so it suffices to inspect vertex active sets. The witness is
    trimmed to a dependent subset of at most n+1 constraints.
    """
    return _licq_report(F.normals, _vertex_active_sets(F))


def _vertex_activity(F: FrozenPolyhedron):
    """The vertices of F and their (k, m) activity matrix, from one stacked residual test."""
    vs = vertices(F)
    return vs, F.offsets - vs @ F.normals.T <= DEFAULT_TOL


def _vertex_active_sets(F: FrozenPolyhedron) -> list:
    """The active set of each vertex of F, in vertices' order."""
    return [np.flatnonzero(act) for act in _vertex_activity(F)[1]]


def _licq_report(B: np.ndarray, vertex_active: list) -> LicqReport:
    for act in vertex_active:
        if not _independent(B[act]):
            return LicqReport(False, _dependent_witness(B, act))
    return LicqReport(True, None)


def _dependent_witness(B: np.ndarray, act: np.ndarray) -> tuple:
    """Smallest-prefix dependent subfamily of the active set (size <= n+1)."""
    for size in range(2, len(act) + 1):
        idx = np.array(list(itertools.combinations(act.tolist(), size)))
        dependent = np.flatnonzero(~_independent(B[idx]))
        if len(dependent):
            return tuple(idx[dependent[0]].tolist())
    return tuple(act.tolist())


def enumerate_faces(F: FrozenPolyhedron) -> set:
    """All active sets realized by some point of F, as a set of index tuples.

    Every face of a compact polytope contains a vertex, and the active set of
    a face's relative interior is the intersection of its vertices' active
    sets; every such intersection is realized. So the faces are the vertex
    active sets closed under intersection, built one vertex at a time.
    """
    faces = set()
    for act in _vertex_active_sets(F):
        a = frozenset(act.tolist())
        faces |= {a} | {a & f for f in faces}
    return {tuple(sorted(f)) for f in faces}


# ---------------------------------------------------------------------------
# Reverse-triangle constant

def gamma_constant(F: FrozenPolyhedron) -> float:
    """The smallest gamma with
    sum lam_i |b_i| <= gamma * |sum lam_i b_i| over all faces and lam >= 0.

    With u_i = b_i/|b_i| and mu_i = lam_i |b_i|, the ratio on a face S is
    1/|sum mu_i u_i| over the unit simplex, so gamma(S) = 1/dist(0, conv{u_i : i in S}).
    gamma(S) grows with S, so the active sets of the vertices decide. The
    nearest point of the hull is the nearest point of the affine hull of one
    support, with weights y/sum y >= 0 for y = (U U^T)^-1 1, at distance
    (sum y)^(-1/2); a support with a zero weight gives its sub-support's value.
    Each support of two or more constraints active at some vertex is solved once.
    Requires LICQ, under which every such Gram matrix is invertible.
    """
    vertex_active = _vertex_active_sets(F)
    report = _licq_report(F.normals, vertex_active)
    if not report.holds:
        raise LicqError(f"gamma constant requires LICQ; dependent subset {report.witness}")
    U = F.normals / np.linalg.norm(F.normals, axis=1, keepdims=True)
    supports = {idx for act in vertex_active for size in range(2, len(act) + 1)
                for idx in itertools.combinations(act.tolist(), size)}
    best = 1.0
    for idx in supports:
        US = U[list(idx)]
        y = np.linalg.solve(US @ US.T, np.ones(len(idx)))
        if np.all(y >= 0):
            best = max(best, float(np.sqrt(y.sum())))
    return best


def bounding_box(F: FrozenPolyhedron):
    """Componentwise (lo, hi) over the vertices of a compact F."""
    vs = vertices(F)
    return vs.min(axis=0), vs.max(axis=0)
