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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls as _scipy_nnls

from .errors import (
    EnumerationCapError,
    InfeasibleSetError,
    LicqError,
    MembershipError,
    NormalConeError,
)
from .signals import PIECEWISE_LINEAR, PeriodicSignal, eval_many, eval_signal

DEFAULT_TOL = 1e-9        # the working tolerance of every membership and sign test
ENUMERATION_CAP = 24      # max number of constraints for subset enumeration
MAX_TABLE_SIZE = 300_000  # safety cap on the number of candidate subsets
_SPANNING_TOL = 1e-10     # NNLS residual above which a unit vector is not in cone{b_i}
_GAMMA_DIVISIONS = 50     # simplex grid resolution of gamma_constant


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
        if np.any(np.linalg.norm(B, axis=1) == 0):
            raise ValueError("zero normal vector")
        period = offs[0].period
        for s in offs:
            if not isinstance(s, PeriodicSignal):
                raise TypeError("offsets must be PeriodicSignal instances")
            if s.kind != PIECEWISE_LINEAR:
                raise ValueError("polyhedron offsets must be piecewise-linear signals")
            if abs(s.period - period) > 1e-12 * max(1.0, period):
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
        return MovingPolyhedron(
            np.array(obj["normals"], dtype=float),
            [PeriodicSignal.from_json(s) for s in obj["offsets"]],
        )


def freeze(P: MovingPolyhedron, t: float) -> FrozenPolyhedron:
    """Snapshot of the moving set at time t."""
    return FrozenPolyhedron(P.normals, P.offsets_at(t))


def positively_spanning(normals: np.ndarray) -> bool:
    """True iff cone{b_i} = R^n, i.e. the recession cone of the set is {0}."""
    B = np.asarray(normals, dtype=float)
    n = B.shape[1]
    for j in range(n):
        for sign in (1.0, -1.0):
            e = np.zeros(n)
            e[j] = sign
            _, resid = _scipy_nnls(B.T, e)
            if resid > _SPANNING_TOL:
                return False
    return True


# ---------------------------------------------------------------------------
# Candidate-subset table (shared by projection, vertices, faces)

def _independent(BS: np.ndarray) -> bool:
    """True iff the rows of BS are linearly independent (rank tolerance 1e-12 * max|BS|)."""
    return np.linalg.matrix_rank(BS, tol=1e-12 * max(1.0, np.abs(BS).max())) == len(BS)


def _subset_table_key(B: np.ndarray):
    return (B.tobytes(), B.shape)


_TABLES: dict = {}


def _subset_table(B: np.ndarray):
    """All index subsets with linearly independent normals, sizes 1..n.

    Entries are (indices, B_S, G_S) with G_S = B_S B_S^T, ordered by size then
    lexicographically. Cached per distinct normals matrix.
    """
    key = _subset_table_key(B)
    table = _TABLES.get(key)
    if table is not None:
        return table
    m, n = B.shape
    if m > ENUMERATION_CAP:
        raise EnumerationCapError(f"{m} constraints exceed the enumeration cap {ENUMERATION_CAP}")
    entries = []
    count = 0
    for size in range(1, n + 1):
        for idx in itertools.combinations(range(m), size):
            count += 1
            if count > MAX_TABLE_SIZE:
                raise EnumerationCapError("candidate subset enumeration too large")
            BS = B[list(idx)]
            G = BS @ BS.T
            try:
                np.linalg.cholesky(G)
            except np.linalg.LinAlgError:
                continue
            # Discard numerically dependent families as well.
            if not _independent(BS):
                continue
            entries.append((np.array(idx, dtype=int), BS.copy(), G))
    # Only the benchmark's tracer (perfbench/spans.py, on_project) reads the index.
    table = (entries, {tuple(e[0]): i for i, e in enumerate(entries)})
    if len(_TABLES) > 512:
        _TABLES.clear()
    _TABLES[key] = table
    return table


def _solve_multipliers(BS: np.ndarray, G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    lam = np.linalg.solve(G, rhs)
    # One step of iterative refinement keeps equality residuals near machine eps
    # even for moderately ill-conditioned active sets.
    lam += np.linalg.solve(G, rhs - G @ lam)
    return lam


# ---------------------------------------------------------------------------
# Membership and active sets

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
    """Core projection onto {B z <= c}; returns (z*, lambda, subset)."""
    resid = c - B @ p
    if np.all(resid >= -DEFAULT_TOL):
        return p.copy(), np.zeros(B.shape[0]), ()
    for idx, BS, G in table[0]:
        lam_s = _solve_multipliers(BS, G, BS @ p - c[idx])
        if np.any(lam_s < -DEFAULT_TOL):
            continue
        z = p - BS.T @ lam_s
        if np.all(B @ z <= c + DEFAULT_TOL):
            lam = np.zeros(B.shape[0])
            lam[idx] = np.maximum(lam_s, 0.0)
            return z, lam, tuple(int(i) for i in idx)
    raise InfeasibleSetError("no feasible projection candidate; the set appears empty")


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
        raise LicqError(f"active normals {tuple(act)} are linearly dependent")
    G = BS @ BS.T
    lam_s = _solve_multipliers(BS, G, BS @ v)
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

    Raises InfeasibleSetError if no vertex exists (empty or unbounded set).
    """
    B, c = F.normals, F.offsets
    n = F.dim
    entries, _ = _subset_table(B)
    points = []
    for idx, BS, _G in entries:
        if len(idx) != n:
            continue
        z = np.linalg.solve(BS, c[idx])
        if np.all(B @ z <= c + DEFAULT_TOL):
            points.append(z)
    if not points:
        raise InfeasibleSetError("no vertex found: the set is empty (or not compact)")
    pts = np.array(points)
    # Dedupe coincident solutions coming from different subsets.
    threshold = 1e-7 * (1.0 + np.abs(pts).max())
    keep = pts[:1]
    for z in pts[1:]:
        if np.all(np.linalg.norm(keep - z, axis=1) > threshold):
            keep = np.vstack([keep, z])
    return keep


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
    B = F.normals
    for v in vertices(F):
        act = active_set(F, v)
        if not _independent(B[act]):
            return LicqReport(False, _dependent_witness(B, act))
    return LicqReport(True, None)


def _dependent_witness(B: np.ndarray, act: np.ndarray) -> tuple:
    """Smallest-prefix dependent subfamily of the active set (size <= n+1)."""
    for size in range(2, len(act) + 1):
        for idx in itertools.combinations(act.tolist(), size):
            if not _independent(B[list(idx)]):
                return tuple(idx)
    return tuple(act.tolist())


def enumerate_faces(F: FrozenPolyhedron) -> set:
    """All active sets realized by some point of F, as a set of index tuples.

    A subset S is realizable exactly when its closure A(S) = {i active on all
    of face(S)} equals S; every face contains a vertex, so candidate subsets
    are drawn from vertex active sets and closed by intersecting the vertex
    active sets that contain them.
    """
    vs = vertices(F)
    vertex_active = [frozenset(active_set(F, v).tolist()) for v in vs]
    all_active = frozenset.intersection(*vertex_active)  # constraints active on all of F
    faces = {tuple(sorted(all_active))}
    seen = set()
    for ja in vertex_active:
        extra = sorted(ja - all_active)
        for size in range(1, len(extra) + 1):
            for sub in itertools.combinations(extra, size):
                s = frozenset(sub) | all_active
                if s in seen:
                    continue
                seen.add(s)
                closure = frozenset.intersection(
                    *[jb for jb in vertex_active if s <= jb]
                )
                faces.add(tuple(sorted(closure)))
    return faces


# ---------------------------------------------------------------------------
# Reverse-triangle constant

def gamma_constant(F: FrozenPolyhedron) -> float:
    """Estimate of the smallest gamma with
    sum lam_i |b_i| <= gamma * |sum lam_i b_i| over all faces and lam >= 0.

    Per realized face, the ratio is maximized over a dense grid on the unit
    simplex of coefficients (the ratio is scale invariant) with _GAMMA_DIVISIONS
    steps per edge; the estimate approaches the true constant from below as
    the grid is refined. Requires LICQ.
    """
    report = check_licq(F)
    if not report.holds:
        raise LicqError(f"gamma constant requires LICQ; dependent subset {report.witness}")
    B = F.normals
    norms = np.linalg.norm(B, axis=1)
    best = 0.0
    for face in enumerate_faces(F):
        if not face:
            continue
        idx = np.array(face, dtype=int)
        BS = B[idx]
        ns = norms[idx]
        k = len(idx)
        if k == 1:
            best = max(best, 1.0)
            continue
        for comp in _simplex_grid(k, _GAMMA_DIVISIONS):
            lam = np.array(comp, dtype=float) / _GAMMA_DIVISIONS
            denom = np.linalg.norm(BS.T @ lam)
            if denom <= 1e-14:
                continue
            best = max(best, float(lam @ ns) / denom)
    return best


def _simplex_grid(k: int, divisions: int):
    """Integer compositions of `divisions` into k nonnegative parts."""
    if k == 1:
        yield (divisions,)
        return
    for head in range(divisions + 1):
        for rest in _simplex_grid(k - 1, divisions - head):
            yield (head,) + rest


def bounding_box(F: FrozenPolyhedron):
    """Componentwise (lo, hi) over the vertices of a compact F."""
    vs = vertices(F)
    return vs.min(axis=0), vs.max(axis=0)
