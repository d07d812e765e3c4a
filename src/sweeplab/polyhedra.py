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

All candidates of one size are tested together: their multipliers are the
stacked product of the size's Gram inverses G_S^-1 with the residuals, refined
once, their points one more stacked product, and the first passing row in
table order wins. Each G_S^-1 depends only on the normals, so the subset table
inverts a size's Gram matrices once, when a search first reaches that size.
A stacked product runs the same BLAS routine per item as a one-at-a-time
product, so the result is bit-equal to trying the candidates in a loop;
tests/helpers.py:reference_project_raw is that loop and pins it.

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
from .signals import PeriodicSignal, _checked_signals, eval_many, eval_signal, is_json_number

DEFAULT_TOL = 1e-9        # the working tolerance of every membership and sign test
ENUMERATION_CAP = 24      # max number of constraints for subset enumeration
MAX_TABLE_SIZE = 300_000  # safety cap on the number of candidate subsets


@dataclass(frozen=True)
class FrozenPolyhedron:
    """A polyhedron {z : normals @ z <= offsets} at one time instant."""

    normals: np.ndarray
    offsets: np.ndarray

    def __init__(self, normals, offsets):
        B = _checked_normals(normals)
        c = np.array(offsets, dtype=float)
        if c.shape != (B.shape[0],):
            raise ValueError("offsets must have one entry per normal")
        if not np.isfinite(c).all():
            raise ValueError("offsets must be finite")
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
        B = _checked_normals(normals)
        offs = tuple(offsets)
        if B.shape[0] != len(offs):
            raise ValueError("need one offset signal per normal")
        if not offs:
            raise ValueError("need at least one constraint")
        _checked_signals(offs, "offsets")
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
    return FrozenPolyhedron(P.normals, np.array([eval_signal(s, t) for s in P.offsets]))


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

    Returns (entries, index, stacks, faces, inverses). Entries are
    (indices, B_S, G_S) with G_S = B_S B_S^T, ordered by size then
    lexicographically; index maps each index tuple to its entry number.
    stacks[s - 1] holds the size-s entries as read-only arrays (K_s, s),
    (K_s, s, n) and (K_s, s, s) in table order, and the entries are views into
    them. faces starts empty: it holds the face maps that _project_raw builds
    for B, by accepted subset. inverses[s - 1] is None until _gram_inverses
    first asks for size s, and then the read-only (K_s, s, s) stack of G_S^-1.
    Cached per distinct normals matrix, so every run on B shares them.
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
    # Only the benchmark's tracer (perfbench/spans.py, on_project) and the tests read the index.
    table = (entries, {tuple(e[0]): i for i, e in enumerate(entries)}, stacks, {}, [None] * n)
    if len(_TABLES) > 512:
        _TABLES.clear()
    _TABLES[key] = table
    return table


def _gram_inverses(table, size: int) -> np.ndarray:
    """The read-only (K_s, s, s) stack of G_S^-1 over the table's size-s
    entries, inverted on first use. _independent keeps only families whose
    Gram matrix is invertible in floats."""
    inverses = table[4]
    Ginv = inverses[size - 1]
    if Ginv is None:
        Ginv = inverses[size - 1] = np.linalg.inv(table[2][size - 1][2])
        Ginv.setflags(write=False)
    return Ginv


# ---------------------------------------------------------------------------
# Membership and active sets

def _active_mask(B, C, Z) -> np.ndarray:
    """The active-set bitmask of each row of Z against the matching (broadcast)
    row of C: bit i is set when c_i - <b_i, z> <= DEFAULT_TOL. The bits are
    summed as floats, exact for m <= ENUMERATION_CAP: each partial sum is an
    integer below 2**m."""
    return ((C - Z @ B.T <= DEFAULT_TOL) @ 2.0 ** np.arange(B.shape[0])).astype(np.int64)


def _checked_vector(x, dim: int, name: str) -> np.ndarray:
    """x as a float array of shape (dim,); ValueError, naming it, when it is
    not one or is not finite."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"{name} has dimension {x.shape}, expected ({dim},)")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} {x} is not finite")
    return x


def _checked_normals(normals) -> np.ndarray:
    """normals as a read-only float array (m, n); ValueError when it is not
    2-d, has an entry that is not finite or has a zero row. m = 0 passes: a
    FrozenPolyhedron with no constraint is the whole space."""
    B = np.array(normals, dtype=float)
    if B.ndim != 2:
        raise ValueError("normals must be a 2-d array (m, n)")
    if not np.isfinite(B).all():
        raise ValueError("normals must be finite")
    if np.any(np.linalg.norm(B, axis=1) == 0):
        raise ValueError("zero normal vector")
    B.setflags(write=False)
    return B


def contains(F: FrozenPolyhedron, z) -> bool:
    z = _checked_vector(z, F.dim, "point")
    return bool(np.all(F.normals @ z <= F.offsets + DEFAULT_TOL))


def active_set(F: FrozenPolyhedron, z) -> np.ndarray:
    """Indices of constraints active at z (empty for interior points)."""
    z = _checked_vector(z, F.dim, "point")
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
    """Core projection onto {B z <= c}; returns (z*, lambda, subset, face),
    with _accept's face of the accepted subset, or None for an interior p.

    Where no candidate passes from the normal equations, whose rounding grows
    with cond(B_S)^2, the candidates are tried again in table order, with the
    same two tests, from a QR factorization B_S^T = Q R: y = R^-T (B_S p - c_S),
    lam = R^-1 y and z = p - Q y.
    """
    resid = c - B @ p
    if np.all(resid >= -DEFAULT_TOL):
        return p.copy(), np.zeros(B.shape[0]), (), None
    bound = (c + DEFAULT_TOL)[:, None]
    for size, (idx, BS, G) in enumerate(table[2], 1):
        # Per row: multipliers >= -tol, then the point feasible; the first
        # row passing both wins, as in a loop over the candidates.
        Ginv = _gram_inverses(table, size)
        r = (BS @ p - c[idx])[..., None]
        lam_s = Ginv @ r
        # One step of iterative refinement keeps equality residuals near
        # machine eps even for moderately ill-conditioned active sets.
        lam_s += Ginv @ (r - G @ lam_s)
        rows = np.flatnonzero(~(lam_s < -DEFAULT_TOL).any(axis=(1, 2)))
        Z = p[:, None] - BS[rows].transpose(0, 2, 1) @ lam_s[rows]
        won = np.flatnonzero((B @ Z <= bound).all(axis=(1, 2)))
        if len(won):
            return _accept(B, table, size, rows[won[0]], lam_s[rows[won[0]]], Z[won[0]])
    for size, (idx, BS, _G) in enumerate(table[2], 1):
        Q, R = np.linalg.qr(BS.transpose(0, 2, 1))
        y = np.linalg.solve(R.transpose(0, 2, 1), (BS @ p - c[idx])[..., None])
        lam_s = np.linalg.solve(R, y)
        Z = p[:, None] - Q @ y
        ok = ~(lam_s < -DEFAULT_TOL).any(axis=(1, 2)) & (B @ Z <= bound).all(axis=(1, 2))
        won = np.flatnonzero(ok)
        if len(won):
            return _accept(B, table, size, won[0], lam_s[won[0]], Z[won[0]])
    raise InfeasibleSetError("no feasible projection candidate; the set appears empty")


def _accept(B, table, size, row, lam_s, z):
    """_project_raw's result for an accepted row of the size-s stack: z and
    lam_s are (n, 1) and (s, 1) columns; lam is zero off the subset and lam_s
    clipped at zero on it. The face (idx, B_S, G_S^-1, Pi_S, R_S), with
    R_S = B_S^T G_S^-1 and Pi_S = I - R_S B_S, is read-only and cached in faces."""
    idx, BS = (a[row] for a in table[2][size - 1][:2])
    subset = tuple(int(i) for i in idx)
    lam = np.zeros(B.shape[0])
    lam[idx] = np.maximum(lam_s[:, 0], 0.0)
    face = table[3].get(subset)
    if face is None:
        Ginv = _gram_inverses(table, size)[row]
        R = BS.T @ Ginv
        face = table[3][subset] = (idx, BS, Ginv, np.eye(len(z)) - R @ BS, R)
        for a in face:
            a.setflags(write=False)
    return z[:, 0].copy(), lam, subset, face


def project(F: FrozenPolyhedron, p) -> ProjectionResult:
    """Euclidean projection of p onto F with KKT multipliers.

    Returns the unique nearest point z* and the nonnegative multipliers lam
    with p - z* = sum_i lam_i b_i, supported on constraints active at z*.
    Subsets are tried in size-then-lexicographic order, which makes the
    reported multipliers deterministic.
    """
    p = _checked_vector(p, F.dim, "point")
    return ProjectionResult(*_project_raw(F.normals, F.offsets, _subset_table(F.normals), p)[:3])


# ---------------------------------------------------------------------------
# Normal-cone decomposition

def decompose_normal(F: FrozenPolyhedron, z, v) -> np.ndarray:
    """Unique nonnegative coefficients with v = sum_i lam_i b_i on the active set.

    Requires the active normals at z to be linearly independent; the
    coefficients then depend only on v and the face, not on the base point.
    """
    v = _checked_vector(v, F.dim, "vector")
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
    rhs = BS @ v
    lam_s = np.linalg.solve(G, rhs)
    lam_s += np.linalg.solve(G, rhs - G @ lam_s)   # one refinement step
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


def _vertex_active_sets(F: FrozenPolyhedron) -> list:
    """The active set of each vertex of F, in vertices' order, from one stacked residual test."""
    return [np.flatnonzero(act) for act in F.offsets - vertices(F) @ F.normals.T <= DEFAULT_TOL]


def _licq_report(B: np.ndarray, vertex_active: list) -> LicqReport:
    for act in vertex_active:
        if not _independent(B[act]):
            return LicqReport(False, _dependent_witness(B, act))
    return LicqReport(True, None)


def _dependent_witness(B: np.ndarray, act: np.ndarray) -> tuple:
    """The first dependent subfamily of the dependent active set, in
    size-then-lexicographic order (size <= n+1): the whole set when every
    smaller subfamily is independent."""
    for size in range(2, len(act)):
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
