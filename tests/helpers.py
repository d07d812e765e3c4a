"""Shared test utilities: independent oracles and random-instance generators.

The oracles here deliberately avoid the code paths they check: cone
coefficients come from least-squares over support subsets, gradients from
central differences, and random polyhedra are built to be compact and
nonempty by construction.
"""

import importlib.util
import itertools
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.optimize import nnls

from sweeplab.polyhedra import FrozenPolyhedron, MovingPolyhedron, _independent, project, vertices
from sweeplab.signals import PIECEWISE_CONSTANT, PeriodicSignal, eval_many

# The references' own working tolerance: the library's value, set here rather
# than read from the package, so a change there shows up as a mismatch.
TOL = 1e-9


def brute_force_cone_coefficients(B_active: np.ndarray, v: np.ndarray):
    """Nonnegative least squares min |B_active^T lam - v| by support enumeration.

    Every NNLS optimum is a least-squares solution on its support, so trying
    all supports and keeping the best feasible candidate is exact.
    """
    k = B_active.shape[0]
    best_lam = np.zeros(k)
    best_resid = float(np.linalg.norm(v))
    for size in range(1, k + 1):
        for idx in itertools.combinations(range(k), size):
            A = B_active[list(idx)].T
            sol, *_ = np.linalg.lstsq(A, v, rcond=None)
            if np.any(sol < -1e-12):
                continue
            resid = float(np.linalg.norm(A @ sol - v))
            if resid < best_resid - 1e-15:
                best_resid = resid
                best_lam = np.zeros(k)
                best_lam[list(idx)] = np.maximum(sol, 0.0)
    return best_lam, best_resid


def reference_gamma(F: FrozenPolyhedron, tol: float = TOL) -> float:
    """The reverse-triangle constant as the largest 1/dist(0, conv{u_i}) over
    the vertices, with u_i the unit normals active there.

    Vertices come from every square subsystem. The min-norm point of a hull
    comes from one NNLS: minimizing |U^T w|^2 + (sum w - 1)^2 over w >= 0
    scales the hull's optimal weights, so |U^T w| / sum w is the distance.
    """
    B, c = F.normals, F.offsets
    m, n = B.shape
    U = B / np.linalg.norm(B, axis=1, keepdims=True)
    best = 0.0
    for idx in itertools.combinations(range(m), n):
        BS = B[list(idx)]
        if abs(np.linalg.det(BS)) < 1e-12:
            continue
        v = np.linalg.solve(BS, c[list(idx)])
        resid = c - B @ v
        if np.any(resid < -tol):
            continue
        UA = U[resid <= tol]
        A = np.vstack([UA.T, np.ones(len(UA))])
        w, _ = nnls(A, np.append(np.zeros(n), 1.0))
        best = max(best, w.sum() / np.linalg.norm(UA.T @ w))
    return best


def reference_subset_table(B: np.ndarray):
    """The subset table as it was built one combination at a time: a Cholesky
    of G_S, then a rank test at tolerance 1e-12 * max(1, max|B_S|), for each
    combination in size-then-lexicographic order. The bit-equal reference for
    polyhedra._subset_table; returns (entries, index, stacks) as it does.
    """
    from sweeplab.errors import EnumerationCapError
    from sweeplab.polyhedra import MAX_TABLE_SIZE

    m, n = B.shape
    entries = []
    stacks = []
    count = 0
    for size in range(1, n + 1):
        found = []
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
            if np.linalg.matrix_rank(BS, tol=1e-12 * max(1.0, np.abs(BS).max())) != len(BS):
                continue
            found.append((idx, BS, G))
        stack = (
            np.array([f[0] for f in found], dtype=int).reshape(-1, size),
            np.array([f[1] for f in found]).reshape(-1, size, n),
            np.array([f[2] for f in found]).reshape(-1, size, size),
        )
        for a in stack:
            a.setflags(write=False)
        stacks.append(stack)
        entries.extend(zip(*stack))
    return entries, {tuple(e[0]): i for i, e in enumerate(entries)}, stacks


def reference_dependent_witness(B: np.ndarray, act: np.ndarray) -> tuple:
    """polyhedra._dependent_witness one combination at a time: the first
    dependent combination of the smallest size, in lexicographic order."""
    from sweeplab.polyhedra import _independent

    for size in range(2, len(act) + 1):
        for idx in itertools.combinations(act.tolist(), size):
            if not _independent(B[list(idx)]):
                return tuple(idx)
    return tuple(act.tolist())


def reference_enumerate_faces(F: FrozenPolyhedron) -> set:
    """polyhedra.enumerate_faces as it was built one subset at a time: every
    subset of each vertex's active set, beyond the constraints active on all
    of F, closed by intersecting the vertex active sets that contain it.
    Exponential in a vertex's degree; the reference for the closure."""
    from sweeplab.polyhedra import _vertex_active_sets

    vertex_active = [frozenset(act.tolist()) for act in _vertex_active_sets(F)]
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
                closure = frozenset.intersection(*[jb for jb in vertex_active if s <= jb])
                faces.add(tuple(sorted(closure)))
    return faces


def inverse_product(G: np.ndarray):
    """r -> G^-1 r as the library applies it: one matrix-vector product with
    G's explicit inverse, computed here from G alone."""
    Ginv = np.linalg.inv(G)
    return lambda r: (Ginv @ r[:, None])[:, 0]


def lu_solve(G: np.ndarray):
    """r -> G^-1 r by an LU solve, with no explicit inverse: the independent
    reference for inverse_product."""
    return lambda r: np.linalg.solve(G, r)


def reference_project_raw(B, c, table, p, tol: float = TOL, solver=inverse_product):
    """The projection's candidate loop, one candidate at a time: the first
    subset in table order whose refined multipliers are >= -tol and whose
    point is feasible. With the default solver, the bit-equal reference for
    polyhedra._project_raw; with lu_solve, the loop as it was before the
    library inverted each Gram matrix once.
    """
    from sweeplab.errors import InfeasibleSetError

    resid = c - B @ p
    if np.all(resid >= -tol):
        return p.copy(), np.zeros(B.shape[0]), ()
    for idx, BS, G in table[0]:
        rhs = BS @ p - c[idx]
        solve = solver(G)
        lam_s = solve(rhs)
        lam_s += solve(rhs - G @ lam_s)
        if np.any(lam_s < -tol):
            continue
        z = p - BS.T @ lam_s
        if np.all(B @ z <= c + tol):
            lam = np.zeros(B.shape[0])
            lam[idx] = np.maximum(lam_s, 0.0)
            return z, lam, tuple(int(i) for i in idx)
    raise InfeasibleSetError("no feasible projection candidate; the set appears empty")


def reference_vertices(F: FrozenPolyhedron, tol: float = TOL) -> np.ndarray:
    """polyhedra.vertices one square subsystem at a time, over the same table."""
    from sweeplab.errors import InfeasibleSetError
    from sweeplab.polyhedra import _subset_table

    B, c = F.normals, F.offsets
    points = []
    for idx, BS, _G in _subset_table(B)[0]:
        if len(idx) != F.dim:
            continue
        z = np.linalg.solve(BS, c[idx])
        if np.all(B @ z <= c + tol):
            points.append(z)
    if not points:
        raise InfeasibleSetError("no vertex found: the set is empty (or not compact)")
    pts = np.array(points)
    threshold = 1e-7 * (1.0 + np.abs(pts).max())
    keep = pts[:1]
    for z in pts[1:]:
        if np.all(np.linalg.norm(keep - z, axis=1) > threshold):
            keep = np.vstack([keep, z])
    return keep


def reference_acute_corners(vs: np.ndarray) -> list:
    """The corners of a convex polygon, given by its vertices vs, whose
    interior angle is strictly acute: with the vertices sorted by angle about
    their centroid, the vectors from a corner to its two neighbours have a
    positive cosine. Returns the flagged corners as tuples, in vs order."""
    center = vs.mean(axis=0)
    order = np.argsort(np.arctan2(*(vs - center).T[::-1]))
    flagged = []
    for k, i in enumerate(order):
        d1 = vs[order[k - 1]] - vs[i]
        d2 = vs[order[(k + 1) % len(order)]] - vs[i]
        if d1 @ d2 / (np.linalg.norm(d1) * np.linalg.norm(d2)) > 0:
            flagged.append(i)
    return [tuple(vs[i]) for i in sorted(flagged)]


def acute_corner_note(F: FrozenPolyhedron) -> list:
    """Flag 2-d vertices whose interior angle is strictly acute.

    The edges at a vertex are its active constraints that are also active at
    another vertex; a constraint that only touches the vertex is not one. The
    interior angle between two independent edges a, b is pi minus the angle
    between their outward normals, so the corner is acute iff the unit normals
    have u_a . u_b < -TOL. Returns (vertex, (a, b)) in vertex order, then
    ascending pairs.
    """
    if F.dim != 2:
        raise ValueError("acute-corner analysis is for 2-d sets only")
    vs = vertices(F)
    active = F.offsets - vs @ F.normals.T <= TOL
    edges = active & (active.sum(axis=0) >= 2)
    U = F.normals / np.linalg.norm(F.normals, axis=1, keepdims=True)
    flagged = []
    for v, at in zip(vs, edges):
        for a, b in itertools.combinations(np.flatnonzero(at).tolist(), 2):
            if _independent(F.normals[[a, b]]) and U[a] @ U[b] < -TOL:
                flagged.append((v.copy(), (a, b)))
    return flagged


def bottom_edge_coordinate(state, side: float, tol: float = 1e-6) -> float:
    """Unit coordinate along P->Q for a triangle_scenario state on the bottom edge."""
    state = np.asarray(state, dtype=float)
    if abs(state[1]) > tol:
        raise ValueError(f"state {state} is not on the bottom edge")
    return float(state[0] / side)


MONOTONE_SLACK = 1e-12   # rounding allowance per step of hypomonotone_check


def hypomonotone_check(traj1, traj2) -> bool:
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
    return bool(np.all(np.diff(d) <= MONOTONE_SLACK))


def energy(g, t: float, x) -> float:
    """The crawler's elastic energy k/2 |pi_Z(x) - ell(t)|^2: its central
    differences are the reference for crawler.energy_gradient."""
    from sweeplab.crawler import pi_z, rest_length_values

    return float(0.5 * g.stiffness * np.sum((pi_z(x) - rest_length_values(g, t)) ** 2))


def dissipation(g, t: float, v) -> float:
    """The crawler's dissipation sum mu^+ v^+ + mu^- v^- at velocity v."""
    from sweeplab.crawler import friction_values

    v = np.asarray(v, dtype=float)
    mup, mum = friction_values(g, t)
    return float(np.sum(mup * np.maximum(v, 0.0) + mum * np.maximum(-v, 0.0)))


def build_force_polyhedron(g) -> MovingPolyhedron:
    """Admissible-force set {xi : -mu_i^-(t) <= xi_i <= mu_i^+(t)} in R^N.

    Constraint i < N is the block-i forward bound (+mu^+), constraint N+i the
    block-i backward bound.
    """
    eye = np.eye(g.num_blocks)
    return MovingPolyhedron(np.vstack([eye, -eye]), tuple(g.mu_plus) + tuple(g.mu_minus))


def central_difference_gradient(f, x: np.ndarray, step: float = 1e-4) -> np.ndarray:
    g = np.zeros_like(x, dtype=float)
    for i in range(len(x)):
        e = np.zeros_like(x, dtype=float)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def reference_positively_spanning(normals: np.ndarray) -> bool:
    """cone{b_i} = R^n, decided by NNLS: every signed unit vector +-e_j must be a
    nonnegative combination of the normals, up to a residual of 1e-10."""
    B = np.asarray(normals, dtype=float)
    n = B.shape[1]
    for j in range(n):
        for sign in (1.0, -1.0):
            e = np.zeros(n)
            e[j] = sign
            _, resid = nnls(B.T, e)
            if resid > 1e-10:
                return False
    return True


def random_polyhedron(rng: np.random.Generator, n: int, m: int) -> FrozenPolyhedron:
    """Compact, nonempty random polyhedron containing a known interior point."""
    assert m >= n + 1
    while True:
        B = rng.normal(size=(m, n))
        B /= np.linalg.norm(B, axis=1, keepdims=True)
        if reference_positively_spanning(B):
            break
    center = rng.normal(scale=0.5, size=n)
    slack = rng.uniform(0.3, 1.5, size=m)
    return FrozenPolyhedron(B, B @ center + slack)


def random_point_outside(rng: np.random.Generator, F: FrozenPolyhedron) -> np.ndarray:
    from sweeplab.polyhedra import contains

    while True:
        p = rng.normal(scale=4.0, size=F.dim)
        if not contains(F, p):
            return p


def lattice_signal(rng: np.random.Generator, period: float, kmax: int = 4) -> PeriodicSignal:
    """Piecewise-linear signal with breakpoints on the period/8 grid and
    values on the 0.25 lattice (exact ties across signals are common)."""
    num = int(rng.integers(1, kmax + 1))
    slots = sorted(rng.choice(8, size=num, replace=False))
    pts = [(period * s / 8.0, 0.25 * int(rng.integers(1, 9))) for s in slots]
    return PeriodicSignal(period, pts)


def uniform_signal(rng: np.random.Generator, period: float, kmax: int = 4) -> PeriodicSignal:
    """Piecewise-linear signal with breakpoints on the period/8 grid and values
    uniform in [0.25, 2]: sums of such values depend on their order."""
    num = int(rng.integers(1, kmax + 1))
    slots = sorted(rng.choice(8, size=num, replace=False))
    return PeriodicSignal(period, [(period * s / 8.0, rng.uniform(0.25, 2.0)) for s in slots])


def random_gait(rng: np.random.Generator, num_blocks: int, period: float = 1.0,
                signal=lattice_signal):
    from sweeplab.crawler import Gait

    return Gait(
        num_blocks=num_blocks,
        period=period,
        stiffness=1.0,
        rest_lengths=tuple(signal(rng, period) for _ in range(num_blocks - 1)),
        mu_plus=tuple(signal(rng, period) for _ in range(num_blocks)),
        mu_minus=tuple(signal(rng, period) for _ in range(num_blocks)),
    )


def gait_margin_floor(g) -> float:
    """Exact lower bound for the uniqueness margin over the whole period.

    Every subset expression sum_J mu+ - sum_{J^c} mu- is piecewise linear
    with breakpoints on the period/8 grid, so it suffices to look at the
    eighth points: a sign change forces an interior zero (margin 0),
    otherwise the minimum modulus is attained at a breakpoint.
    """
    import numpy as np

    from sweeplab.crawler import friction_values

    N = g.num_blocks
    ts = g.period * np.arange(8) / 8.0
    vals = []
    for t in ts:
        mup, mum = friction_values(g, float(t))
        vals.append((mup, mum))
    floor = np.inf
    for bits in range(1 << N):
        expr = np.array(
            [
                sum(mup[i] if bits >> i & 1 else -mum[i] for i in range(N))
                for mup, mum in vals
            ]
        )
        wrapped = np.append(expr, expr[0])
        if np.any(wrapped[:-1] * wrapped[1:] < 0):
            return 0.0
        floor = min(floor, float(np.min(np.abs(expr))))
    return floor


def gait_slips_from_rest(g) -> bool:
    """True iff the rest configuration at t=0 leaves the admissible set.

    Force and friction bounds at a fixed configuration are piecewise linear
    in t with breakpoints on the period/8 grid, so a configuration admissible
    at both ends of an eighth is admissible throughout it: checking the
    eighth points is exact. A gait for which this is False never moves from
    rest.
    """
    from sweeplab.crawler import admissible, assemble_positions, rest_length_values

    x0 = assemble_positions(0.0, rest_length_values(g, 0.0))
    return any(not admissible(g, g.period * j / 8.0, x0) for j in range(8))


def reference_margin_at(g, t: float):
    """Uniqueness margin by a loop over the 2^N subsets in bitmask order,
    keeping the first minimum: the reference for crawler.margin_at."""
    from sweeplab.crawler import friction_values

    N = g.num_blocks
    mup, mum = friction_values(g, t)
    total_minus = mum.sum()
    best = np.inf
    best_subset = ()
    for bits in range(1 << N):
        subset = tuple(i for i in range(N) if bits >> i & 1)
        val = abs(sum(mup[i] + mum[i] for i in subset) - total_minus)
        if val < best:
            best = val
            best_subset = subset
    return float(best), best_subset


def load_perfbench(name: str):
    """Import perfbench/<name>.py, the benchmark's module, from the source tree."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_modules():
    """The sweeplab modules that perfbench's workloads take, as it passes them."""
    import sweeplab.crawler
    import sweeplab.polyhedra
    import sweeplab.signals

    return SimpleNamespace(signals=sweeplab.signals, crawler=sweeplab.crawler,
                           polyhedra=sweeplab.polyhedra)


def peristaltic_starts(seed: int):
    """The benchmark's gait_wide gaits and starts for this seed, drawn as it draws them."""
    workloads = load_perfbench("workloads")
    sl = _bench_modules()
    rng = np.random.default_rng(seed)
    for N, count in workloads.GaitWide.STARTS.items():
        g = workloads.peristaltic_gait(sl, N)
        K = sl.crawler.build_moving_set(g)
        for _ in range(count):
            z = workloads._admissible_point(sl, K, rng)
            yield g, sl.crawler.assemble_positions(0.0, -z / g.stiffness)


def perturbed_peristaltic_gait(num_blocks: int, seed: int = 0):
    """The benchmark's peristaltic gait with each constant friction threshold
    raised by U(0, 0.02): the perturbation lifts the exact ties that give the
    unperturbed gait a zero uniqueness margin from N = 8 on."""
    sl = _bench_modules()
    g = load_perfbench("workloads").peristaltic_gait(sl, num_blocks)
    rng = np.random.default_rng(seed)
    mup, mum = ([PeriodicSignal.constant(s.values[0] + rng.uniform(0.0, 0.02), g.period) for s in mu]
                for mu in (g.mu_plus, g.mu_minus))
    return sl.crawler.Gait(num_blocks, g.period, g.stiffness, g.rest_lengths, tuple(mup), tuple(mum))


def oracle_kkt_violations(g, positions, t0: float, steps_per_period: int, tol: float = TOL) -> np.ndarray:
    """The worst optimality violation of each step of a crawler run, read from
    its positions and the gait alone.

    Step k lands on x_{k+1} at grid phase (k+1) mod M. There block i feels the
    spring force f_i = k s_i - k s_{i-1}, with s_j = x_{j+1} - x_j - L_j the
    stretch of link j (s_0 = s_N = 0). A block that stays (|dx_i| <= tol)
    needs -mu_i^- <= f_i <= mu_i^+, one that moves forward f_i = mu_i^+, one
    that moves backward f_i = -mu_i^-.
    """
    x = np.asarray(positions, dtype=float)
    K = len(x) - 1
    M = int(steps_per_period)
    ts = t0 + g.period / M * (np.arange(1, K + 1) % M)
    ell, mup, mum = (np.column_stack([eval_many(s, ts) for s in sigs])
                     for sigs in (g.rest_lengths, g.mu_plus, g.mu_minus))
    stretch = g.stiffness * (np.diff(x[1:], axis=1) - ell)
    edge = np.zeros((K, 1))
    force = np.hstack((stretch, edge)) - np.hstack((edge, stretch))
    dx = np.diff(x, axis=0)
    violation = np.where(dx > tol, np.abs(force - mup),
                         np.where(dx < -tol, np.abs(force + mum), np.maximum(force - mup, -mum - force)))
    return violation.max(axis=1)


def random_gait_with_margin(rng: np.random.Generator, num_blocks: int, threshold: float):
    while True:
        g = random_gait(rng, num_blocks)
        if gait_margin_floor(g) > threshold:
            return g


def random_moving_polyhedron(rng: np.random.Generator, n: int, m: int, period: float = 1.0):
    """Random compact moving polyhedron and a point inside it at t=0.

    The offsets are b_i . center(t) + slack_i(t) with a center path and
    positive slacks that are piecewise linear on the period/4 grid, so the
    set is nonempty at all times and sweeps across the state as it moves.
    """
    B = random_polyhedron(rng, n, m).normals
    knots = period * np.arange(4) / 4.0
    centers = rng.normal(scale=0.8, size=(4, n))
    slacks = rng.uniform(0.2, 1.0, size=(4, m))
    offsets = [
        PeriodicSignal(period, list(zip(knots, centers @ B[i] + slacks[:, i]))) for i in range(m)
    ]
    return MovingPolyhedron(B, offsets), centers[0]


def random_drift(rng: np.random.Generator, n: int, period: float = 1.0):
    """Piecewise-constant drift, one signal per coordinate, on the period/4 grid."""
    knots = period * np.arange(4) / 4.0
    values = rng.normal(scale=2.0, size=(n, 4))
    return tuple(PeriodicSignal(period, list(zip(knots, v)), PIECEWISE_CONSTANT) for v in values)


def reference_simulate(problem, z0, t0: float, periods: int, steps_per_period: int,
                       tol: float = TOL):
    """Step-by-step catching-up: one polyhedra.project per step, each a full
    search, so no warm start is shared with the segment kernel, and active
    masks from the residuals at tol.

    Returns (states, multipliers, active_masks) laid out like a Trajectory.
    """
    P = problem.moving_set
    M = steps_per_period
    h = problem.period / M
    phases = t0 + np.arange(M) * h
    frozen = [
        FrozenPolyhedron(P.normals, c)
        for c in np.column_stack([eval_many(s, phases) for s in P.offsets])
    ]
    drift = None
    if problem.drift is not None:
        drift = np.column_stack([eval_many(s, phases) for s in problem.drift])

    def mask(F, z):
        return sum(1 << int(i) for i in np.flatnonzero(F.offsets - F.normals @ z <= tol))

    z = np.asarray(z0, dtype=float)
    states, multipliers, masks = [z], [], [mask(frozen[0], z)]
    for k in range(periods * M):
        p = z if drift is None else z + h * drift[k % M]
        F = frozen[(k + 1) % M]
        res = project(F, p)
        z = res.point
        states.append(z)
        multipliers.append(res.multipliers)
        masks.append(mask(F, z))
    return np.array(states), np.array(multipliers), np.array(masks, dtype=np.int64)


def reference_validate_trajectory(traj, tol: float = TOL) -> None:
    """The KKT certificate one step at a time: at each step k, in this order,
    z_{k+1} feasible to 10*tol, the multiplier reconstruction of p - z_{k+1}
    within 1e-10 (1 + |p|), and every multiplier that is not <= 0 on a
    constraint active to 10*tol. A step passes a test only where its
    comparisons hold, so a NaN fails it. Offsets and drift come from
    eval_many at the grid phases, not from sweeping._grid, and the record's
    grid is not checked.

    Raises sweeping.validate_trajectory's ValueError for the first failing
    step and test.
    """
    P = traj.problem.moving_set
    B = P.normals
    M = traj.steps_per_period
    h = P.period / M
    phases = traj.t0 + np.arange(M) * h
    offsets = np.column_stack([eval_many(s, phases) for s in P.offsets])
    drift = traj.problem.drift
    if drift is not None:
        drift = np.column_stack([eval_many(s, phases) for s in drift])
    for k in range(len(traj.states) - 1):
        z_next = traj.states[k + 1]
        c_next = offsets[(k + 1) % M]
        if not np.all(B @ z_next <= c_next + 10 * tol):
            raise ValueError(f"state {k + 1} infeasible")
        p = traj.states[k]
        if drift is not None:
            p = p + h * drift[k % M]
        recon = p - z_next - B.T @ traj.multipliers[k]
        if not np.linalg.norm(recon) <= 1e-10 * (1.0 + np.linalg.norm(p)):
            raise ValueError(f"multiplier reconstruction fails at step {k}")
        support = ~(traj.multipliers[k] <= 0)
        if not np.all(c_next[support] - B[support] @ z_next <= 10 * tol):
            raise ValueError(f"multiplier support not active at step {k}")


def reference_segment_steps(inside, lam_ok=None, feasible=None) -> int:
    """The steps a segment block accepts, by row-by-row reductions of its
    (L, m) test tables: the leading run of rows that pass.

    An interior block (lam_ok None) passes a row when all of inside holds. A
    face block passes a row when not all of inside holds (p is not
    interior), all of lam_ok holds and all of feasible holds.
    """
    if lam_ok is None:
        ok = np.all(inside, axis=1)
    else:
        ok = ~np.all(inside, axis=1) & np.all(lam_ok, axis=1) & np.all(feasible, axis=1)
    return len(ok) if ok.all() else int(np.argmin(ok))


def reference_segment(B, c, dz, z, face):
    """sweeping._segment as one part: every row of the block to the end of
    its period, each quantity one product over all L rows. Returns
    (accepted steps, states, multipliers on the subset) over the L rows."""
    from sweeplab.sweeping import _face_steps, _rows_passing

    L = len(c)
    q = z if dz is None else np.cumsum(np.vstack([z, dz]), axis=0)[1:]
    if face is None:
        Z = np.broadcast_to(q, (L, len(z)))
        return _rows_passing(c - Z @ B.T >= -TOL), Z, None
    idx, BS, Ginv, Pi, R = face
    cS = c[:, idx]
    Z = q @ Pi.T + cS @ R.T
    P = np.vstack([z, Z[:-1]])
    if dz is not None:
        P += dz
    lam = (P @ BS.T - cS) @ Ginv.T
    return _face_steps(c, P @ B.T, lam, Z @ B.T), Z, lam


def reference_periods(problem, z0, t0: float, periods: int, steps_per_period: int):
    """simulate one period at a time: a chain of one-period runs, each from t0
    (the discrete map is exactly T-periodic) and the last state of the one
    before. A one-period run has no earlier period to copy, so every step is
    computed.

    Returns (states, multipliers, active_masks) laid out like a Trajectory.
    """
    from sweeplab.sweeping import simulate

    runs = [simulate(problem, z0, t0, 1, steps_per_period)]
    for _ in range(periods - 1):
        runs.append(simulate(problem, runs[-1].states[-1], t0, 1, steps_per_period))
    return (
        np.concatenate([runs[0].states[:1]] + [r.states[1:] for r in runs]),
        np.concatenate([r.multipliers for r in runs]),
        np.concatenate([runs[0].active_masks[:1]] + [r.active_masks[1:] for r in runs]),
    )


def reference_period_distances(states: np.ndarray, M: int, h: float):
    """(sup, w12): the distances between consecutive period windows of a
    record of whole periods of M steps, one window at a time.

    delta_k = z(t_k + qT) - z(t_k + (q+1)T) for k = 0..M; sup is max_k |delta_k|,
    and w12 is sqrt(h sum |delta_k|^2 + h sum |delta'_k|^2) with forward
    differences delta'_k = (delta_{k+1} - delta_k) / h, the last grid point
    reusing the previous difference.
    """
    sup, w12 = [], []
    for q in range((len(states) - 1) // M - 1):
        delta = [states[q * M + k] - states[(q + 1) * M + k] for k in range(M + 1)]
        slope = [(delta[k + 1] - delta[k]) / h for k in range(M)]
        slope.append(slope[-1])
        sup.append(max(float(np.linalg.norm(d)) for d in delta))
        w12.append(np.sqrt(h * sum(float(d @ d) for d in delta) + h * sum(float(s @ s) for s in slope)))
    return np.array(sup), np.array(w12)


def _period_deltas(states: np.ndarray, M: int) -> np.ndarray:
    """z(t_k + qT) - z(t_k + (q+1)T) over grid points qM..(q+1)M of every window q
    of a record's whole periods, as one contiguous (Q-1, M+1, n) array."""
    s = states[: (len(states) - 1) // M * M + 1]
    delta = s[:-M] - s[M:]
    return np.concatenate([delta[:-1].reshape(-1, M, s.shape[1]), delta[M::M, None]], axis=1)


def stacked_period_distances(states: np.ndarray, M: int, h: float):
    """(d_sup, d_w12) from one stacked array of every window: np.linalg.norm
    per grid point, np.diff for the divided differences and np.concatenate
    for the last one. The bit-equal reference for convergence_report, whose
    blocks reduce each window's values in the same order."""
    delta = _period_deltas(states, M)
    d_sup = np.max(np.linalg.norm(delta, axis=2), axis=1)
    dd = np.diff(delta, axis=1) / h
    dd = np.concatenate([dd, dd[:, -1:]], axis=1)
    return d_sup, np.sqrt(h * np.sum(delta**2, axis=(1, 2)) + h * np.sum(dd**2, axis=(1, 2)))


def canonical_patterns(positions: np.ndarray, tol: float = TOL) -> np.ndarray:
    """The sign of each block's displacement at each step, 0 where |dx| <= tol."""
    dx = np.diff(positions, axis=0)
    return np.where(dx > tol, 1, np.where(dx < -tol, -1, 0)).astype(np.int8)


def reference_oracle(g, x0, t0: float, periods: int, steps_per_period: int,
                     tol: float = TOL, solver=inverse_product):
    """Step-by-step slip-pattern enumeration: at every step, the previous
    step's pattern first, then all 3^N patterns with fewer slipping blocks
    first, each solved from scratch by solver(A_SS). The reference for
    crawler.incremental_oracle: bit-equal with the default solver, and
    independent of any explicit inverse with lu_solve.

    Returns (positions, patterns) laid out like an OracleRun's motion
    positions and patterns.
    """
    from sweeplab.crawler import shape_matrix
    from sweeplab.errors import PatternSearchError

    N = g.num_blocks
    x0 = np.asarray(x0, dtype=float)
    M = int(steps_per_period)
    h = g.period / M
    phases = t0 + h * np.arange(M)
    ell_phase = np.column_stack([eval_many(s, phases) for s in g.rest_lengths])
    mup_phase = np.column_stack([eval_many(s, phases) for s in g.mu_plus])
    mum_phase = np.column_stack([eval_many(s, phases) for s in g.mu_minus])

    PZ = shape_matrix(N)
    A = g.stiffness * (PZ.T @ PZ)   # force(x) = -A x + k PZ^T ell
    patterns = list(itertools.product((0, 1, -1), repeat=N))
    patterns.sort(key=lambda p: (sum(1 for s in p if s != 0), p))

    def try_pattern(x, b, mup, mum, pat):
        slips = [i for i, s in enumerate(pat) if s != 0]
        x_new = x.copy()
        if slips:
            idx = np.array(slips)
            target = np.where(np.array(pat)[idx] > 0, mup[idx], -mum[idx])
            rhs = b[idx] - target
            if len(slips) < N:
                sticks = np.array([i for i in range(N) if pat[i] == 0])
                rhs = rhs - A[np.ix_(idx, sticks)] @ x[sticks]
                x_new[idx] = solver(A[np.ix_(idx, idx)])(rhs)
            else:
                sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
                if np.linalg.norm(A @ sol - rhs) > tol * (1.0 + np.linalg.norm(rhs)):
                    return x, np.inf
                x_new[:] = sol
        force = -A @ x_new + b
        violation = 0.0
        for i in range(N):
            if pat[i] > 0:
                violation = max(violation, x[i] - x_new[i])
            elif pat[i] < 0:
                violation = max(violation, x_new[i] - x[i])
            else:
                violation = max(violation, force[i] - mup[i], -mum[i] - force[i])
        return x_new, violation

    def oracle_step(x, b, mup, mum, hint):
        order = []
        if hint is not None:
            order.append(tuple(int(s) for s in hint))
        nearest = (np.inf, None)
        for pat in itertools.chain(order, patterns):
            x_new, violation = try_pattern(x, b, mup, mum, pat)
            if violation <= tol:
                return x_new, np.array(pat, dtype=np.int8)
            if violation < nearest[0]:
                nearest = (violation, pat)
        raise PatternSearchError(
            f"no consistent slip pattern; nearest miss {nearest[1]} violates by {nearest[0]:.3e}"
        )

    K = periods * M
    xs = np.empty((K + 1, N))
    xs[0] = x0
    chosen = np.zeros((K, N), dtype=np.int8)
    x = x0.copy()
    hint = None
    for k in range(K):
        ph = (k + 1) % M
        b = g.stiffness * (PZ.T @ ell_phase[ph])
        try:
            x, hint = oracle_step(x, b, mup_phase[ph], mum_phase[ph], hint)
        except PatternSearchError as exc:
            raise PatternSearchError(f"step {k}, t={t0 + (k + 1) * h:.17g}: {exc}") from exc
        xs[k + 1] = x
        chosen[k] = hint
    return xs, chosen


def reference_chain_minimizers(x, ell, mup, mum, k: float, tol: float = TOL):
    """crawler._chain_minimizers on numpy arrays, with np.searchsorted and
    np.interp: the same dynamic program along the chain, as the reference for
    the Python-float version. Returns a list of one or two minimizer arrays.
    """
    N = len(x)
    X = np.array([x[0], x[0]])
    G = np.array([-mum[0], mup[0]])
    springs = []
    for j in range(N - 1):
        Y = X + G / k + ell[j]
        springs.append((Y, G))
        c = x[j + 1]
        lo, hi = np.searchsorted(Y, c, "left"), np.searchsorted(Y, c, "right")
        gc = np.interp(c, Y, G)
        X = np.concatenate((Y[:lo], (c, c), Y[hi:]))
        G = np.concatenate((G[:lo] - mum[j + 1], (gc - mum[j + 1], gc + mup[j + 1]), G[hi:] + mup[j + 1]))
    flat = np.flatnonzero((G[:-1] == G[1:]) & (np.abs(G[1:]) <= tol) & (X[:-1] < X[1:]))
    ends = (X[flat[0]], X[flat[-1] + 1]) if len(flat) else (np.interp(0.0, G, X),)
    minimizers = []
    for end in ends:
        y = np.empty(N)
        y[-1] = end
        for j in range(N - 2, -1, -1):
            Y, G = springs[j]
            y[j] = y[j + 1] - np.interp(y[j + 1], Y, G) / k - ell[j]
        minimizers.append(y)
    return minimizers


def reference_csv(header, table: np.ndarray, row_fmt: str, newline: str) -> bytes:
    """A CSV file's bytes: the header, then one `%` per row over the whole table."""
    lines = [",".join(header)] + [row_fmt % tuple(row) for row in table.tolist()]
    return (newline.join(lines) + newline).encode()


def reference_trajectory_csv(traj) -> bytes:
    """write_trajectory_csv's bytes, every row formatted on its own."""
    n, m = traj.problem.dim, traj.problem.moving_set.num_constraints
    header = ["t"] + [f"z{i + 1}" for i in range(n)] + [f"eta_{i + 1}" for i in range(m)] + ["active_bitmask"]
    table = np.column_stack([
        traj.times, traj.states, np.vstack([np.zeros(m), traj.multipliers]), traj.active_masks,
    ])
    return reference_csv(header, table, ",".join(["%.17g"] * (1 + n + m) + ["%d"]), "\r\n")


def reference_motion_csv(motion) -> bytes:
    """write_motion_csv's bytes, every row formatted on its own."""
    N = motion.positions.shape[1]
    table = np.column_stack([motion.times, motion.positions])
    return reference_csv(["t"] + [f"x{i + 1}" for i in range(N)], table, ",".join(["%.17g"] * (1 + N)), "\n")
