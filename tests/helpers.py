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

import numpy as np

from sweeplab.polyhedra import (
    FrozenPolyhedron,
    MovingPolyhedron,
    positively_spanning,
    project,
)
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


def central_difference_gradient(f, x: np.ndarray, step: float = 1e-4) -> np.ndarray:
    g = np.zeros_like(x, dtype=float)
    for i in range(len(x)):
        e = np.zeros_like(x, dtype=float)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def random_polyhedron(rng: np.random.Generator, n: int, m: int) -> FrozenPolyhedron:
    """Compact, nonempty random polyhedron containing a known interior point."""
    assert m >= n + 1
    while True:
        B = rng.normal(size=(m, n))
        B /= np.linalg.norm(B, axis=1, keepdims=True)
        if positively_spanning(B):
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


def reference_oracle(g, x0, t0: float, periods: int, steps_per_period: int,
                     tol: float = TOL):
    """Step-by-step slip-pattern enumeration: at every step, the previous
    step's pattern first, then all 3^N patterns with fewer slipping blocks
    first, each solved from scratch. The reference for
    crawler.incremental_oracle.

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
                x_new[idx] = np.linalg.solve(A[np.ix_(idx, idx)], rhs)
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
