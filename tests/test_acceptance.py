"""Acceptance suite.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``) and
asserts its stated tolerances. Heavy simulations are shared through
module-scoped fixtures so the whole suite stays within a desk-scale budget.
"""

import numpy as np
import pytest

from helpers import (
    bottom_edge_coordinate,
    brute_force_cone_coefficients,
    gait_slips_from_rest,
    hypomonotone_check,
    random_gait,
    random_gait_with_margin,
    random_point_outside,
    random_polyhedron,
)
from sweeplab.cli import main as cli_main
from sweeplab.crawler import (
    assemble_positions,
    build_moving_set,
    estimate_velocity,
    incremental_oracle,
    margin_at,
    rest_length_values,
    simulate_reduced,
)
from sweeplab.polyhedra import (
    active_set,
    bounding_box,
    check_licq,
    contains,
    freeze,
    project,
)
from sweeplab.scenarios import (
    catalog,
    two_block_gait,
    wedge_poincare,
)
from sweeplab.sweeping import (
    SweepingProblem,
    convergence_report,
    simulate,
)
from sweeplab.signals import eval_many

TOL = 1e-9


def _report(num: int, name: str, checks) -> None:
    ok = all(c[0] for c in checks)
    print(f"[acceptance] criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    failed = [msg for good, msg in checks if not good]
    for msg in failed:
        print(f"    failed: {msg}")
    assert ok, f"criterion {num:02d} ({name}): " + "; ".join(failed)


def _sample_states(problem, t0, count, rng):
    F = freeze(problem.moving_set, t0)
    lo, hi = bounding_box(F)
    out = []
    while len(out) < count:
        z = rng.uniform(lo, hi)
        if contains(F, z):
            out.append(z)
    return out


# ---------------------------------------------------------------------------
# shared heavy runs

@pytest.fixture(scope="module")
def wedge_scenario_fx():
    return catalog()["wedge"]


@pytest.fixture(scope="module")
def wedge_runs(wedge_scenario_fx):
    sc = wedge_scenario_fx
    return {
        z1: simulate(sc.problem, np.array([z1, 0.0]), 0.0, 20, 2000)
        for z1 in (0.0, 0.25, 0.5, 0.75)
    }


@pytest.fixture(scope="module")
def wedge_long(wedge_scenario_fx):
    sc = wedge_scenario_fx
    return simulate(sc.problem, np.array([0.25, 0.0]), 0.0, 62, 2000)


@pytest.fixture(scope="module")
def triangle_scenario_fx():
    return catalog()["triangle"]


@pytest.fixture(scope="module")
def triangle_long(triangle_scenario_fx):
    sc = triangle_scenario_fx
    return simulate(sc.problem, sc.initial_state, 0.0, 62, 3000)


@pytest.fixture(scope="module")
def crawler_long():
    g = two_block_gait()
    x0 = assemble_positions(0.0, rest_length_values(g, 0.0))
    return simulate_reduced(g, x0, 0.0, 62, 2000)


# ---------------------------------------------------------------------------
# 1. wedge Poincare map, contraction ratio, classification

def test_criterion_01_wedge_poincare(wedge_runs):
    h = 2.0 / 2000
    checks = []
    for z1, traj in wedge_runs.items():
        mapped = wedge_poincare(1.0, 2.0, z1)
        err = abs(traj.states[2000][0] - mapped)
        checks.append((err <= 5 * h, f"start {z1}: |z1(T) - map| = {err:.2e} > 5h"))
        cls = convergence_report(traj).classification
        checks.append((cls.kind == "geometric", f"start {z1}: classification {cls.kind}"))
        ok_ratio = cls.ratio is not None and abs(cls.ratio - 0.5) <= 0.05
        checks.append((ok_ratio, f"start {z1}: ratio {cls.ratio}"))
    _report(1, "wedge poincare map", checks)


# ---------------------------------------------------------------------------
# 2. finite-time periodicity for interval products

def test_criterion_02_cell_finite_time():
    rng = np.random.default_rng(2024)
    checks = []
    for name in ("box1", "box3"):
        sc = catalog()[name]
        for z0 in _sample_states(sc.problem, 0.0, 10, rng):
            traj = simulate(sc.problem, z0, 0.0, 5, sc.recommended_steps)
            worst = float(np.max(convergence_report(traj).d_sup[1:]))
            checks.append((worst <= 1e-9, f"{name} start {z0}: d_q = {worst:.2e} > 1e-9"))
    _report(2, "finite-time periodicity of cells", checks)


# ---------------------------------------------------------------------------
# 3. triangle: fixed point, contraction, drift vs moving set

def test_criterion_03_triangle(triangle_scenario_fx, triangle_long):
    sc = triangle_scenario_fx
    M = 3000
    side = sc.reference["geometry"]["side"]
    h = sc.problem.period / M
    coords = np.array(
        [bottom_edge_coordinate(triangle_long.states[q * M + M // 3], side) for q in range(12)]
    )
    checks = [
        (
            abs(coords[-1] - 1.0 / 3.0) <= 0.01,
            f"fixed point {coords[-1]:.4f} not within 0.01 of 1/3",
        )
    ]
    diffs = np.abs(np.diff(coords))
    ratios = diffs[1:5] / diffs[:4]
    med = float(np.median(ratios))
    checks.append((abs(med - 0.125) <= 0.02, f"contraction ratio {med:.4f} != 0.125 +- 0.02"))

    moving = sc.reference["moving_form"]
    traj_m = simulate(moving, sc.initial_state, 0.0, 6, M)
    drift_states = triangle_long.states[: 6 * M + 1]
    shift = np.column_stack([eval_many(s, traj_m.times) for s in sc.reference["drift_primitive"]])
    gap = float(np.max(np.linalg.norm(drift_states - (traj_m.states + shift), axis=1)))
    checks.append((gap <= 10 * h, f"drift vs moving-set gap {gap:.2e} > 10h"))
    _report(3, "triangle edge map", checks)


# ---------------------------------------------------------------------------
# 4. crawler velocity

def test_criterion_04_crawler_velocity():
    g = two_block_gait()
    rest = assemble_positions(0.0, rest_length_values(g, 0.0))
    M = 2000
    run = simulate_reduced(g, rest, 0.0, 10, M)
    v0 = estimate_velocity(run.motion).v0
    oracle = incremental_oracle(g, rest, 0.0, 10, 8000)
    v0_oracle = estimate_velocity(oracle.motion).v0
    checks = [
        (abs(v0_oracle - 2.0) <= 0.02, f"oracle v0 {v0_oracle:.5f} != 2.0 +- 0.02"),
        (abs(v0 - 2.0) <= 0.02, f"reduced v0 {v0:.5f} != 2.0 +- 0.02"),
    ]

    rng = np.random.default_rng(99)
    K0 = freeze(build_moving_set(g), 0.0)
    lo, hi = bounding_box(K0)
    v0s = []
    while len(v0s) < 5:
        w0 = rng.uniform(lo, hi)
        if not contains(K0, w0):
            continue
        x0 = assemble_positions(0.0, -w0 / g.stiffness)
        v0s.append(estimate_velocity(simulate_reduced(g, x0, 0.0, 10, M).motion).v0)
    spread = max(v0s) - min(v0s)
    checks.append((spread <= 1e-6 + 10.0 / M, f"v0 spread {spread:.2e} over 5 starts"))

    gm = two_block_gait(mirrored=True)
    rest_m = assemble_positions(0.0, rest_length_values(gm, 0.0))
    v0_m = estimate_velocity(simulate_reduced(gm, rest_m, 0.0, 10, M).motion).v0
    checks.append((abs(v0_m + 2.0) <= 0.02, f"mirrored v0 {v0_m:.5f} != -2.0 +- 0.02"))
    _report(4, "crawler asymptotic velocity", checks)


# ---------------------------------------------------------------------------
# 5. solver equivalence

def _solver_runs(g, periods, steps):
    x0 = assemble_positions(0.0, rest_length_values(g, 0.0))
    run = simulate_reduced(g, x0, 0.0, periods, steps)
    oracle = incremental_oracle(g, x0, 0.0, periods, steps)
    reduced, full = run.motion.positions, oracle.motion.positions
    return {
        "reduced": reduced,
        "oracle": full,
        "gap": float(np.max(np.abs(reduced - full))),
        "reduced_slips": int(np.count_nonzero(np.any(run.reduced.multipliers != 0, axis=1))),
        "oracle_slips": int(np.count_nonzero(np.any(oracle.patterns != 0, axis=1))),
    }


@pytest.fixture(scope="module")
def solver_gaps():
    rng = np.random.default_rng(555)
    gaits = [("crawler2", two_block_gait())]
    for N in (2, 3, 3):
        g = random_gait_with_margin(rng, N, 0.1)
        while not gait_slips_from_rest(g):
            g = random_gait_with_margin(rng, N, 0.1)
        gaits.append(("random", g))
    return [
        {
            "name": f"gait {i} ({label}, N={g.num_blocks})",
            2000: _solver_runs(g, 5, 2000),
            4000: _solver_runs(g, 5, 4000),
        }
        for i, (label, g) in enumerate(gaits, start=1)
    ]


def _slip_checks(entry):
    run = entry[2000]
    return [
        (run["reduced_slips"] > 0, f"{entry['name']}: no nonzero reduced multiplier (test vacuous)"),
        (run["oracle_slips"] > 0, f"{entry['name']}: every oracle pattern sticks (test vacuous)"),
    ]


def test_criterion_05_solver_equivalence_gap(solver_gaps):
    checks = []
    for entry in solver_gaps:
        gap = entry[2000]["gap"]
        checks += _slip_checks(entry)
        checks.append((gap <= 0.02, f"{entry['name']}: gap {gap:.2e} > 0.02 at M=2000"))
    _report(5, "solver equivalence gap", checks)


def test_criterion_05_solver_equivalence_refinement_ratio(solver_gaps):
    """The reduced pipeline and the oracle stay equivalent under refinement.

    The incremental minimizer of the quadratic energy plus the
    one-homogeneous dissipation is exactly the projection onto K(t), so the
    catching-up step and the slip-pattern oracle compute one discrete map.
    Their gap is rounding noise with no O(h) part, so a shrinking gap ratio
    is not something either method promises and is not asked for. What a
    refinement check of two equivalent solvers can check is that the
    equivalence holds at every step count: the gap is within TOL at M=2000
    and at M=4000, and, for each solver, the M=4000 motion on every second
    node matches the M=2000 motion within TOL. The second check rests on
    measurement, not on a stated property of the scheme: for gaits whose
    breakpoints lie on both grids, catching-up lands on the same positions
    at shared nodes (differences of about 1e-12 here). The first-order
    error of the scheme itself needs an exact reference solution, not a
    second solver of the same map. Every gait must slip, otherwise both
    solvers sit at rest and the checks are vacuous.
    """
    checks = []
    for entry in solver_gaps:
        coarse, fine = entry[2000], entry[4000]
        ratio = coarse["gap"] / fine["gap"] if fine["gap"] > 0 else np.inf
        gaps = f"gaps {coarse['gap']:.2e} -> {fine['gap']:.2e}, ratio {ratio:.2f}"
        checks += _slip_checks(entry)
        for M, run in ((2000, coarse), (4000, fine)):
            checks.append(
                (run["gap"] <= TOL, f"{entry['name']}: gap {run['gap']:.2e} > {TOL:.0e} at M={M} ({gaps})")
            )
        for solver in ("reduced", "oracle"):
            drift = float(np.max(np.abs(fine[solver][::2] - coarse[solver])))
            checks.append(
                (
                    drift <= TOL,
                    f"{entry['name']}: {solver} motion at M=4000 differs from M=2000 "
                    f"by {drift:.2e} > {TOL:.0e} on shared nodes ({gaps})",
                )
            )
    _report(5, "solver equivalence under refinement", checks)


# ---------------------------------------------------------------------------
# 6. discrete hypomonotonicity

def test_criterion_06_hypomonotonicity():
    cat = catalog()
    systems = [
        ("wedge", cat["wedge"].problem, 200),
        ("box1", cat["box1"].problem, 200),
        ("box3", cat["box3"].problem, 200),
        ("triangle-moving", cat["triangle"].reference["moving_form"], 300),
        ("crawler2-K", SweepingProblem(build_moving_set(cat["crawler2"].gait)), 400),
        ("crawler3-K", SweepingProblem(build_moving_set(cat["crawler3"].gait)), 400),
    ]
    rng = np.random.default_rng(6)
    checks = []
    for name, problem, steps in systems:
        bad = 0
        for _ in range(20):
            za, zb = _sample_states(problem, 0.0, 2, rng)
            ta = simulate(problem, za, 0.0, 3, steps)
            tb = simulate(problem, zb, 0.0, 3, steps)
            if not hypomonotone_check(ta, tb):
                bad += 1
        checks.append((bad == 0, f"{name}: {bad}/20 start pairs violate monotonicity"))
    _report(6, "discrete hypomonotonicity", checks)


# ---------------------------------------------------------------------------
# 7. KKT / decomposition suite

def test_criterion_07_kkt_suite():
    rng = np.random.default_rng(777)
    recon_bad = 0
    nonexp_bad = 0
    nnls_bad = 0
    nnls_checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n + 1, 9))
        F = random_polyhedron(rng, n, m)
        p = random_point_outside(rng, F)
        q = rng.normal(scale=4.0, size=n)
        rp = project(F, p)
        rq = project(F, q)
        recon = np.linalg.norm(p - rp.point - F.normals.T @ rp.multipliers)
        if recon > 1e-10 * (1.0 + np.linalg.norm(p)):
            recon_bad += 1
        if np.linalg.norm(rp.point - rq.point) > np.linalg.norm(p - q) + 1e-10:
            nonexp_bad += 1
        act = active_set(F, rp.point)
        BS = F.normals[act]
        if len(act) and np.linalg.matrix_rank(BS, tol=1e-10) == len(act):
            v = BS.T @ rng.uniform(0.0, 2.0, size=len(act))
            from sweeplab.polyhedra import decompose_normal

            lam = decompose_normal(F, rp.point, v)
            ref, resid = brute_force_cone_coefficients(BS, v)
            nnls_checked += 1
            if resid > 1e-9 or np.max(np.abs(lam[act] - ref)) > 1e-8:
                nnls_bad += 1
    checks = [
        (recon_bad == 0, f"{recon_bad}/1000 reconstruction residuals exceed 1e-10"),
        (nonexp_bad == 0, f"{nonexp_bad}/1000 nonexpansiveness violations"),
        (nnls_bad == 0, f"{nnls_bad}/{nnls_checked} NNLS mismatches beyond 1e-8"),
        (nnls_checked >= 500, f"only {nnls_checked} LICQ decomposition checks"),
    ]
    _report(7, "projection KKT suite", checks)


# ---------------------------------------------------------------------------
# 8. uniqueness margin vs LICQ of the reduced set

def test_criterion_08_margin_licq_equivalence():
    rng = np.random.default_rng(88)
    disagreements = 0
    zero_hits = 0
    positive_hits = 0
    for _ in range(20):
        N = int(rng.integers(2, 4))
        g = random_gait(rng, N)
        K = build_moving_set(g)
        grid = np.linspace(0.0, g.period, 100, endpoint=False)
        for t in grid:
            margin, _ = margin_at(g, float(t))
            licq = check_licq(freeze(K, float(t))).holds
            if (margin <= TOL) == licq:
                disagreements += 1
            if margin <= TOL:
                zero_hits += 1
            else:
                positive_hits += 1
    checks = [
        (disagreements == 0, f"{disagreements} grid points disagree"),
        (zero_hits > 0, "no zero-margin instants sampled (test vacuous)"),
        (positive_hits > 0, "no positive-margin instants sampled (test vacuous)"),
    ]
    _report(8, "margin-LICQ equivalence", checks)


# ---------------------------------------------------------------------------
# 9. W12 distances decrease and get small

def test_criterion_09_w12_diagnostics(wedge_long, triangle_long, crawler_long):
    checks = []
    for name, traj in (
        ("wedge", wedge_long),
        ("triangle", triangle_long),
        ("two-block gait", crawler_long.reduced),
    ):
        d12 = convergence_report(traj).d_w12[:61]
        # absolute 1e-12 floor: once orbits coincide to rounding, the 5%
        # relative slack is meaningless on the zero tail
        mono = np.all(np.diff(d12) <= 0.05 * d12[:-1] + 1e-12)
        checks.append((bool(mono), f"{name}: d12 not nonincreasing within 5%"))
        checks.append((d12[60] <= 1e-5, f"{name}: d12[60] = {d12[60]:.2e} > 1e-5"))
    _report(9, "W12 convergence diagnostics", checks)


# ---------------------------------------------------------------------------
# 10. CLI determinism

def test_criterion_10_cli_determinism(tmp_path):
    checks = []
    for label, args in (
        (
            "crawler2",
            ["run", "--scenario", "crawler2", "--periods", "5", "--steps", "400",
             "--starts", "3", "--seed", "7", "--compare"],
        ),
        (
            "wedge",
            ["run", "--scenario", "wedge", "--periods", "6", "--steps", "200"],
        ),
    ):
        out1 = tmp_path / f"{label}_1"
        out2 = tmp_path / f"{label}_2"
        code1 = cli_main(args + ["--out", str(out1)])
        code2 = cli_main(args + ["--out", str(out2)])
        checks.append((code1 == 0 and code2 == 0, f"{label}: nonzero exit"))
        files1 = {p.name: p.read_bytes() for p in sorted(out1.iterdir())}
        files2 = {p.name: p.read_bytes() for p in sorted(out2.iterdir())}
        checks.append((files1 == files2, f"{label}: outputs differ between identical runs"))
    _report(10, "CLI determinism", checks)
