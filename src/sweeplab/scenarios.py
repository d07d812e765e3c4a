"""Bundled concrete systems with closed-form reference behaviour.

Each scenario packages a sweeping problem or a gait together with recommended
discretization settings and reference data (closed-form period maps, expected
classifications, expected contraction ratios). Reference entries carry a
"source" tag: "closed-form" for values backed by an exact map, "derived" for
values obtained by independent hand analysis or oracle computation, and
"construction" for properties that hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .crawler import Gait, assemble_positions, rest_length_values
from .errors import SweepLabError
from .polyhedra import MovingPolyhedron
from .signals import PeriodicSignal, combine, eval_many, eval_signal, triangle_wave
from .sweeping import SweepingProblem


@dataclass(frozen=True)
class Scenario:
    name: str
    problem: SweepingProblem | None
    gait: Gait | None
    recommended_periods: int
    recommended_steps: int
    initial_state: np.ndarray
    reference: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return "gait" if self.gait is not None else "sweeping"

    def export_json(self) -> dict:
        if self.gait is not None:
            return {"gait": self.gait.to_json()}
        return {"problem": self.problem.to_json()}


# ---------------------------------------------------------------------------
# Product-of-intervals cells

def ncell_scenario(a_signals, b_signals, name: str = "cell") -> Scenario:
    """Moving box prod_i [a_i(t), b_i(t)]; converges in finite time (<= 1 period)."""
    a_signals = tuple(a_signals)
    b_signals = tuple(b_signals)
    if len(a_signals) != len(b_signals):
        raise ValueError("need matching lower/upper signal lists")
    n = len(a_signals)
    for a, b in zip(a_signals, b_signals):
        ts = np.unique(np.concatenate([a.times, b.times]))
        if np.any(eval_many(b, ts) - eval_many(a, ts) < 0):
            raise ValueError("interval inversion: a_i(t) > b_i(t) at some breakpoint")
    eye = np.eye(n)
    normals = np.vstack([eye, -eye])
    offsets = tuple(b_signals) + tuple(combine([a], [-1.0]) for a in a_signals)
    problem = SweepingProblem(MovingPolyhedron(normals, offsets))
    z0 = np.array(
        [0.5 * (eval_signal(a, 0.0) + eval_signal(b, 0.0)) for a, b in zip(a_signals, b_signals)]
    )
    return Scenario(
        name=name,
        problem=problem,
        gait=None,
        recommended_periods=6,
        recommended_steps=200,
        initial_state=z0,
        reference={
            "classification": {"kind": "finite-time", "max_period": 1, "source": "construction"},
        },
    )


# ---------------------------------------------------------------------------
# Wedge with an acute corner and small vertical movements

def wedge_poincare(alpha: float, period: float, z1: float) -> float:
    """Closed-form first-coordinate period map for states on the bottom edge."""
    gamma = period / (2.0 * alpha)
    if z1 < 0:
        raise ValueError("the map is defined for z1 >= 0")
    if z1 < gamma:
        return (alpha**2 * gamma + z1) / (alpha**2 + 1.0)
    return z1


def wedge_scenario(alpha: float = 1.0, beta: float = 2.0, period: float = 2.0) -> Scenario:
    """Wedge 0 <= z2 <= alpha*z1, z1 <= beta, sliding vertically by a zig-zag.

    Orbits starting on the bottom edge left of the rest point contract toward
    it with per-period factor 1/(alpha^2+1): asymptotic, never finite-time.
    """
    gamma = period / (2.0 * alpha)
    if not 2 * beta > period * alpha:
        raise ValueError("requires 2*beta > period*alpha")
    if not beta > gamma:
        raise ValueError("requires beta > period/(2*alpha)")
    lift = triangle_wave(period, period / 2.0)   # vertical displacement of the set
    normals = np.array([[0.0, -1.0], [-alpha, 1.0], [1.0, 0.0]])
    offsets = (lift, combine([lift], [-1.0]), PeriodicSignal.constant(beta, period))
    problem = SweepingProblem(MovingPolyhedron(normals, offsets))
    return Scenario(
        name="wedge",
        problem=problem,
        gait=None,
        recommended_periods=20,
        recommended_steps=2000,
        initial_state=np.array([0.5 * gamma, 0.0]),
        reference={
            "poincare_map": {
                "map": lambda z1: wedge_poincare(alpha, period, z1),
                "fixed_point": gamma,
                "source": "closed-form",
            },
            "classification": {
                "kind": "geometric",
                "ratio": 1.0 / (alpha**2 + 1.0),
                "source": "closed-form",
            },
            "alpha": alpha,
        },
    )


# ---------------------------------------------------------------------------
# Equilateral triangle with wide piecewise-constant forcing

def edge_map(z: float) -> float:
    """Edge-to-edge transfer map in unit edge coordinates."""
    return 0.5 * (1.0 - z)


def triangle_geometry(side: float):
    """Vertices P, Q, R and outward unit edge normals of the equilateral triangle."""
    P = np.array([0.0, 0.0])
    Q = np.array([side, 0.0])
    R = np.array([0.5 * side, 0.5 * np.sqrt(3.0) * side])
    nu1 = np.array([0.0, -1.0])                     # edge PQ
    nu2 = np.array([np.sqrt(3.0) / 2.0, 0.5])       # edge QR
    nu3 = np.array([-np.sqrt(3.0) / 2.0, 0.5])      # edge RP
    return (P, Q, R), (nu1, nu2, nu3)


def triangle_scenario(alpha: float = 2.0, period: float = 3.0, side: float = 1.0) -> Scenario:
    """Fixed equilateral triangle driven by a rotating piecewise-constant push.

    The push is alpha times the outward normal of each edge in turn, one third
    of the period each; it averages to zero. When alpha*period is large enough
    every state reaches the bottom edge within the first third (the worst
    start is the apex, validated here in closed form since the descent speed
    is exactly alpha), and the period map in edge coordinates contracts with
    factor 1/8 toward the single periodic orbit.
    """
    (P, Q, R), nus = triangle_geometry(side)
    height = R[1]
    if alpha * period / 3.0 < height * (1.0 + 1e-9):
        raise SweepLabError(
            f"alpha*T too small: start {tuple(R)} cannot reach the bottom edge "
            f"within T/3 (needs alpha*T/3 >= {height:.6g})"
        )
    normals = np.array(nus)
    offs = [float(normals[0] @ P), float(normals[1] @ Q), float(normals[2] @ P)]
    offsets = tuple(PeriodicSignal.constant(c, period) for c in offs)
    thirds = [0.0, period / 3.0, 2.0 * period / 3.0]
    drift = tuple(
        PeriodicSignal(period, [(t, alpha * nus[j][d]) for j, t in enumerate(thirds)], "pc")
        for d in range(2)
    )
    problem = SweepingProblem(MovingPolyhedron(normals, offsets), drift)

    # Equivalent moving-set form: the set translates by minus the (periodic)
    # primitive of the push; trajectories agree after adding the primitive back.
    prim = np.zeros((3, 2))
    prim[1] = alpha * nus[0] * period / 3.0
    prim[2] = prim[1] + alpha * nus[1] * period / 3.0
    primitive = tuple(
        PeriodicSignal(period, [(t, prim[j][d]) for j, t in enumerate(thirds)], "pl")
        for d in range(2)
    )
    moving_offsets = tuple(
        combine(
            [PeriodicSignal.constant(offs[i], period), primitive[0], primitive[1]],
            [1.0, -normals[i][0], -normals[i][1]],
        )
        for i in range(3)
    )
    moving_form = SweepingProblem(MovingPolyhedron(normals, moving_offsets))

    return Scenario(
        name="triangle",
        problem=problem,
        gait=None,
        recommended_periods=12,
        recommended_steps=3000,
        initial_state=np.array([0.9 * side, 0.0]),
        reference={
            "edge_map": {"map": edge_map, "fixed_point": 1.0 / 3.0, "source": "closed-form"},
            "classification": {"kind": "geometric", "ratio": 0.125, "source": "closed-form"},
            "moving_form": moving_form,
            "drift_primitive": primitive,
            "geometry": {"P": P, "Q": Q, "R": R, "side": side},
        },
    )


# ---------------------------------------------------------------------------
# Reference gaits

def two_block_gait(mirrored: bool = False) -> Gait:
    """Two blocks, one link stretched 0 -> 4 -> 0 per period, asymmetric friction.

    The hand-worked stick-slip cycle advances each block by 2 per period (the
    stroke of 4 minus 2 spent reloading the spring between the +-1 thresholds),
    so the mean position advances by 2.0 per unit period. Mirroring swaps the
    friction directions and reverses the sign.
    """
    T = 1.0
    mu_lo = tuple(PeriodicSignal.constant(1.0, T) for _ in range(2))
    mu_hi = tuple(PeriodicSignal.constant(2.0, T) for _ in range(2))
    mu_plus, mu_minus = (mu_hi, mu_lo) if mirrored else (mu_lo, mu_hi)
    return Gait(
        num_blocks=2,
        period=T,
        stiffness=1.0,
        rest_lengths=(triangle_wave(T, 4.0),),
        mu_plus=mu_plus,
        mu_minus=mu_minus,
    )


def three_block_gait() -> Gait:
    """Three blocks with a staggered two-link wave; uniqueness margin 0.5."""
    T = 1.0
    L1 = PeriodicSignal(T, [(0.0, 0.0), (0.25, 3.0), (0.5, 0.0)])
    L2 = PeriodicSignal(T, [(0.0, 0.0), (0.5, 0.0), (0.75, 3.0)])
    return Gait(
        num_blocks=3,
        period=T,
        stiffness=1.0,
        rest_lengths=(L1, L2),
        mu_plus=tuple(PeriodicSignal.constant(1.0, T) for _ in range(3)),
        mu_minus=tuple(PeriodicSignal.constant(1.5, T) for _ in range(3)),
    )


def degenerate_gait() -> Gait:
    """Symmetric friction: the uniqueness margin is identically zero."""
    T = 1.0
    mu = tuple(PeriodicSignal.constant(1.0, T) for _ in range(2))
    return Gait(
        num_blocks=2,
        period=T,
        stiffness=1.0,
        rest_lengths=(triangle_wave(T, 4.0),),
        mu_plus=mu,
        mu_minus=mu,
    )


def _gait_scenario(name: str, g: Gait, v0_ref: float | None) -> Scenario:
    x0 = assemble_positions(0.0, rest_length_values(g, 0.0))
    reference = {} if v0_ref is None else {"v0": {"value": v0_ref, "source": "derived"}}
    return Scenario(
        name=name,
        problem=None,
        gait=g,
        recommended_periods=10,
        recommended_steps=2000,
        initial_state=x0,
        reference=reference,
    )


# ---------------------------------------------------------------------------
# Catalog

def _box1() -> Scenario:
    T = 1.0
    a1 = triangle_wave(T, 2.0)
    return ncell_scenario([a1], [combine([a1], [1.0], constant=1.0)], name="box1")


def _box3() -> Scenario:
    T = 1.0
    a_1 = triangle_wave(T, 2.0)
    a_2 = PeriodicSignal(T, [(0.0, -1.0), (0.25, 1.0), (0.75, -1.0)])
    a_3 = PeriodicSignal(T, [(0.0, 0.0), (0.25, 1.0)])
    return ncell_scenario(
        [a_1, a_2, a_3],
        [
            combine([a_1], [1.0], constant=1.0),
            combine([a_2], [1.0], constant=0.5),
            combine([a_3], [1.0], constant=2.0),
        ],
        name="box3",
    )


_BUILDERS = {
    "wedge": wedge_scenario,
    "triangle": triangle_scenario,
    "box1": _box1,
    "box3": _box3,
    "crawler2": lambda: _gait_scenario("crawler2", two_block_gait(), 2.0),
    "crawler2-mirror": lambda: _gait_scenario("crawler2-mirror", two_block_gait(mirrored=True), -2.0),
    "crawler3": lambda: _gait_scenario("crawler3", three_block_gait(), None),
    "crawler2-degenerate": lambda: _gait_scenario("crawler2-degenerate", degenerate_gait(), None),
}


def scenario(name: str) -> Scenario:
    """The bundled scenario with this name, built alone; KeyError for an unknown name."""
    return _BUILDERS[name]()


def catalog() -> dict:
    """All bundled scenarios by name."""
    return {name: build() for name, build in _BUILDERS.items()}
