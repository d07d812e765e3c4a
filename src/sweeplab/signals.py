"""Periodic scalar signals used as polyhedron offsets, actuations and drifts.

Signals are T-periodic and either piecewise-linear ("pl") or piecewise-constant
("pc"). Piecewise-linear signals are continuous across the wrap-around by
construction: the last breakpoint interpolates toward the first one shifted by
a period. Piecewise-constant signals are left-closed/right-open step functions
and are admitted only as integrator drift, never as polyhedron offsets.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

PIECEWISE_LINEAR = "pl"
PIECEWISE_CONSTANT = "pc"


@dataclass(frozen=True)
class PeriodicSignal:
    """A T-periodic scalar function given by breakpoints in [0, period).

    Breakpoint times must be strictly increasing and live in [0, period), and
    a piecewise-linear signal's slopes (lipschitz_constant's, wrap-around
    included) must be finite. Time is reduced modulo the period with the floor
    convention, so negative arguments are fine.
    """

    period: float
    kind: str
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __init__(self, period, points, kind=PIECEWISE_LINEAR):
        if kind not in (PIECEWISE_LINEAR, PIECEWISE_CONSTANT):
            raise ValueError(f"unknown signal kind {kind!r}")
        pts = sorted((float(t), float(v)) for t, v in points)
        if not pts:
            raise ValueError("a signal needs at least one breakpoint")
        times = np.array([t for t, _ in pts], dtype=float)
        values = np.array([v for _, v in pts], dtype=float)
        if not (period > 0 and np.isfinite(period)):
            raise ValueError(f"need a finite period > 0, got period {period}")
        bad = ~(np.isfinite(times) & np.isfinite(values))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"breakpoints must be finite, got ({times[i]}, {values[i]})")
        if times[0] < 0 or times[-1] >= period:
            raise ValueError("breakpoint times must lie in [0, period)")
        if np.any(np.diff(times) <= 0):
            raise ValueError("breakpoint times must be strictly increasing")
        if kind == PIECEWISE_LINEAR:
            # np.interp would form an overflowing slope and evaluate the signal as +-inf.
            for i, slope in enumerate(_slopes(pts, float(period))):
                if not math.isfinite(slope):
                    raise ValueError(
                        f"the slope between breakpoints {pts[i]} and {pts[(i + 1) % len(pts)]} is not finite"
                    )
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "period", float(period))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @staticmethod
    def constant(value, period):
        return PeriodicSignal(period, [(0.0, value)], PIECEWISE_LINEAR)

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "kind": self.kind,
            "points": [[float(t), float(v)] for t, v in zip(self.times, self.values)],
        }

    @staticmethod
    def from_json(obj: dict) -> "PeriodicSignal":
        numbers = [obj["period"], *(x for point in obj["points"] for x in point)]
        if not all(map(is_json_number, numbers)):
            raise TypeError(
                f"a signal's period and breakpoints must be JSON numbers that a float can hold, got {obj!r}"
            )
        return PeriodicSignal(obj["period"], obj["points"], obj["kind"])


def is_json_number(x) -> bool:
    """True for a number as json.loads returns one that a float can hold: an
    int or a float, not a bool or a str, and no int beyond the largest float."""
    return type(x) is float or (type(x) is int and abs(x) <= sys.float_info.max)


def eval_signal(s: PeriodicSignal, t: float) -> float:
    """Evaluate s at time t (periodic extension): eval_many at one time."""
    return float(eval_many(s, [t])[0])


def eval_many(s: PeriodicSignal, ts) -> np.ndarray:
    """Vectorized evaluation on an array of times. Raises ValueError, naming
    the first time that is not finite, when one is not."""
    ts = np.asarray(ts, dtype=float)
    bad = ~np.isfinite(ts)
    if bad.any():
        raise ValueError(f"time {ts[bad][0]} is not finite")
    tau = ts % s.period
    tau[tau >= s.period] -= s.period  # a remainder can round up to the period
    if s.kind == PIECEWISE_CONSTANT:
        idx = np.searchsorted(s.times, tau, side="right") - 1
        return s.values[np.where(idx >= 0, idx, len(s.values) - 1)]
    if len(s.times) == 1:
        return np.full_like(tau, s.values[0])
    ext_t = np.concatenate(([s.times[-1] - s.period], s.times, [s.times[0] + s.period]))
    ext_v = np.concatenate(([s.values[-1]], s.values, [s.values[0]]))
    return np.interp(tau, ext_t, ext_v)


def lipschitz_constant(s: PeriodicSignal) -> float:
    """Largest |slope| over all segments, including the wrap-around segment.

    Piecewise-constant signals with a jump are rejected: they are not
    Lipschitz and cannot serve as moving-polyhedron offsets.
    """
    if s.kind == PIECEWISE_CONSTANT:
        if np.ptp(s.values) > 0:
            raise ValueError("piecewise-constant signal with jumps has no Lipschitz constant")
        return 0.0
    return max(abs(slope) for slope in _slopes(list(zip(s.times.tolist(), s.values.tolist())), s.period))


def _slopes(pts, period: float) -> list:
    """The slope of each segment between the (t, v) breakpoints pts, the
    wrap-around segment last, on Python floats: an overflow is inf, with no warning."""
    ends = pts[1:] + [(pts[0][0] + period, pts[0][1])]
    return [(v1 - v0) / (t1 - t0) for (t0, v0), (t1, v1) in zip(pts, ends)]


def shares_period(s: PeriodicSignal, period: float) -> bool:
    """True iff s's period equals period to within 1e-12 * max(1, period)."""
    return abs(s.period - period) <= 1e-12 * max(1.0, period)


def _checked_signals(signals, name: str, period: float | None = None, linear: bool = True) -> tuple:
    """signals as a tuple of PeriodicSignals that share period (by default
    the first one's) and, when linear is set, are piecewise-linear. Raises
    TypeError for an item that is not a signal and ValueError for one of
    another kind or period, naming it as name[i]."""
    signals = tuple(signals)
    for i, s in enumerate(signals):
        if not isinstance(s, PeriodicSignal):
            raise TypeError(f"{name}[{i}] is not a PeriodicSignal: {s!r}")
        if linear and s.kind != PIECEWISE_LINEAR:
            raise ValueError(f"{name}[{i}] has kind {s.kind!r}, expected {PIECEWISE_LINEAR!r}")
        period = s.period if period is None else period
        if not shares_period(s, period):
            raise ValueError(f"{name}[{i}] has period {s.period}, expected {period}")
    return signals


def combine(signals, coeffs, constant: float = 0.0) -> PeriodicSignal:
    """Exact linear combination sum_i coeffs[i]*signals[i] + constant.

    Only piecewise-linear signals sharing one period are supported; the result
    is piecewise-linear on the merged breakpoint set.
    """
    signals, coeffs = list(signals), list(coeffs)
    if len(signals) != len(coeffs):
        raise ValueError(
            f"need one coefficient per signal, got {len(signals)} signals and {len(coeffs)} coefficients"
        )
    if not signals:
        raise ValueError("need at least one signal")
    period = _checked_signals(signals, "signals")[0].period
    merged = np.unique(np.concatenate([s.times for s in signals]))
    # Collapse breakpoints closer than the dedupe tolerance.
    keep = [merged[0]]
    for t in merged[1:]:
        if t - keep[-1] > 1e-12 * max(1.0, period):
            keep.append(t)
    keep = np.array(keep)
    values = constant + sum(c * eval_many(s, keep) for s, c in zip(signals, coeffs))
    return PeriodicSignal(period, zip(keep, values), PIECEWISE_LINEAR)


def triangle_wave(period, amplitude, peak_fraction=0.5, base=0.0) -> PeriodicSignal:
    """Triangle going base -> base+amplitude at peak_fraction*period -> base."""
    if not 0 < peak_fraction < 1:
        raise ValueError("peak_fraction must lie strictly between 0 and 1")
    return PeriodicSignal(
        period,
        [(0.0, base), (peak_fraction * period, base + amplitude)],
        PIECEWISE_LINEAR,
    )
