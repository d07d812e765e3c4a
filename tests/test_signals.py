import re
import warnings

import numpy as np
import pytest

from sweeplab.signals import (
    PIECEWISE_CONSTANT,
    PIECEWISE_LINEAR,
    PeriodicSignal,
    combine,
    eval_many,
    eval_signal,
    is_json_number,
    lipschitz_constant,
    triangle_wave,
)


def test_eval_linear_interpolation():
    s = PeriodicSignal(2.0, [(0.0, 0.0), (1.0, 2.0)])
    assert eval_signal(s, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_eval_triangle_midpoint():
    T, A = 3.0, 5.0
    s = triangle_wave(T, A)
    assert eval_signal(s, T / 4) == pytest.approx(A / 2, abs=1e-14)


def test_periodicity_exact_on_grid_values():
    s = PeriodicSignal(2.0, [(0.0, 1.0), (0.5, -3.0), (1.25, 0.5)])
    for t in (0.0, 0.25, 0.5, 1.75):
        for q in (-3, -1, 1, 7):
            assert eval_signal(s, t + 2.0 * q) == eval_signal(s, t)


def test_periodicity_generic_times():
    rng = np.random.default_rng(7)
    s = PeriodicSignal(1.7, [(0.0, 1.0), (0.3, -3.0), (1.1, 0.5)])
    for t in rng.uniform(-10, 10, size=50):
        q = int(rng.integers(-5, 6))
        assert eval_signal(s, t + q * 1.7) == pytest.approx(eval_signal(s, t), abs=1e-12)


def test_wraparound_continuity():
    s = PeriodicSignal(2.0, [(0.0, 1.0), (1.5, 4.0)])
    L = lipschitz_constant(s)
    eps = 1e-9
    assert abs(eval_signal(s, 2.0 - eps) - eval_signal(s, 0.0)) <= 2 * L * eps


def test_lipschitz_constant_values():
    assert lipschitz_constant(PeriodicSignal.constant(3.0, 5.0)) == 0.0
    tri = triangle_wave(1.0, 2.0)
    assert lipschitz_constant(tri) == pytest.approx(4.0)


@pytest.mark.parametrize("points,pair", [
    ([(0.0, 1e308), (0.5, 3.0)], "(0.0, 1e+308) and (0.5, 3.0)"),
    ([(0.0, 3.0), (0.9, -1e308)], "(0.9, -1e+308) and (0.0, 3.0)"),   # only the wrap-around slope
], ids=["inner", "wrap-around"])
def test_a_signal_whose_slope_overflows_is_refused_without_a_warning(points, pair):
    # (3 - 1e308) / 0.5 overflows, so np.interp would evaluate the signal
    # as -inf at t = 0.25, where it is about 5e307.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"slope between breakpoints {pair} is not finite")):
            PeriodicSignal(1.0, points)
    big = PeriodicSignal(1.0, [(0.0, 1e9), (0.5, -1e9)])
    assert lipschitz_constant(big) == 4e9
    assert eval_signal(big, 0.25) == 0.0


def test_lipschitz_rejects_stepped_pc():
    s = PeriodicSignal(1.0, [(0.0, 0.0), (0.5, 1.0)], kind="pc")
    with pytest.raises(ValueError):
        lipschitz_constant(s)
    flat = PeriodicSignal(1.0, [(0.0, 2.0), (0.5, 2.0)], kind="pc")
    assert lipschitz_constant(flat) == 0.0


def test_lipschitz_bound_holds_pointwise():
    rng = np.random.default_rng(11)
    s = PeriodicSignal(2.0, [(0.0, 0.3), (0.4, -1.0), (0.9, 2.0), (1.7, 0.0)])
    L = lipschitz_constant(s)
    for _ in range(200):
        t1, t2 = sorted(rng.uniform(-4, 4, size=2))
        assert abs(eval_signal(s, t2) - eval_signal(s, t1)) <= L * (t2 - t1) + 1e-12


def test_piecewise_constant_step_semantics():
    s = PeriodicSignal(3.0, [(0.0, 1.0), (1.0, 2.0), (2.0, -1.0)], kind="pc")
    assert eval_signal(s, 0.999) == 1.0
    assert eval_signal(s, 1.0) == 2.0
    assert eval_signal(s, 2.5) == -1.0
    assert eval_signal(s, -0.5) == -1.0  # wraps to [2, 3)


def test_eval_many_matches_scalar():
    s = PeriodicSignal(2.0, [(0.0, 1.0), (0.7, -2.0), (1.3, 0.5)])
    ts = np.linspace(-3, 5, 41)
    np.testing.assert_allclose(eval_many(s, ts), [eval_signal(s, t) for t in ts], atol=1e-14)



@pytest.mark.parametrize("kind", [PIECEWISE_LINEAR, PIECEWISE_CONSTANT])
def test_evaluation_refuses_a_time_that_is_not_finite(kind):
    # Without the check, eval_signal returns nan at nan, and eval_many warns at inf.
    s = PeriodicSignal(2.0, [(0.0, 1.0), (0.7, 1.0)], kind)
    with pytest.raises(ValueError, match="^time nan is not finite$"):
        eval_signal(s, float("nan"))
    with pytest.raises(ValueError, match="^time -inf is not finite$"):
        eval_signal(s, -float("inf"))
    with pytest.raises(ValueError, match="^time inf is not finite$"):
        eval_many(s, [0.5, float("inf"), float("nan")])
    with pytest.raises(ValueError, match="^time nan is not finite$"):
        eval_many(s, np.array([[0.5], [float("nan")]]))

def test_combine_linear_combination():
    a = triangle_wave(2.0, 3.0)
    b = PeriodicSignal(2.0, [(0.0, 1.0), (0.5, -1.0), (1.7, 2.0)])
    c = combine([a, b], [2.0, -1.0], constant=3.0)
    for t in np.linspace(0, 4, 37):
        expected = 2 * eval_signal(a, t) - eval_signal(b, t) + 3.0
        assert eval_signal(c, t) == pytest.approx(expected, abs=1e-12)


def test_combine_rejects_mixed_kinds_and_periods():
    a = triangle_wave(2.0, 1.0)
    pc = PeriodicSignal(2.0, [(0.0, 1.0)], kind="pc")
    with pytest.raises(ValueError):
        combine([a, pc], [1.0, 1.0])
    b = triangle_wave(3.0, 1.0)
    with pytest.raises(ValueError):
        combine([a, b], [1.0, 1.0])


def test_combine_names_a_signal_that_is_not_one_or_does_not_fit():
    a = triangle_wave(2.0, 1.0)
    with pytest.raises(TypeError, match=r"^signals\[0\] is not a PeriodicSignal: 1.0$"):
        combine([1.0], [1.0])
    with pytest.raises(ValueError, match=r"^signals\[1\] has kind 'pc', expected 'pl'$"):
        combine([a, PeriodicSignal(2.0, [(0.0, 1.0)], kind="pc")], [1.0, 1.0])
    with pytest.raises(ValueError, match=r"^signals\[1\] has period 3.0, expected 2.0$"):
        combine([a, triangle_wave(3.0, 1.0)], [1.0, 1.0])


def test_combine_and_triangle_wave_name_what_they_refuse():
    with pytest.raises(ValueError, match="^need at least one signal$"):
        combine([], [])
    for fraction in (0.0, 1.0):
        with pytest.raises(ValueError, match="^peak_fraction must lie strictly between 0 and 1$"):
            triangle_wave(1.0, 1.0, peak_fraction=fraction)


def test_combine_refuses_a_coefficient_count_that_does_not_match():
    # zip would drop the unmatched terms: the triangle wave alone, or an ignored 2.0.
    a = triangle_wave(1.0, 2.0)
    for signals, coeffs in (([a, PeriodicSignal.constant(5.0, 1.0)], [1.0]), ([a], [1.0, 2.0])):
        message = f"got {len(signals)} signals and {len(coeffs)} coefficients"
        with pytest.raises(ValueError, match=f"^need one coefficient per signal, {message}$"):
            combine(signals, coeffs)


def test_json_round_trip():
    s = PeriodicSignal(1.5, [(0.0, 1.0), (0.25, -2.0)], kind="pl")
    back = PeriodicSignal.from_json(s.to_json())
    assert back.period == s.period and back.kind == s.kind
    np.testing.assert_array_equal(back.times, s.times)
    np.testing.assert_array_equal(back.values, s.values)


@pytest.mark.parametrize("bad", ["1", True], ids=["string", "bool"])
def test_from_json_rejects_non_number_periods_and_breakpoints(bad):
    for slot in ("period", 0, 1):   # the period, a time, a value
        obj = PeriodicSignal(1.5, [(0.0, 1.0), (0.25, -2.0)]).to_json()
        if slot == "period":
            obj["period"] = bad
        else:
            obj["points"][0][slot] = bad
        with pytest.raises(TypeError, match="^a signal's period and breakpoints must be JSON numbers"):
            PeriodicSignal.from_json(obj)


def test_json_numbers_are_ints_and_floats_that_a_float_can_hold():
    largest = 1.7976931348623157e308
    assert all(map(is_json_number, [0, -3, 2**1023, int(largest), -int(largest), 0.5, largest, float("nan")]))
    assert not any(map(is_json_number, [10**400, -(10**400), int(largest) + 2**970, True, "1", None, [1]]))


@pytest.mark.parametrize("slot", ["period", 0, 1], ids=["period", "time", "value"])
def test_from_json_rejects_an_int_that_no_float_can_hold(slot):
    obj = PeriodicSignal(1.5, [(0.0, 1.0), (0.25, -2.0)]).to_json()
    if slot == "period":
        obj["period"] = 10**400
    else:
        obj["points"][1][slot] = 10**400
    with pytest.raises(TypeError, match="^a signal's period and breakpoints must be JSON numbers that a float"):
        PeriodicSignal.from_json(obj)


@pytest.mark.parametrize(
    "period,points,kind",
    [
        (0.0, [(0.0, 1.0)], "pl"),
        (1.0, [], "pl"),
        (1.0, [(0.0, 1.0), (0.0, 2.0)], "pl"),
        (1.0, [(-0.1, 1.0)], "pl"),
        (1.0, [(1.0, 1.0)], "pl"),
        (1.0, [(0.0, 1.0)], "quadratic"),
    ],
)
def test_constructor_validation(period, points, kind):
    with pytest.raises(ValueError):
        PeriodicSignal(period, points, kind)


@pytest.mark.parametrize("period,points,message", [
    (float("nan"), [(0.0, 1.0)], "need a finite period > 0, got period nan"),
    (float("inf"), [(0.0, 1.0)], "need a finite period > 0, got period inf"),
    (1.0, [(0.0, float("nan"))], "breakpoints must be finite, got (0.0, nan)"),
    (1.0, [(0.0, 1.0), (0.5, float("-inf"))], "breakpoints must be finite, got (0.5, -inf)"),
    (1.0, [(float("nan"), 1.0)], "breakpoints must be finite, got (nan, 1.0)"),
], ids=["period-nan", "period-infinite", "value-nan", "value-infinite", "time-nan"])
def test_constructor_rejects_non_finite_numbers(period, points, message):
    # The message names the number that is not finite.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PeriodicSignal(period, points)
