import math
import warnings

import numpy as np
import pytest

from rld.ctapprox import (
    RbmParams,
    ct_terminal_cost,
    ct_terminal_subgradient,
    _push_rate,
    h_prime,
    rbm_long_run,
)
from rld.rng import run_generator
from oracles import h_prime_all_branches, simulate_reflected_walk

# the series cutoff, the exact branch's overflow cutoff and the special values
EDGE_ARGUMENTS = np.array([
    0.0, -0.0, 1e-3, -1e-3, np.nextafter(1e-3, 0.0), -np.nextafter(1e-3, 0.0),
    350.0, np.nextafter(350.0, np.inf), 1000.0, -1000.0, np.inf, -np.inf, np.nan,
    5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
])


def plain_h(x):
    """x / (e^x - 1), without a continuation at 0."""
    return x / np.expm1(x)


class TestHFunctions:
    def test_values_at_zero(self):
        # drift 0, and y underflowing to 0 at a nonzero drift, give the width
        assert _push_rate(0.0, 0.0, 0.75) == 0.75
        assert _push_rate(1e-300, 0.0, 1e100) == 1e100
        assert h_prime(0.0) == -0.5

    def test_log_two(self):
        assert _push_rate(math.log(2.0), math.log(2.0), 1.0) == pytest.approx(
            math.log(2.0), rel=1e-14)

    def test_monotone_decreasing_positive(self):
        xs = np.linspace(-20.0, 20.0, 401)
        hs = _push_rate(xs, xs, 1.0)
        assert np.all(hs > 0.0)
        assert np.all(np.diff(hs) < 0.0)
        assert np.all(h_prime(xs) < 0.0)

    @pytest.mark.parametrize("x", [-10.0, -1.0, -1e-5, 1e-5, 1.0, 10.0])
    def test_derivative_matches_finite_difference(self, x):
        step = 1e-6 * max(abs(x), 1.0)
        fd = (plain_h(x + step) - plain_h(x - step)) / (2 * step)
        assert h_prime(x) == pytest.approx(fd, abs=1e-8)

    def test_series_exact_continuity_at_switchover(self):
        # both branches of h' evaluated at the cutoff must agree to 1e-12
        for x in (1e-3, -1e-3):
            em1 = np.expm1(x)
            exact_hp = (em1 - x * np.exp(x)) / (em1 * em1)
            series_hp = -0.5 + x / 6.0 - x**3 / 180.0
            assert abs(exact_hp - series_hp) < 1e-12

    @pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 30.0, 400.0])
    def test_branch_only_forms_bitwise(self, scale):
        x = scale * run_generator(3, 0x68).standard_normal(4096)
        assert h_prime(x).tobytes() == h_prime_all_branches(x).tobytes()

    def test_edge_arguments_bitwise(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = h_prime(EDGE_ARGUMENTS)
            scalars = [h_prime(x) for x in EDGE_ARGUMENTS]
            rates = _push_rate(EDGE_ARGUMENTS, EDGE_ARGUMENTS, 1.0)
        assert all(type(v) is float for v in scalars)
        assert np.array(scalars).tobytes() == values.tobytes()
        # the all-branch form gives NaN at +-inf (inf * 0)
        finite = ~np.isinf(EDGE_ARGUMENTS)
        assert values[finite].tobytes() == h_prime_all_branches(EDGE_ARGUMENTS[finite]).tobytes()
        # away from 0 the rate is the plain quotient; the limits: h(x) ~ -x
        # below 0, h'(x) -> -1; both -> 0 above
        plain = ~np.isinf(EDGE_ARGUMENTS) & (EDGE_ARGUMENTS != 0.0)
        with np.errstate(over="ignore"):
            assert rates[plain].tobytes() == plain_h(EDGE_ARGUMENTS[plain]).tobytes()
        assert rates[EDGE_ARGUMENTS == 0.0].tolist() == [1.0, 1.0]
        assert rates[np.isinf(EDGE_ARGUMENTS)].tolist() == [0.0, np.inf]
        assert h_prime(np.inf) == 0.0 and h_prime(-np.inf) == -1.0

    def test_extreme_arguments(self):
        assert _push_rate(1000.0, 1000.0, 1.0) == 0.0
        assert _push_rate(-1000.0, -1000.0, 1.0) == pytest.approx(1000.0)
        assert h_prime(1000.0) == 0.0
        assert h_prime(-1000.0) == pytest.approx(-1.0)

    @pytest.mark.parametrize("drift", [-1e300, -2.5, -5e-324, 5e-324, 2.5, 1e300])
    def test_overflowing_argument_gives_the_limits(self, drift):
        # y overflowed to +-inf: 0 with the drift, -drift against it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            up = _push_rate(drift, math.copysign(np.inf, drift), 1.0)
            down = _push_rate(-drift, math.copysign(np.inf, -drift), 1.0)
        assert (up, down) == ((0.0, drift) if drift > 0 else (-drift, 0.0))

    def test_matches_50_digit_reference(self):
        # at its own arguments the rate is the quotient of two correctly
        # rounded operations; from (drift, width) it is conditioned by |y|,
        # the relative error y * eps / 2 of y = drift / width itself, under
        # 8e-14 below 709, where e^y overflows
        import mpmath

        mp, tiny = mpmath.mpf, np.finfo(float).tiny
        ys = np.geomspace(1e-12, 705.0, 29)
        worst_own = worst_rbm = 0.0
        with mpmath.workdps(50):
            for volatility, barrier in ((1e-100, 1e100), (1e-4, 0.7), (0.5, 2.0), (1.0, 0.7),
                                        (3e3, 0.3), (1e100, 1e-3)):
                width = RbmParams(0.0, volatility, barrier).width
                for drift in (width * np.concatenate([-ys, ys])).tolist():
                    y = drift / width
                    ref = mp(drift) / mpmath.expm1(mp(y))
                    if abs(ref) > tiny:
                        got = float(_push_rate(drift, y, width))
                        worst_own = max(worst_own, float(abs(got / ref - 1)))
                    exact = mp(drift) / mp(width)
                    refs = mp(drift) / mpmath.expm1(exact), mp(drift) / mpmath.expm1(-exact)
                    for got, ref in zip(rbm_long_run(RbmParams(drift, volatility, barrier)), refs):
                        if abs(ref) > tiny:
                            worst_rbm = max(worst_rbm, float(abs(got / ref - 1)))
        assert worst_own < 4 * np.finfo(float).eps, worst_own
        assert worst_rbm < 1e-13, worst_rbm


class TestLongRunRates:
    def test_zero_drift(self):
        v, q = rbm_long_run(RbmParams(0.0, 1.0, 1.0))
        assert v == pytest.approx(0.5)
        assert q == pytest.approx(-0.5)

    def test_unit_drift(self):
        v, q = rbm_long_run(RbmParams(1.0, 1.0, 1.0))
        assert v == pytest.approx(1.0 / (math.e**2 - 1.0), rel=1e-12)

    def test_flow_balance_grid(self):
        for mu in (-2.0, -0.1, 0.0, 0.1, 2.0):
            for sig in (0.3, 1.0, 2.5):
                for B in (0.2, 1.0, 4.0):
                    v, q = rbm_long_run(RbmParams(mu, sig, B))
                    assert abs(mu + v + q) < 1e-12

    def test_continuity_near_zero_drift(self):
        v0, q0 = rbm_long_run(RbmParams(0.0, 1.0, 1.0))
        v1, q1 = rbm_long_run(RbmParams(1e-9, 1.0, 1.0))
        assert v1 == pytest.approx(v0, abs=1e-8)
        assert q1 == pytest.approx(q0, abs=1e-8)

    def test_simulation_oracle_quick(self):
        p = RbmParams(0.5, 1.0, 1.0)
        v, _ = rbm_long_run(p)
        vr, _ = simulate_reflected_walk(p, 1e-2, 500_000, run_generator(4, 77))
        assert vr == pytest.approx(v, rel=0.02)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RbmParams(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            RbmParams(0.0, 1.0, 0.0)


class TestCtTerminal:
    def test_center_values(self):
        c, B, s2 = 1000.0, 0.5, 0.25
        assert ct_terminal_cost(1.0, 1.0, s2, B, c) == pytest.approx(c * s2 / (2 * B))
        assert ct_terminal_subgradient(1.0, 1.0, s2, B, c) == pytest.approx(-c / 2)

    def test_scaling_invariance_bitwise(self):
        B, s2 = 0.25, 0.125  # dyadic so alpha scaling is exact in binary
        xs = np.linspace(0.5, 1.5, 11)
        base_c = ct_terminal_cost(xs, 1.0, s2, B, 1000.0)
        base_g = ct_terminal_subgradient(xs, 1.0, s2, B, 1000.0)
        for alpha in (0.5, 2.0, 10.0):
            c2 = ct_terminal_cost(xs, 1.0, alpha * s2, alpha * B, 1000.0)
            g2 = ct_terminal_subgradient(xs, 1.0, alpha * s2, alpha * B, 1000.0)
            assert np.array_equal(base_c, c2)
            assert np.array_equal(base_g, g2)

    def test_convexity(self):
        xs = np.linspace(-2.0, 4.0, 301)
        cs = ct_terminal_cost(xs, 1.0, 0.2, 0.3, 1000.0)
        second = np.diff(cs, 2)
        assert np.all(second > -1e-9)

    def test_subgradient_is_cost_derivative(self):
        x = 1.3
        d = 1e-6
        fd = (
            ct_terminal_cost(x + d, 1.0, 0.2, 0.3, 1000.0)
            - ct_terminal_cost(x - d, 1.0, 0.2, 0.3, 1000.0)
        ) / (2 * d)
        assert ct_terminal_subgradient(x, 1.0, 0.2, 0.3, 1000.0) == pytest.approx(fd, rel=1e-6)

    def test_infinite_positions_give_limits(self):
        xs = np.array([-np.inf, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cost = ct_terminal_cost(xs, 1.0, 0.2, 0.3, 1000.0)
            grad = ct_terminal_subgradient(xs, 1.0, 0.2, 0.3, 1000.0)
        assert cost.tolist() == [np.inf, 0.0]
        assert grad.tolist() == [-1000.0, 0.0]

    @pytest.mark.parametrize("capacity, s2", [(1e308, 8e-5), (np.float64(9e307), 1.0),
                                              (1e300, 1e-10)])
    def test_overflowing_ratio_gives_the_step_limit(self, capacity, s2):
        # 2B/sigma_sq overflows: the cost is voll * max(d - x, 0), the
        # subgradient -voll, -voll/2 and 0 below, at and above d
        xs = np.array([-np.inf, 0.3, np.nextafter(0.4, 0.0), 0.4, 0.5, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cost = ct_terminal_cost(xs, 0.4, s2, capacity, 1000.0)
            grad = ct_terminal_subgradient(xs, 0.4, s2, capacity, 1000.0)
            at_d = ct_terminal_subgradient(0.4, 0.4, s2, capacity, 1000.0)
        assert np.array_equal(cost, 1000.0 * np.maximum(0.4 - xs, 0.0))
        assert grad.tolist() == [-1000.0, -1000.0, -1000.0, -500.0, 0.0, 0.0]
        assert at_d == -500.0 and isinstance(at_d, float)

    @pytest.mark.parametrize("capacity, s2", [(0.3, 0.2), (1e-3, 8e-5), (1e300, 1.0)])
    def test_finite_ratio_is_the_plain_formula(self, capacity, s2):
        xs = np.linspace(-1.0, 2.0, 61)
        ratio = 2.0 * capacity / s2
        y = ratio * (xs - 0.4)
        cost = ct_terminal_cost(xs, 0.4, s2, capacity, 1000.0)
        grad = ct_terminal_subgradient(xs, 0.4, s2, capacity, 1000.0)
        assert np.all(y != 0.0)
        with np.errstate(over="ignore"):
            assert cost.tobytes() == (1000.0 * ((xs - 0.4) / np.expm1(y))).tobytes()
        assert grad.tobytes() == (1000.0 * h_prime(y)).tobytes()

    def test_matches_50_digit_reference(self):
        # the cost is voll * gap / (e^y - 1) at y = ratio * gap, one rounding
        # from the ratio as rounded: relative error under |y| * eps / 2 + 3 eps
        import mpmath

        ys = np.geomspace(1e-12, 705.0, 29)
        worst = 0.0
        with mpmath.workdps(50):
            for capacity, s2 in ((1e-3, 8e-5), (0.3, 0.2), (7.0, 1e-9), (1e-200, 3e-5)):
                ratio = 2.0 * capacity / s2
                gaps = np.concatenate([-ys, ys]) / ratio
                cost = ct_terminal_cost(gaps, 0.0, s2, capacity, 1000.0)
                for gap, got in zip(gaps.tolist(), cost.tolist()):
                    ref = 1000 * mpmath.mpf(gap) / mpmath.expm1(mpmath.mpf(ratio) * gap)
                    if abs(ref) > np.finfo(float).tiny:
                        worst = max(worst, float(abs(got / ref - 1)))
        assert worst < 1e-13, worst

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ct_terminal_cost(1.0, 1.0, 0.0, 0.5, 1000.0)
        with pytest.raises(ValueError):
            ct_terminal_subgradient(1.0, 1.0, 0.5, 0.0, 1000.0)
