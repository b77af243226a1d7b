import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtri

from rld.ctapprox import ct_terminal_cost, ct_terminal_subgradient, h_prime
from rld.dispatch import (
    DegeneratePriceError,
    build_terminal_model,
    ideal_costs_batch,
    simulate_policy,
    simulate_policy_batch,
    solve_delta_offsets,
    solve_thresholds_backward,
    three_sigma_schedule,
)
from rld.lattice import closed_form_b0, lattice_terminal_subgradient
from rld.model import ForecastModel, StorageSpec
from rld.rng import draw_policy_paths
from conftest import make_scenario

VOLL = 1000.0


def last_stage_offset(price, grad, scale):
    """(offset, residual) of a single buy stage with no final revision."""
    deltas, residuals, _ = solve_delta_offsets(
        np.array([price]), VOLL, np.array([0.0]), grad, scale=scale
    )
    return deltas[0], residuals[0]


def ct_offsets(prices, shift_stds, capacity, sigma_sq):
    """Buy-ladder offsets against the analytic ct terminal subgradient."""
    def grad(w):
        return ct_terminal_subgradient(w, 0.0, sigma_sq, capacity, VOLL)

    scale = max(sigma_sq / (2.0 * capacity), math.sqrt(sigma_sq))
    deltas, _, _ = solve_delta_offsets(
        np.asarray(prices, dtype=float), VOLL, np.asarray(shift_stds, dtype=float),
        grad, scale=scale,
    )
    return deltas


class TestSolveStageThreshold:
    def test_gaussian_quantile_oracle(self):
        # no storage, single delivery stage: threshold is a normal quantile
        d_hat, sigma, T = 0.4, 0.1, 1
        fc = ForecastModel.constant(T, d_hat, sigma)

        def grad(w):
            return closed_form_b0(np.asarray(w, dtype=float) + T * d_hat, fc, VOLL)[1]

        delta, resid = last_stage_offset(72.0, grad, scale=sigma)
        target = T * (d_hat + sigma * ndtri(1.0 - 72.0 / VOLL))
        assert T * d_hat + delta == pytest.approx(target, abs=1e-6)
        assert resid <= 1e-6 * VOLL

    def test_degenerate_price_raises(self):
        fc = ForecastModel.constant(1, 0.0, 1.0)

        def grad(w):
            return closed_form_b0(np.asarray(w, dtype=float), fc, VOLL)[1]

        with pytest.raises(DegeneratePriceError, match="above achievable"):
            last_stage_offset(VOLL + 1.0, grad, scale=1.0)
        with pytest.raises(DegeneratePriceError, match="below achievable"):
            last_stage_offset(-5.0, grad, scale=1.0)


class TestDeltaOffsets:
    def test_single_stage_reduces_to_inverse(self):
        # R=1 with no final revelation: plain subgradient inversion
        fc = ForecastModel.constant(1, 0.0, 0.3)

        def grad(w):
            return closed_form_b0(np.asarray(w, dtype=float), fc, VOLL)[1]

        delta, resid = last_stage_offset(72.0, grad, scale=0.3)
        # the solve stops at |residual| <= 1e-6 voll, so roots agree to tol/slope
        root = brentq(lambda w: float(grad(w)) + 72.0, -3.0, 3.0, xtol=1e-12)
        assert delta == pytest.approx(root, abs=1e-5)
        assert resid <= 1e-6 * VOLL

    def test_final_revelation_widens_the_quantile(self):
        # with a mean revelation the effective std grows in quadrature
        fc = ForecastModel.constant(1, 0.0, 0.3)

        def grad(w):
            return closed_form_b0(np.asarray(w, dtype=float), fc, VOLL)[1]

        deltas, _, _ = solve_delta_offsets(
            np.array([72.0]), VOLL, np.array([0.4]), grad, scale=0.5
        )
        target = math.sqrt(0.3**2 + 0.4**2) * ndtri(1.0 - 72.0 / VOLL)
        assert deltas[0] == pytest.approx(target, abs=1e-5)

    def test_two_stage_grid_dp_oracle(self):
        B, s2 = 0.01, 8e-5
        shift = np.array([0.03, 0.008])
        deltas = ct_offsets([52.0, 72.0], shift, B, s2)

        gx, gw = np.polynomial.hermite.hermgauss(96)
        wq = gw / math.sqrt(math.pi)

        def ct_w(w):
            return ct_terminal_cost(np.asarray(w, dtype=float) + 1.0, 1.0, s2, B, VOLL)

        def crossing(grid, slope, target, margin):
            sel = (grid > grid[0] + margin) & (grid < grid[-1] - margin)
            g, s = grid[sel], slope[sel]
            idx = int(np.searchsorted(s, target))
            return float(np.interp(target, s[idx - 2:idx + 2], g[idx - 2:idx + 2]))

        h = 1e-4
        wide = np.arange(-1.5, 2.0, h)
        n2 = math.sqrt(2.0) * shift[1] * gx
        cont2 = (ct_w(wide[:, None] - n2[None, :]) * wq).sum(-1)
        delta2_dp = crossing(wide, np.gradient(cont2, h), -72.0, 0.1)
        assert deltas[1] == pytest.approx(delta2_dp, abs=1e-3)

        c2v = float(np.interp(delta2_dp, wide, cont2))
        j2 = np.where(wide < delta2_dp, 72.0 * (delta2_dp - wide) + c2v, cont2)
        n1 = math.sqrt(2.0) * shift[0] * gx
        ej2 = (np.interp(wide[:, None] - n1[None, :], wide, j2) * wq).sum(-1)
        delta1_dp = crossing(wide, np.gradient(ej2, h), -52.0, 0.25)
        assert deltas[0] == pytest.approx(delta1_dp, abs=1e-3)

    def test_own_price_comparative_static(self):
        # raising one stage's price lowers its threshold offset
        scn = make_scenario(T=12, B=0.005)
        base = solve_thresholds_backward(scn, "ct").offsets
        dearer = make_scenario(T=12, B=0.005, prices=(52.0, 66.0, 72.0))
        bumped = solve_thresholds_backward(dearer, "ct").offsets
        assert bumped[1] < base[1]

    def test_large_capacity_ratio_limit(self):
        # when B/sigma^2 is large the last stage solves h'(y) = -price/voll
        B, s2 = 50.0, 1.0
        deltas = ct_offsets([72.0], [0.0], B, s2)
        y = 2.0 * B / s2 * deltas[0]
        assert h_prime(y) == pytest.approx(-72.0 / VOLL, rel=1e-3)
        cheap = ct_offsets([30.0], [0.0], B, s2)
        assert cheap[0] > deltas[0]  # lower price buys more aggressively

    def test_zero_information_collapses_to_first_stage(self):
        scn = make_scenario(
            T=10, B=0.01, d=0.5, mean_share=0.0,
            curve=[[24, 0.05], [1, 0.05], [0.25, 0.05]],
        )
        assert np.allclose(scn.inter_stage_stds(), 0.0)
        for engine in ("lattice", "ct"):
            sched = solve_thresholds_backward(scn, engine)
            assert np.all(np.diff(sched.offsets) < 1e-9)
            shifts, noise = draw_policy_paths(50, 3, 10, seed=5)
            purchases, _, _, _ = simulate_policy_batch(sched, scn, shifts, noise)
            assert np.all(purchases[:, 1:] < 1e-8)
            assert np.all(purchases[:, 0] > 0.0)


class TestNonConstantProfile:
    def test_lattice_pipeline_with_profile(self):
        # the forecast-relative subgradient curve is exact for any profile
        # because a uniform mean shift equals an opposite position shift
        from rld.model import scenario_from_dict
        from conftest import DEFAULT_CURVE

        doc = {
            "ladder": [
                {"lead_time_hours": 24.0, "price": 52.0, "direction": "buy"},
                {"lead_time_hours": 0.25, "price": 72.0, "direction": "buy"},
            ],
            "voll": 1000.0,
            "storage": {"B": 0.005},
            "T": 5,
            "d_hat": [0.02, 0.1, 0.04, 0.08, 0.06],
            "mean_share": 0.2,
            "curve": DEFAULT_CURVE,
        }
        scn = scenario_from_dict(doc)
        sched = solve_thresholds_backward(scn, "lattice")
        assert np.all(sched.residuals < 1e-6 * VOLL)

        # stage-R optimality against the directly evaluated engine
        fc = scn.delivery_forecast()
        s_R = scn.inter_stage_stds()[-1]
        gx, gw = np.polynomial.hermite.hermgauss(64)
        nodes = math.sqrt(2.0) * s_R * gx
        wts = gw / math.sqrt(math.pi)
        val = -sum(
            w * lattice_terminal_subgradient(
                sched.offsets[-1] - nd + scn.d_total, fc,
                scn.storage.capacity, scn.cost.voll,
            )
            for w, nd in zip(wts, nodes)
        )
        assert abs(val - 72.0) < 1e-6 * VOLL


class TestTerminalModel:
    def test_lattice_interp_accuracy(self, small_scenario):
        scn = small_scenario
        model = build_terminal_model(scn, "lattice")
        fc = scn.delivery_forecast()
        rng = np.random.default_rng(1)
        for w in rng.uniform(-0.3, 0.4, 12):
            direct = lattice_terminal_subgradient(
                w + scn.d_total, fc, scn.storage.capacity, scn.cost.voll
            )
            assert abs(float(model.grad(w)) - direct) < 2e-2

    def test_grad_monotone_and_bounded(self, small_scenario):
        model = build_terminal_model(small_scenario, "lattice")
        ws = np.linspace(-2.0, 2.0, 101)
        g = model.grad(ws)
        assert np.all(g <= 1e-12) and np.all(g >= -VOLL - 1e-9)
        assert np.all(np.diff(g) >= -1e-9)

    def test_ct_engine_is_analytic(self, small_scenario):
        scn = small_scenario
        model = build_terminal_model(scn, "ct")
        w = 0.07
        expect = ct_terminal_subgradient(
            w, 0.0, scn.delivery_fluctuation_variance,
            scn.storage.capacity, scn.cost.voll,
        )
        assert float(model.grad(w)) == pytest.approx(expect, rel=1e-14)

    def test_zero_capacity_routes_to_closed_form(self):
        scn = make_scenario(T=5, B=0.0)
        model = build_terminal_model(scn, "lattice")
        fc = scn.delivery_forecast()
        w = -0.05
        assert float(model.grad(w)) == pytest.approx(
            closed_form_b0(w + scn.d_total, fc, scn.cost.voll)[1], rel=1e-12
        )

    def test_mc_engine_close_to_lattice(self):
        scn = make_scenario(T=8, B=0.01)
        lat = build_terminal_model(scn, "lattice")
        mc = build_terminal_model(scn, "mc", n_mc_paths=60_000)
        ws = np.linspace(-0.1, 0.15, 7)
        assert np.max(np.abs(lat.grad(ws) - mc.grad(ws))) < 0.02 * VOLL

    def test_unknown_engine(self, small_scenario):
        with pytest.raises(ValueError):
            build_terminal_model(small_scenario, "magic")


class TestThreeSigma:
    def test_offsets_are_three_lead_time_sigmas(self, vi_scenario):
        scn = vi_scenario
        sched = three_sigma_schedule(scn.curve, scn.ladder, scn.delivery_forecast())
        expect = [3 * scn.curve.sigma_at(float(lt)) for lt in scn.ladder.lead_times]
        assert np.allclose(sched.offsets, expect)
        assert np.all(np.diff(sched.offsets) <= 0.0)
        assert np.allclose(sched.thresholds, scn.d_total + sched.offsets)

    def test_simulates_feasibly(self, vi_scenario):
        scn = vi_scenario
        sched = three_sigma_schedule(scn.curve, scn.ladder, scn.delivery_forecast())
        shifts, noise = draw_policy_paths(20, 3, scn.T, seed=2)
        purchases, x_final, delivery, totals = simulate_policy_batch(
            sched, scn, shifts, noise
        )
        assert np.all(purchases >= 0.0)
        assert np.allclose(purchases.sum(axis=1), x_final)
        assert np.all(totals >= delivery)


class TestPolicyFeasibility:
    @given(
        d=st.floats(-0.6, 0.8),
        capacity=st.floats(0.0, 0.05),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_policy_results_feasible_on_random_scenarios(self, d, capacity, seed):
        scn = make_scenario(T=6, B=capacity, d=d)
        sched = solve_thresholds_backward(scn, "ct", n_samples=4096)
        shifts, noise = draw_policy_paths(30, 3, 6, seed=seed)
        purchases, x_final, delivery, totals = simulate_policy_batch(
            sched, scn, shifts, noise
        )
        assert np.all(purchases >= 0.0)            # buy-only ladder
        assert np.allclose(purchases.sum(axis=1), x_final, atol=1e-12)
        assert np.all(delivery >= 0.0)
        assert np.allclose(totals, purchases @ scn.ladder.prices + delivery)


class TestSubnormalCapacity:
    """Capacities so small that the ct width sigma_sq / 2B overflows, or nearly."""

    @pytest.mark.parametrize("capacity", [5e-324, 1e-310])
    def test_ct_policy_finite_and_feasible(self, capacity):
        scn = make_scenario(T=6, B=capacity, d=0.1)
        sched = solve_thresholds_backward(scn, "ct", n_samples=4096)
        assert np.all(np.isfinite(sched.offsets))
        shifts, noise = draw_policy_paths(30, 3, 6, seed=0)
        purchases, x_final, delivery, totals = simulate_policy_batch(
            sched, scn, shifts, noise
        )
        assert np.all(purchases >= 0.0)
        assert np.all(np.isfinite(totals)) and np.all(delivery >= 0.0)

    def test_tiny_normal_capacity_approaches_b0(self):
        tiny = make_scenario(T=6, B=1e-310, d=0.1)
        none = make_scenario(T=6, B=5e-324, d=0.1)
        offsets = [solve_thresholds_backward(scn, "ct", n_samples=4096).offsets
                   for scn in (tiny, none)]
        sigma = math.sqrt(tiny.delivery_fluctuation_variance)
        assert np.all(np.abs(offsets[0] - offsets[1]) < sigma)

    def test_overflowing_ct_width_takes_b0_closed_form(self):
        scn = make_scenario(T=6, B=5e-324, d=0.1)
        fc = scn.delivery_forecast()
        ws = np.linspace(-0.1, 0.1, 5)
        expect = closed_form_b0(ws + scn.d_total, fc, scn.cost.voll)[1]
        for engine in ("ct", "lattice"):
            assert np.array_equal(build_terminal_model(scn, engine).grad(ws), expect)

    def test_bisection_refuses_non_finite_values(self):
        with pytest.raises(DegeneratePriceError, match="not finite"):
            last_stage_offset(72.0, lambda w: np.nan * w, scale=1.0)
        with pytest.raises(DegeneratePriceError, match="not finite"):
            last_stage_offset(72.0, lambda w: -VOLL * (w < 0), scale=math.inf)


class TestIdealPolicy:
    def test_constant_deficit_buys_exactly(self):
        deficits = np.full((1, 6), 0.25)
        x_stage, cost = ideal_costs_batch(deficits, 0.3, 52.0, VOLL)
        assert x_stage[0] == pytest.approx(0.25, abs=1e-9)
        assert cost[0] == pytest.approx(52.0 * 6 * 0.25, abs=1e-6)

    def test_two_stage_storage_trace(self):
        x_stage, cost = ideal_costs_batch(np.array([[-1.0, 3.0]]), 1.0, 52.0, VOLL)
        assert x_stage[0] == pytest.approx(2.0, abs=1e-9)
        assert cost[0] == pytest.approx(208.0, abs=1e-6)

    def test_cost_function_convex_in_position(self):
        rng = np.random.default_rng(8)
        deficits = 0.1 + 0.3 * rng.standard_normal(10)
        from rld.storage import delivery_costs_batch

        xs = np.linspace(-1.0, 3.0, 81)
        costs = np.array([
            52.0 * x + delivery_costs_batch(deficits[None, :], x / 10, StorageSpec(0.2), VOLL)[0]
            for x in xs
        ])
        assert np.all(np.diff(costs, 2) >= -1e-9)

    def test_minimum_beats_grid_search(self):
        rng = np.random.default_rng(14)
        deficits = 0.05 + 0.1 * rng.standard_normal(8)
        _, cost = ideal_costs_batch(deficits[None, :], 0.05, 52.0, VOLL)
        from rld.storage import delivery_costs_batch

        xs = np.linspace(-0.5, 1.5, 4001)
        grid = np.min([
            52.0 * 8 * x + delivery_costs_batch(deficits[None, :], x, StorageSpec(0.05), VOLL)[0]
            for x in xs
        ])
        assert cost[0] <= grid + 1e-6


class TestSimulatePolicy:
    def test_zero_variance_buys_once_at_nominal(self):
        scn = make_scenario(
            T=8, B=0.001, d=0.48, mean_share=0.0,
            curve=[[24, 0.0], [1, 0.0], [0.25, 0.0]],
        )
        sched = solve_thresholds_backward(scn, "ct")
        result = simulate_policy(sched, scn, np.zeros(3), np.zeros(8))
        assert result.total_cost == pytest.approx(52.0 * 0.48, abs=1e-4)
        assert result.purchases[1:] == pytest.approx(0.0, abs=1e-6)

    def test_single_path_matches_batch(self, small_scenario):
        scn = small_scenario
        sched = solve_thresholds_backward(scn, "ct")
        shifts, noise = draw_policy_paths(4, 3, scn.T, seed=7)
        batch = simulate_policy_batch(sched, scn, shifts, noise)
        single = simulate_policy(sched, scn, shifts[2], noise[2])
        assert single.total_cost == pytest.approx(batch[3][2], rel=1e-13)
        assert single.x_final == pytest.approx(batch[1][2], rel=1e-13)

    def test_sell_stage_respects_direction(self):
        from rld.model import scenario_from_dict
        from conftest import DEFAULT_CURVE

        doc = {
            "ladder": [
                {"lead_time_hours": 24.0, "price": 52.0, "direction": "buy"},
                {"lead_time_hours": 1.0, "price": 40.0, "direction": "sell"},
                {"lead_time_hours": 0.25, "price": 72.0, "direction": "buy"},
            ],
            "voll": 1000.0,
            "storage": {"B": 0.01},
            "T": 6,
            "d_hat": 0.3,
            "mean_share": 0.2,
            "curve": DEFAULT_CURVE,
        }
        scn = scenario_from_dict(doc)
        sched = solve_thresholds_backward(scn, "ct")
        shifts, noise = draw_policy_paths(60, 3, 6, seed=19)
        purchases, x_final, _, _ = simulate_policy_batch(sched, scn, shifts, noise)
        assert np.all(purchases[:, 0] >= 0.0)
        assert np.all(purchases[:, 1] <= 0.0)
        assert np.all(purchases[:, 2] >= 0.0)
        assert np.allclose(purchases.sum(axis=1), x_final)

    def test_non_ideal_storage_supported(self):
        scn = make_scenario(T=6, B=0.05, efficiencies=(0.98, 0.9, 0.9))
        sched = solve_thresholds_backward(scn, "ct")
        shifts, noise = draw_policy_paths(5, 3, 6, seed=3)
        _, _, delivery, totals = simulate_policy_batch(sched, scn, shifts, noise)
        assert np.all(np.isfinite(totals))
        assert np.all(delivery >= 0.0)

    @pytest.mark.parametrize("efficiency", [1.0, 0.95], ids=["ideal", "lossy"])
    def test_ideal_dominates_every_policy_path(self, efficiency):
        # the perfect-foresight run uses ideal storage, so lossy storage only
        # widens the gap
        scn = make_scenario(efficiencies=(efficiency,) * 3)
        sched = solve_thresholds_backward(scn, "ct")
        shifts, noise = draw_policy_paths(200, 3, scn.T, seed=11)
        _, _, _, totals = simulate_policy_batch(sched, scn, shifts, noise)
        _, deficits = scn.realize(shifts, noise)
        _, ideal = ideal_costs_batch(deficits, scn.storage.capacity, 52.0, VOLL)
        assert np.all(totals >= ideal - 1e-9)
