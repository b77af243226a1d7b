import dataclasses
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq, linprog
from scipy.special import expit, ndtr, ndtri

from rld import dispatch
from rld.ctapprox import ct_terminal_cost, ct_terminal_subgradient, h_prime
from rld.dispatch import (
    DegeneratePriceError,
    _solve_decreasing,
    build_terminal_model,
    ideal_costs_batch,
    simulate_policy_batch,
    solve_delta_offsets,
    solve_thresholds_backward,
    three_sigma_schedule,
)
from rld.lattice import closed_form_b0, lattice_terminal_subgradient
from rld.model import BUY, SELL, StorageSpec, load_scenario
from rld.rng import draw_policy_paths, run_generator
from rld.storage import (
    delivery_costs_batch,
    subgradient_estimates_batch,
    unserved_and_slope_batch,
)
from conftest import constant_forecast, make_scenario
from oracles import nested_stage_rhs, sobol_stage_rhs

VOLL = 1000.0
SHIPPED = resources.files("rld").joinpath("data/vi_scenario.json")


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
        fc = constant_forecast(T, d_hat, sigma)

        def grad(w):
            return closed_form_b0(np.asarray(w, dtype=float) + T * d_hat, fc, VOLL)[1]

        delta, resid = last_stage_offset(72.0, grad, scale=sigma)
        target = T * (d_hat + sigma * ndtri(1.0 - 72.0 / VOLL))
        assert T * d_hat + delta == pytest.approx(target, abs=1e-6)
        assert resid <= 1e-6 * VOLL

    def test_degenerate_price_raises(self):
        fc = constant_forecast(1, 0.0, 1.0)

        def grad(w):
            return closed_form_b0(np.asarray(w, dtype=float), fc, VOLL)[1]

        with pytest.raises(DegeneratePriceError, match="above achievable"):
            last_stage_offset(VOLL + 1.0, grad, scale=1.0)
        with pytest.raises(DegeneratePriceError, match="below achievable"):
            last_stage_offset(-5.0, grad, scale=1.0)


def assert_solved(fn, target, x, resid, resid_tol, width_tol=1e-9):
    """The reported residual is honest, and x meets the tolerance or brackets
    a crossing within the width stop's half-width."""
    assert resid == abs(fn(x) - target)
    if resid > resid_tol:
        w = 2.0 * width_tol * max(1.0, abs(x))
        assert fn(x - w) >= target >= fn(x + w)


class TestRootFinder:
    """``_solve_decreasing``: Illinois regula falsi on an expanded bracket."""

    @given(
        loc=st.floats(-50.0, 50.0),
        log_width=st.floats(-6.0, 2.0),
        floor=st.floats(-100.0, 100.0),
        log_span=st.floats(-3.0, 3.0),
        share=st.floats(0.01, 0.99),
        centre=st.floats(-100.0, 100.0),
        half=st.floats(0.01, 10.0),
        log_tol=st.floats(-12.0, -3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_saturated_sigmoids(self, loc, log_width, floor, log_span, share,
                                centre, half, log_tol):
        width, span = 10.0**log_width, 10.0**log_span

        def fn(x):
            # expit saturates to exactly 0 or 1 far from loc
            return floor + span * float(expit((loc - x) / width))

        target = floor + share * span
        tol = 10.0**log_tol * span
        x, resid, iters = _solve_decreasing(fn, target, centre - half, centre + half, tol)
        assert 1 <= iters <= 200
        assert_solved(fn, target, x, resid, tol)

    @pytest.mark.parametrize("target", [58.0, 40.0, 12.5])
    def test_sobol_like_step_function(self, target):
        # first-future-action shape: a share of paths acts at a fixed price,
        # the rest contribute a smooth decreasing terminal term
        edges = np.sort(run_generator(5, 0x72).standard_normal(2**14))

        def fn(x):
            acts = x <= edges
            return float(np.mean(np.where(acts, 60.0, 50.0 * expit(-4.0 * (x - edges)))))

        evals = []

        def counted(x):
            evals.append(x)
            return fn(x)

        x, resid, _ = _solve_decreasing(counted, target, -1.0, 1.0, 1e-3)
        assert_solved(fn, target, x, resid, 1e-3)
        assert len(evals) <= 40

    def test_target_hit_exactly_at_a_bracket_end(self):
        def fn(x):
            return 50.0 - 10.0 * x

        for lo, hi, root in ((0.0, 2.0, 0.0), (-2.0, 0.0, 0.0)):
            x, resid, _ = _solve_decreasing(fn, 50.0, lo, hi, 1e-3)
            assert resid <= 1e-3 and resid == abs(fn(x) - 50.0)
            assert abs(x - root) <= 1e-4

    def test_shipped_stages_take_at_most_13_evaluations(self, monkeypatch):
        counts = []

        def counting(fn, *args, **kwargs):
            calls = [0]

            def wrapped(x):
                calls[0] += 1
                return fn(x)

            out = _solve_decreasing(wrapped, *args, **kwargs)
            counts.append(calls[0])
            return out

        monkeypatch.setattr(dispatch, "_solve_decreasing", counting)
        scn = load_scenario(str(SHIPPED))
        for engine in ("lattice", "mc", "ct"):
            counts.clear()
            sched = solve_thresholds_backward(scn, engine)
            assert len(counts) == scn.ladder.n_stages
            # the first call is the last stage; the others are the earlier stages
            assert max(counts[1:]) <= 13, (engine, counts)
            assert np.all(sched.residuals < 1e-6 * scn.cost.voll), (engine, sched.residuals)


class TestDeltaOffsets:
    def test_single_stage_reduces_to_inverse(self):
        # R=1 with no final revelation: plain subgradient inversion
        fc = constant_forecast(1, 0.0, 0.3)

        def grad(w):
            return closed_form_b0(np.asarray(w, dtype=float), fc, VOLL)[1]

        delta, resid = last_stage_offset(72.0, grad, scale=0.3)
        # the solve stops at |residual| <= 1e-6 voll, so roots agree to tol/slope
        root = brentq(lambda w: float(grad(w)) + 72.0, -3.0, 3.0, xtol=1e-12)
        assert delta == pytest.approx(root, abs=1e-5)
        assert resid <= 1e-6 * VOLL

    def test_final_revelation_widens_the_quantile(self):
        # with a mean revelation the effective std grows in quadrature
        fc = constant_forecast(1, 0.0, 0.3)

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
            purchases, _, _, _ = simulate_policy_batch(sched, scn, *scn.realize(shifts, noise))
            assert np.all(purchases[:, 1:] < 1e-8)
            assert np.all(purchases[:, 0] > 0.0)


def gaussian_terminal(sigma):
    """A Gaussian-CDF terminal subgradient and its exact last-stage right-hand side."""
    def grad(w):
        return -VOLL * ndtr(-np.asarray(w, dtype=float) / sigma)

    def rhs_last(std):
        return lambda y: VOLL * ndtr(-y / math.hypot(sigma, std))

    return grad, rhs_last


@st.composite
def recursion_ladders(draw):
    """(prices, directions, shift_stds, terminal std) of up to five stages.

    Buy prices rise along the ladder and every sell is priced below every
    buy; a sell priced <= 0, or not above a later sell, may never pay
    (offset +inf).  From R = 3 on one middle revision may be zero (R = 5
    always has one), so that no stage sits more than three Gaussian
    levels above the terminal one.
    """
    R = draw(st.integers(1, 5))
    sells = [draw(st.booleans()) for _ in range(R)]
    buys = sorted(draw(st.lists(st.floats(45.0, 90.0), min_size=R, max_size=R)))
    prices = [draw(st.sampled_from([-5.0, 0.0]) | st.floats(1.0, 40.0)) if sell else p
              for sell, p in zip(sells, buys)]
    stds = draw(st.lists(st.floats(0.2, 1.0), min_size=R, max_size=R))
    stds[-1] = draw(st.sampled_from([0.0]) | st.floats(0.1, 0.6))
    if R >= 3 and (R == 5 or draw(st.booleans())):
        stds[draw(st.integers(1, R - 2))] = 0.0
    directions = tuple(SELL if sell else BUY for sell in sells)
    return np.array(prices), directions, np.array(stds), draw(st.floats(0.3, 1.5))


class TestStageRecursion:
    """The tabulated stage recursion against the untabulated and Sobol oracles."""

    @given(ladder=recursion_ladders())
    @settings(max_examples=25, deadline=None)
    def test_offsets_solve_the_oracle_stages(self, ladder):
        prices, directions, stds, sigma = ladder
        grad, rhs_last = gaussian_terminal(sigma)
        deltas, residuals, _ = solve_delta_offsets(prices, VOLL, stds, grad, scale=sigma,
                                                   directions=directions)
        gate = 1e-6 * VOLL
        assert np.all(residuals < gate)
        finite = np.isfinite(deltas)
        far = (deltas[finite].max() if finite.any() else 0.0) + 12.0 * (stds.sum() + sigma)
        for idx in range(len(prices)):
            stage = nested_stage_rhs(idx, prices, deltas, stds, grad, directions,
                                     rhs_last=rhs_last(stds[-1]))
            if not finite[idx]:
                # a sell that never pays: even far above every offset the
                # stage is worth at least its price
                assert directions[idx] == SELL and stage(far)[0] > prices[idx] - gate
                continue
            exact = stage(deltas[idx])[0]
            assert abs(exact - prices[idx]) < gate, (idx, exact)
            # 8 independent scramblings of 2^17 points; a tail no point
            # reaches hides from the spread, hence the floor of one gate
            runs = [sobol_stage_rhs(idx, prices, deltas, stds, grad, directions,
                                    n_samples=2**17, seed=seed)(deltas[idx])
                    for seed in range(8)]
            se = np.std(runs, ddof=1) / math.sqrt(len(runs))
            assert abs(np.mean(runs) - exact) <= 10.0 * se + gate, (idx, runs, exact)

    @pytest.mark.parametrize("engine, capacity", [
        ("lattice", 1e-3), ("mc", 1e-3), ("ct", 1e-3), ("lattice", 1e-4), ("ct", 1e-4),
        ("lattice", 1e-2), ("ct", 1e-2), ("ct", 1e-1),
    ])
    def test_shipped_oracle_residuals(self, engine, capacity):
        scn = load_scenario(str(SHIPPED)).with_capacity(capacity)
        check_oracle_residuals(scn, engine)

    @pytest.mark.parametrize("capacity", [1e-2, 1e-1])
    @pytest.mark.parametrize("engine", ["lattice", "mc", "ct"])
    def test_root_finder_clears_the_gate_with_a_margin(self, engine, capacity):
        # the stage root-finder stops at a tenth of the 1e-6 VOLL gate, so
        # the reported residual leaves room for the evaluation error; only
        # the lattice's Newton-polished last stage stops at the gate itself
        scn = load_scenario(str(SHIPPED)).with_capacity(capacity)
        residuals = solve_thresholds_backward(scn, engine).residuals
        unpolished = residuals[:-1] if engine == "lattice" else residuals
        assert np.all(unpolished <= 1e-7 * scn.cost.voll), residuals
        assert np.all(residuals < 1e-6 * scn.cost.voll), residuals

    @pytest.mark.parametrize("engine", ["lattice", "ct"])
    def test_zero_std_middle_revision(self, engine):
        scn = make_scenario(T=12, B=0.01, prices=(50.0, 55.0, 60.0, 72.0),
                            leads=(24.0, 4.0, 1.0, 0.25),
                            curve=[[24, 0.04], [4, 0.03], [1, 0.03], [0.25, 0.01]])
        assert scn.inter_stage_stds()[1] == 0.0
        check_oracle_residuals(scn, engine)

    @pytest.mark.parametrize("engine", ["lattice", "ct"])
    def test_nanoscale_capacity_keeps_the_grid_bounded(self, engine, spline_sizes):
        # ct's width sigma^2 / 2B is 4e4 here: the offsets spread by ~1e4,
        # but every spline grid stays as small as at the shipped capacity
        scn = load_scenario(str(SHIPPED)).with_capacity(1e-9)
        model = check_oracle_residuals(scn, engine)
        if engine == "ct":
            assert model.scale > 1e4
        assert spline_sizes and max(spline_sizes) <= 4000, spline_sizes

    @pytest.mark.parametrize("tiny", [1e-5, 1e-12])
    def test_near_zero_std_keeps_the_grid_bounded(self, tiny, spline_sizes):
        # a curve flat up to rounding leaves a tiny positive revision std;
        # 16 grid points per std would ask for 1e6 to 1e13 points
        grad, _ = gaussian_terminal(0.07)
        prices, stds = np.array([52.0, 60.0, 72.0]), np.array([0.037, tiny, 0.0045])
        deltas, residuals, _ = solve_delta_offsets(prices, VOLL, stds, grad, scale=0.07)
        assert max(spline_sizes) <= 2 * dispatch._GRID_MAX + 16, spline_sizes
        assert np.all(residuals < 1e-6 * VOLL)
        for idx in range(2):
            exact = nested_stage_rhs(idx, prices, deltas, stds, grad)(deltas[idx])[0]
            assert abs(exact - prices[idx]) < 1e-6 * VOLL, (idx, exact)

    def test_shipped_lattice_passes_few_points_to_grad(self, monkeypatch):
        build = dispatch.build_terminal_model
        points = [0]

        def counting(*args, **kwargs):
            model = build(*args, **kwargs)

            def grad(w):
                points[0] += np.size(w)
                return model.grad(w)

            return dataclasses.replace(model, grad=grad)

        monkeypatch.setattr(dispatch, "build_terminal_model", counting)
        solve_thresholds_backward(load_scenario(str(SHIPPED)), "lattice")
        # the 2^18-path Sobol right-hand side passed 2,030,769 points
        assert 0 < points[0] <= 200_000

    def test_import_leaves_scipy_stats_unloaded(self):
        code = "import sys, rld, rld.cli; print('scipy.stats' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(dispatch.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=120)
        assert out.stdout.strip() == "False"


@pytest.fixture
def spline_sizes(monkeypatch):
    """Grid sizes of the stage splines built while the test runs."""
    sizes = []

    def spline(x, y):
        sizes.append(len(x))
        return CubicSpline(x, y)

    monkeypatch.setattr(dispatch, "CubicSpline", spline)
    return sizes


def check_oracle_residuals(scn, engine):
    """Every finite stage offset solves the untabulated nested-quadrature stage."""
    sched = solve_thresholds_backward(scn, engine)
    model = build_terminal_model(scn, engine)
    gate = 1e-6 * scn.cost.voll
    assert np.all(sched.residuals < gate)
    for idx in np.flatnonzero(np.isfinite(sched.offsets[:-1])):
        exact = nested_stage_rhs(idx, scn.ladder.prices, sched.offsets, scn.inter_stage_stds(),
                                 model.grad, scn.ladder.directions)(sched.offsets[idx])[0]
        assert abs(exact - scn.ladder.prices[idx]) < gate, (idx, exact)
    return model


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

    def test_zero_variance_model_matches_pointwise_evaluation(self):
        scn = make_scenario(T=8, B=0.001, d=0.48, mean_share=0.0,
                            curve=[[24, 0.0], [1, 0.0], [0.25, 0.0]])
        model = build_terminal_model(scn, "ct")
        fc = scn.delivery_forecast()
        w = np.array([0.01, -0.2, 0.01, 0.0, -0.0, 0.3, -0.2, 0.01, 1e-3, 0.0])
        pointwise = [
            subgradient_estimates_batch(fc.d_hat[None, :], (wi + fc.total_mean) / scn.T,
                                        scn.storage.capacity, VOLL)[0]
            for wi in w
        ]
        assert model.grad(w).tobytes() == np.array(pointwise).tobytes()
        assert model.grad(np.empty(0)).shape == (0,)

    def test_mc_engine_close_to_lattice(self):
        scn = make_scenario(T=8, B=0.01)
        lat = build_terminal_model(scn, "lattice")
        mc = build_terminal_model(scn, "mc", n_mc_paths=60_000)
        ws = np.linspace(-0.1, 0.15, 7)
        assert np.max(np.abs(lat.grad(ws) - mc.grad(ws))) < 0.02 * VOLL

    @pytest.mark.parametrize("params", [
        dict(),                           # the shipped T = 60, B = 1e-3
        dict(T=6, B=0.02, d=0.3),
        dict(T=12, B=0.1),
    ], ids=["shipped", "small", "large-B"])
    def test_mc_grid_equals_unpruned_loop(self, monkeypatch, params):
        import rld.dispatch as dispatch

        scn = make_scenario(**params)
        pruned = build_terminal_model(scn, "mc")

        def every_row_at_every_supply(deficits, supplies, capacity, voll, scratch):
            return np.array([
                subgradient_estimates_batch(deficits, s, capacity, voll).mean()
                for s in supplies
            ])

        monkeypatch.setattr(dispatch, "_mc_subgradients", every_row_at_every_supply)
        plain = build_terminal_model(scn, "mc")
        width = math.sqrt(scn.T * scn.delivery_fluctuation_variance)
        ws = width * np.concatenate([np.linspace(-2.4, 2.4, 11) + 1 / 32,
                                     np.linspace(-12.0, 12.0, 97)])
        assert pruned.grad(ws).tobytes() == plain.grad(ws).tobytes()

    @given(
        capacity=st.sampled_from([0.0, 5e-324, 0.5]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_mc_subgradients_bitwise(self, capacity, seed):
        from rld.dispatch import _mc_subgradients

        rng = np.random.default_rng(seed)
        deficits = np.asfortranarray(0.05 + 0.1 * rng.standard_normal((60, 7)))
        # every deficit and its neighbours: the pruning is exact through ties
        ties = deficits.ravel()
        supplies = np.unique(np.concatenate([
            rng.uniform(-0.3, 0.5, 50), ties,
            np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf),
        ]))
        expect = [subgradient_estimates_batch(deficits, s, capacity, VOLL).mean()
                  for s in supplies]
        got = _mc_subgradients(deficits, supplies, capacity, VOLL, np.empty(deficits.size))
        assert got.tobytes() == np.array(expect).tobytes()

    def test_unknown_engine(self, small_scenario):
        with pytest.raises(ValueError):
            build_terminal_model(small_scenario, "magic")


class TestThreeSigma:
    def test_offsets_are_three_lead_time_sigmas(self, vi_scenario):
        scn = vi_scenario
        sched = three_sigma_schedule(scn)
        expect = [3 * scn.curve.sigma_at(float(lt)) for lt in scn.ladder.lead_times]
        assert np.allclose(sched.offsets, expect)
        assert np.all(np.diff(sched.offsets) <= 0.0)

    def test_simulates_feasibly(self, vi_scenario):
        scn = vi_scenario
        sched = three_sigma_schedule(scn)
        shifts, noise = draw_policy_paths(20, 3, scn.T, seed=2)
        purchases, x_final, delivery, totals = simulate_policy_batch(
            sched, scn, *scn.realize(shifts, noise)
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
        sched = solve_thresholds_backward(scn, "ct")
        shifts, noise = draw_policy_paths(30, 3, 6, seed=seed)
        purchases, x_final, delivery, totals = simulate_policy_batch(
            sched, scn, *scn.realize(shifts, noise)
        )
        assert np.all(purchases >= 0.0)            # buy-only ladder
        assert np.allclose(purchases.sum(axis=1), x_final, atol=1e-12)
        assert np.all(delivery >= 0.0)
        assert np.allclose(totals, purchases @ scn.ladder.prices + delivery)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_schedule_from_another_ladder_is_rejected(self, small_scenario, extra):
        sched = three_sigma_schedule(small_scenario)
        R = small_scenario.ladder.n_stages
        other = dataclasses.replace(sched, offsets=np.resize(sched.offsets, R + extra))
        paths = small_scenario.realize(*draw_policy_paths(4, R, small_scenario.T, seed=0))
        with pytest.raises(ValueError, match="offsets"):
            simulate_policy_batch(other, small_scenario, *paths)


class TestSubnormalCapacity:
    """Capacities so small that the ct width sigma_sq / 2B overflows, or nearly."""

    @pytest.mark.parametrize("capacity", [5e-324, 1e-310])
    def test_ct_policy_finite_and_feasible(self, capacity):
        scn = make_scenario(T=6, B=capacity, d=0.1)
        sched = solve_thresholds_backward(scn, "ct")
        assert np.all(np.isfinite(sched.offsets))
        shifts, noise = draw_policy_paths(30, 3, 6, seed=0)
        purchases, x_final, delivery, totals = simulate_policy_batch(
            sched, scn, *scn.realize(shifts, noise)
        )
        assert np.all(purchases >= 0.0)
        assert np.all(np.isfinite(totals)) and np.all(delivery >= 0.0)

    def test_tiny_normal_capacity_approaches_b0(self):
        tiny = make_scenario(T=6, B=1e-310, d=0.1)
        none = make_scenario(T=6, B=5e-324, d=0.1)
        offsets = [solve_thresholds_backward(scn, "ct").offsets
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


def hundred_sweep_ideal(deficits, capacity, price, voll):
    """Perfect-foresight bisection with all 100 sweeps, no early exit."""
    deficits = np.atleast_2d(np.asarray(deficits, dtype=float))
    n, T = deficits.shape
    lo = T * (deficits.min(axis=1) - capacity - 1.0)
    hi = T * (deficits.max(axis=1) + 1.0)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        g = price + subgradient_estimates_batch(deficits, mid / T, capacity, voll)
        lo = np.where(g < 0.0, mid, lo)
        hi = np.where(g < 0.0, hi, mid)
    x_acc = 0.5 * (lo + hi)
    costs = price * x_acc + delivery_costs_batch(
        deficits, x_acc / T, StorageSpec(capacity), voll)
    return x_acc / T, costs


def linear_program_ideal(deficits, capacity, price, voll):
    """Perfect-foresight optimum of one row as an LP over (s, b, u, c).

    s is the per-stage supply, b the storage level, u the unserved energy
    and c the curtailment: b_t = b_{t-1} + s - D_t + u_t - c_t, b_0 = 0.
    """
    T = deficits.size
    eye = np.eye(T)
    storage = eye - np.eye(T, k=-1)
    a_eq = np.hstack([-np.ones((T, 1)), storage, -eye, eye])
    cost = np.concatenate([[price * T], np.zeros(T), np.full(T, voll), np.zeros(T)])
    bounds = [(None, None)] + [(0.0, capacity)] * T + [(0.0, None)] * (2 * T)
    res = linprog(cost, A_eq=a_eq, b_eq=-deficits, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.fun


ideal_inputs = dict(
    T=st.integers(1, 12),
    capacity=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    price=st.floats(0.0, 999.0),
    order=st.sampled_from("CF"),
    seed=st.integers(0, 10_000),
)


class TestIdealPolicy:
    @given(n=st.integers(1, 30), **ideal_inputs)
    @settings(max_examples=60, deadline=None)
    def test_no_worse_than_hundred_sweeps(self, n, T, capacity, price, order, seed):
        rng = np.random.default_rng(seed)
        deficits = np.asarray(0.05 + 0.1 * rng.standard_normal((n, T)), order=order)
        supply, cost = ideal_costs_batch(deficits, capacity, price, VOLL)
        _, cost_ref = hundred_sweep_ideal(deficits, capacity, price, VOLL)
        assert np.all(cost <= cost_ref + 1e-12 * VOLL)
        at_supply = price * (T * supply) + delivery_costs_batch(
            deficits, supply, StorageSpec(capacity), VOLL)
        assert cost.tobytes() == at_supply.tobytes()

    @given(n=st.integers(1, 3), **ideal_inputs)
    @settings(max_examples=60, deadline=None)
    def test_matches_linear_program(self, n, T, capacity, price, order, seed):
        rng = np.random.default_rng(seed)
        deficits = np.asarray(0.05 + 0.1 * rng.standard_normal((n, T)), order=order)
        _, cost = ideal_costs_batch(deficits, capacity, price, VOLL)
        for row, c in zip(deficits, cost):
            assert abs(c - linear_program_ideal(row, capacity, price, VOLL)) <= 1e-9 * VOLL

    def test_search_passes_bounded(self, monkeypatch):
        import rld.dispatch as dispatch

        passes = []

        def counted(*args):
            passes.append(1)
            return unserved_and_slope_batch(*args)

        monkeypatch.setattr(dispatch, "unserved_and_slope_batch", counted)
        rng = np.random.default_rng(3)
        ideal_costs_batch(0.05 + 0.1 * rng.standard_normal((50, 10)), 0.05, 52.0, VOLL)
        # every step retires a row or narrows its integer slope range 0..T
        assert 1 <= len(passes) <= 10

    @pytest.mark.parametrize("shape, capacity, price, step", [
        ((0, 5), 0.05, 52.0, 0.0),
        ((40, 1), 0.05, 52.0, 0.0),
        ((40, 8), 0.0, 52.0, 0.0),
        ((40, 8), 0.05, 0.0, 0.0),
        ((40, 8), 5e-324, 999.0, 0.0),
        ((400, 8), 0.05, 52.0, 0.01),
    ], ids=["no-rows", "T=1", "capacity-0", "price-0", "subnormal-capacity",
            "discrete-deficits"])
    def test_edge_inputs(self, shape, capacity, price, step):
        rng = np.random.default_rng(21)
        deficits = 0.05 + 0.1 * rng.standard_normal(shape)
        if step:
            # kinks of many rows coincide, so tangent lines meet on a bracket end
            deficits = step * np.round(deficits / step)
        supply, cost = ideal_costs_batch(deficits, capacity, price, VOLL)
        _, cost_ref = hundred_sweep_ideal(deficits, capacity, price, VOLL)
        assert supply.shape == cost.shape == (shape[0],)
        assert np.all(np.isfinite(cost)) and np.all(cost <= cost_ref + 1e-12 * VOLL)
        for row, c in zip(deficits[:5], cost):
            assert abs(c - linear_program_ideal(row, capacity, price, VOLL)) <= 1e-9 * VOLL
        if price == 0.0:
            # the optimum is the flat piece where nothing goes unserved;
            # the search stops at its kink, up to the rounding of the kink
            assert np.all((cost >= 0.0) & (cost <= 1e-12 * VOLL))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_deficits_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ideal_costs_batch(np.array([[bad, 0.1]]), 0.05, 52.0, VOLL)

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
        purchases, _, _, totals = simulate_policy_batch(
            sched, scn, *scn.realize(np.zeros((1, 3)), np.zeros((1, 8))))
        assert totals[0] == pytest.approx(52.0 * 0.48, abs=1e-4)
        assert purchases[0, 1:] == pytest.approx(0.0, abs=1e-6)

    def test_last_stage_never_selling_skips_the_polish(self):
        # a final sell at -5 never pays, so the exact lattice has no root to polish
        from rld.model import scenario_from_dict
        from conftest import DEFAULT_CURVE

        scn = scenario_from_dict({
            "ladder": [
                {"lead_time_hours": 24.0, "price": 52.0, "direction": "buy"},
                {"lead_time_hours": 1.0, "price": -5.0, "direction": "sell"},
            ],
            "voll": VOLL, "storage": {"B": 0.01}, "T": 8, "d_hat": 0.3,
            "curve": DEFAULT_CURVE,
        })
        sched = solve_thresholds_backward(scn, "lattice")
        assert sched.offsets[1] == np.inf and sched.residuals[1] == 0.0
        assert np.isfinite(sched.offsets[0]) and sched.residuals[0] <= 1e-6 * VOLL

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
        purchases, x_final, _, _ = simulate_policy_batch(sched, scn, *scn.realize(shifts, noise))
        assert np.all(purchases[:, 0] >= 0.0)
        assert np.all(purchases[:, 1] <= 0.0)
        assert np.all(purchases[:, 2] >= 0.0)
        assert np.allclose(purchases.sum(axis=1), x_final)

    def test_non_ideal_storage_supported(self):
        scn = make_scenario(T=6, B=0.05, efficiencies=(0.98, 0.9, 0.9))
        sched = solve_thresholds_backward(scn, "ct")
        shifts, noise = draw_policy_paths(5, 3, 6, seed=3)
        _, _, delivery, totals = simulate_policy_batch(sched, scn, *scn.realize(shifts, noise))
        assert np.all(np.isfinite(totals))
        assert np.all(delivery >= 0.0)

    @pytest.mark.parametrize("efficiency", [1.0, 0.95], ids=["ideal", "lossy"])
    def test_ideal_dominates_every_policy_path(self, efficiency):
        # the perfect-foresight run uses ideal storage, so lossy storage only
        # widens the gap
        scn = make_scenario(efficiencies=(efficiency,) * 3)
        sched = solve_thresholds_backward(scn, "ct")
        shifts, noise = draw_policy_paths(200, 3, scn.T, seed=11)
        _, _, _, totals = simulate_policy_batch(sched, scn, *scn.realize(shifts, noise))
        _, deficits = scn.realize(shifts, noise)
        _, ideal = ideal_costs_batch(deficits, scn.storage.capacity, 52.0, VOLL)
        assert np.all(totals >= ideal - 1e-9)
