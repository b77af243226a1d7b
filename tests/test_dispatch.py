import dataclasses
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.optimize import brentq
from scipy.special import expit, ndtr, ndtri

from rld import dispatch
from rld.benchmark import evaluate_policies
from rld.ctapprox import ct_terminal_cost, ct_terminal_subgradient, h_prime
from rld.dispatch import (
    DegeneratePriceError,
    TerminalModel,
    _solve_decreasing,
    build_terminal_model,
    ideal_costs_batch,
    simulate_policy_batch,
    solve_delta_offsets,
    solve_thresholds_backward,
    three_sigma_schedule,
)
from rld.lattice import closed_form_b0, lattice_terminal_cost, lattice_terminal_subgradient
from rld.model import (
    BUY,
    SELL,
    StorageSpec,
    ValidationError,
    load_scenario,
    scenario_from_dict,
)
from rld.rng import draw_policy_paths, run_generator
from rld.storage import (
    delivery_costs_batch,
    subgradient_estimates_batch,
    unserved_and_slope_batch,
)
from conftest import DEFAULT_CURVE, constant_forecast, make_scenario
from oracles import (
    dense_last_stage_residual,
    linear_program_ideal,
    nested_stage_rhs,
    sobol_stage_rhs,
    two_pass_ideal,
)

VOLL = 1000.0
SHIPPED = resources.files("rld").joinpath("data/vi_scenario.json")


def mc_share(scales, T):
    """The mean_share whose final revision, sqrt(mean_share / (1 - mean_share))
    delivery-interval stds, spans ``scales`` terminal scales of sqrt(T) of them."""
    k = scales * scales * T
    return k / (1.0 + k)


def last_stage_offset(price, grad, scale):
    """(offset, residual) of a single buy stage with no final revision."""
    deltas, residuals, _ = solve_delta_offsets(
        np.array([price]), VOLL, np.array([0.0]), TerminalModel("test", grad, scale)
    )
    return deltas[0], residuals[0]


def ct_offsets(prices, shift_stds, capacity, sigma_sq):
    """Buy-ladder offsets against the analytic ct terminal subgradient."""
    def grad(w):
        return ct_terminal_subgradient(w, 0.0, sigma_sq, capacity, VOLL)

    scale = max(sigma_sq / (2.0 * capacity), math.sqrt(sigma_sq))
    deltas, _, _ = solve_delta_offsets(
        np.asarray(prices, dtype=float), VOLL, np.asarray(shift_stds, dtype=float),
        TerminalModel("ct", grad, scale),
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
            np.array([72.0]), VOLL, np.array([0.4]), TerminalModel("test", grad, 0.5)
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

    def test_polish_records_the_returned_offsets_residual(self):
        # the exact slope is 2.5x the interpolated one, so every re-solve on
        # the interpolated side overshoots and all six run; the residual must
        # be the last offset's
        sigma, s, k, shift = 0.1, 0.01, 2.5, 0.002
        grad, _ = gaussian_terminal(sigma)
        calls = []

        def grad_exact(w):
            calls.append(np.size(w))
            return grad(k * (np.asarray(w, dtype=float) - shift))

        deltas, residuals, _ = solve_delta_offsets(
            np.array([500.0]), VOLL, np.array([s]),
            TerminalModel("test", grad, sigma, grad_exact=grad_exact))
        # the 2.5x steeper Gaussian smoothed by the revision std s
        exact = VOLL * ndtr(-k * (deltas[0] - shift) / math.hypot(sigma, k * s))
        assert len(calls) == 7, calls
        assert residuals[0] == pytest.approx(abs(exact - 500.0), rel=1e-9)
        assert residuals[0] > 1e-6 * VOLL

    def test_a_constant_miss_is_corrected_by_one_solve(self, monkeypatch):
        # the exact side is the interpolated one plus 10: one re-solve at the
        # price shifted by the miss meets the gate, a second exact call checks
        # it, and the iterations count the steps of both solves
        grad, _ = gaussian_terminal(0.1)
        calls, steps = [], []

        def grad_exact(w):
            calls.append(np.size(w))
            return grad(w) - 10.0

        solve = dispatch._solve_decreasing

        def counting(*args):
            out = solve(*args)
            steps.append(out[2])
            return out

        monkeypatch.setattr(dispatch, "_solve_decreasing", counting)
        _, residuals, iterations = solve_delta_offsets(
            np.array([500.0]), VOLL, np.array([0.01]),
            TerminalModel("test", grad, 0.1, grad_exact=grad_exact))
        assert len(calls) == 2 and len(steps) == 2
        assert residuals[0] <= 1e-6 * VOLL
        assert iterations[0] == sum(steps)

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
    # stage 0 misses the gate by 1.13x under a single 44-node Gauss-Legendre
    # panel per cell, and clears it at 0.044x under 22 nodes on each half;
    # the solver's three 22-node panels clear it at 0.003x, as 96 nodes did
    @example(ladder=(np.array([45., -5., 46., 54.]), ("buy", "sell", "buy", "buy"),
                     np.array([1., .25, 1., 0.]), 1.0))
    def test_offsets_solve_the_oracle_stages(self, ladder):
        prices, directions, stds, sigma = ladder
        grad, rhs_last = gaussian_terminal(sigma)
        deltas, residuals, _ = solve_delta_offsets(prices, VOLL, stds,
                                                   TerminalModel("test", grad, sigma),
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

    @pytest.mark.parametrize("engine, capacity", [
        *[(engine, capacity) for engine in ("mc", "ct") for capacity in (1e-4, 1e-3, 1e-2, 1e-1)],
        # the ct step of width sigma^2/2B = 4e-5 against a final revision std
        # of 4.5e-3: a rule without ct's cuts recomputes at 1.1e-2 VOLL
        ("ct", 1.0),
        ("lattice", 1e-3), ("lattice", 1e-2),
    ])
    def test_dense_rule_last_stage_residual(self, engine, capacity, monkeypatch):
        # recompute against the model the solver built: the interpolated or
        # analytic subgradient, and for the lattice its exact engine on 201
        # nodes (each node is one exact lattice position)
        scn = load_scenario(str(SHIPPED)).with_capacity(capacity)
        built = []
        build = dispatch.build_terminal_model
        monkeypatch.setattr(dispatch, "build_terminal_model",
                            lambda *args, **kwargs: built.append(build(*args, **kwargs))
                            or built[-1])
        sched = solve_thresholds_backward(scn, engine)
        (model,) = built
        grad, n_points = (model.grad_exact, 201) if engine == "lattice" else (model.grad, 200_001)
        resid = dense_last_stage_residual(grad, sched.offsets[-1], scn.inter_stage_stds()[-1],
                                          scn.ladder.prices[-1], n_points=n_points)
        assert resid < 1e-6 * scn.cost.voll, (resid, sched.residuals[-1])

    @pytest.mark.parametrize("T", [12, 60])
    @pytest.mark.parametrize("mean_share", [0.2, 0.5, 0.8, 0.9, 0.99])
    @pytest.mark.parametrize("engine", ["lattice", "mc", "ct"])
    def test_wide_final_revision_is_solved_or_refused(self, engine, mean_share, T,
                                                      monkeypatch):
        # a final revision many delivery-interval stds wide integrates a terminal
        # model that turns within it: at T = 12 and mean_share 0.99 mc reported
        # 8e-7 where the dense rule reads 1.1e-2 (gate 1e-3), the lattice 4.1e-4
        # where it reads 2.7.  A lattice or mc solve meets the gate by the dense
        # rule or is refused as a scenario error.  Every engine solves mean_share 0.8
        # but mc at T = 12, where its revision of 2 interval stds is 0.577 scales
        scn = make_scenario(T=T, B=1e-3, mean_share=mean_share)
        built = []
        build = dispatch.build_terminal_model
        monkeypatch.setattr(dispatch, "build_terminal_model",
                            lambda *args, **kwargs: built.append(build(*args, **kwargs))
                            or built[-1])
        try:
            sched = solve_thresholds_backward(scn, engine)
        except ValidationError as exc:
            assert engine != "ct" and (mean_share > 0.8 or (engine, T) == ("mc", 12))
            assert str(exc).startswith("mean_share") and "the ct engine solves it" in str(exc)
            return
        (model,) = built
        grad, n_points = (model.grad_exact, 201) if engine == "lattice" else (model.grad, 200_001)
        resid = dense_last_stage_residual(grad, sched.offsets[-1], scn.inter_stage_stds()[-1],
                                          scn.ladder.prices[-1], n_points=n_points)
        assert resid < 1e-6 * scn.cost.voll, (resid, sched.residuals[-1])

    @pytest.mark.parametrize("T", [2, 6, 8, 17])
    @pytest.mark.parametrize("capacity", [1e-2, 1e-1])
    def test_mc_revision_just_under_its_limit_meets_the_gate(self, capacity, T, monkeypatch):
        # mc's grid noise makes its last-stage rule miss the gate from about 0.58
        # scales at B >= 1e-2: at 0.579 scales the dense rule read 1.1e-3 to 2.3e-3
        # in these cases (gate 1e-3), and it reads at most 7.7e-4 at 0.549
        limit = dispatch.MAX_REVISION["mc"][1]
        assert limit == 0.55
        scn = make_scenario(T=T, B=capacity, mean_share=mc_share(limit - 1e-3, T))
        built = []
        build = dispatch.build_terminal_model
        monkeypatch.setattr(dispatch, "build_terminal_model",
                            lambda *args, **kwargs: built.append(build(*args, **kwargs))
                            or built[-1])
        sched = solve_thresholds_backward(scn, "mc")
        (model,) = built
        resid = dense_last_stage_residual(model.grad, sched.offsets[-1],
                                          scn.inter_stage_stds()[-1], scn.ladder.prices[-1])
        assert resid < 1e-6 * scn.cost.voll, (resid, sched.residuals[-1])

    def test_mc_revision_just_over_its_limit_is_refused(self):
        share = mc_share(dispatch.MAX_REVISION["mc"][1] + 1e-3, 8)
        scn = make_scenario(T=8, B=1e-2, mean_share=share)
        with pytest.raises(ValidationError, match=r"^mean_share: .* 0.551 scales, past the mc"):
            solve_thresholds_backward(scn, "mc")

    def test_wide_final_revision_is_refused_at_zero_capacity(self):
        # B = 0 takes the closed form, under the same limit: at mean_share 0.999
        # and T = 4 it reported a last-stage residual under 3e-7 where the dense
        # rule read 3.9e-3 (gate 1e-3).  ct and 3sigma still solve it
        scn = make_scenario(T=4, B=0.0, mean_share=0.999)
        for engine in ("lattice", "mc"):
            with pytest.raises(ValidationError, match="^mean_share: 0.999 .* the ct engine"):
                solve_thresholds_backward(scn, engine)
        for sched in (solve_thresholds_backward(scn, "ct"), dispatch.three_sigma_schedule(scn)):
            assert np.all(np.isfinite(sched.offsets))

    @pytest.mark.parametrize("T", [4, 12])
    def test_ct_meets_the_gate_on_a_wide_final_revision_at_zero_capacity(self, T, monkeypatch):
        # every stage term of the B = 0 closed form turns within a few of its widths of one
        # point; the model's cuts there let ct's last-stage rule see the turn, where without
        # them the dense rule read 3.9e-3 (T = 4) and 1.8e-3 (T = 12) against the gate
        scn = make_scenario(T=T, B=0.0, mean_share=0.999)
        built = []
        build = dispatch.build_terminal_model
        monkeypatch.setattr(dispatch, "build_terminal_model",
                            lambda *args, **kwargs: built.append(build(*args, **kwargs))
                            or built[-1])
        sched = solve_thresholds_backward(scn, "ct")
        (model,) = built
        assert len(model.cuts) == 3
        resid = dense_last_stage_residual(model.grad, sched.offsets[-1],
                                          scn.inter_stage_stds()[-1], scn.ladder.prices[-1])
        assert resid < 1e-6 * scn.cost.voll, (resid, sched.residuals[-1])

    @pytest.mark.parametrize("capacity", [1e-2, 1e-1])
    @pytest.mark.parametrize("engine", ["lattice", "mc", "ct"])
    def test_root_finder_clears_the_gate_with_a_margin(self, engine, capacity):
        # the stage root-finder stops at a tenth of the 1e-6 VOLL gate, so
        # the reported residual leaves room for the evaluation error; only
        # the lattice's last stage, checked on its exact engine, stops at the
        # gate itself
        scn = load_scenario(str(SHIPPED)).with_capacity(capacity)
        residuals = solve_thresholds_backward(scn, engine).residuals
        unpolished = residuals[:-1] if engine == "lattice" else residuals
        assert np.all(unpolished <= 1e-7 * scn.cost.voll), residuals
        assert np.all(residuals < 1e-6 * scn.cost.voll), residuals

    def test_unrevised_terminal_keeps_the_cuts(self):
        # with no final revision the middle stage integrates the raw ct
        # subgradient, a step of width sigma^2/2B = 4e-5 at B = 1: without the
        # model's cuts there, the dense rule recomputes it at 3.6e-5 VOLL
        scn = load_scenario(str(SHIPPED)).with_capacity(1.0)
        model = build_terminal_model(scn, "ct")
        prices, stds = scn.ladder.prices, scn.inter_stage_stds() * [1.0, 1.0, 0.0]
        deltas, _, _ = solve_delta_offsets(prices, scn.cost.voll, stds, model)

        def last_stage_acting(u):
            return np.where(u <= deltas[2], -prices[2], model.grad(u))

        resid = dense_last_stage_residual(last_stage_acting, deltas[1], stds[1], prices[1])
        assert resid < 1e-6 * scn.cost.voll, resid

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
        deltas, residuals, _ = solve_delta_offsets(prices, VOLL, stds,
                                                   TerminalModel("test", grad, 0.07))
        assert max(spline_sizes) <= 2 * dispatch._GRID_MAX + 16, spline_sizes
        assert np.all(residuals < 1e-6 * VOLL)
        for idx in range(2):
            exact = nested_stage_rhs(idx, prices, deltas, stds, grad)(deltas[idx])[0]
            assert abs(exact - prices[idx]) < 1e-6 * VOLL, (idx, exact)

    def test_shipped_lattice_passes_few_points_to_grad(self, monkeypatch):
        # the 2^18-path Sobol right-hand side passed 2,030,769 points, and
        # 66 Gauss-Legendre nodes per spline tick 182,160; the tick lattice
        # sum passes 4,981
        scn = load_scenario(str(SHIPPED))
        assert 0 < grad_points(monkeypatch, scn, "lattice") <= 6_000

    @pytest.mark.parametrize("capacity, bound", [(1e-3, 7_500), (0.1, 13_000)])
    def test_shipped_ct_passes_few_points_to_grad(self, monkeypatch, capacity, bound):
        # 213,730 and 242,022 points under 66 nodes per tick and cut cell;
        # the lattice sum passes 6,125 and 10,723 (its step is 0.7 of ct's
        # width sigma^2/2B at B = 0.1, so it sums across the cuts)
        scn = load_scenario(str(SHIPPED)).with_capacity(capacity)
        assert 0 < grad_points(monkeypatch, scn, "ct") <= bound

    @pytest.mark.parametrize("engine, capacity", [
        *[(engine, capacity) for engine in ("lattice", "mc")
          for capacity in (1e-4, 1e-3, 1e-2, 1e-1)],
        *[("ct", capacity) for capacity in (1e-3, 0.1, 0.3, 1.0, 10.0)],
    ])
    def test_tables_match_a_finer_rule(self, engine, capacity, monkeypatch):
        # every table of a shipped solve, at its ticks.  Lattice and mc
        # against the same lattice sum at 1/8 of the step, which 66
        # Gauss-Legendre nodes per tick miss by up to 2.3e-9 VOLL; ct
        # against the cell rule split at every cut, which a lattice sum
        # across the cuts misses by 2e-9, 2.6e-5 and 7.8e-5 VOLL at B = 0.3,
        # 1 and 10 (a width sigma^2/2B of 0.48, 0.14 and 0.01 steps)
        scn = load_scenario(str(SHIPPED)).with_capacity(capacity)
        tables = []
        tabulate = dispatch._tabulate
        monkeypatch.setattr(dispatch, "_tabulate", lambda fn, far, spans, step: (
            tables.append((fn, spans, step)) or tabulate(fn, far, spans, step)))
        solve_thresholds_backward(scn, engine)
        assert len(tables) == 2
        for fn, spans, step in tables:
            y = step * np.unique(np.concatenate([
                np.arange(math.floor(lo / step), math.ceil(hi / step) + 1) for lo, hi in spans]))
            reference = fn(y) if engine == "ct" else fn(y, step / 8)
            assert np.abs(fn(y, step) - reference).max() < 1e-10 * scn.cost.voll

    def test_table_across_a_buy_and_a_sell_offset(self):
        # a buy below -0.5 and a sell above 0.6 over a smooth base: the
        # ticks within 8.5 stds of either offset take the cell rule, the
        # rest the lattice sum; both match the cell rule at every tick
        _, rhs_last = gaussian_terminal(0.4)
        s, step = 0.2, 0.2 / 16
        expect = dispatch._expectation([(-0.5, False, 80.0), (0.6, True, 20.0)],
                                       rhs_last(0.3), s)
        y = step * np.arange(-400, 401)
        reference = expect(y)
        assert np.abs(expect(y, step) - reference).max() < 1e-10 * VOLL
        assert np.abs(expect(y, step / 8) - reference).max() < 1e-10 * VOLL

    def test_table_calls_fn_once_per_run(self):
        # two disjoint spans: fn sees one run of consecutive ticks per call,
        # and the table matches the cell rule at every tick
        _, rhs_last = gaussian_terminal(0.4)
        s, step = 0.2, 0.2 / 16
        expect = dispatch._expectation([], rhs_last(0.3), s)
        runs = []

        def fn(y, step):
            runs.append(np.rint(y / step))
            return expect(y, step)

        table = dispatch._tabulate(fn, expect, [(-1.0, -0.5), (0.5, 1.0)], step)
        assert len(runs) == 2
        assert all(np.all(np.diff(run) == 1.0) for run in runs)
        y = step * np.concatenate(runs)
        assert np.abs(table(y) - expect(y)).max() < 1e-10 * VOLL

    def test_shipped_benchmark_prices_each_cell_edge_once_per_call(self, monkeypatch):
        # a priced cell's mass is Phi at its two edges; the rule evaluates Phi once per
        # call at the finite edges of all its priced cells, which neighbours share: 49
        # calls, plus 16 from the lattice model's interpolant, where two calls per
        # priced cell made 114 in all
        from rld.benchmark import run_benchmark

        calls = []
        ndtr = dispatch.ndtr
        monkeypatch.setattr(dispatch, "ndtr", lambda x: calls.append(np.size(x)) or ndtr(x))
        run_benchmark(load_scenario(str(SHIPPED)), record_timing=False)
        assert len(calls) == 65, len(calls)

    def test_b0_varied_profile_with_sells_solves_fast(self, monkeypatch):
        # B = 0 routes every engine to the closed form, a T-term sum per
        # point: 57,425 points per solve under 66 nodes per spline tick,
        # 3,292 under the lattice sum
        doc = {
            "ladder": [
                {"lead_time_hours": 24.0, "price": 7.05, "direction": "sell"},
                {"lead_time_hours": 12.0, "price": 30.0, "direction": "buy"},
                {"lead_time_hours": 2.0, "price": 0.215, "direction": "sell"},
                {"lead_time_hours": 0.5, "price": 0.001, "direction": "sell"},
            ],
            "voll": 74714.0, "storage": {"B": 0.0}, "T": 5,
            "d_hat": [0.1, 0.3, 0.2, 0.5, 0.05], "mean_share": 0.0, "curve": DEFAULT_CURVE,
        }
        scn = scenario_from_dict(doc)
        b0 = dispatch.closed_form_b0
        for engine in ("ct", "lattice"):
            points = [0]

            def counting(x, *args):
                points[0] += np.size(x)
                return b0(x, *args)

            monkeypatch.setattr(dispatch, "closed_form_b0", counting)
            offsets = solve_thresholds_backward(scn, engine).offsets
            assert 0 < points[0] <= 4_000, (engine, points)
            # the offsets under 66 nodes per tick
            assert np.allclose(offsets, [1.4974120780758302, 1.467419470490426,
                                         1.4779161919729797, 3.107331158279013],
                               rtol=0.0, atol=1e-9), (engine, offsets)

    def test_import_leaves_heavy_scipy_modules_unloaded(self):
        # rld needs only numpy: the splines, the storage-level law's banded kernel
        # and the normal CDF and quantile (``rld.normal``) are its own
        heavy = ["scipy.stats", "scipy.interpolate", "scipy.optimize", "scipy.linalg",
                 "scipy.sparse", "scipy.fft", "scipy.special"]
        code = ("import sys, rld, rld.cli; "
                f"print([m for m in {heavy} if m in sys.modules]); "
                "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
        env = {**os.environ, "PYTHONPATH": str(Path(dispatch.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=120)
        assert out.stdout.split() == ["[]", "[]"], out.stdout


def grad_points(monkeypatch, scn, engine):
    """Points the engine's solve passes to its interpolated or analytic subgradient."""
    build = dispatch.build_terminal_model
    points = [0]

    def counting(*args, **kwargs):
        model = build(*args, **kwargs)

        def grad(w):
            points[0] += np.size(w)
            return model.grad(w)

        return dataclasses.replace(model, grad=grad)

    monkeypatch.setattr(dispatch, "build_terminal_model", counting)
    solve_thresholds_backward(scn, engine)
    return points[0]


@pytest.fixture
def spline_sizes(monkeypatch):
    """Grid sizes of the not-a-knot splines built while the test runs."""
    sizes = []
    slopes = dispatch._spline_slopes

    def counting(x, y):
        sizes.append(len(x))
        return slopes(x, y)

    monkeypatch.setattr(dispatch, "_spline_slopes", counting)
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


    def test_shipped_scenario_with_a_sine_profile(self):
        # a 60-entry +-30% sine profile: every stage has its own drift, which
        # the lattice engine takes in its one forward pass per call
        T = 60
        scn = make_scenario(d=list(0.4 / T * (1.0 + 0.3 * np.sin(2 * np.pi * np.arange(T) / T))))
        sched = solve_thresholds_backward(scn, "lattice")
        assert np.all(sched.residuals < 1e-6 * VOLL)
        fc = scn.delivery_forecast()
        B = scn.storage.capacity
        paths = fc.d_hat + fc.sigma * np.random.default_rng(60).standard_normal((40_000, T))
        sig_tot = math.sqrt(scn.delivery_fluctuation_variance)
        for x_acc in scn.d_total + sig_tot * np.array([-1.0, 0.0, 1.5]):
            cost = lattice_terminal_cost(x_acc, fc, B, VOLL)
            mc = delivery_costs_batch(paths, x_acc / T, StorageSpec(B), VOLL)
            assert abs(cost - mc.mean()) <= 3.0 * mc.std(ddof=1) / math.sqrt(len(mc)), x_acc


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

    @pytest.mark.parametrize("engine, capacity", [
        pytest.param("lattice", None, id="small-lattice"),
        *[(engine, capacity) for engine in ("lattice", "mc")
          for capacity in (1e-4, 1e-3, 1e-2, 1e-1)],
    ])
    def test_grad_monotone_and_bounded(self, small_scenario, engine, capacity):
        # a plain cubic spline through the probit grid overshoots in the
        # clipped tails by up to 2.4e-11 VOLL: no slack is allowed here
        scn = (small_scenario if capacity is None
               else load_scenario(str(SHIPPED)).with_capacity(capacity))
        model = build_terminal_model(scn, engine)
        g = model.grad(np.linspace(-1.5, 1.5, 60_001))
        assert np.all(g <= 0.0) and np.all(g >= -scn.cost.voll)
        assert np.all(np.diff(g) >= 0.0)

    def test_shipped_lattice_model_within_the_gate(self):
        # probes off the interpolation grid, across the whole transition
        scn = load_scenario(str(SHIPPED))
        fc, voll, capacity = scn.delivery_forecast(), scn.cost.voll, scn.storage.capacity
        units = np.linspace(-2.4, 2.4, 11) + 1 / 32
        ws = units * math.sqrt(scn.T * scn.delivery_fluctuation_variance)
        exact = np.array([lattice_terminal_subgradient(w + fc.total_mean, fc, capacity, voll)
                          for w in ws])
        approx = build_terminal_model(scn, "lattice").grad(ws)
        assert np.max(np.abs(approx - exact)) < 1e-6 * voll

    @staticmethod
    def exact_lattice_positions(monkeypatch, scn):
        """Positions per ``lattice_terminal_subgradient`` call of one lattice
        solve of ``scn``."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(np.size(args[0]))
            return lattice_terminal_subgradient(*args, **kwargs)

        monkeypatch.setattr(dispatch, "lattice_terminal_subgradient", counting)
        sched = solve_thresholds_backward(scn, "lattice")
        assert sched.residuals[-1] <= 1e-6 * scn.cost.voll
        return calls

    def test_shipped_lattice_solve_checks_once(self, monkeypatch):
        # one exact solve for the lower half of the 145-point grid (the flat
        # profile mirrors the rest) and one check of the last stage, a position
        # per quadrature node: no re-solve is needed
        scn = load_scenario(str(SHIPPED))
        assert self.exact_lattice_positions(monkeypatch, scn) == [72, 44]

    def test_lattice_polish_checks_at_most_44_positions(self, monkeypatch):
        # at B = 1e-2 the interpolated root misses the gate: one re-solve,
        # checked again, so a rule with more nodes costs twice
        scn = load_scenario(str(SHIPPED)).with_capacity(1e-2)
        assert self.exact_lattice_positions(monkeypatch, scn) == [72, 44, 44]

    def test_grid_does_not_grow_with_capacity(self, monkeypatch):
        # the grid spans where the subgradient can move, which does not depend on B
        # (the flat profile solves its lower half)
        grids = [self.exact_lattice_positions(monkeypatch, make_scenario(T=12, B=capacity))[0]
                 for capacity in (1e-4, 1.0)]
        assert grids == [72, 72]

    @pytest.mark.parametrize("varied", [False, True], ids=["flat", "varied"])
    @pytest.mark.parametrize("T", [1, 12, 60])
    @pytest.mark.parametrize("capacity", [1e-4, 1e-2, 1.0, 1e6])
    def test_exact_subgradient_saturates_at_the_grid_ends(self, monkeypatch, capacity, T,
                                                          varied):
        # the grid reaches 9 scales beyond every stage's predicted deficit:
        # every stage short below it, none above, whatever the capacity.  A flat
        # profile (a sine at T = 1 too) solves the lower half and mirrors the upper one
        d_hat = (0.4 / T * (1.0 + 0.3 * np.sin(2 * np.pi * np.arange(T) / T))).tolist()
        scn = make_scenario(T=T, B=capacity, d=d_hat if varied else 0.4)
        fc = scn.delivery_forecast()
        grids = []

        def recording(x, forecast, *args):   # any monotone stand-in: only the grid is read
            grids.append(np.array(x))
            return closed_form_b0(x, forecast, VOLL)[1]

        monkeypatch.setattr(dispatch, "lattice_terminal_subgradient", recording)
        model = build_terminal_model(scn, "lattice")
        (solved,) = grids
        ws, vals = model.grid
        assert np.allclose(np.diff(ws), np.diff(ws)[0])
        if varied and T > 1:
            assert np.array_equal(solved, ws + fc.total_mean)
        else:   # the solved end, and the mirrored one with its mirrored value
            assert np.array_equal(solved, ws[:72] + fc.total_mean) and ws.size == 145
            assert np.array_equal(ws[::-1], -ws) and vals[-1] == -VOLL - vals[0]
        ends = ws[[0, -1]] + fc.total_mean
        low, high = lattice_terminal_subgradient(ends, fc, capacity, VOLL)
        assert abs(low + VOLL) <= 1e-15 * VOLL and abs(high) <= 1e-15 * VOLL

    def test_long_horizon_at_huge_capacity_lays_out_the_drawdown(self, monkeypatch):
        # at T = 288 and B = 1e6 the top grid position climbs some 2,700 panels
        # of one stage std, but no row's density needs more panels than its
        # drawdown still to come, about 2 * 9 * sqrt(T): the 72 grid rows solved
        # (the lower half of 145) pass in one block.  A stand-in stage step
        # records the calls (the real solve takes about 12 s on a 2-core Xeon)
        from rld import lattice

        T, calls = 288, []

        def recording(law, step, shift, capacity, width, panels, memo):
            calls.append((shift.size, panels))
            return np.zeros(shift.size), np.zeros(shift.size), law

        monkeypatch.setattr(lattice, "advance", recording)
        build_terminal_model(make_scenario(T=T, B=1e6), "lattice")
        assert [size for size, _ in calls] == [72] * T
        assert max(panels for _, panels in calls) < 2 * 9 * math.sqrt(T) + 10

    def test_a_position_past_the_panel_budget_is_a_scenario_error(self, monkeypatch):
        # one grid position that alone needs more panels than the budget is
        # refused as a scenario error, which the command line reports
        from rld import lattice

        monkeypatch.setattr(lattice, "_PANEL_ROWS", 16)
        with pytest.raises(ValidationError, match="storage.B"):
            build_terminal_model(make_scenario(T=12, B=1e6), "lattice")

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
        fc = scn.delivery_forecast()
        w = np.array([0.01, -0.2, 0.01, 0.0, -0.0, 0.3, -0.2, 0.01, 1e-3, 0.0])
        for storage in (scn.storage, StorageSpec(0.001, 0.8, 0.9, 0.7)):
            # whatever the engine, the profile is evaluated on the scenario's storage
            scn = dataclasses.replace(scn, storage=storage)
            model = build_terminal_model(scn, "ct")
            pointwise = [
                subgradient_estimates_batch(fc.d_hat[None, :], (wi + fc.total_mean) / scn.T,
                                            storage, VOLL)[0]
                for wi in w
            ]
            assert model.grad(w).tobytes() == np.array(pointwise).tobytes()
            assert model.grad(np.empty(0)).shape == (0,)

    def test_mc_engine_close_to_lattice(self, monkeypatch):
        scn = make_scenario(T=8, B=0.01)
        lat = build_terminal_model(scn, "lattice")
        monkeypatch.setattr(dispatch, "MC_PATHS", 60_000)
        mc = build_terminal_model(scn, "mc")
        ws = np.linspace(-0.1, 0.15, 7)
        assert np.max(np.abs(lat.grad(ws) - mc.grad(ws))) < 0.02 * VOLL

    @pytest.mark.parametrize("params", [
        dict(),                           # the shipped T = 60, B = 1e-3
        dict(T=6, B=0.02, d=0.3),
        dict(T=12, B=0.1),
        dict(T=12, B=0.01, efficiencies=(0.8, 0.8, 0.8)),
    ], ids=["shipped", "small", "large-B", "lossy"])
    def test_mc_grid_equals_unpruned_loop(self, monkeypatch, params):
        import rld.dispatch as dispatch

        scn = make_scenario(**params)
        pruned = build_terminal_model(scn, "mc")

        def every_row_at_every_supply(deficits, supplies, spec, voll, scratch):
            return np.array([
                subgradient_estimates_batch(deficits, s, spec, voll).mean()
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
        effs=st.one_of(st.just((1.0, 1.0, 1.0)), st.tuples(*3 * [st.one_of(
            st.sampled_from([0.0, 5e-324, 1.0]), st.floats(0.0, 1.0))])),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_mc_subgradients_bitwise(self, capacity, effs, seed):
        # the rows it skips are exact on lossy storage too: below its lowest
        # deficit a row is short at every stage, and a weight that reached 0
        # has no short stage left
        from rld.dispatch import _mc_subgradients

        rng = np.random.default_rng(seed)
        deficits = np.asfortranarray(0.05 + 0.1 * rng.standard_normal((60, 7)))
        # every deficit and its neighbours: the pruning is exact through ties
        ties = deficits.ravel()
        supplies = np.unique(np.concatenate([
            rng.uniform(-0.3, 0.5, 50), ties,
            np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf),
        ]))
        spec = StorageSpec(capacity, *effs)
        expect = [subgradient_estimates_batch(deficits, s, spec, VOLL).mean()
                  for s in supplies]
        got = _mc_subgradients(deficits, supplies, spec, VOLL, np.empty(deficits.size))
        assert got.tobytes() == np.array(expect).tobytes()

    def test_mc_thresholds_see_lossy_storage(self):
        # shipped scenario at B = 1e-2 with lambda = mu = nu = 0.8: the mc
        # schedule solved on the lossy storage beats the one solved on ideal
        # storage of the same capacity, path by path on common random numbers
        lossy = load_scenario(SHIPPED)
        lossy = dataclasses.replace(lossy, storage=StorageSpec(1e-2, 0.8, 0.8, 0.8))
        ideal = dataclasses.replace(lossy, storage=StorageSpec(1e-2))
        schedules = {"lossy": solve_thresholds_backward(lossy, "mc"),
                     "ideal": solve_thresholds_backward(ideal, "mc")}
        assert np.all(schedules["lossy"].offsets > schedules["ideal"].offsets)
        n = 20_000
        costs, _ = evaluate_policies(lossy, schedules, n, seed=0)
        gain = costs["ideal"] - costs["lossy"]
        stderr = gain.std(ddof=1) / math.sqrt(n)
        assert gain.mean() > 3.0 * stderr, (gain.mean(), stderr)

    @pytest.mark.parametrize("capacity", [0.0, 0.02, 0.05])
    def test_mc_working_range_through_ties(self, capacity):
        from rld.dispatch import _mc_subgradients

        # deficits on a 0.01 lattice and supplies on a 0.005 one: rows enter
        # exactly at their lowest deficit, many together, and leave in
        # batches at many supplies, in orders unlike the order they entered
        rng = np.random.default_rng(17)
        deficits = np.asfortranarray(0.01 * rng.integers(-6, 9, (400, 8)))
        supplies = 0.005 * np.arange(-14, 20)
        spec = StorageSpec(capacity)
        est = np.array([subgradient_estimates_batch(deficits, s, spec, VOLL)
                        for s in supplies])
        settles = (est == 0.0).argmax(axis=0)[(est == 0.0).any(axis=0)]
        assert np.unique(settles).size >= 6
        scratch = np.full(deficits.size + 5, np.nan)
        got = _mc_subgradients(deficits, supplies, spec, VOLL, scratch)
        assert got.tobytes() == est.mean(axis=1).tobytes()

    def test_mc_working_range_allocates_no_row_block(self):
        # 20,000 x 60: a second copy of the rows would be 9.6 MB; the kernel's
        # pin masks are 2.4 MB at most, the sort and the per-row vectors about 0.6 MB
        import tracemalloc

        from rld.dispatch import _mc_subgradients

        rng = np.random.default_rng(5)
        deficits = np.asfortranarray(0.0067 + 1.15e-3 * rng.standard_normal((20_000, 60)))
        scratch = np.empty(deficits.size)
        supplies = np.linspace(deficits.min(), deficits.max(), 200)
        tracemalloc.start()
        try:
            vals = _mc_subgradients(deficits, supplies, StorageSpec(1e-3), VOLL, scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vals[-1] == 0.0
        assert peak < 6e6, peak

    def test_unknown_engine(self, small_scenario):
        with pytest.raises(ValueError):
            build_terminal_model(small_scenario, "magic")


def dyadic_ramp(T):
    """A point-symmetric ramp of +-10% about 0.4 / T per stage, in steps of 2**-40,
    so that d_t + d_{T-1-t} is the same double for every t."""
    base = round(0.4 / T * 2**40)
    q = np.rint(0.1 * base * np.arange(T) / T)
    return np.ldexp(base + q - q[::-1], -40).tolist()


class TestMirroredGrid:
    """A point-symmetric profile solves one half of its grid; the storage walk's
    time-reversal duality, g(-w) = -voll - g(w), gives the other."""

    @pytest.mark.parametrize("profile", ["flat", "ramp"])
    @pytest.mark.parametrize("T", [1, 12, 60])
    @pytest.mark.parametrize("capacity", [1e-4, 1e-2, 1.0, 1e6])
    def test_lattice_mirror_is_the_lattice(self, capacity, T, profile):
        scn = make_scenario(T=T, B=capacity, d=0.4 if profile == "flat" else dyadic_ramp(T))
        fc = scn.delivery_forecast()
        ws, vals = build_terminal_model(scn, "lattice").grid
        half = ws.size // 2
        assert np.array_equal(ws[::-1], -ws) and vals[half] == -VOLL / 2
        direct = lattice_terminal_subgradient(ws[half:] + fc.total_mean, fc, capacity, VOLL)
        assert abs(direct[0] + VOLL / 2) <= 1e-12 * VOLL
        assert np.max(np.abs(direct[1:] - vals[half + 1:])) <= 1e-12 * VOLL

    @pytest.mark.parametrize("profile", ["flat", "ramp"])
    @pytest.mark.parametrize("T", [1, 12, 60])
    @pytest.mark.parametrize("capacity", [1e-4, 1e-2, 1.0, 1e6])
    def test_mc_mirror_is_the_twins_estimate(self, capacity, T, profile):
        from rld.dispatch import MC_PATHS, MC_STREAM, _mc_subgradients

        scn = make_scenario(T=T, B=capacity, d=0.4 if profile == "flat" else dyadic_ramp(T))
        ws, vals = build_terminal_model(scn, "mc").grid
        half = ws.size // 2
        assert np.array_equal(ws[::-1], -ws) and vals[half] == -VOLL / 2
        supplies = (ws + scn.delivery_forecast().total_mean) / T
        noise = run_generator(0, MC_STREAM).standard_normal((MC_PATHS, T))
        no_shift = np.zeros((MC_PATHS, scn.ladder.n_stages))

        def estimate(noise, part):
            deficits = scn.realize(no_shift, noise)[1]
            return _mc_subgradients(deficits, supplies[part], scn.storage, VOLL,
                                    np.empty(deficits.size))

        # the paths above the centre, bit for bit; below it their twins, the
        # noise reversed and negated
        assert estimate(noise, slice(half + 1, None)).tobytes() == vals[half + 1:].tobytes()
        twins = estimate(-noise[:, ::-1], slice(0, half))
        assert np.max(np.abs(twins - vals[:half])) <= 1e-12 * VOLL

    @pytest.mark.parametrize("engine, storage, d", [
        ("lattice", StorageSpec(1e-2), "sine"),
        ("mc", StorageSpec(1e-2), "sine"),
        ("mc", StorageSpec(1e-2, 1.0, 1.0, 0.9), 0.4),
        ("mc", StorageSpec(1e-2, 0.95, 0.95, 0.95), 0.4),
    ], ids=["lattice-sine", "mc-sine", "mc-nu", "mc-lossy"])
    def test_asymmetric_profile_or_lossy_mc_solves_the_full_grid(self, monkeypatch, engine,
                                                                 storage, d):
        T = 12
        if d == "sine":
            d = (0.4 / T * (1.0 + 0.3 * np.sin(2 * np.pi * np.arange(T) / T))).tolist()
        scn = dataclasses.replace(make_scenario(T=T, d=d), storage=storage)
        solved = []
        name = "lattice_terminal_subgradient" if engine == "lattice" else "_mc_subgradients"
        solve = getattr(dispatch, name)

        def recording(x, *args, **kwargs):
            solved.append(np.array(x) if engine == "lattice" else np.array(args[0]))
            return solve(x, *args, **kwargs)

        monkeypatch.setattr(dispatch, name, recording)
        ws, vals = build_terminal_model(scn, engine).grid
        offset = scn.delivery_forecast().total_mean
        assert ws.size > 145 if d != 0.4 else ws.size == 145
        assert np.array_equal(solved[0], ws + offset if engine == "lattice"
                              else (ws + offset) / T)
        assert -VOLL / 2 not in vals

    @pytest.mark.parametrize("capacity, parent", [(1e-3, 1.2746e-3), (1e-2, 4.3015e-3)])
    def test_mc_grid_error_no_worse_than_the_full_grid(self, capacity, parent):
        # the mean over 8 seeds of the worst error on the grid's 145 points against
        # the exact lattice; the parent, which evaluated every point, read 1.2746e-3
        # and 4.3015e-3 (the mirrored grid reads 9.6e-4 and 2.1e-3)
        scn = make_scenario(B=capacity)
        fc = scn.delivery_forecast()
        worst = []
        for seed in range(8):
            model = build_terminal_model(scn, "mc", seed=seed)
            ws = model.grid[0]
            exact = lattice_terminal_subgradient(ws + fc.total_mean, fc, capacity, VOLL)
            worst.append(np.max(np.abs(model.grad(ws) - exact)) / VOLL)
        assert np.mean(worst) <= parent, worst


class TestCubic:
    """The numpy not-a-knot cubic against scipy's splines as oracles."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 145, 2729, 8193])
    @pytest.mark.parametrize("shape", ["probit", "wave"])
    def test_matches_scipy_splines(self, n, shape):
        # ticks off zero as _tabulate lays them out (8193: two window reaches
        # at the 4096-tick cap), through a clipped probit sigmoid like the
        # terminal grid's or a smooth wave
        step = 1e-3 / 16
        x = step * np.arange(-(n // 3), n - n // 3)
        u = (x - x.mean()) / (step * (n / 8 + 1))
        y = (np.minimum.accumulate(ndtri(np.clip(ndtr(-u), 1e-15, 1 - 1e-15)))
             if shape == "probit" else np.sin(3 * u) + 2.0)
        slopes = dispatch._spline_slopes(x, y)
        spline = CubicSpline(x, y)
        reference = spline(x, 1)
        assert np.abs(slopes - reference).max() <= 1e-12 * np.abs(reference).max()
        # at the nodes, the midpoints and both ends
        probes = np.concatenate([x, 0.5 * (x[1:] + x[:-1]), [x[0] - step / 2, x[-1] + step / 2]])
        scale = np.abs(y).max()
        got = dispatch._Hermite(x, y, slopes)(probes)
        assert np.abs(got - CubicHermiteSpline(x, y, slopes)(probes)).max() <= 1e-15 * scale
        assert np.array_equal(dispatch._Hermite(x, y)(probes), got)
        assert np.abs(got - spline(probes)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("u", [0.33, np.float64(0.33), np.array(0.33), np.array([0.33])],
                             ids=["float", "scalar", "0-d", "length-1"])
    def test_scalar_and_0d_points(self, u, small_scenario):
        x = 0.1 * np.arange(9)
        want = CubicSpline(x, np.sin(x))(u)
        got = dispatch._Hermite(x, np.sin(x))(u)
        assert np.shape(got) == np.shape(want)
        assert abs(float(np.ravel(got)[0]) - float(np.ravel(want)[0])) < 1e-15
        grad = build_terminal_model(small_scenario, "lattice").grad
        assert np.shape(grad(np.asarray(u) - 0.3)) == np.shape(u)

    @given(
        start=st.floats(-10.0, 10.0),
        rises=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=1,
                       max_size=40),
        h=st.floats(1e-3, 10.0),
    )
    @example(start=0.0, rises=[0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 2.0, 0.0], h=1.0)
    @settings(max_examples=200, deadline=None)
    def test_monotone_cubic_stays_monotone(self, start, rises, h):
        # nondecreasing data with flat stretches: 50 points per interval rise
        # too, and the interpolant passes through every node
        y = start + np.concatenate([[0.0], np.cumsum(rises)])
        x = h * np.arange(y.size) - 3.0
        interp = dispatch._monotone_cubic(x, y)
        u = np.append((x[:-1, None] + h * np.arange(50) / 50).ravel(), x[-1])
        vals = interp(u)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.abs(interp(x) - y).max() <= 1e-13 * np.abs(y).max()


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


class TestHugeCapacity:
    """Capacities so large that the ct ratio 2B / sigma^2 overflows."""

    def test_ct_solves_the_infinite_capacity_limit(self):
        # on the shipped sigma^2 = 8e-5 the ratio overflows from B = 7.2e303:
        # the subgradient is the step -VOLL * (w < 0), and the last stage
        # solves VOLL * ndtr(-delta / s) = price.  At B = 1e308 the width
        # sigma^2 / 2B is 0 and the cuts coincide: no table sums across them
        scn = load_scenario(str(SHIPPED))
        limit, near = (solve_thresholds_backward(scn.with_capacity(capacity), "ct")
                       for capacity in (1e308, 1e300))
        voll, price, s = scn.cost.voll, scn.ladder.prices[-1], scn.inter_stage_stds()[-1]
        assert np.all(np.isfinite(limit.offsets))
        assert np.all(limit.residuals < 1e-6 * voll), limit.residuals
        assert limit.offsets[-1] == pytest.approx(-s * ndtri(price / voll), abs=1e-9)
        assert np.abs(limit.offsets - near.offsets).max() < 1e-9


def hundred_sweep_ideal(deficits, capacity, price, voll):
    """Perfect-foresight bisection with all 100 sweeps, no early exit."""
    deficits = np.atleast_2d(np.asarray(deficits, dtype=float))
    n, T = deficits.shape
    lo = T * (deficits.min(axis=1) - capacity - 1.0)
    hi = T * (deficits.max(axis=1) + 1.0)
    spec = StorageSpec(capacity)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        g = price + subgradient_estimates_batch(deficits, mid / T, spec, voll)
        lo = np.where(g < 0.0, mid, lo)
        hi = np.where(g < 0.0, hi, mid)
    x_acc = 0.5 * (lo + hi)
    costs = price * x_acc + delivery_costs_batch(deficits, x_acc / T, spec, voll)
    return x_acc / T, costs


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
        supply, cost = ideal_costs_batch(deficits, capacity, price, price, VOLL)
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
        _, cost = ideal_costs_batch(deficits, capacity, price, price, VOLL)
        for row, c in zip(deficits, cost):
            assert abs(c - linear_program_ideal(row, capacity, price, price, VOLL)) <= 1e-9 * VOLL

    def test_search_passes_bounded(self, monkeypatch):
        import rld.dispatch as dispatch

        passes = []

        def counted(*args):
            passes.append(1)
            return unserved_and_slope_batch(*args)

        monkeypatch.setattr(dispatch, "unserved_and_slope_batch", counted)
        rng = np.random.default_rng(3)
        ideal_costs_batch(0.05 + 0.1 * rng.standard_normal((50, 10)), 0.05, 52.0, 52.0,
                          VOLL)
        # every step retires a row or narrows its integer slope range 0..T
        assert 1 <= len(passes) <= 10

    @pytest.mark.parametrize("sell", [52.0, 40.0], ids=["buy-only", "kinked"])
    def test_rows_do_not_depend_on_their_block(self, sell):
        rng = np.random.default_rng(11)
        deficits = np.asfortranarray(0.05 + 0.1 * rng.standard_normal((10_000, 12)))
        supply, cost = ideal_costs_batch(deficits, 0.05, 52.0, sell, VOLL)
        parts = [ideal_costs_batch(deficits[start:start + 4096], 0.05, 52.0, sell, VOLL)
                 for start in range(0, 10_000, 4096)]
        assert supply.tobytes() == np.concatenate([s for s, _ in parts]).tobytes()
        assert cost.tobytes() == np.concatenate([c for _, c in parts]).tobytes()

    @pytest.mark.parametrize("sell", [52.0, 40.0], ids=["buy-only", "kinked"])
    def test_rows_retired_on_different_passes_keep_their_solo_result(self, monkeypatch, sell):
        # each retirement moves surviving rows into the freed slots: a row's
        # result must not depend on where it sat or on which rows left first
        rng = np.random.default_rng(23)
        T = 10
        deficits = np.concatenate([
            0.05 + 0.1 * rng.standard_normal((40, T)),
            0.01 * rng.integers(-3, 6, (40, T)),      # ties: few distinct slopes
            np.full((4, T), 0.03),                    # flat rows
            -0.2 + 0.05 * rng.standard_normal((16, T)),
        ])[rng.permutation(100)]
        supply, cost = ideal_costs_batch(deficits, 0.05, 52.0, sell, VOLL)
        passes = []

        def counted(*args):
            passes[-1] += 1
            return unserved_and_slope_batch(*args)

        monkeypatch.setattr(dispatch, "unserved_and_slope_batch", counted)
        for row, s, c in zip(deficits, supply, cost):
            passes.append(0)
            solo_s, solo_c = ideal_costs_batch(row[None], 0.05, 52.0, sell, VOLL)
            assert (solo_s.tobytes(), solo_c.tobytes()) == (s.tobytes(), c.tobytes())
        assert len(set(passes)) >= 4, passes

    def test_one_block_peaks_near_its_working_copy(self):
        # one 8192 x 60 block: its column-major working copy is 3.9 MB, the
        # kernel's pin masks 1 MB and the per-row vectors about 1.4 MB; a
        # second copy of the rows would add 3.9 MB
        import tracemalloc

        rng = np.random.default_rng(12)
        deficits = 0.02 + 0.03 * rng.standard_normal((8192, 60))
        tracemalloc.start()
        try:
            ideal_costs_batch(deficits, 1e-3, 52.0, 52.0, VOLL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7.5e6, peak

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
        supply, cost = ideal_costs_batch(deficits, capacity, price, price, VOLL)
        _, cost_ref = hundred_sweep_ideal(deficits, capacity, price, VOLL)
        assert supply.shape == cost.shape == (shape[0],)
        assert np.all(np.isfinite(cost)) and np.all(cost <= cost_ref + 1e-12 * VOLL)
        for row, c in zip(deficits[:5], cost):
            assert abs(c - linear_program_ideal(row, capacity, price, price, VOLL)) <= 1e-9 * VOLL
        if price == 0.0:
            # the optimum is the flat piece where nothing goes unserved;
            # the search stops at its kink, up to the rounding of the kink
            assert np.all((cost >= 0.0) & (cost <= 1e-12 * VOLL))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_deficits_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ideal_costs_batch(np.array([[bad, 0.1]]), 0.05, 52.0, 52.0, VOLL)

    def test_constant_deficit_buys_exactly(self):
        deficits = np.full((1, 6), 0.25)
        x_stage, cost = ideal_costs_batch(deficits, 0.3, 52.0, 52.0, VOLL)
        assert x_stage[0] == pytest.approx(0.25, abs=1e-9)
        assert cost[0] == pytest.approx(52.0 * 6 * 0.25, abs=1e-6)

    def test_two_stage_storage_trace(self):
        x_stage, cost = ideal_costs_batch(np.array([[-1.0, 3.0]]), 1.0, 52.0, 52.0, VOLL)
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
        _, cost = ideal_costs_batch(deficits[None, :], 0.05, 52.0, 52.0, VOLL)
        from rld.storage import delivery_costs_batch

        xs = np.linspace(-0.5, 1.5, 4001)
        grid = np.min([
            52.0 * 8 * x + delivery_costs_batch(deficits[None, :], x, StorageSpec(0.05), VOLL)[0]
            for x in xs
        ])
        assert cost[0] <= grid + 1e-6


kinked_inputs = dict(
    T=st.integers(1, 12),
    capacity=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    buy=st.floats(0.0, 999.0),
    spread=st.one_of(st.just(0.0), st.floats(0.0, 1500.0)),
    shift=st.floats(-0.3, 0.3),
    seed=st.integers(0, 10_000),
)


def kinked_cost_at(deficits, supply, capacity, buy, sell):
    """p(s)*(T*s) + VOLL*V(s), the cost the kinked search evaluates."""
    price = np.where(supply < 0.0, sell, buy)
    return price * (deficits.shape[1] * supply) + delivery_costs_batch(
        deficits, supply, StorageSpec(capacity), VOLL)


class TestKinkedIdeal:
    """The ideal that buys at one price and sells at a lower one."""

    @given(n=st.integers(1, 3), **kinked_inputs)
    @settings(max_examples=60, deadline=None)
    def test_matches_linear_program(self, n, T, capacity, buy, spread, shift, seed):
        rng = np.random.default_rng(seed)
        deficits = shift + 0.1 * rng.standard_normal((n, T))
        supply, cost = ideal_costs_batch(deficits, capacity, buy, buy - spread, VOLL)
        assert cost.tobytes() == kinked_cost_at(deficits, supply, capacity, buy,
                                                buy - spread).tobytes()
        for row, c in zip(deficits, cost):
            lp = linear_program_ideal(row, capacity, buy, buy - spread, VOLL)
            assert abs(c - lp) <= 1e-9 * VOLL

    @given(n=st.integers(1, 30), **kinked_inputs)
    @settings(max_examples=60, deadline=None)
    # 10,000 rows at T = 10: one search over all of them, at most 11 passes
    @example(n=10_000, T=10, capacity=0.05, buy=52.0, spread=12.0, shift=0.05, seed=7)
    def test_search_steps_bounded(self, n, T, capacity, buy, spread, shift, seed):
        # T + 2 linear pieces: at most T pieces lie strictly between the first ends
        passes = []

        def counted(*args):
            passes.append(1)
            return unserved_and_slope_batch(*args)

        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dispatch, "unserved_and_slope_batch", counted)
            ideal_costs_batch(shift + 0.1 * rng.standard_normal((n, T)), capacity, buy,
                              buy - spread, VOLL)
        assert 1 <= len(passes) <= T + 1

    def test_rows_on_both_sides_of_the_kink(self):
        rng = np.random.default_rng(5)
        T, capacity = 8, 0.05
        deficits = 0.1 * rng.standard_normal((300, T))
        # s = 0 is a kink of V(s) too: w falls from T to 0 there, so the
        # minimum sits exactly on it and the first tangent lines meet there
        deficits[:3] = 0.0
        supply, cost = ideal_costs_batch(deficits, capacity, 52.0, 40.0, VOLL)
        assert np.all(supply[:3] == 0.0)
        assert np.any(supply < 0.0) and np.any(supply > 0.0)
        # on either side the search stops where the one-price search would
        one_buy = ideal_costs_batch(deficits, capacity, 52.0, 52.0, VOLL)[1]
        one_sell = ideal_costs_batch(deficits, capacity, 40.0, 40.0, VOLL)[1]
        assert np.all(cost >= np.maximum(one_buy, one_sell) - 1e-12 * VOLL)
        np.testing.assert_allclose(cost, two_pass_ideal(deficits, capacity, 52.0, 40.0, VOLL),
                                   rtol=0.0, atol=1e-12 * VOLL)
        assert cost.tobytes() == kinked_cost_at(deficits, supply, capacity, 52.0,
                                                40.0).tobytes()
        for row, c in zip(deficits[::30], cost[::30]):
            assert abs(c - linear_program_ideal(row, capacity, 52.0, 40.0, VOLL)) <= 1e-9 * VOLL

    def test_no_sale_pays_below_minus_one(self):
        # every stage has a surplus of more than 1, so the first bracket's
        # upper end is the kink, where a sale at -5 only costs more.  The
        # last tangent lines meet at 0 up to rounding: some rows stop an
        # ulp or two to its left, on the linear piece that ends there.
        rng = np.random.default_rng(6)
        deficits = -1.0 - rng.uniform(0.01, 2.0, (50, 8))
        supply, cost = ideal_costs_batch(deficits, 0.05, 52.0, -5.0, VOLL)
        assert np.all((supply <= 0.0) & (supply >= -1e-15)) and np.any(supply == 0.0)
        np.testing.assert_array_equal(cost, -5.0 * (8 * supply))

    def test_sell_above_buy_rejected(self):
        with pytest.raises(ValueError, match="not convex"):
            ideal_costs_batch(np.zeros((2, 3)), 0.05, 40.0, 52.0, VOLL)


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
        _, ideal = ideal_costs_batch(deficits, scn.storage.capacity, 52.0, 52.0, VOLL)
        assert np.all(totals >= ideal - 1e-9)
