"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own report.
"""
import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import ndtri

from rld.benchmark import evaluate_policies, solve_schedule
from rld.ctapprox import (
    RbmParams,
    ct_terminal_cost,
    ct_terminal_subgradient,
    rbm_long_run,
)
from rld.dispatch import solve_thresholds_backward
from rld.lattice import closed_form_b0, lattice_terminal_cost, lattice_terminal_subgradient
from rld.model import StorageSpec
from rld.rng import run_generator
from rld.storage import delivery_costs_batch
from rld.walks import DiscreteStep
from conftest import constant_forecast, make_scenario
from oracles import simulate_reflected_walk

VOLL = 1000.0
SIGMA_TOTAL = math.sqrt(0.8) * 0.010   # delivery fluctuation std of the shipped scenario


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"[criterion {num:2d}] FAIL  {description}")
        raise
    print(f"[criterion {num:2d}] PASS  {description}")


@pytest.fixture(scope="module")
def vi():
    return make_scenario()


@pytest.fixture(scope="module")
def vi_schedules(vi):
    return {tag: solve_schedule(vi, tag, seed=0) for tag in ("3sigma", "lattice", "ct")}


def test_01_rbm_flow_balance():
    with criterion(1, "RBM flow balance |mu + v + q| < 1e-12 on a 10^3 grid"):
        t0 = time.perf_counter()
        mus = np.concatenate([np.linspace(-2.0, 2.0, 9), [0.0]])
        sigmas = np.linspace(0.2, 3.0, 10)
        barriers = np.linspace(0.1, 5.0, 10)
        worst = 0.0
        for mu, sig, bar in itertools.product(mus, sigmas, barriers):
            v, q = rbm_long_run(RbmParams(mu, sig, bar))
            worst = max(worst, abs(mu + v + q))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-12, worst
        assert elapsed < 1.0, elapsed


def test_02_rbm_vs_simulation():
    with criterion(2, "reflected-walk simulation within 2% of v_rate"):
        t0 = time.perf_counter()
        for mu, sig, bar in ((0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (-0.5, 2.0, 1.0)):
            params = RbmParams(mu, sig, bar)
            v_rate, _ = rbm_long_run(params)
            v_sim, _ = simulate_reflected_walk(
                params, 1e-3, 1_000_000, run_generator(38, 2026)
            )
            assert abs(v_sim / v_rate - 1.0) < 0.02, (mu, sig, bar, v_sim, v_rate)
        assert time.perf_counter() - t0 < 30.0


def _mc_grid_cases():
    for T in (2, 5, 10, 20):
        sig_stage = SIGMA_TOTAL / math.sqrt(T)
        fc = constant_forecast(T, 0.4 / T, sig_stage)
        for B in (0.001, 0.01):
            gen = run_generator(888, T * 1000 + int(B * 10_000))
            paths = 0.4 / T + sig_stage * gen.standard_normal((100_000, T))
            for k in (-2, -1, 0, 1, 2):
                yield T, fc, B, paths, 0.4 + k * SIGMA_TOTAL


def test_03_lattice_vs_monte_carlo():
    with criterion(3, "lattice terminal cost within 3 SE of a 1e5-path MC oracle"):
        t0 = time.perf_counter()
        for T, fc, B, paths, x_acc in _mc_grid_cases():
            cost = lattice_terminal_cost(x_acc, fc, B, VOLL)
            mc = delivery_costs_batch(paths, x_acc / T, StorageSpec(B), VOLL)
            se = mc.std(ddof=1) / math.sqrt(len(mc))
            assert abs(cost - mc.mean()) <= 3.0 * se, (T, B, x_acc)
        assert time.perf_counter() - t0 < 120.0


def test_04_subgradient_consistency():
    with criterion(4, "lattice subgradient: FD match < 1e-2 rel, bounds, monotone"):
        delta = 1e-3
        for T in (2, 5, 10, 20):
            sig_stage = SIGMA_TOTAL / math.sqrt(T)
            fc = constant_forecast(T, 0.4 / T, sig_stage)
            for B in (0.001, 0.01):
                grid = [0.4 + k * SIGMA_TOTAL for k in (-2, -1, 0, 1, 2)]
                grads = []
                for x_acc in grid:
                    g = lattice_terminal_subgradient(x_acc, fc, B, VOLL)
                    fd = (
                        lattice_terminal_cost(x_acc + delta, fc, B, VOLL)
                        - lattice_terminal_cost(x_acc - delta, fc, B, VOLL)
                    ) / (2 * delta)
                    assert abs(fd - g) / abs(g) < 1e-2, (T, B, x_acc)
                    assert -VOLL <= g <= 0.0
                    grads.append(g)
                assert all(b >= a for a, b in zip(grads, grads[1:]))


def test_05_closed_form_b0():
    with criterion(5, "B=0 closed form: lattice B->1e-6 limit and high-precision oracle"):
        import mpmath

        T, sig, d = 8, 0.004, 0.05
        fc = constant_forecast(T, d, sig)
        for x_acc in (0.35, 0.4, 0.45):
            cost0, _ = closed_form_b0(x_acc, fc, VOLL)
            cost_lat = lattice_terminal_cost(x_acc, fc, 1e-6, VOLL)
            assert abs(cost_lat - cost0) / cost0 < 1e-3, x_acc

        mpmath.mp.dps = 40
        for x_acc in (0.35, 0.42):
            cost0, grad0 = closed_form_b0(x_acc, fc, VOLL)
            x = mpmath.mpf(x_acc) / T
            pdf = lambda e: mpmath.exp(-e * e / (2 * sig * sig)) / (
                sig * mpmath.sqrt(2 * mpmath.pi)
            )
            one = mpmath.quad(lambda e: (d + e - x) * pdf(e), [x - d, 12 * sig])
            oracle = VOLL * T * one
            assert abs(cost0 - float(oracle)) / float(oracle) < 1e-10, x_acc


def test_06_brute_force_discrete():
    with criterion(6, "T=3, 9-atom errors: lattice equals exhaustive enumeration"):
        t0 = time.perf_counter()
        T, B, x = 3, 0.004, 0.05
        d = 0.045
        atoms = np.linspace(-2.2, 2.2, 9) * 0.006
        w = np.exp(-0.5 * (atoms / 0.006) ** 2)
        w /= w.sum()
        step = DiscreteStep(tuple(atoms), tuple(w))
        fc = constant_forecast(T, d, 0.0)
        cost = lattice_terminal_cost(T * x, fc, B, VOLL, error_steps=[step] * T)

        total = 0.0
        for combo in itertools.product(range(9), repeat=T):
            prob = w[list(combo)].prod()
            b = 0.0
            path = 0.0
            for t in range(T):
                deficit = d + atoms[combo[t]]
                path += max(deficit - x - b, 0.0)
                b = min(B, max(x - deficit + b, 0.0))
            total += prob * path
        assert abs(cost - VOLL * total) <= 1e-10, cost - VOLL * total
        assert time.perf_counter() - t0 < 10.0


def test_07_threshold_sanity(vi, vi_schedules):
    with criterion(7, "quantile threshold at B=0, T=1 and solver residuals < 1e-6 voll"):
        doc_curve = [[24, 0.2], [1, 0.12], [0.25, 0.1]]
        scn = make_scenario(T=1, B=0.0, d=0.4, curve=doc_curve)
        sched = solve_thresholds_backward(scn, "lattice")
        sigma_final = 0.1
        target = 0.4 + sigma_final * ndtri(1.0 - 72.0 / VOLL)
        assert abs(sched.thresholds[-1] / scn.T - target) < 1e-4

        for tag in ("lattice", "ct"):
            residuals = vi_schedules[tag].residuals
            assert np.all(residuals < 1e-6 * VOLL), (tag, residuals)


def test_08_policy_benchmark_directions(vi, vi_schedules):
    with criterion(8, "D sweep at B=0.001: 3sigma >= lattice, lattice optimal "
                      "within noise, per-path ideal dominance"):
        t0 = time.perf_counter()
        for d_total in np.arange(-0.8, 0.81, 0.2):
            point = vi.with_d_total(float(d_total))
            costs, ideal = evaluate_policies(point, vi_schedules, 2000, seed=0)
            for tag in ("3sigma", "lattice", "ct"):
                viol = int((costs[tag] < ideal - 1e-9).sum())
                assert viol == 0, (tag, d_total, viol)
            d3 = costs["3sigma"] - costs["lattice"]
            se3 = d3.std(ddof=1) / math.sqrt(len(d3))
            assert d3.mean() >= -3 * se3, ("3sigma vs lattice", d_total)
            dc = costs["ct"] - costs["lattice"]
            sec = dc.std(ddof=1) / math.sqrt(len(dc))
            assert dc.mean() >= -3 * sec, ("ct vs lattice", d_total)
        assert time.perf_counter() - t0 < 600.0


def test_09_ct_vs_discrete_directions(vi):
    with criterion(9, "ct overestimates at B=0.001, underestimates at B=0.01; "
                      "ct policy costs exceed lattice at both B extremes"):
        fc = vi.delivery_forecast()
        s2 = vi.delivery_fluctuation_variance
        m_total = vi.d_total
        offsets = np.linspace(-2 * SIGMA_TOTAL, 2 * SIGMA_TOTAL, 9)
        for off in offsets:
            x = m_total + off
            ct_small = ct_terminal_cost(x, m_total, s2, 0.001, VOLL)
            lat_small = lattice_terminal_cost(x, fc, 0.001, VOLL)
            assert ct_small > lat_small, ("B=0.001", off)
            ct_big = ct_terminal_cost(x, m_total, s2, 0.01, VOLL)
            lat_big = lattice_terminal_cost(x, fc, 0.01, VOLL)
            assert ct_big < lat_big, ("B=0.01", off)

        d_point = vi.with_d_total(0.4)
        for bcap in (1e-4, 1e-1):   # extremes of the log grid [1e-4, 1e-1]
            point = d_point.with_capacity(bcap)
            schedules = {
                tag: solve_schedule(point, tag, seed=0) for tag in ("lattice", "ct")
            }
            costs, _ = evaluate_policies(point, schedules, 600, seed=7)
            diff = costs["ct"] - costs["lattice"]
            se = diff.std(ddof=1) / math.sqrt(len(diff))
            assert diff.mean() > 3 * se, (bcap, diff.mean(), se)


def test_10_ct_scaling_invariance():
    with criterion(10, "ct cost invariant under (B, sigma^2) -> (aB, a sigma^2)"):
        B, s2 = 0.25, 0.125   # dyadic values keep the scaling exact in binary
        xs = np.linspace(-0.5, 1.5, 21)
        base_c = ct_terminal_cost(xs, 0.5, s2, B, VOLL)
        base_g = ct_terminal_subgradient(xs, 0.5, s2, B, VOLL)
        for alpha in (0.5, 2.0, 10.0):
            assert np.array_equal(base_c, ct_terminal_cost(xs, 0.5, alpha * s2, alpha * B, VOLL))
            assert np.array_equal(base_g, ct_terminal_subgradient(xs, 0.5, alpha * s2, alpha * B, VOLL))


def test_11_benchmark_determinism(tmp_path):
    with criterion(11, "identical seeds give byte-identical benchmark CSV"):
        from click.testing import CliRunner
        from rld.cli import main

        runner = CliRunner()
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            result = runner.invoke(main, [
                "benchmark", "--policy", "3sigma,ct", "--runs", "200",
                "--seed", "123", "--no-timing",
                "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
