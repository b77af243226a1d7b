import itertools
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from rld import lattice, walks
from rld.model import ForecastModel, StorageSpec, load_scenario
from rld.lattice import (
    build_lattice,
    closed_form_b0,
    lattice_terminal_cost,
    lattice_terminal_subgradient,
    solve_lattice,
)
from rld.storage import delivery_costs_batch, subgradient_estimates_batch
from rld.walks import DiscreteStep, NormalStep, advance, as_steps, empty_storage
from conftest import constant_forecast
from oracles import (
    chain_boundary_visits,
    chain_exits,
    lattice_chain_by_chain,
    truncated_walk_mean,
    two_stage_reference,
    walk_rectangle_prob,
)

VOLL = 1000.0


def stage_laws(fc, B, x, steps=None):
    """The storage-level law after each stage at one per-stage supply x, with the
    stage's expected unserved energy and slope weight: [(unserved, weight, law)].
    The layout repeats the last stage once more, so the last law holds its density."""
    steps = as_steps(fc.sigma) if steps is None else steps
    longer = ForecastModel(fc.n_stages + 1, np.append(fc.d_hat, fc.d_hat[-1]),
                           np.append(fc.sigma, fc.sigma[-1]))
    layout = build_lattice(longer, B, [x], [*steps, steps[-1]])
    law, out = empty_storage(1), []
    for t in range(fc.n_stages):
        unserved, weight, law = advance(law, steps[t], layout.shifts[:, t], B, layout.width,
                                        int(layout.panels[t]))
        out.append((unserved[0], weight[0], law))
    return out


def masses(law):
    """(empty, inside, full) masses of a one-row law after a Gaussian stage."""
    return law.mass[0, 0, 0], law.nodes[0, 0].sum(), law.mass[0, 0, 1]


def deterministic(T, d):
    """Zero-std error steps: every stage is the deterministic Lindley step."""
    fc = ForecastModel(T, np.asarray(d, dtype=float) * np.ones(T), np.zeros(T))
    return fc, [DiscreteStep((0.0,), (1.0,))] * T


class TestBuildLattice:
    def test_single_stage_single_node(self):
        # B below one stage std: one panel of the whole capacity, reached at once;
        # no drawdown is still to come after the last stage, which lays out none
        layout = build_lattice(constant_forecast(2, 0.3, 0.1), 0.05, [0.4], [NormalStep(0.1)] * 2)
        assert layout.width == 0.05 and layout.panels.tolist() == [1, 0]
        assert layout.shifts.shape == (1, 2)
        assert layout.shifts[0, 0] == pytest.approx(0.4 - 0.3)

    def test_second_level_algebraic_forms(self):
        # after one deterministic stage the storage is empty, interior or full:
        # the level is x - d clipped to [0, B]
        d, B = 0.3, 0.25
        fc, steps = deterministic(2, d)
        for x, level in ((0.2, 0.0), (0.4, 0.1), (0.7, B)):
            law = stage_laws(fc, B, x, steps)[0][2]
            assert law.points[0].tolist() == pytest.approx([level])

    def test_depths(self):
        # a level's tangent E[beta; .] counts the stages since the storage last
        # pinned: x - d = 0.1 fills B = 0.25 in the third stage
        fc, steps = deterministic(4, 0.1)
        tangents = [law.mass[0, 1, 0] for _, _, law in stage_laws(fc, 0.25, 0.2, steps)]
        assert tangents == [1.0, 2.0, 0.0, 0.0]

    def test_varied_profile_prefix_sums(self):
        # deterministic levels are the clipped prefix sums of the margins x - d_t,
        # and the shortfalls their negative parts
        d = np.array([0.1, 0.3, 0.2])
        fc = ForecastModel(3, d, np.zeros(3))
        x, B = 0.25, 0.4
        laws = stage_laws(fc, B, x, as_steps(fc.sigma))
        assert [law.points[0, 0] for _, _, law in laws] == pytest.approx([0.15, 0.1, 0.15])
        fc2 = ForecastModel(3, np.array([0.1, 0.5, 0.2]), np.zeros(3))
        laws = stage_laws(fc2, B, x, as_steps(fc2.sigma))
        assert [law.points[0, 0] for _, _, law in laws] == pytest.approx([0.15, 0.0, 0.05])
        assert [u for u, _, _ in laws] == pytest.approx([0.0, 0.1, 0.0])

    def test_zero_capacity_lays_out_no_panels(self):
        # B = 0 holds no density: the width falls back to a stage std, and a
        # negative capacity is refused
        layout = build_lattice(constant_forecast(2, 0.1, 0.1), 0.0, [0.1], as_steps([0.1, 0.1]))
        assert layout.width == 0.1 and layout.panels.tolist() == [0, 0]
        steps = [DiscreteStep((-0.01, 0.01), (0.5, 0.5))] * 2
        assert build_lattice(constant_forecast(2, 0.1, 0.0), 0.0, [0.1], steps).panels.max() == 0
        with pytest.raises(ValueError, match="capacity"):
            build_lattice(constant_forecast(2, 0.1, 0.1), -1e-3, [0.1], as_steps([0.1, 0.1]))

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_rejects_positions_that_are_not_finite(self, x):
        with pytest.raises(ValueError, match="finite"):
            lattice_terminal_cost(x, constant_forecast(4, 0.05, 0.01), 0.01, VOLL)

    def test_rejects_a_layout_beyond_the_panel_budget(self, monkeypatch):
        # a position 1e300 above the mean fills B = 1e6 at once and never falls
        # short again, so it lays out only its noise's drawdown.  A position that
        # stores 3000 before a deficit of 6000 has a drawdown of 3e5 panels of one
        # stage std still to come: a clear error before any law array is
        # allocated, not an exhausted host
        fc = constant_forecast(4, 0.05, 0.01)
        got = lattice_terminal_subgradient(np.array([0.2, 1e300]), fc, 1e6, VOLL)
        assert abs(got[0] - lattice_terminal_subgradient(0.2, fc, 1e6, VOLL)) <= 1e-12 * VOLL
        assert got[1] == 0.0
        assert lattice_terminal_subgradient(1e300, fc, 0.01, VOLL) == 0.0
        monkeypatch.setattr(lattice, "empty_storage", None)   # any law would raise TypeError
        deep = ForecastModel(2, np.array([0.05, 6000.0]), np.full(2, 0.01))
        with pytest.raises(ValueError, match="panels"):
            lattice_terminal_subgradient(6000.0, deep, 1e6, VOLL)

    def test_mass_above_the_drawdown_to_come_lumps_at_b(self):
        # B = 40 stage stds over T = 30 stages at drifts of 0 to 2 stds: the
        # late stages lay out fewer panels than the reach, lumping the mass
        # above the drawdown still to come at B.  The cost and subgradient
        # match a pass that lays out all of [0, B] at every stage
        T, sigma, B = 30, 0.01, 0.4
        fc = constant_forecast(T, 0.05, sigma)
        x = 0.05 + sigma * np.array([0.0, 0.5, 2.0])
        layout = build_lattice(fc, B, x, as_steps(fc.sigma))
        top = round(B / layout.width)
        assert layout.panels[-2] < top
        law, stages = empty_storage(len(x)), []
        for t, step in enumerate(layout.steps):
            *out, law = advance(law, step, layout.shifts[:, t], B, layout.width, top)
            stages.append(out)
        unserved, weight = np.sum(stages, axis=0)
        cost, grad = solve_lattice(layout, VOLL)
        np.testing.assert_allclose(cost, VOLL * unserved, rtol=1e-14)
        np.testing.assert_allclose(grad, -VOLL / T * weight, rtol=1e-14)

    def test_rows_over_the_panel_budget_pass_in_blocks(self, monkeypatch):
        # a call over the budget solves its rows in blocks, each bit for bit
        # as in one pass
        T, B = 12, 1e6
        fc = constant_forecast(T, 0.05, 0.01)
        x_acc = T * 0.05 + np.linspace(-0.3, 0.3, 40)
        layout = build_lattice(fc, B, x_acc / T, as_steps(fc.sigma))
        whole = solve_lattice(layout, VOLL)
        monkeypatch.setattr(lattice, "_PANEL_ROWS", 3 * int(layout.panels.max()))
        for got, want in zip(solve_lattice(layout, VOLL), whole):
            np.testing.assert_array_equal(got, want)


class TestProbabilities:
    def test_level_sums_and_conservation(self):
        # the law's empty, inside and full masses sum to 1 after every stage
        for _, _, law in stage_laws(constant_forecast(6, 0.05, 0.02), 0.03, 0.06):
            assert sum(masses(law)) == pytest.approx(1.0, abs=1e-12)
            assert min(masses(law)) >= 0.0

    def test_root_splits_half_when_supply_matches(self):
        # huge capacity: the storage never fills, and half the mass falls short
        law = stage_laws(constant_forecast(1, 0.5, 1.0), 1e9, 0.5)[0][2]
        empty, inside, full = masses(law)
        assert empty == pytest.approx(0.5, abs=1e-12)
        assert inside == pytest.approx(0.5, abs=1e-12)
        assert full == pytest.approx(0.0, abs=1e-15)

    def test_tiny_capacity_squeezes_middle(self):
        empty, inside, full = masses(stage_laws(constant_forecast(1, 0.5, 1.0), 1e-9, 0.5)[0][2])
        assert inside < 1e-9
        assert empty + full == pytest.approx(1.0, abs=1e-8)

    def test_node_probs_match_chain_engine(self):
        # the law's atoms at 0 and B before stage i are the boundary visits of
        # the chain-by-chain renewal recursion, each chain its own scalar walk
        B, sigma, x = 0.02, 0.015, 0.05
        fc = constant_forecast(5, 0.04, sigma)
        visits = chain_boundary_visits(chain_exits(5 * x, fc, B), 5)
        laws = stage_laws(fc, B, x)
        for i in range(1, 5):
            empty, _, full = masses(laws[i - 1][2])
            assert empty == pytest.approx(visits[0, i], abs=1e-12)
            assert full == pytest.approx(visits[1, i], abs=1e-12)

    def test_node_moments_match_truncated_walk_mean(self):
        # stage 2's expected shortfall, state by state: from empty storage (a
        # normal loss), from full storage, and from every interior level, whose
        # chain exits above with the truncated walk mean of its errors
        B, sigma, d, x = 0.02, 0.015, 0.04, 0.05
        fc = constant_forecast(2, d, sigma)
        m = x - d
        loss = lambda mean: sigma * norm.pdf(mean / sigma) - mean * norm.cdf(-mean / sigma)
        p_empty = norm.cdf(-m / sigma)
        p_full = norm.sf((B - m) / sigma)
        above = walk_rectangle_prob([sigma] * 2, [m - B, 2 * m - B], [m, 2 * m], "upper_tail")
        mean = truncated_walk_mean([sigma] * 2, [m - B], [m], 2 * m)
        expected = p_empty * loss(m) + p_full * loss(B + m) + above * (mean - 2 * m)
        assert stage_laws(fc, B, x)[1][0] == pytest.approx(expected, rel=1e-10)

    def test_cost_decomposes_over_left_exits(self):
        # the cost is VOLL times the stages' expected unserved energy
        T, B, x = 4, 0.03, 0.06
        fc = constant_forecast(T, 0.05, 0.02)
        total = sum(u for u, _, _ in stage_laws(fc, B, x))
        assert lattice_terminal_cost(T * x, fc, B, VOLL) == pytest.approx(VOLL * total, rel=1e-12)

    def test_interior_probs_match_mc_frequencies(self):
        T, B, x = 2, 0.5, 0.45
        d, sig = 0.4, 0.5
        empty, inside, full = masses(stage_laws(constant_forecast(T, d, sig), B, x)[0][2])

        rng = np.random.default_rng(17)
        n = 100_000
        deficits = d + sig * rng.standard_normal((n, T))
        tol = 1e-12
        # classify the storage after stage 1: empty / interior / full
        b1 = np.minimum(B, np.maximum(x - deficits[:, 0], 0.0))
        at_k1 = b1 <= tol
        at_k3 = b1 >= B - tol
        at_k2 = ~(at_k1 | at_k3)
        for p, mask in ((empty, at_k1), (inside, at_k2), (full, at_k3)):
            freq = mask.mean()
            se = math.sqrt(max(freq * (1 - freq), 1e-12) / n)
            assert abs(freq - p) < 3 * se + 1e-9


class TestTerminalCost:
    def test_vanishes_with_abundant_supply(self):
        fc = constant_forecast(3, 0.05, 0.01)
        assert lattice_terminal_cost(3.0, fc, 0.5, VOLL) < 1e-8

    def test_tiny_capacity_newsvendor_limit(self):
        fc = constant_forecast(2, 0.0, 1.0)
        cost = lattice_terminal_cost(0.0, fc, 1e-8, VOLL)
        assert cost == pytest.approx(2 * VOLL / math.sqrt(2 * math.pi), rel=1e-3)

    def test_matches_monte_carlo(self):
        T, B = 5, 0.004
        sig, d = 0.008, 0.05
        fc = constant_forecast(T, d, sig)
        x_acc = T * d + 0.01
        cost = lattice_terminal_cost(x_acc, fc, B, VOLL)
        rng = np.random.default_rng(23)
        paths = d + sig * rng.standard_normal((200_000, T))
        mc = delivery_costs_batch(paths, x_acc / T, StorageSpec(B), VOLL)
        se = mc.std(ddof=1) / math.sqrt(len(mc))
        assert abs(cost - mc.mean()) < 3 * se

    def test_nonconstant_profile_matches_monte_carlo(self):
        T = 4
        d = np.array([0.02, 0.06, 0.01, 0.05])
        s = np.array([0.01, 0.02, 0.015, 0.012])
        fc = ForecastModel(T, d, s)
        B, x_acc = 0.02, 0.16
        cost = lattice_terminal_cost(x_acc, fc, B, VOLL)
        rng = np.random.default_rng(29)
        paths = d + s * rng.standard_normal((300_000, T))
        mc = delivery_costs_batch(paths, x_acc / T, StorageSpec(B), VOLL)
        se = mc.std(ddof=1) / math.sqrt(len(mc))
        assert abs(cost - mc.mean()) < 3 * se

    def test_fast_and_general_paths_agree(self):
        # explicit steps and per-start chains reproduce the shared template
        T, B, x = 7, 0.01, 0.033
        fc = constant_forecast(T, 0.03, 0.009)
        steps = [NormalStep(0.009)] * T
        for f in (lattice_terminal_cost, lattice_terminal_subgradient):
            assert f(T * x, fc, B, VOLL, error_steps=steps) == pytest.approx(
                f(T * x, fc, B, VOLL), rel=1e-12)
        cost, grad = solve_lattice(build_lattice(fc, B, [x], steps), VOLL)
        assert cost[0] == pytest.approx(lattice_terminal_cost(T * x, fc, B, VOLL), rel=1e-12)
        assert grad[0] == pytest.approx(lattice_terminal_subgradient(T * x, fc, B, VOLL),
                                        rel=1e-12)

    def test_discrete_errors_match_enumeration(self):
        T, B, x = 4, 0.015, 0.05
        d = 0.045
        atoms = np.linspace(-0.02, 0.02, 5)
        w = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        step = DiscreteStep(tuple(atoms), tuple(w))
        fc = constant_forecast(T, d, 0.0)
        cost = lattice_terminal_cost(T * x, fc, B, VOLL, error_steps=[step] * T)
        total = 0.0
        for combo in itertools.product(range(5), repeat=T):
            prob = np.prod(w[list(combo)])
            b = 0.0
            path = 0.0
            for t in range(T):
                deficit = d + atoms[combo[t]]
                path += max(deficit - x - b, 0.0)
                b = min(B, max(x - deficit + b, 0.0))
            total += prob * path
        assert cost == pytest.approx(VOLL * total, abs=1e-12)

    def test_discrete_steps_then_gaussian_match_monte_carlo(self):
        # enumerated levels after two discrete stages feed the first Gaussian
        # stage's density as per-row point sources
        T, B = 4, 0.02
        d = np.array([0.05, 0.04, 0.06, 0.05])
        fc = ForecastModel(T, d, np.full(T, 0.01))
        step = DiscreteStep((-0.02, 0.0, 0.015), (0.3, 0.5, 0.2))
        steps = [step, step, NormalStep(0.01), NormalStep(0.008)]
        rng = np.random.default_rng(3)
        errors = np.hstack([rng.choice(step.atoms, size=(200_000, 2), p=step.probs),
                            rng.standard_normal((200_000, 2)) * [0.01, 0.008]])
        for x_acc in (0.16, 0.2, 0.24):
            mc = delivery_costs_batch(d + errors, x_acc / T, StorageSpec(B), VOLL)
            cost = lattice_terminal_cost(x_acc, fc, B, VOLL, error_steps=steps)
            assert abs(cost - mc.mean()) < 3 * mc.std(ddof=1) / math.sqrt(len(mc))
            grads = subgradient_estimates_batch(d + errors, x_acc / T, StorageSpec(B), VOLL)
            grad = lattice_terminal_subgradient(x_acc, fc, B, VOLL, error_steps=steps)
            assert abs(grad - grads.mean()) < 3 * grads.std(ddof=1) / math.sqrt(len(grads))

    def test_large_capacity_running_max_oracle(self):
        # with deep storage the total shortfall is the positive running
        # maximum of the cumulative supply deficit
        T, sig, d = 6, 0.05, 0.02
        fc = constant_forecast(T, d, sig)
        B = 10.0
        full = [law.mass[0, 0, 1] for _, _, law in stage_laws(fc, B, d)]
        assert max(full) < 1e-12   # the storage never fills
        cost = lattice_terminal_cost(T * d, fc, B, VOLL)
        rng = np.random.default_rng(31)
        paths = d + sig * rng.standard_normal((300_000, T))
        walk = np.cumsum(paths - d, axis=1)
        oracle = VOLL * np.maximum(walk.max(axis=1), 0.0)
        se = oracle.std(ddof=1) / math.sqrt(len(oracle))
        assert abs(cost - oracle.mean()) < 3 * se

    def test_varied_profile_discrete_errors_match_enumeration(self):
        # every start level has its own template: an exact oracle for them
        T, B, x = 4, 0.015, 0.05
        d = np.array([0.045, 0.03, 0.06, 0.05])
        atoms = np.linspace(-0.02, 0.02, 5)
        w = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        step = DiscreteStep(tuple(atoms), tuple(w))
        fc = ForecastModel(T, d, np.zeros(T))
        cost = lattice_terminal_cost(T * x, fc, B, VOLL, error_steps=[step] * T)
        total = 0.0
        for combo in itertools.product(range(5), repeat=T):
            prob = np.prod(w[list(combo)])
            b = 0.0
            path = 0.0
            for t in range(T):
                deficit = d[t] + atoms[combo[t]]
                path += max(deficit - x - b, 0.0)
                b = min(B, max(x - deficit + b, 0.0))
            total += prob * path
        assert cost == pytest.approx(VOLL * total, abs=1e-12)

    @pytest.mark.parametrize("B", [0.0, 0.015])
    def test_discrete_errors_match_the_storage_kernel_on_every_path(self, B):
        # every one of the 5**4 error paths through the storage kernel, weighed
        # by its probability, at no storage too
        T, x = 4, 0.0513
        d = np.array([0.045, 0.03, 0.06, 0.05])
        atoms, w = np.linspace(-0.02, 0.02, 5), np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        steps = [DiscreteStep(tuple(atoms), tuple(w))] * T
        fc = ForecastModel(T, d, np.zeros(T))
        combos = np.array(list(itertools.product(range(5), repeat=T)))
        prob, paths = w[combos].prod(axis=1), d + atoms[combos]
        cost = prob @ delivery_costs_batch(paths, x, StorageSpec(B), VOLL)
        grad = prob @ subgradient_estimates_batch(paths, x, StorageSpec(B), VOLL)
        assert lattice_terminal_cost(T * x, fc, B, VOLL, error_steps=steps) == pytest.approx(
            cost, rel=0.0, abs=1e-12 * VOLL)
        assert lattice_terminal_subgradient(T * x, fc, B, VOLL, error_steps=steps) == (
            pytest.approx(grad, rel=0.0, abs=1e-12 * VOLL))

    def test_grid_errors_merge_equal_levels(self):
        # five grid atoms over T = 20 stages: the law merges equal levels, so a
        # row holds at most B / unit + 1 of them, not 5**20 paths.  A dynamic
        # program over the integer levels is the oracle for the cost, and its
        # difference quotient for the subgradient: dyadic values keep every
        # level exact, and a step of 1/T of the level grid passes no tie.
        T, unit = 20, 2.0 ** -17
        atoms, probs = 32 * np.array([-80, -40, 0, 40, 80]), (0.1, 0.2, 0.4, 0.2, 0.1)
        d, cap = 32 * 180, 32 * 60
        steps = [DiscreteStep(tuple(atoms * unit), probs)] * T
        fc = constant_forecast(T, d * unit, 0.0)

        def cost(x):   # per-stage supply x in units
            law, total = np.eye(cap + 1)[0], 0.0
            for _ in range(T):
                nxt = np.zeros(cap + 1)
                for a, q in zip(atoms, probs):
                    z = np.arange(cap + 1) + x - d - a
                    total += q * law @ np.maximum(-z, 0)
                    np.add.at(nxt, np.clip(z, 0, cap), q * law)
                law = nxt
            return VOLL * unit * total

        for x in (32 * 170, 32 * 180, 32 * 190):
            laws = stage_laws(fc, cap * unit, x * unit, steps)
            assert max(law.points.shape[1] for _, _, law in laws) <= cap + 1
            at, right = cost(x), cost(x + 1)
            assert lattice_terminal_cost(T * x * unit, fc, cap * unit, VOLL,
                                         error_steps=steps) == pytest.approx(at, rel=1e-13)
            grad = lattice_terminal_subgradient(T * x * unit, fc, cap * unit, VOLL,
                                                error_steps=steps)
            assert grad == pytest.approx((right - at) / (T * unit), abs=1e-12 * VOLL)

    def test_discrete_positions_batch_bitwise(self):
        # 20 positions span two row blocks; each row sums like a walk of its own
        T, B = 5, 0.015
        step = DiscreteStep((-0.02, -0.01, 0.0, 0.01, 0.02), (0.1, 0.2, 0.4, 0.2, 0.1))
        fc = constant_forecast(T, 0.045, 0.0)
        x_acc = T * np.linspace(0.03, 0.07, 20)
        for f in (lattice_terminal_cost, lattice_terminal_subgradient):
            batch = f(x_acc, fc, B, VOLL, error_steps=[step] * T)
            single = [f(float(x), fc, B, VOLL, error_steps=[step] * T) for x in x_acc]
            np.testing.assert_array_equal(batch, single)

    def test_perturbed_profile_takes_per_start_chains(self):
        # every stage takes its own drift, so a profile perturbed by 1e-9 moves
        # the results by about as much
        T, D, sigma, B = 12, 0.4 / 60, 0.0011547, 1e-3
        fc = constant_forecast(T, D, sigma)
        near = ForecastModel(T, fc.d_hat * (1.0 + 1e-9 * np.sin(np.arange(T))), fc.sigma)
        x_acc = T * D + np.linspace(-0.004, 0.004, 5)
        cost = lattice_terminal_cost(x_acc, near, B, VOLL)
        grad = lattice_terminal_subgradient(x_acc, near, B, VOLL)
        np.testing.assert_allclose(cost, lattice_terminal_cost(x_acc, fc, B, VOLL), rtol=3e-9)
        np.testing.assert_allclose(grad, lattice_terminal_subgradient(x_acc, fc, B, VOLL),
                                   rtol=3e-9)


class TestSubgradient:
    def test_bounds_and_monotonicity(self):
        fc = constant_forecast(5, 0.05, 0.01)
        grid = np.linspace(0.1, 0.45, 9)
        vals = [lattice_terminal_subgradient(x, fc, 0.01, VOLL) for x in grid]
        assert all(-VOLL <= v <= 0.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_nondecreasing_across_the_shipped_scenario(self):
        # far-short positions push walks into windows beyond the walks' SPAN
        # stds; a walk dropped there while it still held mass made the
        # subgradient fall by 3e-5 * VOLL from -6.0 to -5.9 scales
        scn = load_scenario(resources.files("rld") / "data" / "vi_scenario.json")
        fc = scn.delivery_forecast()
        scale = math.sqrt(scn.T * scn.delivery_fluctuation_variance)
        u = np.arange(-90, 91) / 10.0
        vals = lattice_terminal_subgradient(u * scale + fc.total_mean, fc,
                                            scn.storage.capacity, scn.cost.voll)
        assert np.all(np.diff(vals) >= 0.0)

    @pytest.mark.parametrize("B", [1e200, 1e300, 1e308])
    def test_huge_capacity_is_its_finite_limit(self, B):
        # z = (level - B) / sigma and its square overflow to inf, which is
        # already their limit; the suite turns each RuntimeWarning into an error.
        # Storage that never fills leaves the shortfall max_k (sum_{s<=k} d_s - k x)^+,
        # whose x-derivative is minus its argmax k; with supply at the mean the
        # walk is symmetric, k and T - k share one law, and the subgradient is
        # -VOLL / T * E[k] = -VOLL / 2 exactly
        scn = load_scenario(resources.files("rld") / "data" / "vi_scenario.json")
        fc = scn.delivery_forecast()
        expect = lattice_terminal_subgradient(fc.total_mean, fc, 1e100, VOLL)
        assert expect == pytest.approx(-500.0, abs=0.005)
        got = lattice_terminal_subgradient(fc.total_mean, fc, B, VOLL)
        assert abs(got - expect) <= 1e-9 * VOLL

    def test_saturates_at_extremes(self):
        fc = constant_forecast(4, 0.05, 0.01)
        assert lattice_terminal_subgradient(-50.0, fc, 0.01, VOLL) == pytest.approx(-VOLL)
        assert lattice_terminal_subgradient(50.0, fc, 0.01, VOLL) == pytest.approx(0.0, abs=1e-9)

    def test_matches_finite_difference(self):
        fc = constant_forecast(6, 0.04, 0.012)
        B, x = 0.01, 0.26
        g = lattice_terminal_subgradient(x, fc, B, VOLL)
        delta = 1e-3
        fd = (
            lattice_terminal_cost(x + delta, fc, B, VOLL)
            - lattice_terminal_cost(x - delta, fc, B, VOLL)
        ) / (2 * delta)
        assert fd == pytest.approx(g, rel=1e-2)


class TestBatchedPositions:
    """Array positions share one node layout; each must match its own law."""

    T, D, SIGMA = 12, 0.4 / 60, 0.0011547

    def general(self, x_acc, B, fc):
        # one position at a time, on the node layout of its own reach
        steps = [NormalStep(float(fc.sigma[0]))] * fc.n_stages
        sols = [solve_lattice(build_lattice(fc, B, [x / fc.n_stages], steps), VOLL)
                for x in x_acc]
        return np.array([c[0] for c, _ in sols]), np.array([g[0] for _, g in sols])

    @pytest.mark.parametrize("B", [1e-4, 1e-3, 1e-2, 1e-1])
    def test_matches_per_point_chains(self, B):
        # B = 0.1 is wider than 12 sigma, so the density's reach grows stage by
        # stage; 19 positions reach deep into both saturated tails, where a
        # position alone lays out far fewer panels than the batch
        fc = constant_forecast(self.T, self.D, self.SIGMA)
        w = np.concatenate([np.linspace(-0.05, 0.05, 15), [-1.0, -0.2, 0.2, 1.0]])
        x_acc = self.T * self.D + w + 0.5 * self.T * B * (w > 0)
        cost, grad = self.general(x_acc, B, fc)
        np.testing.assert_allclose(lattice_terminal_cost(x_acc, fc, B, VOLL), cost,
                                   rtol=1e-12, atol=1e-12 * VOLL)
        np.testing.assert_allclose(lattice_terminal_subgradient(x_acc, fc, B, VOLL), grad,
                                   rtol=1e-12, atol=1e-12 * VOLL)

    def test_single_stage_is_the_newsvendor(self):
        fc = constant_forecast(1, 0.3, 0.1)
        x_acc = np.linspace(-0.2, 0.8, 11)
        cost, grad = closed_form_b0(x_acc, fc, VOLL)
        np.testing.assert_allclose(lattice_terminal_cost(x_acc, fc, 0.05, VOLL), cost,
                                   rtol=1e-12, atol=1e-12 * VOLL)
        np.testing.assert_allclose(lattice_terminal_subgradient(x_acc, fc, 0.05, VOLL), grad,
                                   rtol=1e-12, atol=1e-12 * VOLL)
        np.testing.assert_allclose(self.general(x_acc, 0.05, fc)[1], grad,
                                   rtol=1e-12, atol=1e-12 * VOLL)

    def test_scalar_in_float_out_and_shape_kept(self):
        fc = constant_forecast(self.T, self.D, self.SIGMA)
        x = self.T * self.D
        g = lattice_terminal_subgradient(x, fc, 1e-3, VOLL)
        c = lattice_terminal_cost(np.float64(x), fc, 1e-3, VOLL)
        assert type(g) is float and type(c) is float
        grid = np.full((2, 3), x)
        assert lattice_terminal_subgradient(grid, fc, 1e-3, VOLL).shape == (2, 3)
        np.testing.assert_allclose(lattice_terminal_cost(grid, fc, 1e-3, VOLL), c, rtol=1e-14)
        assert lattice_terminal_cost(np.empty((0, 2)), fc, 1e-3, VOLL).shape == (0, 2)

    def test_nonconstant_profile_broadcasts(self):
        fc = ForecastModel(3, np.array([0.02, 0.06, 0.01]), np.array([0.01, 0.02, 0.015]))
        x_acc = np.array([0.05, 0.09, 0.2])
        grads = lattice_terminal_subgradient(x_acc, fc, 0.02, VOLL)
        for x, g in zip(x_acc, grads):
            assert g == lattice_terminal_subgradient(float(x), fc, 0.02, VOLL)


class TestTwoStageReference:
    """T = 2 against a 30-digit reference that shares no code with the engine."""

    SIGMA = 1.155e-3

    @pytest.mark.parametrize("B", [1e-4, 1e-3, 0.1, 10.0])
    def test_matches_mpmath(self, B):
        fc = ForecastModel(2, np.array([0.4, 0.45]) / 60, self.SIGMA * np.array([1.0, 0.8]))
        x_acc = fc.total_mean + 2 * self.SIGMA * np.array([-2.0, 0.5, 3.0])
        cost = lattice_terminal_cost(x_acc, fc, B, VOLL)
        grad = lattice_terminal_subgradient(x_acc, fc, B, VOLL)
        ref = np.array([two_stage_reference(x, fc, B, VOLL) for x in x_acc])
        np.testing.assert_allclose(cost, ref[:, 0], rtol=0.0, atol=1e-13 * VOLL)
        np.testing.assert_allclose(grad, ref[:, 1], rtol=0.0, atol=1e-13 * VOLL)


class TestStageSweep:
    """Every position advances together, one forward pass over the stages."""

    T, D, SIGMA = 12, 0.4 / 60, 0.0011547

    @given(T=st.integers(1, 6), data=st.data(), B=st.sampled_from([1e-4, 1e-3, 0.1]))
    @settings(max_examples=8, deadline=None)
    def test_matches_chain_by_chain_oracle(self, T, data, B):
        profile = st.lists(st.floats(0.5, 1.5), min_size=T, max_size=T).map(np.array)
        sigma = 0.01 * data.draw(profile)
        fc = ForecastModel(T, 0.04 * data.draw(profile), sigma)
        # 14 positions within 3 interval stds and 4 deep tails, where every
        # chain's first window holds less than 1e-20 of its mass: two blocks
        w = np.linspace(-3.0, 3.0, 14) * math.sqrt(T * np.sum(sigma ** 2))
        x = np.concatenate([fc.d_hat.mean() + w / T + 0.5 * B * (w > 0),
                            fc.d_hat.min() - B - 12 * sigma.max() - [0.0, 1.0],
                            fc.d_hat.max() + B + 12 * sigma.max() + [0.0, 1.0]])
        cost = lattice_terminal_cost(T * x, fc, B, VOLL)
        grad = lattice_terminal_subgradient(T * x, fc, B, VOLL)
        oracle = np.array([lattice_chain_by_chain(T * xi, fc, B, VOLL) for xi in x])
        np.testing.assert_allclose(cost, oracle[:, 0], rtol=1e-12, atol=3e-15 * VOLL)
        np.testing.assert_allclose(grad, oracle[:, 1], rtol=1e-12, atol=3e-15 * VOLL)

    @pytest.mark.parametrize("varied", [False, True])
    def test_one_advance_per_stage_and_birth(self, monkeypatch, varied):
        # every position advances in one call per stage, on a constant or a
        # varied profile alike
        fc = constant_forecast(self.T, self.D, self.SIGMA)
        if varied:
            shape = 1.0 + 0.3 * np.sin(2 * np.pi * np.arange(self.T) / self.T)
            fc = ForecastModel(self.T, fc.d_hat * shape, fc.sigma)
        calls, advance = [], lattice.advance

        def counting(*args, **kwargs):
            calls.append(args[1])
            return advance(*args, **kwargs)

        monkeypatch.setattr(lattice, "advance", counting)
        x_acc = self.T * self.D + np.linspace(-0.004, 0.004, 16)
        lattice_terminal_cost(x_acc, fc, 1e-3, VOLL)
        assert len(calls) == self.T

    def test_discrete_step_after_gaussian_fails_before_walking(self, monkeypatch):
        fc = ForecastModel(3, np.array([0.02, 0.03, 0.02]), np.array([0.01, 0.0, 0.01]))
        monkeypatch.setattr(lattice, "advance", None)   # any walk would raise TypeError
        with pytest.raises(ValueError, match="delivery stage 1"):
            lattice_terminal_cost(0.06, fc, 0.01, VOLL)
        steps = [NormalStep(0.01), NormalStep(0.01), DiscreteStep((0.0,), (1.0,))]
        with pytest.raises(ValueError, match="delivery stage 2"):
            lattice_terminal_subgradient(0.06, fc, 0.01, VOLL, error_steps=steps)


class TestStageOperatorMemo:
    """A forward pass builds a Gaussian stage's operator (everything but the law's
    masses) once, and reuses it while a stage repeats the previous stage's arguments."""

    T, D, SIGMA = 12, 0.4 / 60, 0.0011547

    def forecast(self, profile):
        fc = constant_forecast(self.T, self.D, self.SIGMA)
        if profile == "sine":
            shape = 1.0 + 0.3 * np.sin(2 * np.pi * np.arange(self.T) / self.T)
            fc = ForecastModel(self.T, fc.d_hat * shape, fc.sigma)
        return fc

    def positions(self):
        return self.T * self.D + np.linspace(-6.0, 6.0, 25) * self.SIGMA * math.sqrt(self.T)

    @pytest.mark.parametrize("prefix", [0, 2], ids=["gaussian", "discrete-prefix"])
    @pytest.mark.parametrize("B", [0.0, 1e-3, 1e-2, 0.1])
    @pytest.mark.parametrize("profile", ["flat", "sine"])
    def test_memo_matches_a_fresh_operator_bit_for_bit(self, monkeypatch, profile, B, prefix):
        # every stage of a solve, memo hit or miss, equals the stage built afresh;
        # at B = 0.1 the panel count changes from stage to stage, where a memo
        # keyed on too little would hit stale and differ
        fc, sigma = self.forecast(profile), self.SIGMA
        steps = ([DiscreteStep((-sigma, 0.0, sigma), (0.25, 0.5, 0.25))] * prefix
                 + [NormalStep(sigma)] * (self.T - prefix))
        panels = []

        def checked(law, step, shift, capacity, width, n, memo):
            got = advance(law, step, shift, capacity, width, n, memo)
            fresh = advance(law, step, shift, capacity, width, n, None)
            for a, b in zip([*got[:2], got[2].points, got[2].mass, got[2].nodes],
                            [*fresh[:2], fresh[2].points, fresh[2].mass, fresh[2].nodes]):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            panels.append(n)
            return got

        monkeypatch.setattr(lattice, "advance", checked)
        lattice_terminal_cost(self.positions(), fc, B, VOLL, error_steps=steps)
        assert len(panels) == self.T
        if B == 0.1:
            assert len(set(panels[prefix:-1])) > 3, panels

    @pytest.mark.parametrize("profile", ["flat", "sine"])
    def test_operator_is_rebuilt_only_when_the_stage_changes(self, monkeypatch, profile):
        # each build calls ndtr twice (the short and the full fractions): a flat
        # profile builds at the first stage and at each change of (source panels,
        # panels), a varied one at every stage
        fc = self.forecast(profile)
        layout = build_lattice(fc, 1e-3, self.positions() / self.T, as_steps(fc.sigma))
        calls, ndtr = [], walks.ndtr
        monkeypatch.setattr(walks, "ndtr", lambda x: calls.append(x.shape) or ndtr(x))
        solve_lattice(layout, VOLL)
        assert len(calls) % 2 == 0
        builds = len(calls) // 2
        if profile == "sine":
            assert builds == self.T
        else:
            pairs = list(zip([0, *layout.panels[:-1]], layout.panels))
            assert builds == 1 + sum(a != b for a, b in zip(pairs, pairs[1:]))
            assert builds <= 3

    @pytest.mark.parametrize("B", [0.1, 1.0])
    def test_memory_per_position_panel(self, B):
        # lattice._PANEL_ROWS budgets about 1.5 KB per position-panel; the
        # memo holds one stage operator, not a block of them
        import tracemalloc

        fc, x = self.forecast("flat"), self.positions()
        layout = build_lattice(fc, B, x / self.T, as_steps(fc.sigma))
        tracemalloc.start()
        try:
            solve_lattice(layout, VOLL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_pair = peak / (x.size * layout.panels.max())
        assert layout.panels.max() > 30 and per_pair < 2048, per_pair


class TestPinFractionCut:
    """A source beyond CUT step stds of the short or the full barrier pins exactly none
    or all of its mass there: Phi(-CUT) = 1.1e-19."""

    T, D, SIGMA = 12, 0.4 / 60, 0.0011547

    @pytest.mark.parametrize("B", [1e-2, 0.1, 1.0])
    def test_cut_moves_cost_and_subgradient_by_under_1e_15_voll(self, monkeypatch, B):
        # positions over the terminal model's grid, 9 scales (T stage stds) either side
        fc = constant_forecast(self.T, self.D, self.SIGMA)
        x = self.T * self.D + np.linspace(-9.0, 9.0, 37) * self.T * self.SIGMA
        sizes, ndtr = [], walks.ndtr
        monkeypatch.setattr(walks, "ndtr", lambda z: sizes.append(z.size) or ndtr(z))
        cut = lattice.solve_lattice(build_lattice(fc, B, x / self.T, as_steps(fc.sigma)), VOLL)
        cut_sizes = sum(sizes)
        sizes.clear()
        monkeypatch.setattr(walks, "_cut_ndtr", lambda z: walks.ndtr(z))
        full = lattice.solve_lattice(build_lattice(fc, B, x / self.T, as_steps(fc.sigma)), VOLL)
        assert cut_sizes < sum(sizes), (cut_sizes, sum(sizes))   # the cut skips sources
        for a, b in zip(cut, full):
            assert np.max(np.abs(a - b)) <= 1e-15 * VOLL


class TestClosedFormB0:
    @given(T=st.integers(1, 8), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_lattice_at_zero_capacity_is_the_closed_form(self, T, data):
        # B = 0 holds nothing: every stage pins all its mass, and the forward
        # pass sums one newsvendor term per stage, a zero-std stage anywhere
        floats = lambda lo, hi, n: st.lists(st.floats(lo, hi), min_size=n, max_size=n)
        sigma = data.draw(st.lists(st.sampled_from([0.0, 0.003, 0.01, 0.02]),
                                   min_size=T, max_size=T))
        fc = ForecastModel(T, np.array(data.draw(floats(0.0, 0.1, T))), np.array(sigma))
        x_acc = T * np.array(data.draw(floats(-0.05, 0.15, data.draw(st.integers(1, 6)))))
        cost, grad = closed_form_b0(x_acc, fc, VOLL)
        np.testing.assert_allclose(lattice_terminal_cost(x_acc, fc, 0.0, VOLL), cost,
                                   rtol=0.0, atol=1e-12 * VOLL)
        np.testing.assert_allclose(lattice_terminal_subgradient(x_acc, fc, 0.0, VOLL), grad,
                                   rtol=0.0, atol=1e-12 * VOLL)

    def test_single_standard_normal_stage(self):
        fc = constant_forecast(1, 0.0, 1.0)
        cost, grad = closed_form_b0(0.0, fc, VOLL)
        assert cost == pytest.approx(VOLL / math.sqrt(2 * math.pi), rel=1e-12)
        assert grad == pytest.approx(-VOLL / 2, rel=1e-12)

    def test_abundant_supply(self):
        fc = constant_forecast(3, 0.0, 1.0)
        cost, grad = closed_form_b0(100.0, fc, VOLL)
        assert cost == pytest.approx(0.0, abs=1e-8)
        assert grad == pytest.approx(0.0, abs=1e-10)

    def test_symmetric_point_gives_half_voll(self):
        fc = constant_forecast(4, 0.2, 0.05)
        _, grad = closed_form_b0(0.8, fc, VOLL)
        assert grad == pytest.approx(-VOLL / 2, rel=1e-12)

    def test_quadrature_oracle(self):
        from scipy.integrate import quad

        fc = ForecastModel(2, np.array([0.1, 0.3]), np.array([0.2, 0.4]))
        x_acc = 0.5
        cost, grad = closed_form_b0(x_acc, fc, VOLL)
        x = x_acc / 2
        oracle = sum(
            quad(lambda e, dt=dt, st=st_: max(dt + e - x, 0.0) * norm.pdf(e, scale=st),
                 -10 * st_, 10 * st_, limit=200)[0]
            for dt, st_ in zip(fc.d_hat, fc.sigma)
        )
        assert cost == pytest.approx(VOLL * oracle, rel=1e-9)

    def test_hard_newsvendor_limit(self):
        fc = ForecastModel(2, np.array([0.3, 0.1]), np.zeros(2))
        cost, grad = closed_form_b0(0.4, fc, VOLL)
        assert cost == pytest.approx(VOLL * 0.1)  # only the 0.3 stage falls short
        assert grad == pytest.approx(-VOLL / 2)

    def test_vectorized_over_positions(self):
        fc = constant_forecast(3, 0.1, 0.05)
        xs = np.array([0.1, 0.3, 0.5])
        costs, grads = closed_form_b0(xs, fc, VOLL)
        for x, c, g in zip(xs, costs, grads):
            cs, gs = closed_form_b0(float(x), fc, VOLL)
            assert c == pytest.approx(cs) and g == pytest.approx(gs)
