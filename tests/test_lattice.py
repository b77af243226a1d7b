import itertools
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from rld import lattice
from rld.model import ForecastModel, StorageSpec, load_scenario
from rld.lattice import (
    _boundary_visits,
    _templates,
    build_lattice,
    closed_form_b0,
    lattice_terminal_cost,
    lattice_terminal_subgradient,
    solve_lattice,
)
from rld.storage import delivery_costs_batch
from rld.walks import DiscreteStep, NormalStep, as_steps
from conftest import constant_forecast
from oracles import lattice_chain_by_chain, truncated_walk_mean, walk_rectangle_prob

VOLL = 1000.0


def per_start_chains(fc, B, x):
    """One position's boundary chains: edges [side, start, j], templates
    [side, start, field (above, inside, below, above_moment), j] and the
    boundary visit probabilities q (empty) and r (full) of every level."""
    edges = build_lattice(fc, B, [x], per_start=True)
    tmpl = _templates(edges, B, as_steps(fc.sigma))
    q, r = _boundary_visits(tmpl)
    return edges[:, :, 0], tmpl[:, :, :, 0], q[0], r[0]


def level_states(tmpl, q, r, i):
    """(side, start, j, visit probability) of every lattice state at level i."""
    for side, start_probs in ((0, q), (1, r)):
        for s in range(i + 1):
            j = i - s
            carry = 1.0 if j == 0 else tmpl[side, s, 1, j - 1]
            yield side, s, j, start_probs[s] * carry


class TestBuildLattice:
    def test_single_stage_single_node(self):
        edges = build_lattice(constant_forecast(1, 0.3, 0.1), 0.5, [0.4], per_start=True)
        assert edges.shape == (2, 1, 1, 1)
        assert edges[0, 0, 0, 0] == pytest.approx(0.4 - 0.3)

    def test_level_sizes_grow_by_two(self):
        # level i holds the empty chains s <= i and the full chains 1 <= s <= i,
        # each state with a window of its own
        edges = build_lattice(constant_forecast(3, 0.1, 0.1), 0.5, [0.2], per_start=True)
        assert edges.shape == (2, 3, 1, 3)
        sizes = [len({edges[side, s, 0, i - s] for side in range(2) for s in range(side, i + 1)})
                 for i in range(3)]
        assert sizes == [1, 3, 5]

    def test_second_level_algebraic_forms(self):
        # level 1: empty boundary, interior, full boundary; each window's
        # upper edge is x minus the state's effective deficit
        d, x, B = 0.3, 0.4, 0.25
        fc = constant_forecast(2, d, 0.1)
        expect = [x - d, x - (d - (x - d)), x - (d - B)]
        per_start = build_lattice(fc, B, [x], per_start=True)[:, :, 0]
        assert np.allclose([per_start[0, 1, 0], per_start[0, 0, 1], per_start[1, 1, 0]], expect)
        shared = build_lattice(fc, B, [x], per_start=False)[:, 0, 0]
        assert shared.shape == (2, 2)
        assert np.allclose([shared[0, 0], shared[0, 1], shared[1, 0]], expect)

    def test_depths(self):
        # a state's depth (stages since its boundary ancestor) is its chain
        # position j, and its edge has gathered j + 1 stage margins
        x, d, B = 0.2, 0.1, 0.5
        edges = build_lattice(constant_forecast(3, d, 0.1), B, [x], per_start=True)[:, :, 0]
        level2 = [(0, 2), (0, 1), (0, 0), (1, 1), (1, 2)]   # (side, start), k = 1..5
        depths = [(edges[side, s, 2 - s] - side * B) / (x - d) - 1 for side, s in level2]
        assert np.allclose(depths, [0, 1, 2, 1, 0])

    def test_varied_profile_prefix_sums(self):
        d = np.array([0.1, 0.3, 0.2])
        fc = ForecastModel(3, d, np.full(3, 0.05))
        x, B = 0.25, 0.4
        edges = build_lattice(fc, B, [x], per_start=True)[:, :, 0]
        # interior node at level 2, k=2: d2 + d1 - x
        assert edges[0, 0, 1] == pytest.approx(x - (d[1] + d[0] - x))
        # deepest middle node at level 3: d3 + d2 + d1 - 2x
        assert edges[0, 0, 2] == pytest.approx(x - (d.sum() - 2 * x))
        # full-boundary nodes carry -B
        assert edges[1, 2, 0] == pytest.approx(x - (d[2] - B))

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            build_lattice(constant_forecast(2, 0.1, 0.1), 0.0, [0.1], per_start=True)


class TestProbabilities:
    def test_level_sums_and_conservation(self):
        _, tmpl, q, r = per_start_chains(constant_forecast(6, 0.05, 0.02), 0.03, 0.06)
        start = np.array([q, r])
        for i in range(6):
            total = 0.0
            for side, s, j, visit in level_states(tmpl, q, r, i):
                total += visit
                exits = start[side, s] * tmpl[side, s, :3, j].sum()
                assert abs(exits - visit) < 1e-8
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_root_splits_half_when_supply_matches(self):
        # huge capacity: lower bound unreachable, upper bound at the mean
        _, tmpl, _, _ = per_start_chains(constant_forecast(1, 0.5, 1.0), 1e9, 0.5)
        above, inside, below = tmpl[0, 0, :3, 0]
        assert above == pytest.approx(0.5, abs=1e-12)
        assert inside == pytest.approx(0.5, abs=1e-12)
        assert below == pytest.approx(0.0, abs=1e-15)

    def test_tiny_capacity_squeezes_middle(self):
        _, tmpl, _, _ = per_start_chains(constant_forecast(1, 0.5, 1.0), 1e-9, 0.5)
        above, inside, below = tmpl[0, 0, :3, 0]
        assert inside < 1e-9
        assert above + below == pytest.approx(1.0, abs=1e-8)

    def test_node_probs_match_chain_engine(self):
        # every state's exits, recomputed as a standalone scalar walk from
        # its boundary ancestor's visit probability
        B, sigma = 0.02, 0.015
        edges, tmpl, q, r = per_start_chains(constant_forecast(5, 0.04, sigma), B, 0.05)
        start = np.array([q, r])
        for i in (2, 3, 4):
            for side, s, j, visit in level_states(tmpl, q, r, i):
                highs = edges[side, s, :j + 1]
                oracle = [start[side, s] * walk_rectangle_prob([sigma] * (j + 1), highs - B,
                                                               highs, mode)
                          for mode in ("upper_tail", "interval", "lower_tail")]
                assert sum(oracle) == pytest.approx(visit, abs=1e-12)
                for field, p in enumerate(oracle):
                    assert start[side, s] * tmpl[side, s, field, j] == pytest.approx(p, abs=1e-12)

    def test_node_moments_match_truncated_walk_mean(self):
        B, sigma = 0.02, 0.015
        edges, tmpl, q, r = per_start_chains(constant_forecast(5, 0.04, sigma), B, 0.05)
        start = np.array([q, r])
        for side, s, j in ((0, 1, 1), (0, 1, 2), (0, 3, 1), (1, 1, 3)):
            if start[side, s] * tmpl[side, s, 0, j] < 1e-12:
                continue
            cond_mean = tmpl[side, s, 3, j] / tmpl[side, s, 0, j]
            highs = edges[side, s, :j + 1]
            oracle = truncated_walk_mean([sigma] * (j + 1), highs[:-1] - B, highs[:-1], highs[-1])
            assert cond_mean == pytest.approx(oracle, rel=1e-10)

    def test_cost_decomposes_over_left_exits(self):
        # each state contributes voll * (E[error; exit left] - edge * p_left)
        T, B, x = 4, 0.03, 0.06
        fc = constant_forecast(T, 0.05, 0.02)
        edges, tmpl, q, r = per_start_chains(fc, B, x)
        start = np.array([q, r])
        total = 0.0
        for i in range(T):
            for side, s, j, _ in level_states(tmpl, q, r, i):
                total += start[side, s] * (tmpl[side, s, 3, j] - edges[side, s, j] * tmpl[side, s, 0, j])
        assert lattice_terminal_cost(T * x, fc, B, VOLL) == pytest.approx(VOLL * total, rel=1e-12)

    def test_interior_probs_match_mc_frequencies(self):
        T, B, x = 2, 0.5, 0.45
        d, sig = 0.4, 0.5
        _, tmpl, q, r = per_start_chains(constant_forecast(T, d, sig), B, x)

        rng = np.random.default_rng(17)
        n = 100_000
        deficits = d + sig * rng.standard_normal((n, T))
        tol = 1e-12
        # classify the level-2 node: empty / interior / full after stage 1
        b1 = np.minimum(B, np.maximum(x - deficits[:, 0], 0.0))
        at_k1 = b1 <= tol
        at_k3 = b1 >= B - tol
        at_k2 = ~(at_k1 | at_k3)
        for p, mask in ((q[1], at_k1), (tmpl[0, 0, 1, 0], at_k2), (r[1], at_k3)):
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
        cost, grad = solve_lattice(build_lattice(fc, B, [x], per_start=True), B, steps, VOLL)
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

    def test_large_capacity_running_max_oracle(self):
        # with deep storage the total shortfall is the positive running
        # maximum of the cumulative supply deficit
        T, sig, d = 6, 0.05, 0.02
        fc = constant_forecast(T, d, sig)
        B = 10.0
        _, tmpl, q, r = per_start_chains(fc, B, d)
        right = np.array([q, r])[:, :, None] * tmpl[:, :, 2]
        assert right.max() < 1e-12   # the storage never fills
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

    def test_perturbed_profile_takes_per_start_chains(self, monkeypatch):
        T, D, sigma, B = 12, 0.4 / 60, 0.0011547, 1e-3
        fc = constant_forecast(T, D, sigma)
        near = ForecastModel(T, fc.d_hat * (1.0 + 1e-9 * np.sin(np.arange(T))), fc.sigma)
        x_acc = T * D + np.linspace(-0.004, 0.004, 5)
        layouts = []

        def spy(*args, **kwargs):
            edges = build_lattice(*args, **kwargs)
            layouts.append(edges.shape[1])
            return edges

        monkeypatch.setattr(lattice, "build_lattice", spy)
        cost = lattice_terminal_cost(x_acc, near, B, VOLL)
        grad = lattice_terminal_subgradient(x_acc, near, B, VOLL)
        assert set(layouts) == {T}
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
        # z = (edge - x) / sigma and its square overflow to inf, which is
        # already their limit; the suite turns each RuntimeWarning into an error
        scn = load_scenario(resources.files("rld") / "data" / "vi_scenario.json")
        fc = scn.delivery_forecast()
        expect = lattice_terminal_subgradient(fc.total_mean, fc, 1e100, VOLL)
        assert expect == pytest.approx(-499.70, abs=0.005)
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
    """Array positions share template walks; each must match its own chains."""

    T, D, SIGMA = 12, 0.4 / 60, 0.0011547

    def general(self, x_acc, B, fc):
        # one position at a time, every start level walking its own chain
        steps = [NormalStep(float(fc.sigma[0]))] * fc.n_stages
        sols = [solve_lattice(build_lattice(fc, B, [x / fc.n_stages], per_start=True),
                              B, steps, VOLL)
                for x in x_acc]
        return np.array([c[0] for c, _ in sols]), np.array([g[0] for _, g in sols])

    @pytest.mark.parametrize("B", [1e-4, 1e-3, 1e-2, 1e-1])
    def test_matches_per_point_chains(self, B):
        # B = 0.1 is wider than 12 sigma, so the walk grids grow step by step;
        # 19 positions span two blocks and reach deep into both saturated
        # tails, where the walks die at the first step
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

    def test_nonconstant_profile_broadcasts(self):
        fc = ForecastModel(3, np.array([0.02, 0.06, 0.01]), np.array([0.01, 0.02, 0.015]))
        x_acc = np.array([0.05, 0.09, 0.2])
        grads = lattice_terminal_subgradient(x_acc, fc, 0.02, VOLL)
        for x, g in zip(x_acc, grads):
            assert g == lattice_terminal_subgradient(float(x), fc, 0.02, VOLL)


class TestStageSweep:
    """Per-start chains advance together, one sweep over the stages per position block."""

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
        # a block of positions advances every running chain in one call per
        # stage, plus one call for the chains that start there
        fc = constant_forecast(self.T, self.D, self.SIGMA)
        if varied:
            shape = 1.0 + 0.3 * np.sin(2 * np.pi * np.arange(self.T) / self.T)
            fc = ForecastModel(self.T, fc.d_hat * shape, fc.sigma)
        calls, advance = [], lattice.advance

        def counting(*args, **kwargs):
            calls.append(args[1])
            return advance(*args, **kwargs)

        monkeypatch.setattr(lattice, "advance", counting)
        x_acc = self.T * self.D + np.linspace(-0.004, 0.004, lattice._BLOCK)
        lattice_terminal_cost(x_acc, fc, 1e-3, VOLL)
        assert 0 < len(calls) <= (2 if varied else 1) * self.T

    def test_discrete_step_after_gaussian_fails_before_walking(self, monkeypatch):
        fc = ForecastModel(3, np.array([0.02, 0.03, 0.02]), np.array([0.01, 0.0, 0.01]))
        monkeypatch.setattr(lattice, "advance", None)   # any walk would raise TypeError
        with pytest.raises(ValueError, match="delivery stage 1"):
            lattice_terminal_cost(0.06, fc, 0.01, VOLL)
        steps = [NormalStep(0.01), NormalStep(0.01), DiscreteStep((0.0,), (1.0,))]
        with pytest.raises(ValueError, match="delivery stage 2"):
            lattice_terminal_subgradient(0.06, fc, 0.01, VOLL, error_steps=steps)


class TestClosedFormB0:
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
