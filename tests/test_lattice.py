import itertools
import math

import numpy as np
import pytest
from scipy.stats import norm

from rld.model import ForecastModel, StorageSpec
from rld.lattice import (
    build_lattice,
    closed_form_b0,
    dump_lattice_csv,
    lattice_terminal_cost,
    lattice_terminal_subgradient,
    node_transition_probs,
    solve_lattice,
)
from rld.storage import delivery_costs_batch
from rld.walks import DiscreteStep, NormalStep

VOLL = 1000.0


def constant_forecast(T, d, sigma):
    return ForecastModel.constant(T, d, sigma)


class TestBuildLattice:
    def test_single_stage_single_node(self):
        lat = build_lattice(constant_forecast(1, 0.3, 0.1), 0.5, 0.4)
        assert lat.level_size(0) == 1
        assert lat.d_eff[0][0] == pytest.approx(0.3)
        assert lat.depth[0][0] == 0

    def test_level_sizes_grow_by_two(self):
        lat = build_lattice(constant_forecast(3, 0.1, 0.1), 0.5, 0.2)
        assert [len(v) for v in lat.d_eff] == [1, 3, 5]

    def test_second_level_algebraic_forms(self):
        d, x, B = 0.3, 0.4, 0.25
        lat = build_lattice(constant_forecast(2, d, 0.1), B, x)
        expect = [d, d - (x - d), d - B]
        assert np.allclose(lat.d_eff[1], expect)

    def test_depths(self):
        lat = build_lattice(constant_forecast(3, 0.1, 0.1), 0.5, 0.2)
        assert list(lat.depth[2]) == [0, 1, 2, 1, 0]

    def test_varied_profile_prefix_sums(self):
        d = np.array([0.1, 0.3, 0.2])
        fc = ForecastModel(3, d, np.full(3, 0.05))
        x, B = 0.25, 0.4
        lat = build_lattice(fc, B, x)
        # interior node at level 2, k=2: d2 + d1 - x
        assert lat.d_eff[1][1] == pytest.approx(d[1] + d[0] - x)
        # deepest middle node at level 3: d3 + d2 + d1 - 2x
        assert lat.d_eff[2][2] == pytest.approx(d.sum() - 2 * x)
        # full-boundary nodes carry -B
        assert lat.d_eff[2][4] == pytest.approx(d[2] - B)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            build_lattice(constant_forecast(2, 0.1, 0.1), 0.0, 0.1)


class TestProbabilities:
    def test_level_sums_and_conservation(self):
        fc = constant_forecast(6, 0.05, 0.02)
        sol = solve_lattice(build_lattice(fc, 0.03, 0.06), VOLL)
        for i in range(6):
            assert sol.visit[i].sum() == pytest.approx(1.0, abs=1e-12)
            total = sol.left[i] + sol.mid[i] + sol.right[i]
            assert np.max(np.abs(total - sol.visit[i])) < 1e-8

    def test_root_splits_half_when_supply_matches(self):
        # huge capacity: lower bound unreachable, upper bound at the mean
        fc = constant_forecast(1, 0.5, 1.0)
        sol = solve_lattice(build_lattice(fc, 1e9, 0.5), VOLL)
        probs = node_transition_probs(sol, 0, 1)
        assert probs.left == pytest.approx(0.5, abs=1e-12)
        assert probs.mid == pytest.approx(0.5, abs=1e-12)
        assert probs.right == pytest.approx(0.0, abs=1e-15)

    def test_tiny_capacity_squeezes_middle(self):
        fc = constant_forecast(1, 0.5, 1.0)
        sol = solve_lattice(build_lattice(fc, 1e-9, 0.5), VOLL)
        probs = node_transition_probs(sol, 0, 1)
        assert probs.mid < 1e-9
        assert probs.left + probs.right == pytest.approx(1.0, abs=1e-8)

    def test_node_probs_match_chain_engine(self):
        fc = constant_forecast(5, 0.04, 0.015)
        sol = solve_lattice(build_lattice(fc, 0.02, 0.05), VOLL)
        for i in (2, 3, 4):
            for k in range(1, 2 * i + 2):
                node = node_transition_probs(sol, i, k)
                assert node.visit == pytest.approx(sol.visit[i][k - 1], abs=1e-12)
                assert node.left == pytest.approx(sol.left[i][k - 1], abs=1e-12)
                assert node.mid == pytest.approx(sol.mid[i][k - 1], abs=1e-12)
                assert node.right == pytest.approx(sol.right[i][k - 1], abs=1e-12)

    def test_node_moments_match_truncated_walk_mean(self):
        from rld.walks import truncated_walk_mean

        fc = constant_forecast(5, 0.04, 0.015)
        lat = build_lattice(fc, 0.02, 0.05)
        sol = solve_lattice(lat, VOLL)
        for i, k in ((2, 2), (3, 3), (4, 2), (4, 6)):
            if sol.left[i][k - 1] < 1e-12:
                continue
            cond_mean = sol.left_moment[i][k - 1] / sol.left[i][k - 1]
            stds, lows, highs = lat.chain(i, k)
            oracle = truncated_walk_mean(stds, lows[:-1], highs[:-1], highs[-1])
            assert cond_mean == pytest.approx(oracle, rel=1e-10)

    def test_cost_decomposes_over_left_exits(self):
        # each node contributes voll * (d_eff + E[error | exit left] - x) * p_left
        fc = constant_forecast(4, 0.05, 0.02)
        lat = build_lattice(fc, 0.03, 0.06)
        sol = solve_lattice(lat, VOLL)
        total = 0.0
        for i in range(4):
            total += float(
                (lat.d_eff[i] - lat.supply) @ sol.left[i] + sol.left_moment[i].sum()
            )
        assert sol.cost == pytest.approx(VOLL * total, rel=1e-12)

    def test_interior_probs_match_mc_frequencies(self):
        T, B, x = 2, 0.5, 0.45
        d, sig = 0.4, 0.5
        fc = constant_forecast(T, d, sig)
        sol = solve_lattice(build_lattice(fc, B, x), VOLL)

        rng = np.random.default_rng(17)
        n = 100_000
        deficits = d + sig * rng.standard_normal((n, T))
        b = np.zeros(n)
        tol = 1e-12
        # classify the level-2 node: empty / interior / full after stage 1
        b1 = np.minimum(B, np.maximum(x - deficits[:, 0], 0.0))
        at_k1 = b1 <= tol
        at_k3 = b1 >= B - tol
        at_k2 = ~(at_k1 | at_k3)
        for k, mask in ((1, at_k1), (2, at_k2), (3, at_k3)):
            freq = mask.mean()
            p = sol.visit[1][k - 1]
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
        T, B = 7, 0.01
        fc = constant_forecast(T, 0.03, 0.009)
        lat = build_lattice(fc, B, 0.033)
        fast = solve_lattice(lat, VOLL)
        general = solve_lattice(lat, VOLL, error_steps=[NormalStep(0.009)] * T)
        assert fast.cost == pytest.approx(general.cost, rel=1e-12)
        assert fast.subgradient == pytest.approx(general.subgradient, rel=1e-12)
        for i in range(T):
            assert np.allclose(fast.left[i], general.left[i], atol=1e-14)

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
        x_acc = T * d
        B = 10.0
        sol = solve_lattice(build_lattice(fc, B, d), VOLL)
        assert max(lv.max() for lv in sol.right) < 1e-12
        cost = sol.cost
        rng = np.random.default_rng(31)
        paths = d + sig * rng.standard_normal((300_000, T))
        walk = np.cumsum(paths - d, axis=1)
        oracle = VOLL * np.maximum(walk.max(axis=1), 0.0)
        se = oracle.std(ddof=1) / math.sqrt(len(oracle))
        assert abs(cost - oracle.mean()) < 3 * se


class TestSubgradient:
    def test_bounds_and_monotonicity(self):
        fc = constant_forecast(5, 0.05, 0.01)
        grid = np.linspace(0.1, 0.45, 9)
        vals = [lattice_terminal_subgradient(x, fc, 0.01, VOLL) for x in grid]
        assert all(-VOLL <= v <= 0.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

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
    """Array positions share template walks; each must match its own lattice."""

    T, D, SIGMA = 12, 0.4 / 60, 0.0011547

    def general(self, x_acc, B, fc):
        steps = [NormalStep(float(fc.sigma[0]))] * fc.n_stages
        sols = [solve_lattice(build_lattice(fc, B, x / fc.n_stages), VOLL, error_steps=steps)
                for x in x_acc]
        return np.array([s.cost for s in sols]), np.array([s.subgradient for s in sols])

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


def test_dump_csv(tmp_path):
    fc = constant_forecast(3, 0.05, 0.02)
    sol = solve_lattice(build_lattice(fc, 0.03, 0.06), VOLL)
    out = tmp_path / "lattice.csv"
    dump_lattice_csv(sol, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,k,d_hat_eff,depth,p,p_left,p_mid,p_right"
    assert len(lines) == 1 + 1 + 3 + 5
