import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from rld.model import CostModel, StorageSpec
from rld.storage import (
    delivery_costs_batch,
    optimal_storage_action,
    per_path_subgradient_estimate,
    reformulate_vq,
    simulate_delivery,
    step_storage,
    subgradient_estimates_batch,
)

IDEAL = StorageSpec(1.0)
COST = CostModel(1000.0)


class TestOptimalAction:
    def test_discharge_all_usable(self):
        assert optimal_storage_action(0.5, 2.0, 1.0, StorageSpec(1.0)) == -0.5

    def test_full_storage_cannot_charge(self):
        assert optimal_storage_action(1.0, 0.2, 1.0, StorageSpec(1.0)) == 0.0

    def test_recharge_cap_scales_with_conversion_loss(self):
        spec = StorageSpec(1.0, recharge_eff=0.9)
        assert optimal_storage_action(0.0, 0.0, 0.3, spec) == pytest.approx(0.3)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            optimal_storage_action(1.5, 0.0, 0.0, StorageSpec(1.0))


class TestStepStorage:
    def test_charging_with_losses(self):
        spec = StorageSpec(2.0, storage_eff=0.95, recharge_eff=0.9)
        assert step_storage(1.0, 1.0, spec) == pytest.approx(1.805)

    def test_identity_when_idle(self):
        assert step_storage(0.7, 0.0, StorageSpec(1.0)) == pytest.approx(0.7)

    def test_full_discharge_via_nu_bound(self):
        spec = StorageSpec(1.0, discharge_eff=0.8)
        assert step_storage(1.0, -0.8, spec) == pytest.approx(0.0)

    def test_infeasible_action_rejected(self):
        with pytest.raises(ValueError):
            step_storage(0.9, 0.5, StorageSpec(1.0))
        with pytest.raises(ValueError):
            step_storage(0.1, -0.5, StorageSpec(1.0))


class TestSimulateDelivery:
    def test_balanced_path_costs_nothing(self):
        out = simulate_delivery(np.full(5, 0.3), 0.3, IDEAL, COST)
        assert out.cost == 0.0
        assert np.all(out.levels == 0.0)

    def test_stored_surplus_covers_deficit(self):
        out = simulate_delivery(np.array([0.0, 2.0]), 1.0, IDEAL, COST)
        assert np.allclose(out.levels[:2], [0.0, 1.0])
        assert np.all(out.unserved == 0.0)
        assert out.cost == 0.0

    def test_capacity_cap_then_shortfall(self):
        out = simulate_delivery(np.array([-1.0, 4.0]), 1.0, IDEAL, COST)
        assert np.allclose(out.levels, [0.0, 1.0, 0.0])
        assert np.allclose(out.unserved, [0.0, 2.0])
        assert out.cost == pytest.approx(2.0 * COST.voll)

    def test_zero_capacity_short_circuits(self):
        out = simulate_delivery(np.array([0.5, -0.5]), 0.0, StorageSpec(0.0), COST)
        assert np.all(out.actions == 0.0)
        assert out.cost == pytest.approx(0.5 * COST.voll)

    @given(
        capacity=st.floats(0.0, 0.3),
        effs=st.tuples(*[st.floats(0.0, 1.0)] * 3),
        supply=st.floats(-0.2, 0.4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    @example(capacity=0.15, effs=(1.0, 1.0, 1.0), supply=0.12, seed=0)
    @example(capacity=0.15, effs=(0.0, 0.0, 0.0), supply=0.12, seed=1)
    @example(capacity=0.15, effs=(1.0, 0.0, 1.0), supply=0.12, seed=2)
    @example(capacity=0.15, effs=(1.0, 1.0, 0.0), supply=0.12, seed=3)
    @example(capacity=0.15, effs=(5e-324, 5e-324, 5e-324), supply=0.12, seed=4)
    def test_batch_matches_scalar(self, capacity, effs, supply, seed):
        rng = np.random.default_rng(seed)
        paths = 0.1 + 0.2 * rng.standard_normal((20, 7))
        spec = StorageSpec(capacity, *effs)
        batch = delivery_costs_batch(paths, supply, spec, COST.voll)
        scalar = [simulate_delivery(p, supply, spec, COST).cost for p in paths]
        assert np.allclose(batch, scalar, rtol=1e-12, atol=0)


class TestReformulateVQ:
    def test_balanced_path_all_zero(self):
        out = simulate_delivery(np.full(4, 0.2), 0.2, IDEAL, COST)
        v, q, report = reformulate_vq(out, IDEAL)
        assert np.all(v == 0.0) and np.all(q == 0.0)
        assert report == []

    def test_traced_path_identity(self):
        # stage 1 curtails one unit at the capacity cap, stage 2 falls short
        out = simulate_delivery(np.array([-1.0, 4.0]), 1.0, IDEAL, COST)
        v, q, report = reformulate_vq(out, IDEAL)
        assert np.allclose(v, [0.0, 2.0])
        assert np.allclose(q, [-1.0, -1.0])
        assert report == []

    def test_persistent_surplus_curtails_monotonically(self):
        out = simulate_delivery(np.full(5, -1.0), 1.0, IDEAL, COST)
        v, q, report = reformulate_vq(out, IDEAL)
        assert np.all(v == 0.0)
        assert np.all(np.diff(q) < 0.0)  # strictly decreasing once full
        assert report == []

    def test_non_ideal_unsupported(self):
        spec = StorageSpec(1.0, storage_eff=0.9)
        out = simulate_delivery(np.array([0.1]), 0.1, spec, COST)
        with pytest.raises(ValueError):
            reformulate_vq(out, spec)


class TestPerPathSubgradient:
    def test_all_shortfall_limit(self):
        est = per_path_subgradient_estimate(np.zeros(6), -1e9, 1.0, voll=COST.voll)
        assert est == pytest.approx(-COST.voll)

    def test_no_shortfall_limit(self):
        est = per_path_subgradient_estimate(np.zeros(6), 1e9, 1.0, voll=COST.voll)
        assert est == 0.0

    def test_b0_mean_matches_gaussian_tails(self):
        rng = np.random.default_rng(3)
        T, sig, d, x = 3, 0.3, 0.1, 0.2
        paths = d + sig * rng.standard_normal((40_000, T))
        ests = subgradient_estimates_batch(paths, x, 0.0, COST.voll)
        exact = -COST.voll / T * T * ndtr(-(x - d) / sig)
        se = ests.std(ddof=1) / np.sqrt(len(ests))
        assert abs(ests.mean() - exact) < 3 * se

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        paths = 0.05 + 0.1 * rng.standard_normal((30, 6))
        batch = subgradient_estimates_batch(paths, 0.06, 0.08, COST.voll)
        scalar = [per_path_subgradient_estimate(p, 0.06, 0.08, COST.voll) for p in paths]
        assert np.allclose(batch, scalar, atol=1e-12)

    def test_mean_matches_finite_difference(self):
        # sample mean of the estimator vs central differences of mean cost
        rng = np.random.default_rng(11)
        T, B, x_acc = 6, 0.05, 0.5
        paths = 0.5 / T + 0.04 * rng.standard_normal((60_000, T))
        delta = 2e-3
        up = delivery_costs_batch(paths, (x_acc + delta) / T, StorageSpec(B), COST.voll)
        dn = delivery_costs_batch(paths, (x_acc - delta) / T, StorageSpec(B), COST.voll)
        fd = (up - dn) / (2 * delta)
        est = subgradient_estimates_batch(paths, x_acc / T, B, COST.voll)
        diff = est - fd
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        assert abs(diff.mean()) < 3 * se + 1e-9


spec_strategy = st.builds(
    StorageSpec,
    st.floats(0.0, 2.0),
    st.floats(0.5, 1.0),
    st.floats(0.5, 1.0),
    st.floats(0.5, 1.0),
)


class TestPathProperties:
    @given(
        spec=spec_strategy,
        seed=st.integers(0, 10_000),
        supply=st.floats(-0.5, 1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_feasibility_invariants(self, spec, seed, supply):
        rng = np.random.default_rng(seed)
        deficits = 0.2 + 0.8 * rng.standard_normal(8)
        out = simulate_delivery(deficits, supply, spec, COST)
        tol = 1e-9
        assert np.all(out.levels >= -tol) and np.all(out.levels <= spec.capacity + tol)
        for t in range(8):
            b = out.levels[t]
            u = out.actions[t]
            if spec.recharge_eff > 0:
                assert max(u, 0.0) <= (spec.capacity - b) / spec.recharge_eff + tol
            assert -min(u, 0.0) <= spec.discharge_eff * b + tol
        assert np.all(np.diff(out.cumulative_unserved) >= -tol)
        assert np.all(np.diff(out.cumulative_curtailed) <= tol)
        assert np.all(out.cumulative_unserved >= -tol)
        assert np.all(out.cumulative_curtailed <= tol)
        assert out.cost == pytest.approx(COST.voll * out.cumulative_unserved[-1])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_complementarity_on_ideal_paths(self, seed):
        rng = np.random.default_rng(seed)
        deficits = 0.1 + 0.5 * rng.standard_normal(10)
        spec = StorageSpec(0.4)
        out = simulate_delivery(deficits, 0.15, spec, COST)
        _, _, report = reformulate_vq(out, spec)
        assert report == []

    @given(seed=st.integers(0, 10_000), shift=st.floats(0.01, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_cost_monotone_in_supply_and_capacity(self, seed, shift):
        rng = np.random.default_rng(seed)
        deficits = 0.2 + 0.5 * rng.standard_normal(8)
        base = simulate_delivery(deficits, 0.2, StorageSpec(0.3), COST).cost
        more_supply = simulate_delivery(deficits, 0.2 + shift, StorageSpec(0.3), COST).cost
        more_storage = simulate_delivery(deficits, 0.2, StorageSpec(0.3 + shift), COST).cost
        assert more_supply <= base + 1e-9
        assert more_storage <= base + 1e-9


class TestGreedyOptimality:
    @pytest.mark.parametrize("deficits,x,B", [
        ((0.5, 1.0, -0.5), 0.5, 0.5),
        ((1.0, -1.0, 1.5), 0.75, 1.0),
        ((-0.5, 0.25, 1.25, 0.0), 0.5, 0.75),
        ((2.0, -1.0, 0.5, 1.5), 1.0, 0.5),
    ])
    def test_matches_exhaustive_minimum(self, deficits, x, B):
        # all quantities on a 0.25 grid so the greedy actions stay on it
        deficits = np.array(deficits)
        spec = StorageSpec(B)
        greedy = simulate_delivery(deficits, x, spec, COST).cost

        step = 0.25
        grid = np.arange(-B, B + step / 2, step)
        best = np.inf
        T = deficits.size
        for seq in itertools.product(grid, repeat=T):
            b = 0.0
            cost = 0.0
            ok = True
            for t in range(T):
                u = seq[t]
                if u > B - b + 1e-12 or u < -b - 1e-12:
                    ok = False
                    break
                cost += max(deficits[t] - x + u, 0.0)
                b = b + u
            if ok:
                best = min(best, cost)
        assert greedy == pytest.approx(COST.voll * best, abs=1e-9)
