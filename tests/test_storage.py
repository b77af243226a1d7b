import itertools
import tracemalloc
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from rld.benchmark import solve_schedule
from rld.dispatch import simulate_policy_batch
from rld.model import MAX_T, CostModel, StorageSpec, load_scenario
from rld.rng import draw_policy_paths
from rld.storage import (
    delivery_costs_batch,
    forward_sweep,
    simulate_delivery,
    subgradient_estimates_batch,
    unserved_and_slope_batch,
)
from oracles import (
    carried_unserved_and_slope,
    optimal_storage_action,
    per_path_subgradient_estimate,
    reformulate_vq,
    scalar_delivery,
    step_storage,
)

IDEAL = StorageSpec(1.0)
COST = CostModel(1000.0)
SHIPPED = resources.files("rld").joinpath("data/vi_scenario.json")
FIELDS = ("actions", "levels", "unserved", "curtailed", "cumulative_unserved",
          "cumulative_curtailed", "cost")

# efficiencies in [0, 1] with both endpoints and the smallest subnormal
efficiency = st.one_of(st.sampled_from([0.0, 5e-324, 1.0]), st.floats(0.0, 1.0))


class TestOptimalAction:
    """The greedy action, read from ``simulate_delivery`` trajectories."""

    def test_discharge_all_usable(self):
        # stage 1 stores 0.5; stage 2 falls 2.0 short and draws all of it
        out = simulate_delivery(np.array([0.5, 3.0]), 1.0, StorageSpec(1.0), COST)
        assert out.actions.tolist() == [0.5, -0.5]
        assert out.unserved.tolist() == [0.0, 1.5]

    def test_full_storage_cannot_charge(self):
        out = simulate_delivery(np.array([0.0, 0.2]), 1.0, StorageSpec(1.0), COST)
        assert out.levels.tolist() == [0.0, 1.0, 1.0]
        assert out.actions.tolist() == [1.0, 0.0]
        assert out.curtailed[1] == pytest.approx(-0.8)

    def test_recharge_cap_scales_with_conversion_loss(self):
        # a 0.3 surplus fits whole; then the room left, 0.73, takes 0.73 / 0.9
        spec = StorageSpec(1.0, recharge_eff=0.9)
        out = simulate_delivery(np.array([0.0, -2.0]), 0.3, spec, COST)
        assert out.actions == pytest.approx([0.3, 0.73 / 0.9])
        assert out.levels == pytest.approx([0.0, 0.27, 1.0])
        assert out.curtailed == pytest.approx([0.0, -2.3 + 0.73 / 0.9])

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            optimal_storage_action(1.5, 0.0, 0.0, StorageSpec(1.0))


class TestStepStorage:
    """The level update, read from ``simulate_delivery`` trajectories."""

    def test_charging_with_losses(self):
        # the first charge leaves 0.95 * 0.9 * (1 / 0.855) = 1.0 stored
        spec = StorageSpec(2.0, storage_eff=0.95, recharge_eff=0.9)
        out = simulate_delivery(np.array([-1.0 / 0.855, -1.0]), 0.0, spec, COST)
        assert out.levels == pytest.approx([0.0, 1.0, 1.805])

    def test_identity_when_idle(self):
        out = simulate_delivery(np.array([-0.7, 0.0]), 0.0, StorageSpec(1.0), COST)
        assert out.levels == pytest.approx([0.0, 0.7, 0.7])
        assert out.actions[1] == 0.0

    def test_full_discharge_via_nu_bound(self):
        spec = StorageSpec(1.0, discharge_eff=0.8)
        out = simulate_delivery(np.array([-1.0, 2.0]), 0.0, spec, COST)
        assert out.levels == pytest.approx([0.0, 1.0, 0.0])
        assert out.actions == pytest.approx([1.0, -0.8])
        assert out.unserved == pytest.approx([0.0, 1.2])

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
        scalar = [scalar_delivery(p, supply, spec, COST).cost for p in paths]
        assert np.allclose(batch, scalar, rtol=1e-12, atol=0)

    @given(
        capacity=st.one_of(st.sampled_from([0.0, 5e-324, 1e-310]), st.floats(0.0, 0.3)),
        effs=st.tuples(efficiency, efficiency, efficiency),
        supply=st.floats(-0.2, 0.4),
        T=st.integers(1, 12),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=150, deadline=None)
    @example(capacity=0.15, effs=(0.95, 0.95, 0.95), supply=0.12, T=12, seed=0)
    @example(capacity=0.15, effs=(0.9, 0.8, 0.0), supply=0.12, T=12, seed=1)
    @example(capacity=0.15, effs=(1.0, 0.0, 0.7), supply=0.12, T=12, seed=2)
    @example(capacity=0.15, effs=(5e-324, 5e-324, 5e-324), supply=0.12, T=12, seed=3)
    @example(capacity=0.15, effs=(5e-324, 1.0, 1.0), supply=0.12, T=12, seed=4)
    @example(capacity=0.15, effs=(1.0, 1.0, 1e-310), supply=0.12, T=12, seed=5)
    def test_trajectory_matches_scalar_oracle(self, capacity, effs, supply, T, seed):
        rng = np.random.default_rng(seed)
        deficits = 0.1 + 0.2 * rng.standard_normal(T)
        spec = StorageSpec(capacity, *effs)
        got = simulate_delivery(deficits, supply, spec, COST)
        usable, gain = spec.discharge_eff * capacity, spec.discharge_eff * spec.recharge_eff
        fields = FIELDS
        if usable == 0.0 or gain == 0.0:
            # storage that can deliver nothing is never charged
            spec = replace(spec, recharge_eff=0.0)
        elif min(usable, gain) < np.finfo(float).tiny:
            # levels and charges are usable energy over nu and nu*mu: below
            # the normal range they keep too few digits; the costs do not
            fields = ("unserved", "cumulative_unserved", "cost")
        want = scalar_delivery(deficits, supply, spec, COST)
        for name in fields:
            scale = COST.voll if name == "cost" else 1.0
            assert np.allclose(getattr(got, name), getattr(want, name),
                               rtol=0.0, atol=1e-12 * scale), name

    @pytest.mark.parametrize("engine", ["ct", "lattice"])
    def test_shipped_ideal_paths_match_oracle_bitwise(self, engine):
        # the path `rld simulate --engine <engine> --seed <seed> --out` writes
        scn = load_scenario(str(SHIPPED))
        sched = solve_schedule(scn, engine, seed=0)
        for seed in range(4):
            forecasts, deficits = scn.realize(
                *draw_policy_paths(1, scn.ladder.n_stages, scn.T, seed))
            x_final = simulate_policy_batch(sched, scn, forecasts, deficits)[1][0]
            supply = x_final / scn.T
            got = simulate_delivery(deficits[0], supply, scn.storage, scn.cost)
            want = scalar_delivery(deficits[0], supply, scn.storage, scn.cost)
            for name in FIELDS:
                assert (np.asarray(getattr(got, name)).tobytes()
                        == np.asarray(getattr(want, name)).tobytes()), (seed, name)

    @given(effs=st.tuples(efficiency, efficiency), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_storage_that_delivers_nothing_stays_empty(self, effs, seed):
        rng = np.random.default_rng(seed)
        deficits = 0.1 + 0.2 * rng.standard_normal(10)
        spec = StorageSpec(0.15, effs[0], effs[1], 0.0)
        out = simulate_delivery(deficits, 0.12, spec, COST)
        surplus = np.maximum(0.12 - deficits, 0.0)
        assert np.all(out.levels == 0.0) and np.all(out.actions == 0.0)
        assert np.array_equal(out.cumulative_curtailed, -np.cumsum(surplus))
        assert np.array_equal(out.unserved, np.maximum(deficits - 0.12, 0.0))


class TestMemoryLayout:
    def test_kernels_ignore_memory_layout(self):
        rng = np.random.default_rng(12)
        paths = 0.1 + 0.2 * rng.standard_normal((40, 9))
        c_paths, f_paths = np.ascontiguousarray(paths), np.asfortranarray(paths)
        assert c_paths.flags.c_contiguous and f_paths.flags.f_contiguous
        supply = np.linspace(-0.1, 0.3, 40)
        lossy = StorageSpec(0.15, 0.95, 0.95, 0.95)
        for kernel, spec in itertools.product((subgradient_estimates_batch, delivery_costs_batch),
                                              (StorageSpec(0.15), lossy)):
            c_out = kernel(c_paths, supply, spec, COST.voll)
            f_out = kernel(f_paths, supply, spec, COST.voll)
            assert c_out.tobytes() == f_out.tobytes()


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
        ests = subgradient_estimates_batch(paths, x, StorageSpec(0.0), COST.voll)
        exact = -COST.voll / T * T * ndtr(-(x - d) / sig)
        se = ests.std(ddof=1) / np.sqrt(len(ests))
        assert abs(ests.mean() - exact) < 3 * se

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        paths = 0.05 + 0.1 * rng.standard_normal((30, 6))
        # a continuous draw, and the exact ties at each deficit and its neighbours
        ties = paths.ravel()
        for supply in np.concatenate([[0.06], ties, np.nextafter(ties, -np.inf),
                                      np.nextafter(ties, np.inf)]):
            batch = subgradient_estimates_batch(paths, supply, StorageSpec(0.08), COST.voll)
            scalar = [per_path_subgradient_estimate(p, supply, 0.08, COST.voll)
                      for p in paths]
            assert batch.tolist() == scalar

    def test_mean_matches_finite_difference(self):
        # sample mean of the estimator vs central differences of mean cost
        rng = np.random.default_rng(11)
        T, B, x_acc = 6, 0.05, 0.5
        paths = 0.5 / T + 0.04 * rng.standard_normal((60_000, T))
        delta = 2e-3
        up = delivery_costs_batch(paths, (x_acc + delta) / T, StorageSpec(B), COST.voll)
        dn = delivery_costs_batch(paths, (x_acc - delta) / T, StorageSpec(B), COST.voll)
        fd = (up - dn) / (2 * delta)
        est = subgradient_estimates_batch(paths, x_acc / T, StorageSpec(B), COST.voll)
        diff = est - fd
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        assert abs(diff.mean()) < 3 * se + 1e-9


def plain_subgradient_estimates(deficits, supply, capacity, voll):
    """The estimate kernel as plain array expressions, one temporary each.

    The run of carried supply restarts on an uncovered shortfall or when
    the level reaches the capacity, with no tolerance.
    """
    n, T = deficits.shape
    x = np.broadcast_to(np.asarray(supply, dtype=float), (n,))
    b, depth, weighted = np.zeros(n), np.zeros(n), np.zeros(n)
    for t in range(T):
        z = x - deficits[:, t] + b
        short = z < 0.0
        weighted += np.where(short, depth + 1.0, 0.0)
        depth = np.where(short | (z >= capacity), 0.0, depth + 1.0)
        b = np.minimum(capacity, np.maximum(z, 0.0))
    return -voll / T * weighted


class TestMonotoneEstimates:
    @given(
        T=st.integers(1, 16),
        capacity=st.sampled_from([0.0, 5e-324, 1e-310, 0.05, 0.5]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_kernel_equals_plain_expressions(self, T, capacity, seed):
        rng = np.random.default_rng(seed)
        paths = np.asfortranarray(0.05 + 0.1 * rng.standard_normal((30, T)))
        supplies = [rng.uniform(-0.2, 0.4, 30), paths[0, 0], np.nextafter(paths[0, 0], 1.0),
                    0.0, -0.0]
        for supply in supplies:
            got = subgradient_estimates_batch(paths, supply, StorageSpec(capacity), COST.voll)
            want = plain_subgradient_estimates(paths, supply, capacity, COST.voll)
            assert got.tobytes() == want.tobytes()


    @given(
        n=st.integers(1, 20),
        T=st.integers(1, 16),
        capacity=st.sampled_from([0.0, 5e-324, 1e-310, 0.5]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_estimates_fall_with_supply(self, n, T, capacity, seed):
        rng = np.random.default_rng(seed)
        paths = np.asfortranarray(0.05 + 0.1 * rng.standard_normal((n, T)))
        lowest = paths.min(axis=1)
        spread = rng.uniform(lowest.min() - 0.1, paths.max() + 0.1, 40)
        # each row's lowest deficit and its neighbours: exact ties
        ties = np.concatenate([lowest, np.nextafter(lowest, -np.inf),
                               np.nextafter(lowest, np.inf)])
        supplies = np.unique(np.concatenate([spread, ties]))
        est = np.array([subgradient_estimates_batch(paths, s, StorageSpec(capacity), COST.voll)
                        for s in supplies])
        below = supplies[:, None] < lowest[None, :]
        # -voll up to the one rounding of the kernel's -voll / T * weight
        assert np.all(est[below] == -COST.voll / T * T)
        reached = np.maximum.accumulate(est == 0.0, axis=0)
        assert np.all(est[reached] == 0.0)
        # the shortfall weight -est * T / voll never grows with the supply,
        # through the ties as well
        assert np.all(np.diff(est, axis=0) >= 0.0)

    def test_tie_does_not_halve_the_estimate(self):
        # supply 0.1 covers the first stage exactly: the empty level still
        # passes more supply on to the second stage, so the slope stays -VOLL
        paths = np.array([[0.1, 0.3]])
        supplies = [np.nextafter(0.1, 0.0), 0.1, np.nextafter(0.1, 1.0), 0.1 + 1e-11]
        est = [subgradient_estimates_batch(paths, s, StorageSpec(0.5), 1000.0)[0]
               for s in supplies]
        assert est == [-1000.0] * 4


class TestUnservedAndSlope:
    @given(capacity=st.sampled_from([0.0, 5e-324, 0.08, 0.5]), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_unserved_is_the_delivery_kernel(self, capacity, seed):
        rng = np.random.default_rng(seed)
        paths = 0.05 + 0.1 * rng.standard_normal((30, 9))
        supply = rng.uniform(-0.1, 0.3, 30)
        unserved, weight = unserved_and_slope_batch(paths, supply, StorageSpec(capacity))
        costs = delivery_costs_batch(paths, supply, StorageSpec(capacity), COST.voll)
        assert (COST.voll * unserved).tobytes() == costs.tobytes()
        est = subgradient_estimates_batch(paths, supply, StorageSpec(capacity), COST.voll)
        assert np.array_equal(-COST.voll / 9 * weight, est)

    @given(
        T=st.integers(1, 16),
        capacity=st.sampled_from([0.0, 5e-324, 1e-310, 0.5]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_weight_falls_with_supply_through_ties(self, T, capacity, seed):
        rng = np.random.default_rng(seed)
        paths = 0.05 + 0.1 * rng.standard_normal((10, T))
        supplies = np.unique(np.concatenate([
            rng.uniform(paths.min() - 0.1, paths.max() + 0.1, 40), paths.ravel(),
            np.nextafter(paths.ravel(), -np.inf), np.nextafter(paths.ravel(), np.inf),
        ]))
        weights = np.array([unserved_and_slope_batch(paths, s, StorageSpec(capacity))[1]
                            for s in supplies])
        assert np.all(np.diff(weights, axis=0) <= 0.0)

    def test_weight_is_the_right_derivative(self):
        rng = np.random.default_rng(17)
        paths = 0.05 + 0.1 * rng.standard_normal((200, 12))
        supply = rng.uniform(-0.05, 0.2, 200)
        h = 1e-9
        for spec in map(StorageSpec, (0.0, 0.05, 0.5)):
            unserved, weight = unserved_and_slope_batch(paths, supply, spec)
            ahead, _ = unserved_and_slope_batch(paths, supply + h, spec)
            assert np.allclose((ahead - unserved) / h, -weight, rtol=0, atol=1e-5)
            assert np.all(weight == np.round(weight)) and np.all((0 <= weight) & (weight <= 12))

    def test_exact_ties_count_from_the_right(self):
        # supply equal to the first deficit: the level leaves 0 as supply grows
        unserved, weight = unserved_and_slope_batch(np.array([[0.1, 0.3]]), 0.1,
                                                    StorageSpec(1.0))
        assert unserved[0] == pytest.approx(0.2) and weight[0] == 2.0
        # the first stage fills the storage exactly: more supply is curtailed
        unserved, weight = unserved_and_slope_batch(np.array([[-0.1, 0.5]]), 0.1,
                                                    StorageSpec(0.2))
        assert unserved[0] == pytest.approx(0.2) and weight[0] == 1.0


class TestForwardSweep:
    """The cost-only sweep is the first of the two-sweep kernel's sweeps, bit for bit,
    and a (policies, rows) supply costs each policy's rows as alone."""

    SPECS = [IDEAL, StorageSpec(0.08, 0.8, 0.8, 0.8), StorageSpec(0.5, 0.0, 0.0, 0.0),
             StorageSpec(5e-324), StorageSpec(1e-310, 0.8, 0.8, 0.8)]

    @given(spec=st.sampled_from(SPECS), T=st.integers(1, 16), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_unserved_is_the_two_sweep_kernels(self, spec, T, seed):
        rng = np.random.default_rng(seed)
        paths = 0.05 + 0.1 * rng.standard_normal((30, T))
        supply = rng.uniform(-0.3, 0.3, 30)   # negative supplies sell into the storage
        want = unserved_and_slope_batch(paths, supply, spec)[0]
        assert forward_sweep(paths, supply, spec).tobytes() == want.tobytes()
        assert (COST.voll * want).tobytes() == delivery_costs_batch(
            paths, supply, spec, COST.voll).tobytes()
        policies = np.stack([supply, supply[::-1] - 0.1, np.full(30, -0.2), np.zeros(30)])
        together = forward_sweep(paths, policies, spec)
        assert together.shape == policies.shape
        for row, alone in zip(together, policies):
            assert row.tobytes() == unserved_and_slope_batch(paths, alone, spec)[0].tobytes()

    @pytest.mark.parametrize("spec", SPECS)
    def test_outputs_are_written_only_where_given(self, spec):
        rng = np.random.default_rng(3)
        paths = 0.05 + 0.1 * rng.standard_normal((25, 7))
        short, below = np.ones((7, 25), bool), np.ones((7, 25), bool)
        z = np.full((25, 7), np.nan)
        assert forward_sweep(paths, 0.04, spec, unserved=False, short=short, below=below,
                             unclipped=z) is None
        ref = np.empty((25, 7))
        forward_sweep(paths, 0.04, spec, unclipped=ref)
        assert z.tobytes() == ref.tobytes()
        assert np.array_equal(short, (ref < 0.0).T)
        assert np.array_equal(below, (ref < spec.discharge_eff * spec.capacity).T)


class TestLossySlope:
    """The kernel's weight on lossy storage: the cost is convex in the supply."""

    @staticmethod
    def cost_and_slope(spec, n, T, seed):
        # deficits on a 0.01 grid, so stages tie; the supplies hit every
        # deficit and both of its neighbouring doubles
        rng = np.random.default_rng(seed)
        paths = np.asfortranarray(rng.integers(-10, 30, (n, T)) * 0.01)
        ties = paths.ravel()
        supplies = np.unique(np.concatenate([
            rng.uniform(-0.15, 0.35, 10), ties,
            np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf)]))
        unserved, weight = unserved_and_slope_batch(
            np.tile(paths, (supplies.size, 1)), np.repeat(supplies, n), spec)
        return paths, supplies, unserved.reshape(-1, n), weight.reshape(-1, n)

    @given(
        effs=st.tuples(efficiency, efficiency, efficiency),
        capacity=st.sampled_from([0.0, 5e-324, 0.05, 0.5]),
        T=st.integers(1, 10),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    @example(effs=(0.9, 0.8, 0.7), capacity=0.5, T=8, seed=0)
    @example(effs=(5e-324, 1.0, 5e-324), capacity=0.05, T=8, seed=1)
    @example(effs=(1.0, 1.0, 1.0), capacity=0.5, T=5, seed=6)   # a 1.4e-17 rounding sliver
    def test_weight_is_a_subgradient_that_never_grows(self, effs, capacity, T, seed):
        paths, s, v, w = self.cost_and_slope(StorageSpec(capacity, *effs), 4, T, seed)
        # V(s2) >= V(s1) - w(s1) * (s2 - s1), to 1e-12 of the energies involved,
        # and to the rounding of T stage steps of the deficits and supplies
        step = s[None, :, None] - s[:, None, None]
        tangent = v[:, None, :] - w[:, None, :] * step
        size = np.abs(v[:, None, :]) + np.abs(v[None, :, :]) + np.abs(w[:, None, :] * step)
        floor = T * np.finfo(float).eps * max(np.abs(paths).max(), np.abs(s).max())
        assert np.all(v[None, :, :] >= tangent - 1e-12 * size - floor)
        assert np.all(np.diff(w, axis=0) <= 1e-12 * T)
        assert np.all((w >= 0.0) & (w <= T))

    @given(
        effs=st.tuples(efficiency, efficiency, efficiency),
        capacity=st.sampled_from([0.0, 5e-324, 0.05, 0.5]),
        no_delivery=st.sampled_from(["nu", "B"]),
        T=st.integers(1, 10),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_storage_that_delivers_nothing_counts_shortfalls(
            self, effs, capacity, no_delivery, T, seed):
        lam, mu, nu = effs
        spec = (StorageSpec(capacity, lam, mu, 0.0) if no_delivery == "nu"
                else StorageSpec(0.0, lam, mu, nu))
        paths, s, _, w = self.cost_and_slope(spec, 4, T, seed)
        assert np.array_equal(w, (paths[None, :, :] > s[:, None, None]).sum(axis=2))

    @given(
        effs=st.tuples(efficiency, efficiency, efficiency),
        capacity=st.sampled_from([0.0, 5e-324, 0.05, 0.5]),
        T=st.integers(1, 10),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    @example(effs=(0.9, 0.0, 0.7), capacity=0.05, T=8, seed=2)    # nu*mu = 0
    @example(effs=(0.9, 0.8, 0.7), capacity=5e-324, T=8, seed=3)
    @example(effs=(0.9, 1.0, 1.0), capacity=0.05, T=8, seed=4)    # lambda < 1, nu*mu = 1
    @example(effs=(1.0, 0.8, 0.7), capacity=0.05, T=8, seed=5)    # lambda = 1, nu*mu < 1
    def test_two_sweeps_match_the_forward_oracle(self, effs, capacity, T, seed):
        def kernel_and_oracle(spec):
            paths, s, v, w = self.cost_and_slope(spec, 4, T, seed)
            want = carried_unserved_and_slope(np.tile(paths, (s.size, 1)), np.repeat(s, 4), spec)
            return v.ravel(), w.ravel(), *want

        # the backward sweep sums the stage shares in another order: lossy
        # weights agree to rounding, ideal ones are integers and agree bitwise
        v, w, want_v, want_w = kernel_and_oracle(StorageSpec(capacity, *effs))
        assert v.tobytes() == want_v.tobytes()
        assert np.all(np.abs(w - want_w) <= 1e-12 * T)
        v, w, want_v, want_w = kernel_and_oracle(StorageSpec(capacity))
        assert v.tobytes() == want_v.tobytes() and w.tobytes() == want_w.tobytes()


class TestKernelLimits:
    """The one-byte pin masks and the shortfall count at the model's bounds."""

    def test_all_short_path_weighs_every_stage_at_max_t(self):
        _, weight = unserved_and_slope_batch(np.ones((2, MAX_T)), 0.0, StorageSpec(0.5))
        assert weight.tolist() == [MAX_T, MAX_T]

    def test_random_paths_at_max_t_equal_plain_expressions(self):
        rng = np.random.default_rng(5)
        paths = np.asfortranarray(0.05 + 0.1 * rng.standard_normal((6, MAX_T)))
        # counts far beyond one byte
        assert unserved_and_slope_batch(paths, 0.05, StorageSpec(0.0))[1].min() > 255
        for capacity in (0.0, 0.05, 5.0):
            got = subgradient_estimates_batch(paths, 0.05, StorageSpec(capacity), COST.voll)
            want = plain_subgradient_estimates(paths, 0.05, capacity, COST.voll)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", [StorageSpec(1e-3), StorageSpec(1e-3, 0.95, 0.95, 0.95)])
    def test_one_call_peaks_near_its_masks(self, spec):
        # two one-byte masks of 2.4 MB and a few rows of doubles
        rng = np.random.default_rng(0)
        deficits = np.asfortranarray(0.05 + 0.1 * rng.standard_normal((20_000, 60)))
        supply = np.full(20_000, 0.05)
        tracemalloc.start()
        try:
            unserved_and_slope_batch(deficits, supply, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


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
