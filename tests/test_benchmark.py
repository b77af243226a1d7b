import tracemalloc
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from rld.benchmark import (
    emit_results,
    evaluate_policies,
    run_benchmark,
    solve_schedule,
    sweep,
)
from rld.cli import main
from rld.dispatch import MC_STREAM, ideal_costs_batch
from rld.model import (
    MAX_T,
    MAX_VOLL,
    CostModel,
    StorageSpec,
    load_scenario,
    scenario_from_dict,
)
from rld.rng import BLOCK_RUNS, draw_policy_paths, run_generator
from rld.storage import delivery_costs_batch
from conftest import DEFAULT_CURVE, make_scenario
from oracles import read_results, two_pass_ideal

SHIPPED = Path(str(resources.files("rld").joinpath("data/vi_scenario.json")))


def sell_first_doc(sell_price):
    """A scenario that sells day-ahead, then buys at 60 before delivery."""
    return {
        "ladder": [
            {"lead_time_hours": 24.0, "price": sell_price, "direction": "sell"},
            {"lead_time_hours": 1.0, "price": 60.0, "direction": "buy"},
        ],
        "voll": 1000.0, "storage": {"B": 0.01}, "T": 8, "d_hat": 0.3,
        "curve": DEFAULT_CURVE,
    }


def sell_then_buy_doc(d_hat):
    """A scenario that sells day-ahead at 40, then buys at 52 and 60."""
    return {
        "ladder": [
            {"lead_time_hours": 24.0, "price": 40.0, "direction": "sell"},
            {"lead_time_hours": 1.0, "price": 52.0, "direction": "buy"},
            {"lead_time_hours": 0.25, "price": 60.0, "direction": "buy"},
        ],
        "voll": 1000.0, "storage": {"B": 0.01}, "T": 8, "d_hat": d_hat,
        "curve": DEFAULT_CURVE,
    }


def check_ideal_bounds_policies(scn, sell, n=256, seed=4):
    """The ideal row lies below every policy path and below the cost of every
    supply on a grid, each bought at 52 or, when ``sell`` is given, sold at
    ``sell``; returns the realized deficits and the ideal costs."""
    base = solve_schedule(scn, "3sigma")
    schedules = {"ct": solve_schedule(scn, "ct"),
                 **{f"{shift:+}": replace(base, offsets=base.offsets + shift)
                    for shift in (0.0, -0.5, 0.5)}}
    costs, ideal = evaluate_policies(scn, schedules, n, seed)
    for tag, c in costs.items():
        assert np.all(c >= ideal - 1e-9), tag
    _, deficits = scn.realize(*draw_policy_paths(n, scn.ladder.n_stages, scn.T, seed))
    spec, voll, T = StorageSpec(scn.storage.capacity), scn.cost.voll, scn.T
    grid = np.linspace(min(deficits.min(), 0.0) - 0.01, max(deficits.max(), 0.0) + 0.01, 2001)
    if sell is None:
        grid = grid[grid >= 0.0]
    for row in range(0, n, 16):
        path = np.broadcast_to(deficits[row], (grid.size, T))
        g = np.maximum(52.0 * T * grid, (sell or 0.0) * T * grid)
        g = g + delivery_costs_batch(path, grid, spec, voll)
        assert ideal[row] <= g.min() + 1e-9
        assert ideal[row] >= g.min() - (voll + 52.0) * T * (grid[1] - grid[0])
    return deficits, ideal


def check_ideal_is_one_search(scn, deficits, ideal, buy, sell):
    """The ideal row is bitwise one kinked search at (``buy``, ``sell``), and
    within 1e-12 of the largest cost of the two one-price searches it replaced.

    Each search stops on its own tangent cuts, so a row's rounding is that of
    the block's cost scale: in the D = 0 buy-only case one 0.0186 cost lies
    2.2e-14 (1.2e-12 of itself) closer to the LP optimum than the two-pass one.
    """
    capacity, voll = scn.storage.capacity, scn.cost.voll
    _, expect = ideal_costs_batch(deficits, capacity, buy, sell, voll)
    assert ideal.tobytes() == expect.tobytes()
    ref = two_pass_ideal(deficits, capacity, buy, sell, voll)
    np.testing.assert_allclose(ideal, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())


@pytest.fixture(scope="module")
def cheap_scenario():
    return make_scenario(T=8, B=0.01, d=0.3)


@pytest.fixture(scope="module")
def cheap_schedules(cheap_scenario):
    return {
        tag: solve_schedule(cheap_scenario, tag)
        for tag in ("3sigma", "ct")
    }


class TestRunBenchmark:
    def test_same_seed_identical_tables(self, cheap_scenario, cheap_schedules):
        kw = dict(n_runs=64, seed=9, schedules=cheap_schedules, record_timing=False)
        a = run_benchmark(cheap_scenario, ("3sigma", "ct"), **kw)
        b = run_benchmark(cheap_scenario, ("3sigma", "ct"), **kw)
        assert a == b

    def test_repeated_tags_count_once(self, cheap_scenario, cheap_schedules):
        table = run_benchmark(cheap_scenario, ("ct", "ct"), n_runs=16, seed=0,
                              schedules=cheap_schedules, record_timing=False)
        assert [row.policy for row in table] == ["ct", "ideal"]

    def test_different_seed_differs(self, cheap_scenario, cheap_schedules):
        a = run_benchmark(cheap_scenario, ("ct",), n_runs=64, seed=1,
                          schedules=cheap_schedules, record_timing=False)
        b = run_benchmark(cheap_scenario, ("ct",), n_runs=64, seed=2,
                          schedules=cheap_schedules, record_timing=False)
        assert a[0].mean_cost != b[0].mean_cost

    def test_zero_variance_single_run_ties(self):
        scn = make_scenario(
            T=6, B=0.001, d=0.36, mean_share=0.0,
            curve=[[24, 0.0], [1, 0.0], [0.25, 0.0]],
        )
        table = run_benchmark(scn, ("3sigma", "lattice", "ct"), n_runs=1, seed=0,
                              record_timing=False)
        expect = 52.0 * 0.36
        for row in table:
            assert row.mean_cost == pytest.approx(expect, abs=1e-4), row.policy

    def test_integration_cost_nonnegative(self, cheap_scenario, cheap_schedules):
        table = run_benchmark(cheap_scenario, ("3sigma", "ct"), n_runs=256, seed=3,
                              schedules=cheap_schedules, record_timing=False)
        for row in table:
            assert row.integration_cost >= -1e-9

    def test_common_random_numbers_reduce_variance(self, cheap_scenario, cheap_schedules):
        costs, _ = evaluate_policies(cheap_scenario, cheap_schedules, 512, seed=21)
        a, b = costs["3sigma"], costs["ct"]
        paired_var = np.var(a - b, ddof=1)
        independent_var = np.var(a, ddof=1) + np.var(b, ddof=1)
        assert paired_var < independent_var

    def test_ideal_bounds_a_sell_first_ladder(self):
        # a sell at -5 is below the buy at 60, so 60 prices the ideal
        from rld.model import scenario_from_dict

        scn = scenario_from_dict(sell_first_doc(-5.0))
        base = solve_schedule(scn, "3sigma")
        # the rule of thumb, and variants that sell or buy far more day-ahead
        schedules = {f"{shift:+}": replace(base, offsets=base.offsets + shift)
                     for shift in (0.0, -0.5, 0.5)}
        costs, ideal = evaluate_policies(scn, schedules, 256, seed=4)
        _, deficits = scn.realize(*draw_policy_paths(256, 2, scn.T, 4))
        check_ideal_is_one_search(scn, deficits, ideal, 60.0, -5.0)
        for tag, c in costs.items():
            assert np.all(c >= ideal - 1e-9), tag

    @pytest.mark.parametrize("d", [-0.8, 0.0])
    def test_ideal_on_a_buy_only_ladder_never_sells(self, d):
        # the unconstrained ideal would sell at the 52 buy price, which no stage offers
        scn = make_scenario(T=8, B=0.01, d=d)
        deficits, ideal = check_ideal_bounds_policies(scn, sell=None)
        check_ideal_is_one_search(scn, deficits, ideal, 52.0, 0.0)
        s_b = ideal_costs_batch(deficits, scn.storage.capacity, 52.0, 52.0, scn.cost.voll)[0]
        assert np.any(s_b < 0.0)
        if d < 0.0:
            assert np.all(s_b < 0.0) and np.all(ideal == 0.0)

    @pytest.mark.parametrize("d", [-0.3, 0.0])
    def test_ideal_sells_at_the_best_sell_price(self, d):
        scn = scenario_from_dict(sell_then_buy_doc(d))
        deficits, ideal = check_ideal_bounds_policies(scn, sell=40.0)
        check_ideal_is_one_search(scn, deficits, ideal, 52.0, 40.0)
        supply = ideal_costs_batch(deficits, scn.storage.capacity, 52.0, 40.0, scn.cost.voll)[0]
        assert np.any(supply < 0.0)   # some rows sell

    @pytest.mark.parametrize("sell_price", [-5.0, 0.0])
    @pytest.mark.parametrize("engine", ["ct", "lattice", "mc"])
    def test_sell_at_or_below_marginal_value_never_sells(self, engine, sell_price):
        # holding energy is worth at least 0, so selling at <= 0 never pays
        from rld.model import scenario_from_dict
        from rld.dispatch import simulate_policy_batch

        scn = scenario_from_dict(sell_first_doc(sell_price))
        sched = solve_schedule(scn, engine)
        assert sched.offsets[0] == np.inf and sched.residuals[0] == 0.0
        assert np.isfinite(sched.offsets[1])
        purchases, _, _, _ = simulate_policy_batch(
            sched, scn, *scn.realize(*draw_policy_paths(256, 2, scn.T, 4)))
        assert np.all(purchases[:, 0] == 0.0)
        costs, ideal = evaluate_policies(scn, {engine: sched}, 256, seed=4)
        assert np.all(costs[engine] >= ideal - 1e-9)

    def test_se_scaling_with_runs(self, cheap_scenario, cheap_schedules):
        # ct's cost distribution has light tails here, so the sample std is
        # stable enough to see the 1/sqrt(n) law at these sizes
        t_small = run_benchmark(cheap_scenario, ("ct",), n_runs=512, seed=5,
                                schedules=cheap_schedules, record_timing=False)
        t_big = run_benchmark(cheap_scenario, ("ct",), n_runs=2048, seed=5,
                              schedules=cheap_schedules, record_timing=False)
        ratio = t_big[0].stderr / t_small[0].stderr
        assert 0.4 <= ratio <= 0.6

    def test_bad_inputs(self, cheap_scenario):
        with pytest.raises(ValueError):
            run_benchmark(cheap_scenario, ("ct",), n_runs=0)

    def test_every_voll_decade_up_to_the_bound(self):
        # at voll 1e150 the ideal mean read 3.8e131, and at 1e160 the 3sigma
        # stderr overflowed to inf; model.MAX_VOLL now stops at 1e12
        scn = load_scenario(str(SHIPPED))
        ideal = {}
        for exponent in range(3, 13):
            voll = 10.0 ** exponent
            table = run_benchmark(replace(scn, cost=CostModel(voll)), ("3sigma", "ct"),
                                  n_runs=500, seed=3, record_timing=False)
            cells = [[row.mean_cost, row.stderr, row.integration_cost] for row in table]
            assert np.isfinite(cells).all(), (voll, table)
            ideal[voll] = table[-1].mean_cost
        # from 1e6 on the ideal serves every path in full, so its mean moves
        # only by voll times the unserved energy its minimizers round to:
        # 1.4e-8 relative at 1e12, about 3.7e-19 * voll
        for voll, mean in ideal.items():
            if voll >= 1e6:
                assert abs(mean - ideal[1e6]) <= 1e-9 * ideal[1e6] + 1e-18 * voll, (voll, mean)


# conditional-QMC expected costs of the shipped scenario (ROADMAP baseline)
QMC_REFERENCE = {"3sigma": 27.53637, "lattice": 26.21248, "ct": 29.75888}


class TestStreamedEvaluation:
    def test_costs_do_not_depend_on_n_runs(self, cheap_scenario, cheap_schedules):
        short, ideal_short = evaluate_policies(cheap_scenario, cheap_schedules,
                                               BLOCK_RUNS + 7, seed=3)
        long, ideal_long = evaluate_policies(cheap_scenario, cheap_schedules,
                                             2 * BLOCK_RUNS + 3, seed=3)
        for tag in cheap_schedules:
            assert short[tag].tobytes() == long[tag][:BLOCK_RUNS + 7].tobytes()
        assert ideal_short.tobytes() == ideal_long[:BLOCK_RUNS + 7].tobytes()

    def test_peak_memory_below_one_path_array(self):
        scn = make_scenario()
        schedules = {tag: solve_schedule(scn, tag) for tag in ("3sigma", "ct")}
        n = 50_000
        tracemalloc.start()
        try:
            evaluate_policies(scn, schedules, n, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * scn.T * 8

    def test_shipped_means_match_conditional_qmc(self):
        scn = load_scenario(str(resources.files("rld").joinpath("data/vi_scenario.json")))
        table = run_benchmark(scn, tuple(QMC_REFERENCE), n_runs=20_000, seed=0,
                              record_timing=False)
        for row in table[:-1]:
            assert abs(row.mean_cost - QMC_REFERENCE[row.policy]) < 4.0 * row.stderr, row


class TestBatchedEvaluation:
    """A block costs every policy in one cost-only storage sweep, each policy's
    paths bitwise as its own ``simulate_policy_batch`` call costs them."""

    @pytest.mark.parametrize("doc", ["buy-only", "sell-first", "sell-then-buy"])
    def test_costs_are_each_policys_own_totals(self, monkeypatch, doc):
        from rld import rng
        from rld.dispatch import simulate_policy_batch

        scn = {"buy-only": lambda: make_scenario(T=8, B=0.01, d=0.3),
               "sell-first": lambda: scenario_from_dict(sell_first_doc(-5.0)),
               "sell-then-buy": lambda: scenario_from_dict(sell_then_buy_doc(0.3))}[doc]()
        base = solve_schedule(scn, "3sigma")
        schedules = {"ct": solve_schedule(scn, "ct"), "3sigma": base,
                     **{f"{shift:+}": replace(base, offsets=base.offsets + shift)
                        for shift in (-0.5, 0.5)}}
        monkeypatch.setattr(rng, "BLOCK_RUNS", 40)   # three blocks, the last one short
        costs, _ = evaluate_policies(scn, schedules, 97, seed=6)
        paths = scn.realize(*draw_policy_paths(97, scn.ladder.n_stages, scn.T, seed=6))
        for tag, schedule in schedules.items():
            totals = simulate_policy_batch(schedule, scn, *paths)[3]
            assert costs[tag].tobytes() == totals.tobytes(), tag
        together = simulate_policy_batch(schedules.values(), scn, *paths)
        for i, schedule in enumerate(schedules.values()):
            for got, alone in zip(together, simulate_policy_batch(schedule, scn, *paths)):
                assert got[i].tobytes() == alone.tobytes()

    def test_a_block_runs_one_forward_sweep_and_no_backward_sweep(
            self, monkeypatch, cheap_scenario, cheap_schedules):
        from rld import benchmark, dispatch, rng, storage

        sweeps, kernels = [], []
        forward, kernel = storage.forward_sweep, storage.unserved_and_slope_batch
        monkeypatch.setattr(storage, "forward_sweep", lambda deficits, supply, *args, **kw: (
            sweeps.append((np.shape(supply), kw)) or forward(deficits, supply, *args, **kw)))
        monkeypatch.setattr(storage, "unserved_and_slope_batch",
                            lambda *args, **kw: kernels.append(1) or kernel(*args, **kw))
        monkeypatch.setattr(dispatch, "unserved_and_slope_batch", storage.unserved_and_slope_batch)
        # the ideal's search needs the slope: it is counted apart
        monkeypatch.setattr(benchmark, "ideal_costs_batch",
                            lambda deficits, *args: (None, np.zeros(len(deficits))))
        monkeypatch.setattr(rng, "BLOCK_RUNS", 32)
        schedules = {**cheap_schedules, "again": cheap_schedules["ct"]}
        evaluate_policies(cheap_scenario, schedules, 80, seed=2)
        assert sweeps == [((3, 32), {}), ((3, 32), {}), ((3, 16), {})]
        assert kernels == []


class TestSweep:
    def test_d_axis_reuses_offsets(self, cheap_scenario, monkeypatch):
        from rld import benchmark

        solved = []
        monkeypatch.setattr(benchmark, "solve_schedule", lambda point, tag, **kwargs:
                            solved.append(tag) or solve_schedule(point, tag, **kwargs))
        policies, grid = ("3sigma", "ct"), [0.2, 0.4, -0.1]
        table = sweep(cheap_scenario, "D", grid, policies, n_runs=64, seed=7,
                      record_timing=False)
        assert sorted(solved) == sorted(policies)
        # every point is scored with the first point's schedules, unchanged
        first = {tag: solve_schedule(cheap_scenario.with_d_total(grid[0]), tag)
                 for tag in policies}
        expect = [row for i, d in enumerate(grid)
                  for row in run_benchmark(cheap_scenario.with_d_total(d), policies,
                                           n_runs=64, seed=7 + i, schedules=first,
                                           record_timing=False)]
        assert table == expect
        assert [row.d_total for row in table[::3]] == grid
        for row in table:
            assert row.integration_cost >= -1e-9

    def test_b_axis_changes_capacity(self, cheap_scenario):
        table = sweep(cheap_scenario, "B", [0.001, 0.02], ("ct",), n_runs=32, seed=0,
                      record_timing=False)
        assert sorted({row.capacity for row in table}) == [0.001, 0.02]

    def test_validation(self, cheap_scenario):
        with pytest.raises(ValueError):
            sweep(cheap_scenario, "Z", [1.0], ("ct",))
        with pytest.raises(ValueError):
            sweep(cheap_scenario, "D", [], ("ct",))


class TestEmit:
    def test_csv_round_trip(self, tmp_path, cheap_scenario, cheap_schedules):
        table = run_benchmark(cheap_scenario, ("3sigma", "ct"), n_runs=32, seed=2,
                              schedules=cheap_schedules, record_timing=False)
        out = tmp_path / "bench.csv"
        emit_results(table, "csv", out)
        header = out.read_text().splitlines()[0]
        assert header == "policy,D,B,n_runs,mean_cost,stderr,integration_cost,wall_ms"
        again = read_results(out)
        assert again == table

    def test_plotdata_one_file_per_policy(self, tmp_path, cheap_scenario, cheap_schedules):
        table = run_benchmark(cheap_scenario, ("3sigma", "ct"), n_runs=16, seed=2,
                              schedules=cheap_schedules, record_timing=False)
        written = emit_results(table, "plotdata", tmp_path / "curves")
        names = sorted(p.name for p in written)
        assert names == ["curves_3sigma.csv", "curves_ct.csv", "curves_ideal.csv"]

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], "csv", tmp_path / "x.csv")


class TestRng:
    def test_streams_independent_of_order(self):
        a = run_generator(7, 3).standard_normal(5)
        _ = run_generator(7, 4).standard_normal(2)
        b = run_generator(7, 3).standard_normal(5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 13, 2**64 - 1, -1])
    @pytest.mark.parametrize("n_runs", [0, 1, 5])
    def test_paths_equal_per_run_generators(self, seed, n_runs):
        # every run below BLOCK_RUNS is a row of block 0's generator, and run
        # 0 is the first draws of key (seed, 0), as `rld simulate` uses it
        shifts, noise = draw_policy_paths(n_runs, 3, 6, seed)
        assert shifts.shape == (n_runs, 3) and noise.shape == (n_runs, 6)
        g = run_generator(seed, 0)
        for i in range(n_runs):
            assert shifts[i].tobytes() == g.standard_normal(3).tobytes()
            assert noise[i].tobytes() == g.standard_normal(6).tobytes()

    @pytest.mark.parametrize("seed", [0, 13, 2**64 - 1, -1])
    def test_block_rows_equal_block_generators_row_major(self, seed):
        n = 2 * BLOCK_RUNS + 3
        shifts, noise = draw_policy_paths(n, 3, 6, seed)
        for k, start in enumerate(range(0, n, BLOCK_RUNS)):
            rows = slice(start, min(start + BLOCK_RUNS, n))
            block = run_generator(seed, k).standard_normal((rows.stop - start, 9))
            assert block.tobytes() == np.hstack([shifts[rows], noise[rows]]).tobytes()

    @pytest.mark.parametrize("seed", [0, 13, 2**64 - 1, -1])
    def test_paths_are_prefixes_across_a_block_boundary(self, seed):
        short = draw_policy_paths(BLOCK_RUNS + 7, 3, 6, seed)
        long = draw_policy_paths(2 * BLOCK_RUNS + 3, 3, 6, seed)
        for a, b in zip(short, long):
            assert a.tobytes() == b[:BLOCK_RUNS + 7].tobytes()

    def test_rows_of_different_blocks_differ(self):
        shifts, noise = draw_policy_paths(3 * BLOCK_RUNS, 3, 6, seed=0)
        rows = np.hstack([shifts, noise]).reshape(3, BLOCK_RUNS, 9)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            assert not np.any(np.all(rows[a] == rows[b], axis=1))

    def test_no_evaluation_block_replays_the_mc_engine_stream(self):
        # the mc engine draws from key (seed, MC_STREAM); a block with that
        # index would replay its training paths as evaluation runs
        assert (2**27 - 1) // BLOCK_RUNS < MC_STREAM
        engine = run_generator(0, MC_STREAM).standard_normal(63)
        shifts, noise = draw_policy_paths(MC_STREAM + 1, 3, 60, seed=0)
        replays = np.all(np.hstack([shifts, noise]) == engine, axis=1)
        assert not replays.any()

    def test_paths_deterministic(self):
        s1, n1 = draw_policy_paths(4, 3, 6, seed=13)
        s2, n2 = draw_policy_paths(4, 3, 6, seed=13)
        assert np.array_equal(s1, s2) and np.array_equal(n1, n2)
        s3, _ = draw_policy_paths(4, 3, 6, seed=14)
        assert not np.array_equal(s1, s3)


class TestCli:
    def test_rbm_table(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "rbm.csv"
        result = runner.invoke(main, ["rbm-table", "--mu", "0,1", "--sigma", "1",
                                      "--capacity", "1", "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "mu,sigma,B,v_rate,q_rate"
        assert len(lines) == 3

    def test_rbm_table_rates_stay_finite_where_the_drift_ratio_overflows(self, tmp_path):
        # width 5e-321: drift / width overflows, the rates are their limits
        # max(-mu, 0) and -max(mu, 0)
        out = tmp_path / "rbm.csv"
        result = CliRunner().invoke(main, ["rbm-table", "--mu", "1,-1", "--sigma", "1e-160",
                                           "--capacity", "1", "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = [[float(c) for c in line.split(",")]
                for line in out.read_text().splitlines()[1:]]
        assert [row[3:] for row in rows] == [[0.0, -1.0], [1.0, 0.0]]

    def test_thresholds_command(self, tmp_path):
        import json
        from conftest import DEFAULT_CURVE

        scenario = {
            "ladder": [
                {"lead_time_hours": 24.0, "price": 52.0, "direction": "buy"},
                {"lead_time_hours": 0.25, "price": 72.0, "direction": "buy"},
            ],
            "voll": 1000.0,
            "storage": {"B": 0.01},
            "T": 6,
            "d_hat": 0.3,
            "mean_share": 0.2,
            "curve": DEFAULT_CURVE,
        }
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "thresholds.csv"
        runner = CliRunner()
        result = runner.invoke(main, [
            "thresholds", "--scenario", str(path), "--engine", "ct",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "stage,lead_time,price,threshold,engine,residual"
        assert len(lines) == 3

    def test_validation_exit_code(self, tmp_path, monkeypatch):
        from rld.cli import entry

        bad = tmp_path / "bad.json"
        bad.write_text("{")
        monkeypatch.setattr(
            "sys.argv",
            ["rld", "benchmark", "--scenario", str(bad), "--out", str(tmp_path / "o.csv")],
        )
        assert entry() == 2

    @pytest.mark.parametrize("args", [
        ["benchmark", "--runs", "0"],
        ["sweep", "--axis", "D", "--runs", "0"],
        ["sweep", "--axis", "D", "--grid-points", "0"],
        ["sweep", "--axis", "B", "--grid-points", "-3"],
    ])
    def test_non_positive_counts_exit_2(self, tmp_path, monkeypatch, capsys, args):
        from rld.cli import entry

        monkeypatch.setattr("sys.argv", ["rld", *args, "--out", str(tmp_path / "o.csv")])
        assert entry() == 2
        captured = capsys.readouterr()
        assert "is not in the range" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("args", [
        ["benchmark", "--policy", "foo"],
        ["benchmark", "--policy", ","],
        ["sweep", "--axis", "B", "--policy", "3sigma,magic"],
        ["sweep", "--axis", "D", "--grid", ","],
        ["sweep", "--axis", "D", "--grid", "0.1,inf"],
        ["rbm-table", "--sigma", "0"],
        ["rbm-table", "--capacity", "-1"],
        ["rbm-table", "--mu", "nan"],
    ])
    def test_bad_option_values_exit_2(self, tmp_path, monkeypatch, capsys, args):
        from rld.cli import entry

        monkeypatch.setattr("sys.argv", ["rld", *args, "--out", str(tmp_path / "o.csv")])
        assert entry() == 2
        captured = capsys.readouterr()
        assert f"Invalid value for '{args[-2]}'" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("samples", ["-5", "0"])
    @pytest.mark.parametrize("command", [
        ["thresholds", "--engine", "ct"],
        ["simulate", "--engine", "ct"],
        ["benchmark", "--policy", "3sigma,ct"],
        ["sweep", "--axis", "B", "--policy", "3sigma,ct"],
    ], ids=["thresholds", "simulate", "benchmark", "sweep"])
    def test_non_positive_samples_exit_2(self, tmp_path, monkeypatch, capsys, command,
                                         samples):
        # the stage recursion draws no samples, so no command takes --samples
        from rld.cli import entry

        out = tmp_path / "o.csv"
        monkeypatch.setattr("sys.argv",
                            ["rld", *command, "--samples", samples, "--out", str(out)])
        assert entry() == 2
        captured = capsys.readouterr()
        assert "No such option '--samples'" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    def test_sell_above_later_buy_exits_2(self, tmp_path, monkeypatch, capsys):
        import json
        from rld.cli import entry

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(sell_first_doc(70.0)))
        monkeypatch.setattr(
            "sys.argv",
            ["rld", "benchmark", "--scenario", str(bad), "--out", str(tmp_path / "o.csv")],
        )
        assert entry() == 2
        assert "no-arbitrage" in capsys.readouterr().err

    @pytest.mark.parametrize("T", [60.7, True])
    def test_non_integer_T_exits_2(self, tmp_path, monkeypatch, capsys, T):
        import json
        from rld.cli import entry

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "ladder": [{"lead_time_hours": 24.0, "price": 52.0}],
            "voll": 1000.0, "storage": {"B": 0.001}, "T": T, "d_hat": 0.4,
            "curve": DEFAULT_CURVE,
        }))
        out = tmp_path / "o.csv"
        monkeypatch.setattr(
            "sys.argv", ["rld", "thresholds", "--scenario", str(bad), "--out", str(out)])
        assert entry() == 2
        assert "T: not an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("T", [1e30, MAX_T + 1])
    def test_T_above_bound_exits_2(self, tmp_path, monkeypatch, capsys, T):
        import json
        from rld.cli import entry

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "ladder": [{"lead_time_hours": 24.0, "price": 52.0}],
            "voll": 1000.0, "storage": {"B": 0.001}, "T": T, "d_hat": 0.4,
            "curve": DEFAULT_CURVE,
        }))
        out = tmp_path / "o.csv"
        monkeypatch.setattr("sys.argv", ["rld", "thresholds", "--engine", "3sigma",
                                         "--scenario", str(bad), "--out", str(out)])
        assert entry() == 2
        assert f"T must be >= 1 and <= {MAX_T}" in capsys.readouterr().err
        assert not out.exists()

    def test_voll_above_bound_exits_2(self, tmp_path, monkeypatch, capsys):
        import json
        from rld.cli import entry

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "ladder": [{"lead_time_hours": 24.0, "price": 52.0}],
            "voll": 1e13, "storage": {"B": 0.001}, "T": 12, "d_hat": 0.4,
            "curve": DEFAULT_CURVE,
        }))
        out = tmp_path / "o.csv"
        monkeypatch.setattr(
            "sys.argv", ["rld", "benchmark", "--scenario", str(bad), "--out", str(out)])
        assert entry() == 2
        err = capsys.readouterr().err
        assert f"voll: must be <= {MAX_VOLL:g}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("voll", True), ("d_hat", True), ("d_hat", [True] * 12), ("mean_share", True),
        ("storage", {"B": True}), ("storage", {"B": 0.001, "nu": False}),
        ("ladder", [{"lead_time_hours": True, "price": 52.0}]),
        ("ladder", [{"lead_time_hours": 24.0, "price": True}]),
    ])
    def test_boolean_field_exits_2(self, tmp_path, monkeypatch, capsys, field, value):
        import json
        from rld.cli import entry

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "ladder": [{"lead_time_hours": 24.0, "price": 52.0}],
            "voll": 1000.0, "storage": {"B": 0.001}, "T": 12, "d_hat": 0.4,
            "curve": DEFAULT_CURVE, field: value,
        }))
        out = tmp_path / "o.csv"
        monkeypatch.setattr(
            "sys.argv", ["rld", "benchmark", "--scenario", str(bad), "--out", str(out)])
        assert entry() == 2
        captured = capsys.readouterr()
        assert "not a number" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    @pytest.mark.parametrize("lead, price", [
        (24.0, "-inf"), (24.0, "nan"), ("inf", -5.0), ("nan", -5.0)])
    def test_non_finite_ladder_number_exits_2(self, tmp_path, monkeypatch, capsys,
                                              lead, price):
        import json
        from rld.cli import entry

        doc = sell_first_doc(price)
        doc["ladder"][0]["lead_time_hours"] = lead
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, "T": 12}))
        out = tmp_path / "o.csv"
        monkeypatch.setattr(
            "sys.argv", ["rld", "benchmark", "--policy", "3sigma,ct", "--scenario", str(bad),
                         "--out", str(out)])
        assert entry() == 2
        captured = capsys.readouterr()
        assert "lead time and price must be finite" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    def test_non_numeric_field_exits_2(self, tmp_path, monkeypatch):
        import json
        from conftest import DEFAULT_CURVE
        from rld.cli import entry

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "ladder": [{"lead_time_hours": 24.0, "price": 52.0}],
            "voll": "abc", "storage": {"B": 0.001}, "T": 6, "d_hat": 0.4,
            "curve": DEFAULT_CURVE,
        }))
        monkeypatch.setattr(
            "sys.argv",
            ["rld", "benchmark", "--scenario", str(bad), "--out", str(tmp_path / "o.csv")],
        )
        assert entry() == 2

    def test_solver_error_keeps_its_type_and_names_the_policy(
            self, tmp_path, monkeypatch, capsys):
        from rld import benchmark
        from rld.cli import entry
        from rld.dispatch import DegeneratePriceError

        class PriceOutOfRange(DegeneratePriceError):
            def __init__(self, price, limit):
                super().__init__(f"price {price} beyond {limit}")

        def fail(scenario, policy, **kwargs):
            raise PriceOutOfRange(99.0, 72.0)

        monkeypatch.setattr(benchmark, "solve_schedule", fail)
        with pytest.raises(PriceOutOfRange) as info:
            run_benchmark(make_scenario(T=6), ("ct",), n_runs=1)
        assert info.value.__notes__ == ["policy 'ct'"]
        monkeypatch.setattr(
            "sys.argv", ["rld", "benchmark", "--policy", "ct", "--out", str(tmp_path / "o.csv")]
        )
        assert entry() == 3
        assert "beyond 72.0; policy 'ct'" in capsys.readouterr().err

    def test_simulate_command_dumps_path(self, tmp_path):
        import json
        from conftest import DEFAULT_CURVE

        scenario = {
            "ladder": [
                {"lead_time_hours": 24.0, "price": 52.0, "direction": "buy"},
                {"lead_time_hours": 0.25, "price": 72.0, "direction": "buy"},
            ],
            "voll": 1000.0,
            "storage": {"B": 0.01},
            "T": 5,
            "d_hat": 0.3,
            "mean_share": 0.2,
            "curve": DEFAULT_CURVE,
        }
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "path.csv"
        runner = CliRunner()
        result = runner.invoke(main, [
            "simulate", "--scenario", str(path), "--engine", "ct",
            "--seed", "4", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,D_t,u_t,b_t,unserved,V,Q"
        assert len(lines) == 6

    def test_simulate_replays_the_path_only_for_out(self, tmp_path, monkeypatch):
        from rld import cli

        def replay(*args):
            raise AssertionError("simulate_delivery runs without --out")

        printed = CliRunner().invoke(main, ["simulate", "--engine", "ct", "--seed", "2"])
        assert printed.exit_code == 0, printed.output
        monkeypatch.setattr(cli, "simulate_delivery", replay)
        again = CliRunner().invoke(main, ["simulate", "--engine", "ct", "--seed", "2"])
        assert again.exit_code == 0, again.output
        assert again.output == printed.output

    def test_simulate_lossy_storage_cost_matches_dumped_path(self, tmp_path):
        import json
        import re
        from conftest import DEFAULT_CURVE

        scenario = {
            "ladder": [
                {"lead_time_hours": 24.0, "price": 52.0, "direction": "buy"},
                {"lead_time_hours": 0.25, "price": 72.0, "direction": "buy"},
            ],
            "voll": 1000.0,
            "storage": {"B": 0.01, "lambda": 0.9, "mu": 0.8, "nu": 0.7},
            "T": 12,
            "d_hat": 0.3,
            "mean_share": 0.2,
            "curve": DEFAULT_CURVE,
        }
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "path.csv"
        result = CliRunner().invoke(main, [
            "simulate", "--scenario", str(path), "--engine", "ct",
            "--seed", "5", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        printed = float(re.search(r"delivery_cost=(\S+)", result.output).group(1))
        v_final = float(out.read_text().strip().splitlines()[-1].split(",")[5])
        assert v_final > 0.0
        assert printed == pytest.approx(1000.0 * v_final, abs=5e-5)

    def test_repeated_policy_tags_give_one_row_each(self, tmp_path, monkeypatch):
        from rld.cli import entry

        out = tmp_path / "o.csv"
        monkeypatch.setattr("sys.argv", [
            "rld", "benchmark", "--policy", "3sigma,3sigma, ct,3sigma", "--runs", "10",
            "--no-timing", "--out", str(out)])
        assert entry() == 0
        assert [row.policy for row in read_results(out)] == ["3sigma", "ct", "ideal"]

    @pytest.mark.parametrize("curve", [
        {"curve_file": "curve.csv"}, {"curve_file": 5}, {"curve_file": None},
    ])
    def test_bad_curve_file_exits_2(self, tmp_path, monkeypatch, capsys, curve):
        import json
        from rld.cli import entry

        rows = "".join(f"{h},{s}\n" for h, s in DEFAULT_CURVE)
        (tmp_path / "curve.csv").write_text(f"horizon_hours,sigma\n{rows}1\n")   # a short row
        doc = {**sell_then_buy_doc(0.3), **curve}
        del doc["curve"]
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        monkeypatch.setattr("sys.argv", [
            "rld", "thresholds", "--engine", "ct", "--scenario", str(path), "--out", str(out)])
        assert entry() == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "curve" in err and "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def shipped_variant(tmp_path, edit):
        """The shipped scenario file after ``edit(doc)``, written to tmp_path."""
        import json

        doc = json.loads(SHIPPED.read_text())
        doc["curve_file"] = str(SHIPPED.parent / doc["curve_file"])
        edit(doc)
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("engine", ["lattice", "mc", "ct"])
    def test_huge_capacity_solves(self, tmp_path, monkeypatch, engine):
        # the lattice and mc grids span where the subgradient can move, which
        # does not depend on B: every engine solves B = 1e6 (the lattice at
        # T = 12, where its walks stay cheap)
        from rld.cli import entry

        def edit(doc):
            doc["storage"]["B"] = 1e6
            if engine == "lattice":
                doc["T"] = 12

        path = self.shipped_variant(tmp_path, edit)
        out = tmp_path / "o.csv"
        monkeypatch.setattr("sys.argv", [
            "rld", "thresholds", "--engine", engine, "--scenario", str(path), "--out", str(out)])
        assert entry() == 0
        assert out.exists()

    @pytest.mark.parametrize("engine", ["lattice", "mc", "ct"])
    def test_widely_spread_profile_grid_exits_2(self, tmp_path, monkeypatch, capsys, engine):
        # stage deficits of +-100 put the lattice and mc grid over 2**20
        # points: it is counted and refused before it is laid out.  The
        # analytic ct engine needs no grid and solves it
        from rld.cli import entry

        def edit(doc):
            doc["d_hat"] = [100.0 * (-1) ** t for t in range(doc["T"])]

        path = self.shipped_variant(tmp_path, edit)
        out = tmp_path / "o.csv"
        monkeypatch.setattr("sys.argv", [
            "rld", "thresholds", "--engine", engine, "--scenario", str(path), "--out", str(out)])
        if engine == "ct":
            assert entry() == 0
            return
        assert entry() == 2
        err = capsys.readouterr().err
        assert err.startswith("error: d_hat") and engine in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("engine", ["lattice", "mc", "ct", "3sigma"])
    def test_zero_fluctuation_under_a_revision_exits_2(self, tmp_path, monkeypatch, capsys,
                                                       engine):
        # mean_share 1 leaves no delivery fluctuation: the terminal
        # subgradient is a step, which the last stage's rule cannot integrate
        # across its revision without a cut (a residual of 2.3 against the
        # 1e-3 gate).  3sigma builds no terminal model
        from rld.cli import entry

        def edit(doc):
            doc["mean_share"] = 1.0

        path = self.shipped_variant(tmp_path, edit)
        out = tmp_path / "o.csv"
        monkeypatch.setattr("sys.argv", [
            "rld", "thresholds", "--engine", engine, "--scenario", str(path), "--out", str(out)])
        if engine == "3sigma":
            assert entry() == 0
            return
        assert entry() == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mean_share") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("engine", ["lattice", "mc"])
    def test_final_revision_past_the_engine_limit_exits_2(self, tmp_path, monkeypatch, capsys,
                                                          engine):
        # mean_share 0.99 puts the final revision at 9.95 delivery-interval
        # stds, where the last stage's rule misses the lattice and mc models'
        # turns (ct solves it)
        from rld.cli import entry

        def edit(doc):
            doc["mean_share"] = 0.99

        path = self.shipped_variant(tmp_path, edit)
        out = tmp_path / "o.csv"
        monkeypatch.setattr("sys.argv", [
            "rld", "thresholds", "--engine", engine, "--scenario", str(path), "--out", str(out)])
        assert entry() == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mean_share") and "ct engine" in err
        assert "Traceback" not in err and not out.exists()

    def test_ct_at_the_largest_capacities_exits_0(self, tmp_path, monkeypatch, capsys):
        # 2B overflows at B = 1e308: ct solves its B -> inf limit, with no
        # RuntimeWarning (an error under this suite's warning filter)
        from rld.cli import entry

        def edit(doc):
            doc["storage"]["B"] = 1e308

        path = self.shipped_variant(tmp_path, edit)
        out = tmp_path / "o.csv"
        monkeypatch.setattr("sys.argv", [
            "rld", "thresholds", "--engine", "ct", "--scenario", str(path), "--out", str(out)])
        assert entry() == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(np.isfinite(float(cell)) for row in rows for cell in row.split(",")
                   if cell != "ct")

    @pytest.mark.parametrize("args", [
        ["--mu", "0", "--sigma", "1e-200", "--capacity", "1"],
        ["--mu", "1", "--sigma", "1e200", "--capacity", "1e-200"],
    ], ids=["underflow", "overflow"])
    def test_rbm_width_out_of_range_exits_2(self, tmp_path, monkeypatch, capsys, args):
        # sigma^2 / 2B rounds to 0 or to inf: the pair is a bad option value
        from rld.cli import entry

        out = tmp_path / "o.csv"
        monkeypatch.setattr("sys.argv", ["rld", "rbm-table", *args, "--out", str(out)])
        assert entry() == 2
        captured = capsys.readouterr()
        assert "Invalid value for '--sigma' and '--capacity'" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    @pytest.mark.parametrize("command", [
        ["thresholds"], ["simulate"], ["benchmark"], ["sweep", "--axis", "D"], ["rbm-table"],
    ])
    def test_unwritable_out_exits_2_before_solving(self, tmp_path, monkeypatch, capsys,
                                                   command, target):
        from rld import benchmark, cli

        def solver(*args, **kwargs):
            raise AssertionError("a solver ran")

        for name in ("solve_schedule", "run_benchmark", "sweep"):
            monkeypatch.setattr(benchmark, name, solver)
        monkeypatch.setattr(cli, "rbm_long_run", solver)
        out = tmp_path / "missing" / "o.csv" if target == "missing directory" else tmp_path
        monkeypatch.setattr("sys.argv", ["rld", *command, "--out", str(out)])
        assert cli.entry() == 2
        err = capsys.readouterr().err
        assert "Invalid value for '--out'" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_plotdata_out_is_a_prefix_even_when_a_directory(self, tmp_path, monkeypatch):
        from rld.cli import entry

        (tmp_path / "curves").mkdir()
        # --out comes first: --format is read before it all the same
        monkeypatch.setattr("sys.argv", [
            "rld", "sweep", "--axis", "D", "--grid", "0.1", "--policy", "ct", "--runs", "8",
            "--no-timing", "--out", str(tmp_path / "curves"), "--format", "plotdata"])
        assert entry() == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "curves", "curves_ct.csv", "curves_ideal.csv"]

    def test_sweep_validates_every_point_before_solving(self, tmp_path, monkeypatch, capsys):
        from rld import benchmark
        from rld.cli import entry

        calls = []
        real = benchmark.solve_schedule
        monkeypatch.setattr(benchmark, "solve_schedule",
                            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        out = tmp_path / "o.csv"
        monkeypatch.setattr("sys.argv", [
            "rld", "sweep", "--axis", "B", "--grid", "1e-3,-1", "--policy", "3sigma,ct",
            "--out", str(out)])
        assert entry() == 2
        assert calls == []
        assert "storage.B" in capsys.readouterr().err
        assert not out.exists()
