import numpy as np
import pytest
from click.testing import CliRunner

from rld.benchmark import (
    emit_results,
    evaluate_policies,
    read_results,
    run_benchmark,
    solve_schedule,
    sweep,
)
from rld.cli import main
from rld.rng import draw_policy_paths, run_generator
from conftest import make_scenario


@pytest.fixture(scope="module")
def cheap_scenario():
    return make_scenario(T=8, B=0.01, d=0.3)


@pytest.fixture(scope="module")
def cheap_schedules(cheap_scenario):
    return {
        tag: solve_schedule(cheap_scenario, tag, n_samples=20_000)
        for tag in ("3sigma", "ct")
    }


class TestRunBenchmark:
    def test_same_seed_identical_tables(self, cheap_scenario, cheap_schedules):
        kw = dict(n_runs=64, seed=9, schedules=cheap_schedules, record_timing=False)
        a = run_benchmark(cheap_scenario, ("3sigma", "ct"), **kw)
        b = run_benchmark(cheap_scenario, ("3sigma", "ct"), **kw)
        assert a == b

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


class TestSweep:
    def test_d_axis_reuses_offsets(self, cheap_scenario):
        table = sweep(cheap_scenario, "D", [0.2, 0.4], ("ct",), n_runs=64, seed=0,
                      record_timing=False)
        ds = sorted({row.d_total for row in table})
        assert ds == [0.2, 0.4]
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
            "--samples", "20000", "--out", str(out),
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
            "--samples", "20000", "--seed", "4", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,D_t,u_t,b_t,unserved,V,Q"
        assert len(lines) == 6

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
            "--samples", "20000", "--seed", "5", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        printed = float(re.search(r"delivery_cost=(\S+)", result.output).group(1))
        v_final = float(out.read_text().strip().splitlines()[-1].split(",")[5])
        assert v_final > 0.0
        assert printed == pytest.approx(1000.0 * v_final, abs=5e-5)
