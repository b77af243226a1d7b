"""Monte Carlo benchmark of dispatch policies with common random numbers."""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dispatch import (
    ThresholdSchedule,
    ideal_costs_batch,
    simulate_policy_batch,
    solve_thresholds_backward,
    three_sigma_schedule,
)
from .model import Scenario
from .rng import draw_policy_paths

RESULT_COLUMNS = ("policy", "D", "B", "n_runs", "mean_cost", "stderr",
                  "integration_cost", "wall_ms")


@dataclass(frozen=True)
class BenchmarkRow:
    policy: str
    d_total: float
    capacity: float
    n_runs: int
    mean_cost: float
    stderr: float
    integration_cost: float
    wall_ms: float


BenchmarkTable = list[BenchmarkRow]


def solve_schedule(scenario: Scenario, policy: str, *, n_samples: int = 200_000,
                   seed: int = 0) -> ThresholdSchedule:
    if policy == "3sigma":
        return three_sigma_schedule(
            scenario.curve, scenario.ladder, scenario.delivery_forecast()
        )
    return solve_thresholds_backward(scenario, policy, n_samples=n_samples, seed=seed)


def evaluate_policies(scenario: Scenario, schedules: dict[str, ThresholdSchedule],
                      n_runs: int, seed: int):
    """Per-run realized costs for each policy plus the perfect-foresight runs.

    All policies see the same innovation draws per run index, so cost
    differences are directly comparable path by path.
    """
    shifts, noise = draw_policy_paths(n_runs, scenario.ladder.n_stages, scenario.T, seed)
    costs: dict[str, np.ndarray] = {}
    for tag, schedule in schedules.items():
        _, _, _, totals = simulate_policy_batch(schedule, scenario, shifts, noise)
        costs[tag] = totals

    # perfect-foresight benchmark on the identical realized deficit paths
    _, deficits = scenario.realize(shifts, noise)
    day_ahead = float(scenario.ladder.prices[0])
    _, ideal = ideal_costs_batch(
        deficits, scenario.storage.capacity, day_ahead, scenario.cost.voll
    )
    return costs, ideal


def run_benchmark(scenario: Scenario, policies=("3sigma", "lattice", "ct"),
                  n_runs: int = 2000, seed: int = 0, *,
                  schedules: dict[str, ThresholdSchedule] | None = None,
                  solver_samples: int = 200_000,
                  record_timing: bool = True) -> BenchmarkTable:
    """Estimate each policy's expected cost and integration cost.

    Identical (scenario, seed, n_runs) triples give identical tables;
    pass ``record_timing=False`` for byte-stable output (wall times are
    reported as zero).
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if schedules is None:
        schedules = {}
    solved: dict[str, ThresholdSchedule] = {}
    solve_ms: dict[str, float] = {}
    for tag in policies:
        t0 = time.perf_counter()
        try:
            solved[tag] = schedules.get(tag) or solve_schedule(
                scenario, tag, n_samples=solver_samples, seed=0
            )
        except Exception as exc:
            # keep the exception as raised: its type picks the CLI exit code
            exc.__notes__ = [*getattr(exc, "__notes__", ()), f"policy {tag!r}"]
            raise
        solve_ms[tag] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    costs, ideal = evaluate_policies(scenario, solved, n_runs, seed)
    eval_ms = (time.perf_counter() - t0) * 1e3

    ideal_mean = float(ideal.mean())
    rows: BenchmarkTable = []
    for tag in policies:
        c = costs[tag]
        rows.append(BenchmarkRow(
            policy=tag,
            d_total=scenario.d_total,
            capacity=scenario.storage.capacity,
            n_runs=n_runs,
            mean_cost=float(c.mean()),
            stderr=float(c.std(ddof=1) / np.sqrt(n_runs)) if n_runs > 1 else 0.0,
            integration_cost=float(c.mean() - ideal_mean),
            wall_ms=(solve_ms[tag] + eval_ms) if record_timing else 0.0,
        ))
    rows.append(BenchmarkRow(
        policy="ideal",
        d_total=scenario.d_total,
        capacity=scenario.storage.capacity,
        n_runs=n_runs,
        mean_cost=ideal_mean,
        stderr=float(ideal.std(ddof=1) / np.sqrt(n_runs)) if n_runs > 1 else 0.0,
        integration_cost=0.0,
        wall_ms=eval_ms if record_timing else 0.0,
    ))
    return rows


def sweep(scenario: Scenario, axis: str, grid, policies=("3sigma", "lattice", "ct"),
          n_runs: int = 2000, seed: int = 0, *, solver_samples: int = 200_000,
          record_timing: bool = True) -> BenchmarkTable:
    """Run the benchmark along a D or B grid, one seed offset per point.

    Threshold offsets are forecast-relative, so a D sweep reuses the
    schedules solved at the first point; a B sweep re-solves per point.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("sweep grid must be nonempty")
    if axis not in ("D", "B"):
        raise ValueError(f"axis must be 'D' or 'B', got {axis!r}")
    table: BenchmarkTable = []
    shared: dict[str, ThresholdSchedule] | None = None
    for i, value in enumerate(grid):
        if axis == "D":
            point = scenario.with_d_total(float(value))
            if shared is None:
                shared = {
                    tag: solve_schedule(point, tag, n_samples=solver_samples, seed=0)
                    for tag in policies
                }
            schedules = {
                tag: replace(sched, thresholds=point.d_total + sched.offsets)
                for tag, sched in shared.items()
            }
        else:
            point = scenario.with_capacity(float(value))
            schedules = None
        table.extend(run_benchmark(
            point, policies, n_runs=n_runs, seed=seed + i,
            schedules=schedules, solver_samples=solver_samples,
            record_timing=record_timing,
        ))
    return table


def _fmt(v: float) -> str:
    return repr(float(v))


def emit_results(table: BenchmarkTable, fmt: str, path) -> list[Path]:
    """Write a benchmark table as one CSV or as per-policy curve files.

    ``plotdata`` writes ``<path>_<policy>.csv`` with one (D, B, cost) row
    per table entry for that policy; ``csv`` writes a single file with the
    canonical column set.  Returns the written paths.
    """
    if not table:
        raise ValueError("cannot emit an empty table")
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(RESULT_COLUMNS)
            for row in table:
                writer.writerow([
                    row.policy, _fmt(row.d_total), _fmt(row.capacity),
                    row.n_runs, _fmt(row.mean_cost), _fmt(row.stderr),
                    _fmt(row.integration_cost), _fmt(row.wall_ms),
                ])
        return [path]
    if fmt == "plotdata":
        written = []
        for policy in dict.fromkeys(row.policy for row in table):
            target = path.parent / f"{path.name}_{policy}.csv"
            with open(target, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["D", "B", "mean_cost", "integration_cost"])
                for row in table:
                    if row.policy == policy:
                        writer.writerow([
                            _fmt(row.d_total), _fmt(row.capacity),
                            _fmt(row.mean_cost), _fmt(row.integration_cost),
                        ])
            written.append(target)
        return written
    raise ValueError(f"unknown format {fmt!r}")


def read_results(path) -> BenchmarkTable:
    """Parse a CSV written by emit_results back into a table."""
    rows: BenchmarkTable = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != RESULT_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {reader.fieldnames}")
        for rec in reader:
            rows.append(BenchmarkRow(
                policy=rec["policy"],
                d_total=float(rec["D"]),
                capacity=float(rec["B"]),
                n_runs=int(rec["n_runs"]),
                mean_cost=float(rec["mean_cost"]),
                stderr=float(rec["stderr"]),
                integration_cost=float(rec["integration_cost"]),
                wall_ms=float(rec["wall_ms"]),
            ))
    return rows
