"""Monte Carlo benchmark of dispatch policies with common random numbers."""
from __future__ import annotations

import csv
import math
import time
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .dispatch import (
    ThresholdSchedule,
    ideal_costs_batch,
    simulate_policy_batch,
    solve_thresholds_backward,
    three_sigma_schedule,
)
from .model import BUY, SELL, Scenario
from .rng import policy_path_blocks

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


def solve_schedule(scenario: Scenario, policy: str, *, seed: int = 0) -> ThresholdSchedule:
    if policy == "3sigma":
        return three_sigma_schedule(scenario)
    return solve_thresholds_backward(scenario, policy, seed=seed)


def evaluate_policies(scenario: Scenario, schedules: dict[str, ThresholdSchedule],
                      n_runs: int, seed: int):
    """Per-run realized costs for each policy plus the perfect-foresight runs.

    All policies see the same innovation draws per run index, so cost
    differences are directly comparable path by path.  Runs are drawn,
    realized and scored one ``policy_path_blocks`` block at a time, so no
    (n_runs, T) array is built; one ``simulate_policy_batch`` call costs
    every policy of a block in one storage sweep.  The block also bounds
    the working copy of ``ideal_costs_batch``, which searches all the rows
    it is given at once.
    """
    # perfect-foresight benchmark on the identical realized deficit paths:
    # buys at the first buy price and sells at the highest sell price, the
    # best each direction offers (buy prices rise toward delivery, sell
    # prices fall, and every sell price lies below every buy price).  With
    # no sell stage, selling at 0 never beats holding: it gains nothing.
    stages = scenario.ladder.stages
    buy = next(s.price for s in stages if s.direction == BUY)
    sell = max((s.price for s in stages if s.direction == SELL), default=0.0)
    capacity, voll = scenario.storage.capacity, scenario.cost.voll
    costs = {tag: np.empty(n_runs) for tag in schedules}
    ideal = np.empty(n_runs)
    for rows, shifts, noise in policy_path_blocks(
            n_runs, scenario.ladder.n_stages, scenario.T, seed):
        forecasts, deficits = scenario.realize(shifts, noise)
        totals = simulate_policy_batch(schedules.values(), scenario, forecasts, deficits)[3]
        for tag, total in zip(schedules, totals):
            costs[tag][rows] = total
        ideal[rows] = ideal_costs_batch(deficits, capacity, buy, sell, voll)[1]
    return costs, ideal


def run_benchmark(scenario: Scenario, policies=("3sigma", "lattice", "ct"),
                  n_runs: int = 2000, seed: int = 0, *,
                  schedules: dict[str, ThresholdSchedule] | None = None,
                  record_timing: bool = True) -> BenchmarkTable:
    """Estimate each policy's expected cost and integration cost.

    A repeated policy tag counts once, in first-seen order.  Identical
    (scenario, seed, n_runs) triples give identical tables; pass
    ``record_timing=False`` for byte-stable output (wall times are
    reported as zero).
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    policies = tuple(dict.fromkeys(policies))
    if schedules is None:
        schedules = {}
    solved: dict[str, ThresholdSchedule] = {}
    solve_ms: dict[str, float] = {}
    for tag in policies:
        t0 = time.perf_counter()
        try:
            solved[tag] = schedules.get(tag) or solve_schedule(scenario, tag)
        except Exception as exc:
            # keep the exception as raised: its type picks the CLI exit code
            exc.__notes__ = [*getattr(exc, "__notes__", ()), f"policy {tag!r}"]
            raise
        solve_ms[tag] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    costs, ideal = evaluate_policies(scenario, solved, n_runs, seed)
    eval_ms = (time.perf_counter() - t0) * 1e3

    ideal_mean = float(ideal.mean())
    return [
        BenchmarkRow(
            policy=tag,
            d_total=scenario.d_total,
            capacity=scenario.storage.capacity,
            n_runs=n_runs,
            mean_cost=float(c.mean()),
            stderr=float(c.std(ddof=1) / np.sqrt(n_runs)) if n_runs > 1 else 0.0,
            integration_cost=float(c.mean() - ideal_mean),
            wall_ms=(solve_ms.get(tag, 0.0) + eval_ms) if record_timing else 0.0,
        )
        for tag, c in [(tag, costs[tag]) for tag in policies] + [("ideal", ideal)]
    ]


def sweep(scenario: Scenario, axis: str, grid, policies=("3sigma", "lattice", "ct"),
          n_runs: int = 2000, seed: int = 0, *, record_timing: bool = True) -> BenchmarkTable:
    """Run the benchmark along a D or B grid, one seed offset per point.

    Offsets are forecast-relative: a D sweep reuses the first point's
    schedules; a B sweep re-solves.  Points are validated before the first solve.
    """
    if axis not in ("D", "B"):
        raise ValueError(f"axis must be 'D' or 'B', got {axis!r}")
    at = scenario.with_d_total if axis == "D" else scenario.with_capacity
    points = [at(float(value)) for value in grid]
    if not points:
        raise ValueError("sweep grid must be nonempty")
    shared = {tag: solve_schedule(points[0], tag) for tag in policies} if axis == "D" else None
    table: BenchmarkTable = []
    for i, point in enumerate(points):
        table.extend(run_benchmark(
            point, policies, n_runs=n_runs, seed=seed + i,
            schedules=shared, record_timing=record_timing,
        ))
    return table


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and ``rows`` as one CSV file and return its path.

    A float cell (Python or numpy) is written as ``repr(float(v))``, which
    reads back to the same double, and a NaN as an empty field; every other
    cell is written unchanged.
    """
    def cell(v):
        if not isinstance(v, (float, np.floating)):
            return v
        return "" if math.isnan(v) else repr(float(v))

    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([cell(v) for v in row] for row in rows)
    return path


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
        return [write_csv(path, RESULT_COLUMNS, map(astuple, table))]
    if fmt == "plotdata":
        return [write_csv(path.parent / f"{path.name}_{policy}.csv",
                          ("D", "B", "mean_cost", "integration_cost"),
                          [(row.d_total, row.capacity, row.mean_cost, row.integration_cost)
                           for row in table if row.policy == policy])
                for policy in dict.fromkeys(row.policy for row in table)]
    raise ValueError(f"unknown format {fmt!r}")
