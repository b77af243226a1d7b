"""The benchmark's workloads, the coarse timers around them and their output checks.

Every workload is one closed loop: one process, one caller, sequential
calls into ``rld.benchmark.run_benchmark``, the function behind the
``rld benchmark`` command.  The workload seed is the Monte Carlo evaluation
seed; the solvers run with their fixed seed 0, as in ``run_benchmark``.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
from rld import benchmark, model
from rld.lattice import lattice_terminal_subgradient

from tracer import Patches

VOLL_RESID_GATE = 1e-6       # solver residual bound, as a share of VOLL
DOMINANCE_TOL = 1e-9         # policy path cost >= perfect-foresight cost - tol
# w probes in units of sqrt(T * delivery variance), off the interpolation grid
PROBE_UNITS = np.linspace(-2.4, 2.4, 11) + 1.0 / 32.0


@dataclass(frozen=True)
class Workload:
    name: str
    policies: tuple[str, ...]
    n_runs: int
    efficiency: float | None = None                  # lambda = mu = nu, None = ideal
    accuracy_engine: str = "lattice"                 # engine scored by grad_err


WORKLOADS = {
    w.name: w for w in (
        # README default `rld benchmark`; the lattice engine dominates.
        Workload("shipped", ("3sigma", "lattice", "ct"), 2000),
        # Monte Carlo engine, RNG, ideal cost and (n, T) arrays; no lattice.
        Workload("monte-carlo", ("3sigma", "mc", "ct"), 50_000, accuracy_engine="mc"),
        # Lossy storage: evaluation falls back to the scalar storage loop.
        Workload("lossy-storage", ("3sigma", "ct"), 4000, efficiency=0.95,
                 accuracy_engine="ct"),
    )
}


def set_up(workload: Workload, scenario_path):
    """Load the shipped scenario and apply the workload's storage variant.

    Calls go through the ``rld`` modules, so the traced run sees them.
    """
    scenario = model.load_scenario(scenario_path)
    if workload.efficiency is not None:
        e = workload.efficiency
        scenario = replace(scenario,
                           storage=model.StorageSpec(scenario.storage.capacity, e, e, e))
    return scenario


def run_once(workload: Workload, scenario, seed: int):
    """One closed-loop call; returns the benchmark table."""
    return benchmark.run_benchmark(scenario, workload.policies, n_runs=workload.n_runs,
                                   seed=seed, record_timing=False)


@dataclass
class Recorder:
    """Coarse timers around ``solve_schedule`` and ``evaluate_policies``.

    Solve and evaluation times come from these timers, never from
    ``BenchmarkRow.wall_ms``: that column adds the evaluation time shared by
    all policies to every policy row, and gives the ``ideal`` row only the
    evaluation time, so summing it double-counts evaluation.  The recorder
    also keeps what the timed calls returned (schedules, per-path costs,
    terminal models) for the checks, which run outside the timed region.
    """

    solve_s: float = 0.0
    eval_s: float = 0.0
    solves: list = field(default_factory=list)       # (scenario, policy, schedule)
    evaluations: list = field(default_factory=list)  # (costs by policy, ideal costs)
    models: list = field(default_factory=list)       # (scenario, TerminalModel)

    def install(self, patches: Patches) -> None:
        def time_solve(fn):
            def solve_schedule(scenario, policy, *args, **kwargs):
                t0 = time.perf_counter()
                schedule = fn(scenario, policy, *args, **kwargs)
                self.solve_s += time.perf_counter() - t0
                self.solves.append((scenario, policy, schedule))
                return schedule
            return solve_schedule

        def time_eval(fn):
            def evaluate_policies(*args, **kwargs):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                self.eval_s += time.perf_counter() - t0
                self.evaluations.append(out)
                return out
            return evaluate_policies

        def keep_model(fn):
            def build_terminal_model(scenario, *args, **kwargs):
                terminal = fn(scenario, *args, **kwargs)
                self.models.append((scenario, terminal))
                return terminal
            return build_terminal_model

        patches.replace("benchmark", "solve_schedule", time_solve)
        patches.replace("benchmark", "evaluate_policies", time_eval)
        patches.replace("dispatch", "build_terminal_model", keep_model)


@dataclass
class Checks:
    """Output checks; each one is an operation, a failed one a failed operation."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_outputs(checks: Checks, workload: Workload, rec: Recorder, table) -> None:
    for scenario, policy, schedule in rec.solves:
        if policy == "lattice":
            gate = VOLL_RESID_GATE * scenario.cost.voll
            checks.check(bool(np.all(schedule.residuals < gate)),
                         f"lattice residual {np.max(schedule.residuals)} >= {gate}")
    for costs, ideal in rec.evaluations:
        checks.check(bool(np.all(np.isfinite(ideal))), "non-finite ideal cost")
        for tag, c in costs.items():
            checks.check(bool(np.all(np.isfinite(c))), f"non-finite {tag} cost")
            below = int(np.sum(c < ideal - DOMINANCE_TOL))
            checks.check(below == 0, f"{below} {tag} paths cost less than perfect foresight")
        if workload.name == "shipped":
            d = costs["3sigma"] - costs["lattice"]
            se = d.std(ddof=1) / math.sqrt(d.size)
            checks.check(bool(d.mean() >= -3.0 * se),
                         f"3sigma - lattice mean {d.mean()} < -3 stderr {se}")
    values = [[r.mean_cost, r.stderr, r.integration_cost] for r in table]
    checks.check(bool(np.all(np.isfinite(values))), "non-finite benchmark table entry")


def grad_err(rec: Recorder, engine: str) -> float:
    """Worst |engine - exact lattice| subgradient over the probes, over VOLL.

    Probes the terminal models the timed solves built.  Call outside the
    timed region: every probe is an exact lattice solve.
    """
    worst = -math.inf
    for scenario, terminal in rec.models:
        if terminal.engine != engine:
            continue
        fc = scenario.delivery_forecast()
        voll = scenario.cost.voll
        ws = PROBE_UNITS * math.sqrt(scenario.T * scenario.delivery_fluctuation_variance)
        approx = np.asarray(terminal.grad(ws), dtype=float)
        exact = np.array([
            lattice_terminal_subgradient(w + fc.total_mean, fc, scenario.storage.capacity, voll)
            for w in ws
        ])
        worst = max(worst, float(np.max(np.abs(approx - exact))) / voll)
    if worst == -math.inf:
        raise RuntimeError(f"no {engine} terminal model was built")
    return worst


def resid_max(rec: Recorder) -> float:
    """Largest stage residual over VOLL across the solved (non rule-of-thumb) schedules."""
    return max(float(np.max(s.residuals)) / sc.cost.voll
               for sc, policy, s in rec.solves if policy != "3sigma")


def bisection_iters(rec: Recorder) -> int:
    return int(sum(int(np.sum(s.iterations)) for _, _, s in rec.solves))
