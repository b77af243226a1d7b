"""Command-line surface: threshold tables, simulation, benchmarks, sweeps."""
from __future__ import annotations

import csv
import sys
from importlib import resources
from pathlib import Path

import click
import numpy as np

from . import benchmark as bench
from .ctapprox import RbmParams, rbm_long_run
from .dispatch import DegeneratePriceError, simulate_policy
from .model import ParseError, ScenarioError, Scenario, load_scenario
from .rng import run_generator
from .storage import simulate_delivery

EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _default_scenario_path() -> Path:
    return Path(resources.files("rld").joinpath("data/vi_scenario.json"))


def _load(path: str | None) -> Scenario:
    return load_scenario(Path(path) if path else _default_scenario_path())


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise click.BadParameter(f"expected comma-separated numbers, got {text!r}") from exc


@click.group()
def main():
    """Risk-limiting dispatch with fast storage."""


@main.command()
@click.option("--scenario", type=click.Path(exists=True), default=None)
@click.option("--engine", type=click.Choice(["lattice", "mc", "ct", "3sigma"]), default="lattice")
@click.option("--samples", type=int, default=200_000, show_default=True,
              help="Quasi Monte Carlo samples in the stage recursion.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def thresholds(scenario, engine, samples, seed, out):
    """Solve the per-stage thresholds and write them as CSV."""
    scn = _load(scenario)
    sched = bench.solve_schedule(scn, engine, n_samples=samples, seed=seed)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "lead_time", "price", "threshold", "engine", "residual"])
        for r in range(len(sched.prices)):
            writer.writerow([
                r + 1, repr(float(sched.lead_times[r])), repr(float(sched.prices[r])),
                repr(float(sched.thresholds[r])), sched.engine,
                repr(float(sched.residuals[r])),
            ])
    click.echo(f"wrote {out}")


@main.command()
@click.option("--scenario", type=click.Path(exists=True), default=None)
@click.option("--engine", "--policy", "engine",
              type=click.Choice(["lattice", "mc", "ct", "3sigma"]), default="lattice")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--samples", type=int, default=200_000, show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="Optional delivery-path dump (t,D_t,u_t,b_t,unserved,V,Q).")
def simulate(scenario, engine, seed, samples, out):
    """Run one seeded policy path and report its realized cost."""
    scn = _load(scenario)
    sched = bench.solve_schedule(scn, engine, n_samples=samples, seed=0)
    gen = run_generator(seed, 0)
    shift_normals = gen.standard_normal(scn.ladder.n_stages)
    noise_normals = gen.standard_normal(scn.T)
    result = simulate_policy(sched, scn, shift_normals, noise_normals)
    deficits = scn.realize(shift_normals, noise_normals)[1][0]
    outcome = simulate_delivery(deficits, result.x_final / scn.T, scn.storage, scn.cost)
    if out:
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "D_t", "u_t", "b_t", "unserved", "V", "Q"])
            for t in range(scn.T):
                writer.writerow([
                    t + 1, repr(float(deficits[t])), repr(float(outcome.actions[t])),
                    repr(float(outcome.levels[t + 1])), repr(float(outcome.unserved[t])),
                    repr(float(outcome.cumulative_unserved[t])),
                    repr(float(outcome.cumulative_curtailed[t])),
                ])
        click.echo(f"wrote {out}")
    click.echo(
        f"engine={engine} purchases={np.array2string(result.purchases, precision=6)} "
        f"x_final={result.x_final:.6f} delivery_cost={result.delivery_cost:.4f} "
        f"total_cost={result.total_cost:.4f}"
    )


@main.command(name="benchmark")
@click.option("--scenario", type=click.Path(exists=True), default=None)
@click.option("--policy", default="3sigma,lattice,ct", show_default=True,
              help="Comma-separated policy tags.")
@click.option("--runs", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--samples", type=int, default=200_000, show_default=True)
@click.option("--timing/--no-timing", default=True, show_default=True,
              help="Record wall times (disable for byte-stable output).")
@click.option("--out", type=click.Path(), required=True)
def benchmark_cmd(scenario, policy, runs, seed, samples, timing, out):
    """Monte Carlo policy comparison with common random numbers."""
    scn = _load(scenario)
    tags = [t.strip() for t in policy.split(",") if t.strip()]
    table = bench.run_benchmark(
        scn, tags, n_runs=runs, seed=seed,
        solver_samples=samples, record_timing=timing,
    )
    bench.emit_results(table, "csv", out)
    click.echo(f"wrote {out}")


@main.command()
@click.option("--scenario", type=click.Path(exists=True), default=None)
@click.option("--axis", type=click.Choice(["D", "B"]), required=True)
@click.option("--grid", default=None, help="Comma-separated grid values.")
@click.option("--grid-points", type=int, default=9, show_default=True,
              help="Grid size when --grid is not given.")
@click.option("--policy", default="3sigma,lattice,ct", show_default=True)
@click.option("--runs", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--samples", type=int, default=200_000, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "plotdata"]), default="csv",
              show_default=True)
@click.option("--timing/--no-timing", default=True, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def sweep(scenario, axis, grid, grid_points, policy, runs, seed, samples, fmt, timing, out):
    """Benchmark along a mean-deficit or capacity grid."""
    scn = _load(scenario)
    tags = [t.strip() for t in policy.split(",") if t.strip()]
    if grid is not None:
        values = _parse_floats(grid)
    elif axis == "D":
        values = list(np.linspace(-0.8, 0.8, grid_points))
    else:
        values = list(np.logspace(-4, -1, grid_points))
    table = bench.sweep(
        scn, axis, values, tags, n_runs=runs, seed=seed,
        solver_samples=samples, record_timing=timing,
    )
    for written in bench.emit_results(table, fmt, out):
        click.echo(f"wrote {written}")


@main.command(name="rbm-table")
@click.option("--mu", default="-1,-0.5,0,0.5,1", show_default=True)
@click.option("--sigma", default="0.5,1,2", show_default=True)
@click.option("--capacity", default="0.5,1,2", show_default=True)
@click.option("--out", type=click.Path(), required=True)
def rbm_table(mu, sigma, capacity, out):
    """Long-run boundary push rates of the reflected process."""
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu", "sigma", "B", "v_rate", "q_rate"])
        for m in _parse_floats(mu):
            for s in _parse_floats(sigma):
                for b in _parse_floats(capacity):
                    v, q = rbm_long_run(RbmParams(m, s, b))
                    writer.writerow([repr(m), repr(s), repr(b), repr(v), repr(q)])
    click.echo(f"wrote {out}")


def _describe(exc: Exception) -> str:
    """The message plus any context notes attached on the way up."""
    return "; ".join([str(exc), *getattr(exc, "__notes__", ())])


def entry() -> int:
    try:
        main.main(standalone_mode=False)
    except (ScenarioError, ParseError) as exc:
        click.echo(f"error: {_describe(exc)}", err=True)
        return EXIT_VALIDATION
    except DegeneratePriceError as exc:
        click.echo(f"solver error: {_describe(exc)}", err=True)
        return EXIT_SOLVER
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.Abort:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(entry())
