"""Command-line surface: threshold tables, simulation, benchmarks, sweeps."""
from __future__ import annotations

import csv
import math
import sys
from importlib import resources
from pathlib import Path

import click
import numpy as np

from . import benchmark as bench
from .ctapprox import RbmParams, rbm_long_run
from .dispatch import ENGINES, DegeneratePriceError, simulate_policy_batch
from .model import ParseError, ScenarioError, Scenario, load_scenario
from .rng import draw_policy_paths
from .storage import simulate_delivery

EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _default_scenario_path() -> Path:
    return Path(resources.files("rld").joinpath("data/vi_scenario.json"))


def _load(path: str | None) -> Scenario:
    return load_scenario(Path(path) if path else _default_scenario_path())


def _numbers(positive: bool):
    """Option callback: comma-separated finite numbers, all > 0 if ``positive``."""
    def parse(ctx, param, text: str | None) -> list[float] | None:
        if text is None:
            return None
        try:
            values = [float(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise click.BadParameter(f"expected comma-separated numbers, got {text!r}") from exc
        if not values or any(not math.isfinite(v) or (positive and v <= 0.0) for v in values):
            kind = "positive finite" if positive else "finite"
            raise click.BadParameter(f"expected {kind} numbers, got {text!r}")
        return values
    return parse


_POLICIES = ("3sigma", *ENGINES)


def _policy_tags(ctx, param, text: str) -> list[str]:
    """The listed tags, each once, in first-seen order."""
    tags = list(dict.fromkeys(t.strip() for t in text.split(",") if t.strip()))
    if not tags or any(tag not in _POLICIES for tag in tags):
        raise click.BadParameter(f"expected tags from {', '.join(_POLICIES)}, got {text!r}")
    return tags


_policy_option = click.option(
    "--policy", default="3sigma,lattice,ct", show_default=True, callback=_policy_tags,
    help=f"Comma-separated policy tags from {', '.join(_POLICIES)}.")


@click.group()
def main():
    """Risk-limiting dispatch with fast storage."""


@main.command()
@click.option("--scenario", type=click.Path(exists=True), default=None)
@click.option("--engine", type=click.Choice(_POLICIES), default="lattice")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def thresholds(scenario, engine, seed, out):
    """Solve the per-stage thresholds and write them as CSV."""
    scn = _load(scenario)
    sched = bench.solve_schedule(scn, engine, seed=seed)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "lead_time", "price", "threshold", "engine", "residual"])
        for stage, offset, residual in zip(scn.ladder.stages, sched.offsets, sched.residuals):
            writer.writerow([
                stage.index, repr(float(stage.lead_time_hours)), repr(float(stage.price)),
                repr(float(scn.d_total + offset)), sched.engine, repr(float(residual)),
            ])
    click.echo(f"wrote {out}")


@main.command()
@click.option("--scenario", type=click.Path(exists=True), default=None)
@click.option("--engine", "--policy", "engine",
              type=click.Choice(_POLICIES), default="lattice")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="Optional delivery-path dump (t,D_t,u_t,b_t,unserved,V,Q).")
def simulate(scenario, engine, seed, out):
    """Run one seeded policy path and report its realized cost."""
    scn = _load(scenario)
    sched = bench.solve_schedule(scn, engine, seed=0)
    forecasts, deficits = scn.realize(*draw_policy_paths(1, scn.ladder.n_stages, scn.T, seed))
    purchases, x_final, delivery, total = (
        a[0] for a in simulate_policy_batch(sched, scn, forecasts, deficits))
    if out:
        deficits = deficits[0]
        outcome = simulate_delivery(deficits, x_final / scn.T, scn.storage, scn.cost)
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
        f"engine={engine} purchases={np.array2string(purchases, precision=6)} "
        f"x_final={x_final:.6f} delivery_cost={delivery:.4f} "
        f"total_cost={total:.4f}"
    )


@main.command(name="benchmark")
@click.option("--scenario", type=click.Path(exists=True), default=None)
@_policy_option
@click.option("--runs", type=click.IntRange(min=1), default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--timing/--no-timing", default=True, show_default=True,
              help="Record wall times (disable for byte-stable output).")
@click.option("--out", type=click.Path(), required=True)
def benchmark_cmd(scenario, policy, runs, seed, timing, out):
    """Monte Carlo policy comparison with common random numbers."""
    scn = _load(scenario)
    table = bench.run_benchmark(scn, policy, n_runs=runs, seed=seed, record_timing=timing)
    bench.emit_results(table, "csv", out)
    click.echo(f"wrote {out}")


@main.command()
@click.option("--scenario", type=click.Path(exists=True), default=None)
@click.option("--axis", type=click.Choice(["D", "B"]), required=True,
              help="D: the total mean deficit, spread evenly as D/T per stage (a "
                   "per-stage d_hat profile is replaced); B: the storage capacity.")
@click.option("--grid", default=None, callback=_numbers(False),
              help="Comma-separated grid values.")
@click.option("--grid-points", type=click.IntRange(min=1), default=9, show_default=True,
              help="Grid size when --grid is not given.")
@_policy_option
@click.option("--runs", type=click.IntRange(min=1), default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "plotdata"]), default="csv",
              show_default=True)
@click.option("--timing/--no-timing", default=True, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def sweep(scenario, axis, grid, grid_points, policy, runs, seed, fmt, timing, out):
    """Benchmark along a mean-deficit or capacity grid."""
    scn = _load(scenario)
    if grid is not None:
        values = grid
    elif axis == "D":
        values = list(np.linspace(-0.8, 0.8, grid_points))
    else:
        values = list(np.logspace(-4, -1, grid_points))
    table = bench.sweep(scn, axis, values, policy, n_runs=runs, seed=seed,
                        record_timing=timing)
    for written in bench.emit_results(table, fmt, out):
        click.echo(f"wrote {written}")


@main.command(name="rbm-table")
@click.option("--mu", default="-1,-0.5,0,0.5,1", show_default=True, callback=_numbers(False))
@click.option("--sigma", default="0.5,1,2", show_default=True, callback=_numbers(True))
@click.option("--capacity", default="0.5,1,2", show_default=True, callback=_numbers(True))
@click.option("--out", type=click.Path(), required=True)
def rbm_table(mu, sigma, capacity, out):
    """Long-run boundary push rates of the reflected process."""
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu", "sigma", "B", "v_rate", "q_rate"])
        for m in mu:
            for s in sigma:
                for b in capacity:
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
