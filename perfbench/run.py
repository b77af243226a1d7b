"""Layered benchmark of rld: one workload per run, end to end or traced per layer.

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from any directory; the package is imported from ``src/`` next to this
directory.  The run repeats the workload, same seed each time, until
``--seconds`` have passed and at least twice, then checks the outputs.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with the
host's speed sampled during every repeat (see ``speed.py``); ``--trace 1``
alternates untraced and traced repeats and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import os

# Fixed before numpy loads, so the walks matvec is measured single-threaded.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedSampler  # noqa: E402
from tracer import TRACED, LayerStat, Patches, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIO = SRC / "rld" / "data" / "vi_scenario.json"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench"
MIN_REPEATS = 2       # the byte-identical CSV check needs two runs of one seed
# A traced run starts with an untraced warm-up repeat that its metrics
# leave out, then alternates traced and untraced repeats, so
# trace_overhead compares warm repeats only.
MIN_TRACED_REPEATS = 3
# fresh interpreters that only set up, for setup_s; one after each of the
# first repeats, so that they see more of the run than its last seconds
SETUP_PROBES = 6
SETUP_PROBE_TIMEOUT_S = 60
sys.path.insert(0, str(SRC))


def set_up(workload_name: str, tracer: Tracer | None = None):
    """Import rld and load the workload's scenario; returns (workload, scenario, seconds)."""
    t0 = time.perf_counter()
    import rld

    if Path(rld.__file__).resolve().parent != (SRC / "rld").resolve():
        raise RuntimeError(f"imported rld from {rld.__file__}, not from {SRC}")
    # imported here so that its imports are timed as part of the set-up
    import workloads

    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload_name!r}; "
                         f"choose {', '.join(workloads.WORKLOADS)} or all")
    workload = workloads.WORKLOADS[workload_name]
    with Patches() as patches:
        if tracer is not None:
            tracer.install(patches, [t for t in TRACED if t[0] == "model"])
        scenario = workloads.set_up(workload, SCENARIO)
    return workload, scenario, time.perf_counter() - t0


def setup_probe_seconds(workload_name: str) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--setup-probe"],
        capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def git_sha() -> str:
    """HEAD of the repository this benchmark sits in, with "+dirty" for
    uncommitted changes to tracked files; "unknown" outside a git checkout."""
    def git(*argv: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return "unknown"
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return git("rev-parse", "HEAD") + ("+dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args, repeats: list[tuple], setups: list[float]) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repeat_walls_s": [r[1] for r in repeats],
        "repeat_wall_refs": [r[4] for r in repeats if not math.isnan(r[4])],
        "setups_s": setups, "git_sha": git_sha(),
        "cpu_model": cpu_model(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas": openblas,
        "openblas_threads": BLAS_THREADS,
    }


def layer_metrics(tr: Tracer, rec) -> dict:
    """Per-layer counts and times of one traced repeat."""
    import workloads

    stats = tr.summary()

    def st(name: str) -> LayerStat:
        return stats.get(name, LayerStat())

    dur = tr.durations()
    solves = [i for i, n in enumerate(tr.names) if n == "lattice.lattice_terminal_subgradient"]
    in_build = [i for i in solves
                if (tr.parent_name(i) or "").startswith("dispatch.build_terminal_model")]
    # the Newton polish is the only caller of exact solves inside the recursion
    in_polish = [i for i in solves if tr.parent_name(i) == "dispatch.solve_delta_offsets"]
    m = {
        "walks.advance.calls": st("walks.advance").calls,
        "walks.advance.self_s": st("walks.advance").self_s,
        "lattice.solves": len(solves),
        "lattice.self_s": sum((s.self_s for n, s in stats.items() if n.startswith("lattice.")),
                              0.0),
        "dispatch.build.lattice_solves": len(in_build),
        "dispatch.polish.lattice_solves": len(in_polish),
        "dispatch.polish.s": sum((dur[i] for i in in_polish), 0.0),
        "dispatch.recursion.self_s": st("dispatch.solve_delta_offsets").self_s,
        "dispatch.bisection_iters": workloads.bisection_iters(rec),
        "dispatch.resid_max": workloads.resid_max(rec),
        "dispatch.ideal_costs_batch.s": st("dispatch.ideal_costs_batch").total_s,
        "dispatch.simulate_policy_batch.s": st("dispatch.simulate_policy_batch").total_s,
        "rng.run_generator.calls": st("rng.run_generator").calls,
        "rng.draw_policy_paths.s": st("rng.draw_policy_paths").total_s,
        "benchmark.evaluate_policies.self_s": st("benchmark.evaluate_policies").self_s,
    }
    for engine in ("lattice", "mc", "ct"):
        m[f"dispatch.build.{engine}_s"] = st(f"dispatch.build_terminal_model[{engine}]").total_s
    for name in ("storage.delivery_costs_batch", "storage.subgradient_estimates_batch",
                 "storage.simulate_delivery", "ctapprox.ct_terminal_subgradient"):
        m[f"{name}.calls"] = st(name).calls
        m[f"{name}.s"] = st(name).total_s
    return m


def run_workload(args) -> int:
    setup_tracer = Tracer() if args.trace else None
    workload, scenario, own_setup_s = set_up(args.workload, setup_tracer)
    import workloads
    from rld.benchmark import emit_results

    OUT_DIR.mkdir(exist_ok=True)
    csv_path = OUT_DIR / f"{workload.name}-{os.getpid()}.csv"
    checks = workloads.Checks()
    repeats = []          # (traced, wall_s, solve_s, eval_s, wall_ref)
    setups = [own_setup_s]
    layers = []           # per-layer metrics of each traced repeat
    previous_csv = rec = None
    min_repeats = MIN_TRACED_REPEATS if args.trace else MIN_REPEATS
    t_start = time.perf_counter()
    while len(repeats) < min_repeats or time.perf_counter() - t_start < args.seconds:
        traced = bool(args.trace) and len(repeats) % 2 == 1
        rec = workloads.Recorder()
        tr = Tracer() if traced else None
        # the traced run measures layers, not the host, so it samples no speed
        speed = SpeedSampler() if not args.trace else contextlib.nullcontext()
        with Patches() as patches:
            rec.install(patches)
            if tr is not None:
                tr.install(patches)
            with speed:
                t0 = time.perf_counter()
                table = workloads.run_once(workload, scenario, args.seed)
                wall = time.perf_counter() - t0
        if args.trace:
            repeats.append((traced, wall, rec.solve_s, rec.eval_s, math.nan))
        else:
            repeats.append((traced, wall - speed.overhead_s, rec.solve_s, rec.eval_s,
                            speed.in_refs(wall)))
            if len(setups) <= SETUP_PROBES:
                setups.append(setup_probe_seconds(args.workload))
        if tr is not None:
            layers.append(layer_metrics(tr, rec))
        workloads.check_outputs(checks, workload, rec, table)
        emit_results(table, "csv", csv_path)
        csv = csv_path.read_bytes()
        if previous_csv is not None:
            checks.check(csv == previous_csv, "same seed gave a different CSV")
        previous_csv = csv
    csv_path.unlink()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def median_of(column: int, traced: bool = False) -> float:
        rows = repeats[1:] if args.trace else repeats   # traced runs skip the warm-up
        return statistics.median(r[column] for r in rows if r[0] == traced)

    if args.trace:
        # median_low keeps counts whole when there are two traced repeats
        values = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
        values["model.load_scenario.s"] = setup_tracer.summary()["model.load_scenario"].total_s
        values["trace_overhead"] = median_of(1, traced=True) / median_of(1)
        values["wall_s"] = median_of(1)
        values["solve_s"] = median_of(2)
        values["eval_s"] = median_of(3)
        section = "per_layer"
    else:
        setups += [setup_probe_seconds(args.workload)
                   for _ in range(SETUP_PROBES + 1 - len(setups))]
        values = {
            "setup_s": statistics.median(setups),
            "wall_ref": median_of(4),
            "peak_rss_mb": peak_rss_mb,
            "grad_err": workloads.grad_err(rec, workload.accuracy_engine),
        }
        section = "end_to_end"

    spec = json.loads(SPEC.read_text())
    metrics = {}
    for entry in spec[section]:
        name, unit = entry["name"], entry["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{workload.name} {name} = {values[name]!r} {unit}")
    for failure in checks.failures:
        print(f"{workload.name} FAILED CHECK: {failure}")
    print(json.dumps({"metadata": metadata(args, repeats, setups)}))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload of BENCHMARK.json in its own process; prints each one's
    metrics, then a summary line.  A workload that exits with an error or
    overruns its time counts as one failed operation."""
    # a run measures for --seconds, finishes its last repeat, then probes set-up
    timeout_s = 2 * args.seconds + 120
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in json.loads(SPEC.read_text())["workloads"]):
        try:
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=timeout_s,
            )
            error = None if out.returncode == 0 else f"exit code {out.returncode}"
            sys.stderr.write(out.stderr)
        except subprocess.TimeoutExpired:
            error = f"no result within {timeout_s:g} s"
        if error is not None:
            print(f"{name} FAILED: {error}", flush=True)
            total["correct"] = False
            total["attempted"] += 1
            total["failed"] += 1
            continue
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    if not (SRC / "rld" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no rld sources under {SRC} or no {SPEC.name}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help=", ".join(w["name"] for w in spec["workloads"]) + " or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measuring time per workload (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import rld and load the scenario; print setup_s")
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(json.dumps({"setup_s": set_up(args.workload)[2]}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
