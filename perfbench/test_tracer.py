"""Self-test of the traced run: self-time arithmetic and call counts known from the code.

    python3 -m pytest perfbench -q
"""
from pathlib import Path

import numpy as np
import pytest

import rld
from rld import dispatch, lattice, rng, walks
from rld.model import load_scenario
from tracer import Patches, Tracer

SCENARIO = Path(rld.__file__).resolve().parent / "data" / "vi_scenario.json"


@pytest.fixture
def traced():
    tracer = Tracer()
    with Patches() as patches:
        tracer.install(patches)
        yield tracer


def test_self_time_is_span_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    child = tr.wrap("child", lambda: None)

    def body():
        child()
        child()

    tr.wrap("parent", body)()
    assert tr.names == ["parent", "child", "child"]
    assert tr.parents == [-1, 0, 0]
    assert tr.durations() == [10.0, 2.0, 3.0]
    assert tr.self_times() == [5.0, 2.0, 3.0]
    stats = tr.summary()
    assert (stats["parent"].calls, stats["parent"].total_s, stats["parent"].self_s) == (1, 10.0, 5.0)
    assert (stats["child"].calls, stats["child"].total_s, stats["child"].self_s) == (2, 5.0, 5.0)


def test_span_ends_when_the_call_raises():
    ticks = iter([0.0, 2.5])
    tr = Tracer(clock=lambda: next(ticks))

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        tr.wrap("boom", boom)()
    assert tr.durations() == [2.5]


def test_patches_reach_by_name_imports_and_restore():
    original = walks.advance
    with Patches() as patches:
        patches.replace("walks", "advance", lambda fn: lambda *a, **k: fn(*a, **k))
        assert walks.advance is not original
        assert lattice.advance is walks.advance
    assert walks.advance is original and lattice.advance is original


def test_ideal_cost_makes_100_subgradient_sweeps(traced):
    deficits = np.random.default_rng(0).normal(0.01, 0.001, size=(5, 60))
    dispatch.ideal_costs_batch(deficits, 1e-3, 52.0, 1000.0)
    stats = traced.summary()
    assert stats["storage.subgradient_estimates_batch"].calls == 100
    assert stats["storage.delivery_costs_batch"].calls == 1


def test_draw_policy_paths_makes_one_generator_per_run(traced):
    rng.draw_policy_paths(37, 3, 60, seed=5)
    assert traced.summary()["rng.run_generator"].calls == 37


def test_lattice_terminal_grid_at_shipped_capacity(traced):
    scenario = load_scenario(SCENARIO)
    assert scenario.storage.capacity == 1e-3
    dispatch.build_terminal_model(scenario, "lattice")
    solves = [i for i, n in enumerate(traced.names)
              if n == "lattice.lattice_terminal_subgradient"]
    assert len(solves) == 203
    assert {traced.parent_name(i) for i in solves} == {"dispatch.build_terminal_model[lattice]"}
    stats = traced.summary()
    assert stats["lattice.build_lattice"].calls == stats["lattice.solve_lattice"].calls == 203
    assert stats["walks.advance"].calls > 0
