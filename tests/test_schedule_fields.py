"""The ThresholdSchedule fields that perfbench/workloads.py reads.

``perfbench/run.py`` sums ``ThresholdSchedule.iterations`` into
``dispatch.bisection_iters`` and takes the largest
``ThresholdSchedule.residuals`` for ``dispatch.resid_max``; both need one
entry per ladder stage, and the iteration counts must be integers.
"""
import numpy as np
import pytest

from rld.benchmark import solve_schedule


@pytest.mark.parametrize("policy", ["3sigma", "ct", "lattice", "mc"])
def test_residuals_and_iterations_are_per_stage_arrays(small_scenario, policy):
    sched = solve_schedule(small_scenario, policy)
    R = small_scenario.ladder.n_stages
    for field in (sched.residuals, sched.iterations):
        assert isinstance(field, np.ndarray) and field.shape == (R,)
    assert np.issubdtype(sched.iterations.dtype, np.integer)
    assert np.all(sched.iterations >= 0)
