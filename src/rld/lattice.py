"""Exact expected delivery-interval cost by the forward law of the storage level.

``build_lattice`` lays out a row of stage drifts x - d_t per position and equal
panels of at most one stage std; ``solve_lattice`` pushes every row's law
(``rld.walks``) through the T stages, summing unserved energy and slope weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ForecastModel
from .normal import ndtr, npdf
from .walks import CUT, NormalStep, Step, advance, as_steps, empty_storage

# Positions times panels in one pass at most: each pair takes about 1.5 KB of memory,
# the stage operator that ``advance`` keeps in the pass's memo included.
_PANEL_ROWS = 2 ** 18


@dataclass(frozen=True, eq=False)
class Layout:
    shifts: np.ndarray    # (rows, T) stage drifts x - d_t
    steps: list[Step]     # one error step per delivery stage
    capacity: float
    width: float          # panel width; inf without a Gaussian step
    panels: np.ndarray    # (T,) panels after each stage; 0 before the first Gaussian step


def build_lattice(forecast: ForecastModel, capacity: float, supply,
                  steps: list[Step]) -> Layout:
    """Node layout for one row per per-stage ``supply``.

    A row's level exceeds its noiseless Lindley level by at most its noise's running max,
    which passes CUT stds of the summed Gaussian steps with probability below 3e-19
    (Levy's inequality), plus the deepest discrete atoms.  No level above the drawdown
    still to come (noiseless, plus CUT stds each for the rest of the noise's running max
    and min) falls short again: ``walks.advance`` lumps the mass there at B.  The panels
    cover, up to B, the lower of the two over every row: none after the last stage, and
    none at B = 0, where the width is a stage std, as at a B too large to split.
    """
    T = forecast.n_stages
    if T < 1:
        raise ValueError("need at least one delivery stage")
    if not capacity >= 0:
        raise ValueError(f"capacity must be nonnegative, got {capacity}")
    gauss = np.array([isinstance(s, NormalStep) and s.sigma > 0 for s in steps])
    late = np.flatnonzero(~gauss & (np.cumsum(gauss) > 0) & (capacity > 0))
    if late.size:   # a density (none at B = 0) takes no discrete step (see walks.advance)
        raise ValueError(f"delivery stage {late[0]}: a discrete or zero-std step after a Gaussian")
    shifts = np.asarray(supply, dtype=float).reshape(-1, 1) - forecast.d_hat
    if not np.isfinite(shifts).all():
        raise ValueError("accumulated positions must be finite")
    var = np.cumsum([s.sigma ** 2 if g else 0.0 for s, g in zip(steps, gauss)])
    drop = np.cumsum([max(0.0, -min(getattr(s, "atoms", (0.0,)))) for s in steps])
    walk = np.cumsum(shifts, axis=1)          # Lindley's level is walk - min(0, its minimum)
    lindley = walk - np.minimum(np.minimum.accumulate(walk, axis=1), 0.0)
    dip = walk - np.minimum.accumulate(walk[:, ::-1], axis=1)[:, ::-1]
    dip = np.maximum.accumulate(dip[:, ::-1], axis=1)[:, ::-1] + 2 * CUT * np.sqrt(var[-1] - var)
    reach = np.minimum(lindley + drop + CUT * np.sqrt(var), dip).max(axis=0, initial=0.0)
    sigma = float(min((s.sigma for s, g in zip(steps, gauss) if g), default=math.inf))
    cells = float(capacity) / sigma
    top = math.ceil(cells) if cells < 2.0 ** 52 else math.inf   # then no row gets near B
    width = capacity / top if 0 < top < math.inf else sigma
    panels = np.minimum(np.ceil(np.minimum(reach, capacity) / width), top)
    if panels.max(initial=0) > _PANEL_ROWS:
        raise ValueError(f"a position would take {panels.max():.3g} panels of {width:.3g}")
    return Layout(shifts, steps, capacity, width,
                  np.where(np.cumsum(gauss) > 0, panels, 0).astype(int))


def solve_lattice(layout: Layout, voll: float) -> tuple[np.ndarray, np.ndarray]:
    """Expected cost and subgradient of every layout row, in blocks of _PANEL_ROWS panels."""
    rows, T = layout.shifts.shape
    block = _PANEL_ROWS // max(int(layout.panels.max()), 1)
    stages = np.empty((2, rows, T))
    for start in range(0, rows, block):
        part, law, memo = slice(start, start + block), empty_storage(min(block, rows - start)), {}
        for t, step in enumerate(layout.steps):
            *stages[:, part, t], law = advance(law, step, layout.shifts[part, t], layout.capacity,
                                               layout.width, int(layout.panels[t]), memo)
    # Correctly rounded sums (a running one adds T ulps of T).  A path's short
    # stages weigh T at most, each counting its run since the last pin, so the
    # clip to [-VOLL, 0] only moves a far-short sum that rounded past -VOLL.
    unserved, weight = (np.fromiter(map(math.fsum, f.tolist()), float) for f in stages)
    return voll * unserved, np.clip(-voll / T * weight, -voll, 0.0)


def _terminal(x_accumulated, forecast: ForecastModel, capacity: float, voll: float,
              error_steps: list[Step] | None):
    """(cost, subgradient) of the delivery interval, broadcast over positions."""
    x_acc, T = np.asarray(x_accumulated, dtype=float), forecast.n_stages
    if error_steps is not None and len(error_steps) != T:
        raise ValueError("need one error step per delivery stage")
    steps = as_steps(forecast.sigma if error_steps is None else error_steps)
    cost, subgrad = solve_lattice(build_lattice(forecast, capacity, x_acc.reshape(-1) / T, steps),
                                  voll)
    if x_acc.ndim == 0:
        return float(cost[0]), float(subgrad[0])
    return cost.reshape(x_acc.shape), subgrad.reshape(x_acc.shape)


def lattice_terminal_cost(x_accumulated, forecast: ForecastModel, capacity: float,
                          voll: float, error_steps: list[Step] | None = None):
    """Expected VOLL cost of the delivery interval at accumulated energy x; broadcasts.
    Given ``error_steps``, the steps alone set the errors: ``forecast.sigma`` is not read."""
    return _terminal(x_accumulated, forecast, capacity, voll, error_steps)[0]


def lattice_terminal_subgradient(x_accumulated, forecast: ForecastModel, capacity: float,
                                 voll: float, error_steps: list[Step] | None = None):
    """Right derivative of the expected cost in the accumulated energy; broadcasts.
    Given ``error_steps``, the steps alone set the errors: ``forecast.sigma`` is not read."""
    return _terminal(x_accumulated, forecast, capacity, voll, error_steps)[1]


def closed_form_b0(x_accumulated, forecast: ForecastModel, voll: float):
    """Expected cost and subgradient without storage (B = 0): a newsvendor term per stage,
    zero-sigma stages at their hard limit; broadcasts over accumulated positions."""
    T, s = forecast.n_stages, forecast.sigma
    gap = np.asarray(x_accumulated, dtype=float)[..., None] / T - forecast.d_hat
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(s > 0, gap / np.where(s > 0, s, 1.0), 0.0)
    cost = voll * np.where(s > 0, s * npdf(z) - gap * ndtr(-z), np.maximum(-gap, 0.0)).sum(-1)
    subgrad = -voll / T * np.where(s > 0, ndtr(-z), gap < 0).sum(axis=-1)
    if np.ndim(x_accumulated) == 0:
        return float(cost), float(subgrad)
    return cost, subgrad
