"""Recombinant-lattice evaluation of the expected delivery-interval cost.

Storage states after the optimal control are empty, full, or strictly
interior.  Merging histories that share the same algebraic form of the
effective deficit (realized deficit minus stored energy) keeps the state
count linear per stage, and every interior state is reached from its
nearest boundary ancestor through a run of "stay interior" moves.  So the
lattice is a set of boundary chains.  The chain that starts at level s on
the empty (side 0) or full (side 1) boundary is one constrained random
walk of the errors e_s + ... + e_{s+j}, held at chain position j in the
window (edge - B, edge] with upper edge

    edge_{s,j} = sum_{m=s}^{s+j} (x - d_m) + side * B

for per-stage supply x, predicted deficits d and capacity B.  Leaving the
window above is a shortfall that empties the storage; leaving it below
fills the storage.

The engine has two phases.  ``build_lattice`` lays out the window edges.
``solve_lattice`` walks each chain once from unit mass (its template),
finds the probability that each level's empty and full boundary state is
visited by a renewal recursion over the templates, and sums the chains'
shortfall costs and depths weighted by those visits.  When the profile is
constant and every stage has the same error step, every start level
shares start 0's template, so two walks cover the whole lattice.

Chain (side, s) meets the error step of stage t = s + j at chain position
j, so both layouts walk their templates in one sweep over the stages: at
stage t every running chain of a block of positions advances in one call,
and the chains that start at t step out of a point mass and join them.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import ndtr

from .model import ForecastModel
from .walks import NormalStep, Step, _join, _npdf, advance, as_steps, initial_state

# A chain walk starts with at most unit mass, so dropping it once its
# surviving mass is this small moves a cost or subgradient by about 1e-20
# of VOLL per chain, far beneath the rounding of their sums.  Deep-tail
# walks would otherwise linger for tens of steps with a window that
# outruns their grid, rebuilding their kernels at every step.
_NEGLIGIBLE = 1e-20
# Positions whose chains advance together in one stage sweep.  A walk
# carries about 15 KB (grid, weights, kernel spectrum, window fractions),
# and a block moves 2 * _BLOCK walks per step on a constant profile, up to
# 2 * T * _BLOCK (29 MB at T = 60) on a per-start lattice.
_BLOCK = 16


def build_lattice(forecast: ForecastModel, capacity: float, supply,
                  per_start: bool) -> np.ndarray:
    """Upper window edges of the boundary chains, indexed [side, start, row, j].

    ``supply`` holds one per-stage supply per row.  Without ``per_start``
    only start 0 is laid out, for a constant profile whose chains all
    share its template; its edges are (j+1)*(x - d_0) + side*B.  With it,
    chain s has its edges at j < T - s; the entries beyond are unused.
    """
    T = forecast.n_stages
    if T < 1:
        raise ValueError("need at least one delivery stage")
    if capacity <= 0:
        raise ValueError("lattice needs capacity > 0; use closed_form_b0 for B = 0")
    margins = np.asarray(supply, dtype=float).reshape(-1, 1) - forecast.d_hat
    sides = np.array([0.0, capacity])[:, None, None, None]
    if not per_start:
        return np.arange(1, T + 1) * margins[None, :, :1] + sides
    edges = np.zeros((1, T) + margins.shape)
    for s in range(T):
        edges[0, s, :, :T - s] = np.cumsum(margins[:, s:], axis=1)
    return edges + sides


def _templates(edges: np.ndarray, capacity: float, steps: list[Step]) -> np.ndarray:
    """Window results of every boundary chain, per unit start mass.

    Returns an array indexed [side, start, field (above, inside, below,
    above_moment), row, j]; the fields are zero past the chain's last level
    and once its walk has died.  Each block of positions is one sweep over
    the stages (see the module docstring).
    """
    _, S, n, T = edges.shape
    out = np.zeros((2, S, 4, n, T))
    for b in range(0, n, _BLOCK):
        block = slice(b, b + _BLOCK)
        # window edges by stage t = s + j, NaN before a chain starts
        his = np.full(edges[:, :, block].shape, np.nan)
        for s in range(S):
            his[:, s, :, s:] = edges[:, s, block, :T - s]
        chains = np.arange(his[..., 0].size).reshape(his.shape[:3])
        fields = np.zeros((T, 4) + chains.shape)   # [t, field, side, start, row]
        state = None
        for t in range(T):
            hi = his[..., t].ravel()
            lo = hi - capacity
            stage = fields[t].reshape(4, -1)
            if state is not None:
                res = advance(state, steps[t], lo, hi, floor=_NEGLIGIBLE)
                stage[:] = res.above, res.inside, res.below, res.above_moment
                state = res.state
            if t < S:
                # r_0 = 0 (the interval starts with empty storage), so a
                # per-start lattice has no full chain at level 0
                born = chains[:1 if t == 0 and S > 1 else 2, t].ravel()
                res = advance(initial_state(), steps[t], lo[born], hi[born], floor=_NEGLIGIBLE)
                stage[:, born] = res.above, res.inside, res.below, res.above_moment
                state = _join(state, res.state, born, hi.size)
        for s in range(S):
            out[:, s, :, block, :T - s] = fields[s:, :, :, s].transpose(2, 1, 3, 0)
    return out


def _anti_diagonal(a: np.ndarray, i: int) -> np.ndarray:
    """The view [row, s] of a[s, row, i-1-s] for s < i; ``a`` is indexed [start, row, j].

    When every start shares start 0's template, ``a`` has a zero start
    stride and this is the reversed slice a[0, :, i-1::-1].
    """
    st, sr, sj = a.strides
    return as_strided(a[0, :, i - 1], shape=(a.shape[1], i), strides=(sr, st - sj),
                      writeable=False)


def _boundary_visits(tmpl: np.ndarray) -> np.ndarray:
    """Probabilities q_i, r_i that level i's empty / full boundary state is visited.

    Returned as one array [q or r, row, i].  A chain started at level s
    exits at level s+j with its template mass of position j, so the
    boundary visits obey the renewal recursion
    q_i = sum_{s<i} q_s above^empty_{s,i-1-s} + r_s above^full_{s,i-1-s},
    and r_i likewise with the below masses; q_0 = 1 and r_0 = 0.
    """
    T = tmpl.shape[-1]
    tmpl = np.broadcast_to(tmpl, (2, T) + tmpl.shape[2:])
    visits = np.zeros((2, tmpl.shape[3], T))
    visits[0, :, 0] = 1.0
    for i in range(1, T):
        for side, field in ((0, 0), (1, 2)):   # leaving above empties, below fills
            visits[side, :, i] = sum(
                np.einsum("ns,ns->n", visits[c, :, :i], _anti_diagonal(tmpl[c, :, field], i))
                for c in range(2))
    return visits


def _chain_totals(visits: np.ndarray, per_position: np.ndarray) -> np.ndarray:
    """sum_s q_s sum_{j<T-s} f^empty_{s,j} + r_s sum_{j<T-s} f^full_{s,j}, per row.

    ``per_position`` is indexed [side, start, row, j]; a chain started at
    level s only has the positions j < T - s that lie inside the interval.
    """
    T = per_position.shape[-1]
    tail = np.broadcast_to(np.cumsum(per_position, axis=-1), (2, T) + per_position.shape[2:])
    return sum(np.einsum("ns,ns->n", visits[c], _anti_diagonal(tail[c], T)) for c in range(2))


def solve_lattice(edges: np.ndarray, capacity: float, steps: list[Step],
                  voll: float) -> tuple[np.ndarray, np.ndarray]:
    """Expected cost and subgradient of each row of ``build_lattice`` edges.

    ``steps`` holds one error step per delivery stage.
    """
    T = edges.shape[-1]
    tmpl = _templates(edges, capacity, steps)
    visits = _boundary_visits(tmpl)
    above, moment = tmpl[:, :, 0], tmpl[:, :, 3]
    # the state at chain position j has depth j and shortfall gap -edge_j
    cost = voll * _chain_totals(visits, moment - edges * above)
    subgrad = -voll / T * _chain_totals(visits, np.arange(1.0, T + 1.0) * above)
    return cost, subgrad


def _terminal(x_accumulated, forecast: ForecastModel, capacity: float, voll: float,
              error_steps: list[Step] | None):
    """(cost, subgradient) of the delivery interval, broadcast over positions."""
    x_acc = np.asarray(x_accumulated, dtype=float)
    T = forecast.n_stages
    supply = x_acc.reshape(-1) / T
    if error_steps is not None and len(error_steps) != T:
        raise ValueError("need one error step per delivery stage")
    steps = as_steps(forecast.sigma if error_steps is None else error_steps)
    # a chain walks a density after its first Gaussian step, and a density
    # takes no discrete step (see walks.advance)
    gaussian = np.array([isinstance(step, NormalStep) and step.sigma > 0 for step in steps])
    late = np.flatnonzero(~gaussian & (np.cumsum(gaussian) > 0))
    if late.size:
        raise ValueError(f"delivery stage {late[0]}: the lattice takes no discrete or "
                         "zero-std error step after a Gaussian one")
    per_start = bool(np.any(forecast.d_hat[1:] != forecast.d_hat[:-1])) \
        or any(step != steps[0] for step in steps)
    cost, subgrad = solve_lattice(build_lattice(forecast, capacity, supply, per_start),
                                  capacity, steps, voll)
    if x_acc.ndim == 0:
        return float(cost[0]), float(subgrad[0])
    return cost.reshape(x_acc.shape), subgrad.reshape(x_acc.shape)


def lattice_terminal_cost(x_accumulated, forecast: ForecastModel,
                          capacity: float, voll: float,
                          error_steps: list[Step] | None = None):
    """Expected VOLL cost of the delivery interval for accumulated energy x.

    Broadcasts over an array of accumulated positions.
    """
    return _terminal(x_accumulated, forecast, capacity, voll, error_steps)[0]


def lattice_terminal_subgradient(x_accumulated, forecast: ForecastModel,
                                 capacity: float, voll: float,
                                 error_steps: list[Step] | None = None):
    """Constrained subgradient of the expected cost in the accumulated energy.

    Broadcasts over an array of accumulated positions.
    """
    return _terminal(x_accumulated, forecast, capacity, voll, error_steps)[1]


def closed_form_b0(x_accumulated, forecast: ForecastModel, voll: float):
    """Expected cost and subgradient without storage (B = 0), in closed form.

    Each stage is an independent newsvendor term; zero-sigma stages take
    their hard limit.  Accepts a scalar or an array of accumulated
    positions and broadcasts.
    """
    x_acc = np.asarray(x_accumulated, dtype=float)
    T = forecast.n_stages
    x = x_acc[..., None] / T
    d = forecast.d_hat
    s = forecast.sigma
    gap = x - d
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(s > 0, gap / np.where(s > 0, s, 1.0), 0.0)
    soft_cost = s * _npdf(z) - gap * ndtr(-z)
    soft_grad = ndtr(-z)
    hard_cost = np.maximum(-gap, 0.0)
    hard_grad = (gap < 0).astype(float)
    cost = voll * np.where(s > 0, soft_cost, hard_cost).sum(axis=-1)
    subgrad = -voll / T * np.where(s > 0, soft_grad, hard_grad).sum(axis=-1)
    if np.isscalar(x_accumulated) or np.ndim(x_accumulated) == 0:
        return float(cost), float(subgrad)
    return cost, subgrad
