"""Recombinant-lattice evaluation of the expected delivery-interval cost.

Storage states after the optimal control are empty, full, or strictly
interior.  Merging histories that share the same algebraic form of the
effective deficit (realized deficit minus stored energy) keeps the state
count linear per stage: level t holds 2t-1 nodes.  Every interior node is
reached from its nearest boundary ancestor through a run of "stay
interior" moves, so each such chain is one constrained random walk and the
whole lattice is covered by 2T-1 walks (one per boundary node).

Node conventions, with per-stage supply x and capacity B: a node moves
left (storage empties, shortfall) when its effective-deficit error exceeds
x - d_eff, right (storage fills, curtailment) when the error is at most
x - B - d_eff, and to its middle child otherwise.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .model import ForecastModel
from .walks import (
    NormalStep,
    Step,
    advance,
    as_steps,
    initial_state,
    walk_rectangle_prob,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _npdf(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


@dataclass(frozen=True, eq=False)
class Lattice:
    """Node geometry: predicted effective deficits and boundary depths."""

    n_stages: int
    capacity: float
    supply: float                   # per-stage x
    forecast: ForecastModel
    d_eff: list[np.ndarray]         # level i holds 2i+1 nodes, k is 1-based
    depth: list[np.ndarray]

    def level_size(self, i: int) -> int:
        return 2 * i + 1

    def lower_bound(self, i: int, k: int) -> float:
        return self.supply - self.capacity - self.d_eff[i][k - 1]

    def upper_bound(self, i: int, k: int) -> float:
        return self.supply - self.d_eff[i][k - 1]

    def chain(self, i: int, k: int):
        """Walk data from node (i, k)'s boundary ancestor down to itself.

        Returns (step_stds, lower_bounds, upper_bounds), one entry per
        chain position; the error of node (i, k) is the sum of the listed
        steps and the bounds are its ancestors' stay-interior windows.
        """
        h = int(self.depth[i][k - 1])
        i0, k0 = i - h, k - h
        stds = [float(self.forecast.sigma[i0 + m]) for m in range(h + 1)]
        lows = [self.lower_bound(i0 + m, k0 + m) for m in range(h + 1)]
        highs = [self.upper_bound(i0 + m, k0 + m) for m in range(h + 1)]
        return stds, lows, highs


@dataclass(frozen=True)
class NodeProbabilities:
    visit: float
    left: float
    mid: float
    right: float


@dataclass(frozen=True, eq=False)
class LatticeSolution:
    lattice: Lattice
    voll: float
    visit: list[np.ndarray]
    left: list[np.ndarray]
    mid: list[np.ndarray]
    right: list[np.ndarray]
    left_moment: list[np.ndarray]   # E[effective-deficit error; visit and move left]
    cost: float
    subgradient: float


def _check_lattice(forecast: ForecastModel, capacity: float) -> None:
    if forecast.n_stages < 1:
        raise ValueError("need at least one delivery stage")
    if capacity <= 0:
        raise ValueError("lattice needs capacity > 0; use closed_form_b0 for B = 0")


def build_lattice(forecast: ForecastModel, capacity: float, supply: float) -> Lattice:
    """Populate every node's predicted effective deficit and depth."""
    _check_lattice(forecast, capacity)
    T = forecast.n_stages
    d = forecast.d_hat
    prefix = np.concatenate(([0.0], np.cumsum(d)))
    d_eff: list[np.ndarray] = []
    depth: list[np.ndarray] = []
    for i in range(T):
        K = 2 * i + 1
        k = np.arange(1, K + 1)
        h = np.minimum(k - 1, K - k)
        # deficits accumulated since the storage last sat at a boundary,
        # less the supply provided over those stages
        vals = prefix[i + 1] - prefix[i - h] - h * supply
        vals = np.where(k > i + 1, vals - capacity, vals)
        d_eff.append(vals)
        depth.append(h)
    return Lattice(T, float(capacity), float(supply), forecast, d_eff, depth)


# A chain walk starts with at most unit mass, so dropping it once its
# surviving mass is this small moves a cost or subgradient by about 1e-20
# of VOLL per chain, far beneath the rounding of their sums.  Deep-tail
# walks would otherwise linger for tens of steps with a window that
# outruns their grid, rebuilding their kernels at every step.
_NEGLIGIBLE = 1e-20
# Positions whose template walks advance together; each walk keeps a
# 257 x 257 Gaussian kernel (0.53 MB), so this bounds the kernel memory.
_BLOCK = 16


def _run_chain(solution_arrays, lattice: Lattice, start_level: int, side: str,
               start_prob: float, steps: list[Step], kernels: dict) -> None:
    """Propagate one boundary chain, writing per-node masses in place."""
    visit, left, mid, right, moment = solution_arrays
    T = lattice.n_stages
    state = initial_state()
    carry = 1.0
    for j in range(T - start_level):
        i = start_level + j
        k = (1 + j) if side == "left" else (2 * start_level + 1 + j)
        lo = lattice.lower_bound(i, k)
        hi = lattice.upper_bound(i, k)
        res = advance(state, steps[i], lo, hi, floor=_NEGLIGIBLE, kernels=kernels)
        visit[i][k - 1] = start_prob * carry
        left[i][k - 1] = start_prob * res.above
        mid[i][k - 1] = start_prob * res.inside
        right[i][k - 1] = start_prob * res.below
        moment[i][k - 1] = start_prob * res.above_moment
        state = res.state
        carry = res.inside
        if state is None:
            break


def _upper_edges(margins: np.ndarray, capacity: float, T: int) -> np.ndarray:
    """Upper window edges (j+1)*margin + offset of the boundary chains.

    Indexed [chain, row, j]: offset 0 gives the empty-boundary chain and
    offset +capacity the full-boundary chain; each window is capacity wide.
    """
    return np.arange(1, T + 1) * margins[:, None] + np.array([0.0, capacity])[:, None, None]


def _templates(edges: np.ndarray, capacity: float, sigma: float) -> np.ndarray:
    """Window results of the constant-profile boundary chains, per unit start mass.

    Returns an array indexed [chain, field (above, inside, below,
    above_moment), row, j]; the fields are zero once a walk has died.
    """
    _, n, T = edges.shape
    out = np.zeros((2, 4, n, T))
    step = NormalStep(sigma)
    for c in range(2):
        for b in range(0, n, _BLOCK):
            block = slice(b, b + _BLOCK)
            state = initial_state()
            for j in range(T):
                hi = edges[c, block, j]
                res = advance(state, step, hi - capacity, hi, floor=_NEGLIGIBLE)
                out[c, :, block, j] = res.above, res.inside, res.below, res.above_moment
                state = res.state
                if state is None:
                    break
    return out


def _boundary_visits(tmpl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities q_i, r_i that level i's empty / full boundary node is visited.

    A chain started at level s exits at level s+j with the template mass of
    position j, so the boundary visits obey the renewal recursion
    q_i = sum_{s<i} q_s above^empty_{i-1-s} + r_s above^full_{i-1-s}, and
    r_i likewise with the below masses; q_0 = 1 and r_0 = 0.
    """
    above_l, above_r = tmpl[0, 0], tmpl[1, 0]
    below_l, below_r = tmpl[0, 2], tmpl[1, 2]
    n, T = above_l.shape
    q = np.zeros((n, T))
    r = np.zeros((n, T))
    q[:, 0] = 1.0
    for i in range(1, T):
        back = slice(i - 1, None, -1)
        q[:, i] = np.einsum("ns,ns->n", q[:, :i], above_l[:, back]) \
            + np.einsum("ns,ns->n", r[:, :i], above_r[:, back])
        r[:, i] = np.einsum("ns,ns->n", q[:, :i], below_l[:, back]) \
            + np.einsum("ns,ns->n", r[:, :i], below_r[:, back])
    return q, r


def _chain_totals(q: np.ndarray, r: np.ndarray, per_position: np.ndarray) -> np.ndarray:
    """sum_s q_s sum_{j<T-s} f^empty_j + r_s sum_{j<T-s} f^full_j, per row.

    ``per_position`` is indexed [chain, row, j]; a chain started at level s
    only has the positions j < T - s that lie inside the interval.
    """
    tail = np.cumsum(per_position, axis=-1)[..., ::-1]
    return np.einsum("ns,ns->n", q, tail[0]) + np.einsum("ns,ns->n", r, tail[1])


def solve_lattice(lattice: Lattice, voll: float, error_steps: list[Step] | None = None,
                  *, kernels: dict | None = None) -> LatticeSolution:
    """Compute all node probabilities, the expected cost and its subgradient.

    ``kernels`` shares walk kernels between calls (see ``walks.advance``);
    by default the chains of this call share a dict of their own.
    """
    T = lattice.n_stages
    x = lattice.supply
    if error_steps is not None and len(error_steps) != T:
        raise ValueError("need one error step per delivery stage")
    steps = as_steps(lattice.forecast.sigma) if error_steps is None else list(error_steps)
    kernels = {} if kernels is None else kernels

    visit = [np.zeros(2 * i + 1) for i in range(T)]
    left = [np.zeros(2 * i + 1) for i in range(T)]
    mid = [np.zeros(2 * i + 1) for i in range(T)]
    right = [np.zeros(2 * i + 1) for i in range(T)]
    moment = [np.zeros(2 * i + 1) for i in range(T)]
    arrays = (visit, left, mid, right, moment)
    _run_chain(arrays, lattice, 0, "left", 1.0, steps, kernels)
    for i0 in range(1, T):
        # boundary visit probabilities: sums of the previous level's exits
        q = float(left[i0 - 1].sum())
        r = float(right[i0 - 1].sum())
        _run_chain(arrays, lattice, i0, "left", q, steps, kernels)
        _run_chain(arrays, lattice, i0, "right", r, steps, kernels)

    cost = 0.0
    subgrad = 0.0
    for i in range(T):
        shortfall_gap = lattice.d_eff[i] - x
        cost += float(shortfall_gap @ left[i] + moment[i].sum())
        subgrad += float((lattice.depth[i] + 1.0) @ left[i])
    cost *= voll
    subgrad *= -voll / T
    return LatticeSolution(lattice, voll, visit, left, mid, right, moment, cost, subgrad)


def _terminal(x_accumulated, forecast: ForecastModel, capacity: float, voll: float,
              error_steps: list[Step] | None):
    """(cost, subgradient) of the delivery interval, broadcast over positions."""
    x_acc = np.asarray(x_accumulated, dtype=float)
    T = forecast.n_stages
    supply = x_acc.reshape(-1) / T
    if error_steps is None and forecast.constant_profile and forecast.sigma[0] > 0.0:
        # every chain of a constant Gaussian profile follows one of two templates
        _check_lattice(forecast, capacity)
        edges = _upper_edges(supply - forecast.d_hat[0], capacity, T)
        tmpl = _templates(edges, capacity, float(forecast.sigma[0]))
        q, r = _boundary_visits(tmpl)
        above, moment = tmpl[:, 0], tmpl[:, 3]
        # the node at chain position j has depth j and shortfall gap -edge_j
        cost = voll * _chain_totals(q, r, moment - edges * above)
        subgrad = -voll / T * _chain_totals(q, r, np.arange(1.0, T + 1.0) * above)
    else:
        kernels: dict = {}
        sols = [solve_lattice(build_lattice(forecast, capacity, s), voll, error_steps,
                              kernels=kernels)
                for s in supply]
        cost = np.array([sol.cost for sol in sols])
        subgrad = np.array([sol.subgradient for sol in sols])
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


def node_transition_probs(solution: LatticeSolution, level: int, k: int) -> NodeProbabilities:
    """Recompute one node's exit probabilities from its boundary ancestor.

    Cross-checks the chain recursion: the node's chain is rebuilt as a
    standalone constrained walk starting from the stored ancestor visit
    probability.  ``level`` is 0-based, ``k`` 1-based.
    """
    lat = solution.lattice
    h = int(lat.depth[level][k - 1])
    anc_level, anc_k = level - h, k - h
    p_anc = float(solution.visit[anc_level][anc_k - 1])
    stds, lows, highs = lat.chain(level, k)
    left = p_anc * walk_rectangle_prob(stds, lows, highs, "upper_tail")
    mid = p_anc * walk_rectangle_prob(stds, lows, highs, "interval")
    right = p_anc * walk_rectangle_prob(stds, lows, highs, "lower_tail")
    return NodeProbabilities(visit=left + mid + right, left=left, mid=mid, right=right)


def dump_lattice_csv(solution: LatticeSolution, path) -> None:
    """Write per-node diagnostics, one row per lattice node."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "k", "d_hat_eff", "depth", "p", "p_left", "p_mid", "p_right"])
        for i in range(solution.lattice.n_stages):
            for k in range(1, 2 * i + 2):
                writer.writerow([
                    i + 1, k,
                    f"{solution.lattice.d_eff[i][k - 1]:.12g}",
                    int(solution.lattice.depth[i][k - 1]),
                    f"{solution.visit[i][k - 1]:.12g}",
                    f"{solution.left[i][k - 1]:.12g}",
                    f"{solution.mid[i][k - 1]:.12g}",
                    f"{solution.right[i][k - 1]:.12g}",
                ])
