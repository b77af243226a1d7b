"""Optimal operation of fast storage over the delivery interval.

The greedy rule (discharge to cover any shortfall, recharge any surplus up
to the capacity or conversion caps) is the optimal policy for the
value-of-lost-load objective, so simulating a path is a single forward
sweep.  Cumulative unserved energy V and cumulative curtailment Q recast
the same trajectory as a doubly-reflected walk, which the continuous-time
approximation builds on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CostModel, StorageSpec

# Roundoff allowance of the one-path feasibility checks; the batch
# kernel classifies the boundaries exactly.
def _boundary_tol(capacity: float) -> float:
    return 1e-12 * max(capacity, 1.0)


@dataclass(frozen=True, eq=False)
class PathOutcome:
    """Realized storage trajectory over one delivery interval."""

    supply: float                 # per-stage conventional supply x
    actions: np.ndarray           # u_t, length T (signed, grid-side energy)
    levels: np.ndarray            # b_t, length T+1, levels[0] is the initial level
    unserved: np.ndarray          # [D_t - x + u_t]_+, length T
    curtailed: np.ndarray         # [D_t - x + u_t]_-, length T (nonpositive)
    cumulative_unserved: np.ndarray    # V_t, length T
    cumulative_curtailed: np.ndarray   # Q_t, length T
    cost: float


def optimal_storage_action(level: float, deficit: float, supply: float,
                           spec: StorageSpec) -> float:
    """Greedy storage action: cover shortfall first, then store surplus."""
    if not 0.0 <= level <= spec.capacity + _boundary_tol(spec.capacity):
        raise ValueError(f"storage level {level} outside [0, {spec.capacity}]")
    surplus = max(supply - deficit, 0.0)
    shortfall = max(deficit - supply, 0.0)
    recharge = min(surplus, (spec.capacity - level) / spec.recharge_eff) if spec.recharge_eff > 0 else 0.0
    discharge = min(shortfall, spec.discharge_eff * level)
    return recharge - discharge


def step_storage(level: float, action: float, spec: StorageSpec) -> float:
    """Advance the stored energy by one stage under action u."""
    tol = _boundary_tol(spec.capacity)
    up = max(action, 0.0)
    down = min(action, 0.0)
    if spec.recharge_eff > 0:
        if up > (spec.capacity - level) / spec.recharge_eff + tol:
            raise ValueError(f"recharge {up} exceeds remaining capacity at level {level}")
    elif up > tol:
        raise ValueError("cannot recharge with zero recharge efficiency")
    if -down > spec.discharge_eff * level + tol:
        raise ValueError(f"discharge {-down} exceeds usable stored energy at level {level}")
    # dividing by nu (not multiplying by 1/nu) stays finite for a subnormal nu
    spent = down / spec.discharge_eff if spec.discharge_eff > 0 else 0.0
    new = spec.storage_eff * (level + spec.recharge_eff * up + spent)
    return float(min(max(new, 0.0), spec.capacity))


def simulate_delivery(deficits: np.ndarray, supply: float, spec: StorageSpec,
                      cost: CostModel) -> PathOutcome:
    """Run the delivery interval under the optimal storage policy.

    The storage starts empty; whatever remains at the end is discarded.
    Cost is the VOLL penalty on total unserved energy.
    """
    deficits = np.asarray(deficits, dtype=float)
    T = deficits.size
    actions = np.empty(T)
    levels = np.empty(T + 1)
    unserved = np.empty(T)
    curtailed = np.empty(T)
    levels[0] = 0.0
    b = 0.0
    for t in range(T):
        u = optimal_storage_action(b, deficits[t], supply, spec) if spec.capacity > 0 else 0.0
        resid = deficits[t] - supply + u
        actions[t] = u
        unserved[t] = max(resid, 0.0)
        curtailed[t] = min(resid, 0.0)
        b = step_storage(b, u, spec) if spec.capacity > 0 else 0.0
        levels[t + 1] = b
    v_path = np.cumsum(unserved)
    q_path = np.cumsum(curtailed)
    return PathOutcome(
        supply=float(supply),
        actions=actions,
        levels=levels,
        unserved=unserved,
        curtailed=curtailed,
        cumulative_unserved=v_path,
        cumulative_curtailed=q_path,
        cost=float(cost.voll * v_path[-1]) if T else 0.0,
    )


# Vectorized kernels shared by the Monte Carlo engines, policy evaluation
# and the perfect-foresight ideal.  Rows are independent paths.

def delivery_costs_batch(deficits: np.ndarray, supply: np.ndarray | float,
                         spec: StorageSpec, voll: float) -> np.ndarray:
    """VOLL times the unserved energy of ``unserved_and_slope_batch``."""
    return voll * unserved_and_slope_batch(deficits, supply, spec)[0]


def unserved_and_slope_batch(deficits: np.ndarray, supply: np.ndarray | float,
                             spec: StorageSpec) -> tuple[np.ndarray, np.ndarray]:
    """Unserved energy V of each row of an (n, T) deficit matrix and the
    weight w with V' = -w, its exact right derivative in the supply.

    The greedy rule of ``simulate_delivery`` in usable energy u = nu*b: a
    surplus adds nu*mu times itself, a shortfall draws on u, and u is then
    clipped to [0, nu*B] and decays by lambda.  ``carried``, the right
    derivative of u plus the stage's own share, adds to w on each
    uncovered stage and restarts where the level is pinned (emptied by a
    shortfall, or full).  There is no boundary tolerance, so w never grows
    with the supply, even through exact ties; on ideal storage it is an
    integer in 0..T.
    """
    deficits = np.atleast_2d(np.asarray(deficits, dtype=float))
    n, T = deficits.shape
    x = np.broadcast_to(np.asarray(supply, dtype=float), (n,))
    lam = spec.storage_eff
    gain = spec.discharge_eff * spec.recharge_eff
    cap = spec.discharge_eff * spec.capacity
    u = np.zeros(n)
    total = np.zeros(n)
    weight = np.zeros(n)
    carried = np.zeros(n)
    z = np.empty(n)
    tmp = np.empty(n)
    short = np.empty(n, dtype=bool)
    inside = np.empty(n, dtype=bool)
    # the gain and lambda steps are exact no-ops on ideal storage; unmasked
    # ufuncs (not where=) keep the lossy loop as fast as a cost-only one
    for t in range(T):
        np.subtract(x, deficits[:, t], out=z)
        if gain == 1.0:
            carried += 1.0
        else:
            # gain <= 1: max(short, gain) is 1 or gain, min(z, gain*z) scales a surplus
            carried += np.maximum(np.less(z, 0.0, out=tmp), gain, out=tmp)
            np.minimum(z, np.multiply(z, gain, out=tmp), out=z)
        z += u                          # usable level before clipping; < 0 is unserved
        total -= np.minimum(z, 0.0, out=tmp)
        np.less(z, 0.0, out=short)
        weight += np.multiply(carried, short, out=tmp)
        np.less(z, cap, out=inside)
        inside &= ~short
        carried *= inside
        np.clip(z, 0.0, cap, out=u)
        if lam != 1.0:
            carried *= lam
            u *= lam
    return total, weight


def subgradient_estimates_batch(deficits: np.ndarray, supply: np.ndarray | float,
                                capacity: float, voll: float) -> np.ndarray:
    """Row-wise per-path subgradient estimates (ideal storage).

    Each is -voll / T times the exact shortfall weight w of
    ``unserved_and_slope_batch``, the right derivative of the path's cost
    in the accumulated position x = T * supply.
    """
    deficits = np.atleast_2d(np.asarray(deficits, dtype=float))
    T = deficits.shape[1]
    return -voll / T * unserved_and_slope_batch(deficits, supply, StorageSpec(capacity))[1]
