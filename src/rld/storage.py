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

# Boundary classification tolerance: exact ties are measure zero for
# continuous deficits, so only roundoff needs absorbing.
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


def reformulate_vq(outcome: PathOutcome, spec: StorageSpec):
    """Extract the (V, Q) control pair and check its complementarity.

    Valid for ideal storage only, where the stored level satisfies
    b_{t+1} = -sum(D - x) + V_t + Q_t exactly.  Returns (V, Q, violations);
    an empty violation list certifies the doubly-reflected structure.
    """
    if not spec.is_ideal:
        raise ValueError("V/Q reformulation identity holds for ideal storage only")
    tol = _boundary_tol(spec.capacity)
    v_path = outcome.cumulative_unserved
    q_path = outcome.cumulative_curtailed
    violations: list[str] = []
    T = v_path.size
    for t in range(T):
        dv = v_path[t] - (v_path[t - 1] if t else 0.0)
        dq = q_path[t] - (q_path[t - 1] if t else 0.0)
        post = outcome.levels[t + 1]
        if dv > tol and post > tol:
            violations.append(f"t={t}: V increased while storage not empty (b={post})")
        if dq < -tol and post < spec.capacity - tol:
            violations.append(f"t={t}: Q decreased while storage not full (b={post})")
        # Deficit at stage t reconstructed from the action and residuals.
        # b identity: b_{t+1} = b_0 - sum_{tau<=t}(D_tau - x) + V_t + Q_t
    drift = np.cumsum(
        outcome.unserved + outcome.curtailed - outcome.actions
    )  # equals sum(D - x) for each prefix
    ident = outcome.levels[0] - drift + v_path + q_path
    err = np.max(np.abs(ident - outcome.levels[1:])) if T else 0.0
    if err > 1e-9 * max(spec.capacity, 1.0):
        violations.append(f"stored-energy identity violated by {err}")
    return v_path.copy(), q_path.copy(), violations


def per_path_subgradient_estimate(deficits: np.ndarray, supply: float,
                                  capacity: float, voll: float = 1.0) -> float:
    """One-path estimate of the terminal cost slope in the accumulated position.

    Walks the ideal-storage path, weighting each shortfall stage by one plus
    the number of stages since the storage last touched a boundary.  The
    average over independent paths converges to the constrained subgradient
    of the expected terminal cost with respect to the accumulated energy.
    """
    deficits = np.asarray(deficits, dtype=float)
    T = deficits.size
    tol = _boundary_tol(capacity)
    b = 0.0
    depth = 0
    weighted = 0
    for t in range(T):
        if deficits[t] - b > supply:
            weighted += depth + 1
        b = min(capacity, max(supply - deficits[t] + b, 0.0))
        if b <= tol or b >= capacity - tol:
            depth = 0
        else:
            depth += 1
    return -voll / T * weighted


# Vectorized kernels shared by the Monte Carlo engines, policy evaluation
# and the perfect-foresight ideal.  Rows are independent paths.

def delivery_costs_batch(deficits: np.ndarray, supply: np.ndarray | float,
                         spec: StorageSpec, voll: float) -> np.ndarray:
    """Total VOLL cost of each row of an (n, T) deficit matrix.

    The greedy rule of ``simulate_delivery`` for all rows at once: a
    shortfall draws up to nu*b from storage, a surplus recharges mu times
    itself up to the capacity, and the level then decays by lambda.
    """
    deficits = np.atleast_2d(np.asarray(deficits, dtype=float))
    n, T = deficits.shape
    x = np.broadcast_to(np.asarray(supply, dtype=float), (n,))
    lam, mu, nu = spec.storage_eff, spec.recharge_eff, spec.discharge_eff
    b = np.zeros(n)
    total = np.zeros(n)
    for t in range(T):
        short = deficits[:, t] - x     # > 0 shortfall, < 0 surplus
        usable = nu * b
        total += np.maximum(short - usable, 0.0)
        drawn = np.minimum(np.maximum(short, 0.0), usable)   # zero when nu = 0
        spent = drawn / nu if nu > 0 else drawn
        level = b + mu * np.maximum(-short, 0.0) - spent
        b = lam * np.minimum(np.maximum(level, 0.0), spec.capacity)
    return voll * total


def subgradient_estimates_batch(deficits: np.ndarray, supply: np.ndarray | float,
                                capacity: float, voll: float) -> np.ndarray:
    """Row-wise per-path subgradient estimates (ideal storage)."""
    deficits = np.atleast_2d(np.asarray(deficits, dtype=float))
    n, T = deficits.shape
    x = np.broadcast_to(np.asarray(supply, dtype=float), (n,))
    tol = _boundary_tol(capacity)
    b = np.zeros(n)
    depth = np.zeros(n)
    weighted = np.zeros(n)
    for t in range(T):
        short = deficits[:, t] - b > x
        weighted += np.where(short, depth + 1.0, 0.0)
        b = np.minimum(capacity, np.maximum(x - deficits[:, t] + b, 0.0))
        at_boundary = (b <= tol) | (b >= capacity - tol)
        depth = np.where(at_boundary, 0.0, depth + 1.0)
    return -voll / T * weighted
