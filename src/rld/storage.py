"""Optimal operation of fast storage over the delivery interval.

The greedy rule (discharge to cover any shortfall, recharge any surplus up
to the capacity or conversion caps) is the optimal policy for the
value-of-lost-load objective, so simulating a path is a single forward
sweep (``forward_sweep``), and the exact slope of its cost in the supply
one backward sweep after it (``unserved_and_slope_batch``).
Cumulative unserved energy V and cumulative curtailment Q recast the same
trajectory as a doubly-reflected walk, which the continuous-time
approximation builds on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CostModel, StorageSpec


@dataclass(frozen=True, eq=False)
class PathOutcome:
    """Realized storage trajectory over one delivery interval."""

    actions: np.ndarray           # u_t, length T (signed, grid-side energy)
    levels: np.ndarray            # b_t, length T+1 stored energy, levels[0] = 0
    unserved: np.ndarray          # [D_t - x + u_t]_+, length T
    curtailed: np.ndarray         # [D_t - x + u_t]_-, length T (nonpositive)
    cumulative_unserved: np.ndarray    # V_t, length T
    cumulative_curtailed: np.ndarray   # Q_t, length T
    cost: float


def simulate_delivery(deficits: np.ndarray, supply: float, spec: StorageSpec,
                      cost: CostModel) -> PathOutcome:
    """Run the delivery interval under the optimal storage policy.

    ``forward_sweep`` on one row, read from the usable level z it records
    before each stage's clip: the action is the change of the clipped
    level, over nu*mu where it charges.  The storage starts empty and what
    remains at the end is discarded; the cost is VOLL times the unserved
    energy.  Storage that can deliver nothing (nu*mu or nu*B is 0) is never
    charged, so Q carries the whole surplus.  Levels and charges are usable
    energy over nu and nu*mu: where those are subnormal they keep few
    digits, the costs do not.
    """
    deficits = np.asarray(deficits, dtype=float)
    T = deficits.size
    z = np.empty(T)
    total = forward_sweep(deficits[None], supply, spec, unclipped=z[None])[0]
    nu, gain = spec.discharge_eff, spec.discharge_eff * spec.recharge_eff
    cap = nu * spec.capacity
    filled = np.clip(z, 0.0, cap)
    usable = np.zeros(T + 1)            # nu * b after each stage's decay
    usable[1:] = spec.storage_eff * filled
    change = filled - usable[:-1]       # > 0 only where nu*mu > 0
    actions = np.divide(change, gain, out=change.copy(), where=change > 0.0)
    unserved = np.maximum(-z, 0.0)
    curtailed = np.minimum(deficits - supply + actions, 0.0)
    return PathOutcome(
        actions=actions, levels=usable / nu if nu > 0.0 else usable,
        unserved=unserved, curtailed=curtailed, cumulative_unserved=np.cumsum(unserved),
        cumulative_curtailed=np.cumsum(curtailed), cost=float(cost.voll * total))


# Vectorized kernels shared by the Monte Carlo engines, policy evaluation
# and the perfect-foresight ideal.  Rows are independent paths.

def delivery_costs_batch(deficits: np.ndarray, supply: np.ndarray | float,
                         spec: StorageSpec, voll: float) -> np.ndarray:
    """VOLL times the unserved energy of ``forward_sweep``: one entry per
    row, or per entry of a (policies, n) supply."""
    return voll * forward_sweep(deficits, supply, spec)


def forward_sweep(deficits: np.ndarray, supply: np.ndarray | float, spec: StorageSpec, *,
                  unserved: bool = True, short: np.ndarray | None = None,
                  below: np.ndarray | None = None, unclipped: np.ndarray | None = None,
                  ) -> np.ndarray | None:
    """The greedy rule on each row of an (n, T) deficit matrix: its unserved
    energy V, or None where ``unserved`` is false.

    The rule runs in usable energy u = nu*b: a surplus adds nu*mu times
    itself, a shortfall draws on u, and u is then clipped to [0, nu*B] and
    decays by lambda.  ``supply`` broadcasts against the n rows, so a
    (policies, n) supply runs every policy's rows in one sweep, each entry
    bitwise as alone.  The given outputs receive, per stage t, whether the
    level z before the clip is short (``short[t]``, z < 0, pinned at 0) and
    whether it is below the capacity (``below[t]``, z < nu*B), each of the
    supply's shape, and z itself (``unclipped[:, t]``, (n, T)).
    """
    deficits = np.atleast_2d(np.asarray(deficits, dtype=float))
    n, T = deficits.shape
    x = np.asarray(supply, dtype=float)
    shape = np.broadcast_shapes(x.shape, (n,))
    lam = spec.storage_eff
    gain = spec.discharge_eff * spec.recharge_eff
    cap = spec.discharge_eff * spec.capacity
    u = np.zeros(shape)
    total = np.zeros(shape) if unserved else None
    z = np.empty(shape)
    tmp = np.empty(shape)
    # the gain and lambda steps are exact no-ops on ideal storage; unmasked
    # ufuncs (not where=) keep the lossy loop as fast as a cost-only one
    for t in range(T):
        np.subtract(x, deficits[:, t], out=z)
        if gain != 1.0:
            np.minimum(z, np.multiply(z, gain, out=tmp), out=z)   # gain <= 1 scales a surplus
        z += u                          # usable level before clipping; < 0 is unserved
        if unclipped is not None:
            unclipped[:, t] = z
        if total is not None:
            total -= np.minimum(z, 0.0, out=tmp)
        if short is not None:
            np.less(z, 0.0, out=short[t])
        if below is not None:
            np.less(z, cap, out=below[t])
        # np.clip's value, signed zeros included, without its Python wrapper
        np.minimum(cap, np.maximum(0.0, z, out=u), out=u)
        if lam != 1.0:
            u *= lam
    return total


def unserved_and_slope_batch(deficits: np.ndarray, supply: np.ndarray | float,
                             spec: StorageSpec, *, unserved: bool = True,
                             ) -> tuple[np.ndarray | None, np.ndarray]:
    """Unserved energy V of each row of an (n, T) deficit matrix (None where
    ``unserved`` is false) and the weight w with V' = -w, its exact right
    derivative in the supply.

    Two sweeps.  ``forward_sweep`` sums V and records two one-byte masks
    per stage: whether the level z before the clip is short and whether it
    is below the capacity.  The backward sweep carries K_t = -dV/dz_t, the right derivative of the
    unserved energy in stage t's level: 1 if t is short, lambda*K_{t+1} if
    it is below the capacity, 0 if it is full.  The supply moves z_t
    directly at the rate share_t = max(x < d_t, nu*mu), so w is the sum of
    share_t*K_t.  On ideal storage K_t is 1 exactly when the first pin at
    or after t is a shortfall, and w counts those stages with byte-wide
    ops: an integer in 0..T.  There is no boundary tolerance, so w never
    grows with the supply, even through exact ties.
    """
    deficits = np.atleast_2d(np.asarray(deficits, dtype=float))
    n, T = deficits.shape
    x = np.broadcast_to(np.asarray(supply, dtype=float), (n,))
    short = np.empty((T, n), dtype=bool)
    below = np.empty((T, n), dtype=bool)
    total = forward_sweep(deficits, x, spec, unserved=unserved, short=short, below=below)
    lam = spec.storage_eff
    gain = spec.discharge_eff * spec.recharge_eff
    if gain == 1.0 and lam == 1.0:
        pinned_short = np.zeros(n, dtype=bool)
        count = np.zeros(n, dtype=np.min_scalar_type(T))
        for t in range(T - 1, -1, -1):
            pinned_short &= below[t]
            pinned_short |= short[t]
            count += pinned_short.view(np.uint8)
        return total, count.astype(float)
    weight = np.zeros(n)
    k = np.zeros(n)
    uncovered = np.empty(n, dtype=bool)
    tmp = np.empty(n)
    for t in range(T - 1, -1, -1):
        k *= lam
        k *= below[t]
        np.maximum(k, short[t], out=k)  # k <= 1; masked copies are 10x slower
        np.maximum(np.less(x, deficits[:, t], out=uncovered), gain, out=tmp)
        weight += np.multiply(tmp, k, out=tmp)
    return total, weight


def subgradient_estimates_batch(deficits: np.ndarray, supply: np.ndarray | float,
                                spec: StorageSpec, voll: float) -> np.ndarray:
    """Row-wise per-path subgradient estimates.

    Each is -voll / T times the exact shortfall weight w of
    ``unserved_and_slope_batch``, the right derivative of the path's cost
    in the accumulated position x = T * supply, efficiencies included.
    The unserved energy is not summed.
    """
    T = np.shape(deficits)[-1]
    return -voll / T * unserved_and_slope_batch(deficits, supply, spec, unserved=False)[1]
