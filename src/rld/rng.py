"""Counter-based random streams for reproducible, order-independent runs."""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def run_generator(seed: int, run_index: int) -> np.random.Generator:
    """Philox stream keyed by (seed, run index).

    Each run owns an independent stream, so paths are identical no matter
    how runs are scheduled or parallelized.
    """
    key = np.array([seed & _MASK64, run_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_policy_paths(n_runs: int, n_markets: int, n_delivery: int,
                      seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard-normal innovations for each run, in a fixed draw order.

    Returns (market_shifts, delivery_noise) with shapes (n_runs, n_markets)
    and (n_runs, n_delivery); callers scale by the scenario's stds.  Row i
    is the stream of ``run_generator(seed, i)``: one generator is re-keyed
    for each run (key (seed, i), zero counter, empty buffer) instead of
    constructing a generator per run.
    """
    shifts = np.empty((n_runs, n_markets))
    noise = np.empty((n_runs, n_delivery))
    g = run_generator(seed, 0)
    fresh = g.bit_generator.state   # zero counter, empty buffer
    key = fresh["state"]["key"]     # (seed, run index)
    for i in range(n_runs):
        key[1] = i & _MASK64
        g.bit_generator.state = fresh
        shifts[i] = g.standard_normal(n_markets)
        noise[i] = g.standard_normal(n_delivery)
    return shifts, noise
