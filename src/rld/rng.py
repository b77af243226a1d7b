"""Counter-based random streams for reproducible, order-independent runs."""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# runs per Philox stream (K); run i is row i % K of block i // K.  A 50000-run
# evaluation ran fastest at 8192 of 4096 / 8192 / 16384, and 16384 raised its
# peak RSS by 8 MB.  Blocks below 2**27 runs stay under dispatch.MC_STREAM.
BLOCK_RUNS = 8192


def run_generator(seed: int, index: int) -> np.random.Generator:
    """Philox stream keyed by (seed, index): a block of policy runs, or an
    engine's dedicated index."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def policy_path_blocks(n_runs: int, n_markets: int, n_delivery: int, seed: int):
    """Standard-normal innovations of runs 0..n_runs-1, one block at a time.

    Yields (rows, market_shifts, delivery_noise): a slice of run indices
    and views of shapes (m, n_markets) and (m, n_delivery), m <= BLOCK_RUNS;
    callers scale by the scenario's stds.  Block k is filled row-major with
    ``[shifts | noise]`` by ``run_generator(seed, k)``, so a run's draws do
    not depend on ``n_runs`` or on the order blocks are used in, and run 0
    is the first draws of key (seed, 0).  The views share one buffer that
    the next block overwrites.
    """
    buf = np.empty((min(n_runs, BLOCK_RUNS), n_markets + n_delivery))
    for block, start in enumerate(range(0, n_runs, BLOCK_RUNS)):
        rows = buf[:min(BLOCK_RUNS, n_runs - start)]
        run_generator(seed, block).standard_normal(out=rows)
        yield slice(start, start + len(rows)), rows[:, :n_markets], rows[:, n_markets:]


def draw_policy_paths(n_runs: int, n_markets: int, n_delivery: int,
                      seed: int) -> tuple[np.ndarray, np.ndarray]:
    """All rows of ``policy_path_blocks`` as (market_shifts, delivery_noise)
    with shapes (n_runs, n_markets) and (n_runs, n_delivery)."""
    shifts = np.empty((n_runs, n_markets))
    noise = np.empty((n_runs, n_delivery))
    for rows, s, z in policy_path_blocks(n_runs, n_markets, n_delivery, seed):
        shifts[rows], noise[rows] = s, z
    return shifts, noise
