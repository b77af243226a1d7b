"""Reference implementations that only the tests use.

A self-contained scalar random walk with a dense Gaussian kernel and the
boundary-chain lattice built on it, chain by chain, a 30-digit T = 2
delivery cost by mpmath, the greedy storage rule stage by stage, a
one-path storage subgradient,
the batch storage slope carried forward in one sweep, the (V, Q)
reformulation check, the all-branches form of the ct h', a
bridge-corrected simulator of the reflected walk, three evaluators of
the stage right-hand sides (scrambled-Sobol paths, untabulated nested
quadrature and a dense uniform rule for the last stage), the
perfect-foresight ideal as a linear program and by two one-price
searches, a CSV reader for benchmark tables, the ladder rules checked
pair by pair and the forecast-revision stds computed stage by stage. The
library computes the same quantities in batch, by a forward pass of the
storage-level law, branch by branch, in closed form, from tabulated stage
functions or between neighbouring stages only; these plain versions are
the oracles it is checked against.
"""
from __future__ import annotations

import csv
import math

import numpy as np
from scipy.optimize import linprog
from scipy.special import ndtr, ndtri
from scipy.stats import qmc

from rld.benchmark import RESULT_COLUMNS, BenchmarkRow, BenchmarkTable
from rld.ctapprox import _SERIES_CUTOFF, RbmParams
from rld.dispatch import ideal_costs_batch
from rld.model import BUY, SELL, CostModel, StorageSpec
from rld.storage import PathOutcome, delivery_costs_batch
from rld.walks import DiscreteStep, NormalStep, as_steps


class ZeroProbabilityError(ValueError):
    """Conditioning event has zero (or numerically vanished) probability."""


_TINY = 1e-300
# The scalar walk's density rule: Gauss-Legendre nodes on equal panels of at
# most one step std, over its window within TAIL stds of its support.
_WALK_NODES = 10
_TAIL = 12.0
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_WALK_NODES)


def dense_gauss_density(ys, xs, weights, sigma: float) -> np.ndarray:
    """Density at each row of ``ys`` after a N(0, sigma^2) step from ``weights`` on ``xs``.

    One dense pdf kernel per row, every (new point, old point) pair
    evaluated at its own difference; the weights are quadrature masses.
    """
    z = (np.asarray(ys)[:, :, None] - np.asarray(xs)[:, None, :]) / sigma
    kernel = np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    return np.einsum("rij,rj->ri", kernel, weights)


def walk_step(state, step, lower: float, upper: float):
    """One step of a scalar random walk S, split against the window (lower, upper].

    ``state`` is (points, masses, dense): atoms, or quadrature nodes of a
    density when ``dense``; the walk starts from ``(np.zeros(1), np.ones(1),
    False)``.  Returns (below, inside, above, E[S; S > upper], next state);
    the next state holds the inside mass, and is None once that is gone.
    Masses against the window edges come from the normal CDF, and the
    density is renormalised to the CDF-exact inside mass.
    """
    pts, wts, dense = state
    if step == NormalStep(0.0):
        step = DiscreteStep((0.0,), (1.0,))   # a zero std is the zero atom
    if isinstance(step, DiscreteStep):
        if dense:
            raise NotImplementedError("discrete step after a Gaussian step")
        pts = (pts[:, None] + np.asarray(step.atoms)).ravel()
        wts = (wts[:, None] * np.asarray(step.probs)).ravel()
        above, keep = pts > upper, (pts > lower) & (pts <= upper)
        inside = float(wts[keep].sum())
        nxt = (pts[keep], wts[keep], False) if inside > _TINY else None
        return (float(wts[pts <= lower].sum()), inside, float(wts[above].sum()),
                float((wts * pts)[above].sum()), nxt)
    sigma = step.sigma
    below = float(wts @ ndtr((lower - pts) / sigma))
    above = float(wts @ ndtr((pts - upper) / sigma))
    tail = np.exp(-0.5 * ((upper - pts) / sigma) ** 2) / math.sqrt(2.0 * math.pi)
    moment = float(wts @ (pts * ndtr((pts - upper) / sigma) + sigma * tail))
    inside = max(float(wts.sum()) - below - above, 0.0) if upper > lower else 0.0
    lo, hi = max(lower, pts.min() - _TAIL * sigma), min(upper, pts.max() + _TAIL * sigma)
    if inside <= _TINY or hi <= lo:
        return below, inside, above, moment, None
    panels = math.ceil((hi - lo) / sigma)
    ys = lo + (hi - lo) / panels * (np.arange(panels)[:, None] + 0.5 * (1.0 + _GL_X)).ravel()
    mass = dense_gauss_density(ys[None], pts[None], wts[None], sigma)[0]
    mass *= np.tile(0.5 * _GL_W, panels)
    return below, inside, above, moment, (ys, mass * (inside / mass.sum()), True)


def _check_bounds(n: int, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    lo = np.asarray(lower, dtype=float).reshape(-1)
    hi = np.asarray(upper, dtype=float).reshape(-1)
    if lo.size != n or hi.size != n:
        raise ValueError(f"bounds must have length {n}")
    if np.any(lo > hi):
        raise ValueError("lower bounds must not exceed upper bounds")
    return lo, hi


def _walk_start():
    return np.zeros(1), np.ones(1), False


def walk_rectangle_prob(step_stds, lower, upper, final_mode: str = "interval") -> float:
    """P(lower_j < S_j <= upper_j for j < n, final condition on S_n).

    The final condition is selected by ``final_mode``: "interval" keeps
    lower_n < S_n <= upper_n, "upper_tail" keeps S_n > upper_n and
    "lower_tail" keeps S_n <= lower_n.
    """
    steps = as_steps(step_stds)
    n = len(steps)
    if n == 0:
        raise ValueError("need at least one step")
    lo, hi = _check_bounds(n, lower, upper)
    if final_mode not in ("interval", "upper_tail", "lower_tail"):
        raise ValueError(f"unknown final_mode {final_mode!r}")
    state = _walk_start()
    for j in range(n):
        below, inside, above, _, state = walk_step(state, steps[j], lo[j], hi[j])
        if state is None and j < n - 1:
            return 0.0
    return {"interval": inside, "upper_tail": above, "lower_tail": below}[final_mode]


def truncated_walk_mean(step_stds, lower, upper, final_tail: float) -> float:
    """E[S_n | lower_j < S_j <= upper_j for j < n, S_n > final_tail].

    ``lower``/``upper`` constrain the first n-1 partial sums only; the last
    step is conditioned on exceeding ``final_tail``.
    """
    steps = as_steps(step_stds)
    n = len(steps)
    if n == 0:
        raise ValueError("need at least one step")
    lo, hi = _check_bounds(n - 1, lower, upper)
    state = _walk_start()
    for j in range(n - 1):
        state = walk_step(state, steps[j], lo[j], hi[j])[4]
        if state is None:
            raise ZeroProbabilityError("constraint windows carry no probability mass")
    _, _, above, moment, _ = walk_step(state, steps[-1], -np.inf, float(final_tail))
    if above <= _TINY:
        raise ZeroProbabilityError("tail event has vanishing probability")
    return moment / above


def chain_exits(x_accumulated: float, forecast, capacity: float) -> dict:
    """(above, below, above moment, upper edge) of every boundary chain position.

    Chain (side, s) starts on the empty (0) or full (1) boundary at level
    s and holds the errors e_s + ... + e_{s+j} in (edge - B, edge] with
    edge = sum_{m=s}^{s+j} (x - d_m) + side * B.  Leaving above is a
    shortfall that empties the storage, leaving below fills it.  Each
    chain is one scalar walk (``walk_step``); Gaussian error steps only.
    """
    T = forecast.n_stages
    x = x_accumulated / T
    exits = {}
    for side in (0, 1):
        for s in range(side, T):
            highs = np.cumsum(x - forecast.d_hat[s:]) + side * capacity
            state = _walk_start()
            for j in range(T - s):
                if state is None:
                    break
                below, _, above, moment, state = walk_step(
                    state, NormalStep(float(forecast.sigma[s + j])), highs[j] - capacity, highs[j])
                exits[side, s, j] = above, below, moment, highs[j]
    return exits


def chain_boundary_visits(exits: dict, T: int) -> dict:
    """P(storage empty (side 0) / full (side 1) at the start of stage i), keyed (side, i).

    A chain started at level s exits at level s+j, so the visits obey the
    renewal recursion q_i = sum_{s<i} q_s above^empty_{s,i-1-s} +
    r_s above^full_{s,i-1-s}, and r_i likewise with the below masses;
    q_0 = 1 and r_0 = 0.
    """
    visits = {(0, 0): 1.0, (1, 0): 0.0}
    for i in range(1, T):
        for side, field in ((0, 0), (1, 1)):   # leaving above empties, below fills
            visits[side, i] = sum(visits[c, s] * exits.get((c, s, i - 1 - s), (0.0,) * 4)[field]
                                  for c in (0, 1) for s in range(i))
    return visits


def lattice_chain_by_chain(x_accumulated: float, forecast, capacity: float,
                           voll: float) -> tuple[float, float]:
    """Exact lattice cost and subgradient at one position, one chain walk at a time.

    Every chain position exits above (a shortfall of depth j + 1 stages
    since the boundary) with cost E[S; S > edge] - edge P(S > edge),
    weighted by its chain's boundary visit probability.
    """
    T = forecast.n_stages
    exits = chain_exits(x_accumulated, forecast, capacity)
    visits = chain_boundary_visits(exits, T)
    cost = voll * sum(visits[key[:2]] * (moment - edge * above)
                      for key, (above, _, moment, edge) in exits.items())
    subgrad = -voll / T * sum(visits[key[:2]] * (key[2] + 1) * above
                              for key, (above, _, _, _) in exits.items())
    return cost, subgrad


def two_stage_reference(x_accumulated: float, forecast, capacity: float,
                        voll: float) -> tuple[float, float]:
    """Cost and right subgradient of a T = 2 interval to 30 digits (mpmath).

    Stage 1 starts empty, so its shortfall is a normal loss in closed form.
    Stage 2 meets the level b = clip(x - d_1 - e_1, 0, B) and is one
    quadrature over the first error e_1, split at the kinks of the clip.
    The right derivative in x weights a stage-2 shortfall by 2 when stage 1
    left the storage strictly below capacity and not short (0 <= z_1 < B),
    else by 1.
    """
    import mpmath

    if forecast.n_stages != 2:
        raise ValueError("the reference covers T = 2 only")
    with mpmath.workdps(30):
        x = mpmath.mpf(float(x_accumulated)) / 2
        m1, m2 = (x - mpmath.mpf(float(d)) for d in forecast.d_hat)
        s1, s2 = (mpmath.mpf(float(s)) for s in forecast.sigma)
        B = mpmath.mpf(float(capacity))

        def loss(m, s):   # E[(-z)^+] for z ~ N(m, s^2)
            return s * mpmath.npdf(m / s) - m * mpmath.ncdf(-m / s)

        def level(e):
            return min(max(m1 - e, 0), B)

        def unserved(e):
            return mpmath.npdf(e / s1) / s1 * loss(level(e) + m2, s2)

        def slope(e):
            depth = 2 if 0 <= m1 - e < B else 1
            return mpmath.npdf(e / s1) / s1 * depth * mpmath.ncdf(-(level(e) + m2) / s2)

        span = 40 * s1
        cuts = sorted({-span, span, *(k * s1 for k in range(-36, 37, 4)),
                       *(c for c in (m1 - B, m1) if -span < c < span)})
        cost = voll * (loss(m1, s1) + mpmath.quad(unserved, cuts))
        subgrad = -voll / 2 * (mpmath.ncdf(-m1 / s1) + mpmath.quad(slope, cuts))
        return float(cost), float(subgrad)


# Roundoff allowance of the one-path feasibility checks; the batch
# kernel classifies the boundaries exactly.
def _boundary_tol(capacity: float) -> float:
    return 1e-12 * max(capacity, 1.0)


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


def scalar_delivery(deficits: np.ndarray, supply: float, spec: StorageSpec,
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
    if (spec.storage_eff, spec.recharge_eff, spec.discharge_eff) != (1.0, 1.0, 1.0):
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
    the number of stages since the run of carried supply last restarted: on
    an uncovered shortfall, or when the level reaches the capacity, with no
    tolerance.  That is the exact right derivative of the path's cost; the
    average over independent paths converges to the constrained subgradient
    of the expected terminal cost with respect to the accumulated energy.
    """
    deficits = np.asarray(deficits, dtype=float)
    T = deficits.size
    b = 0.0
    depth = 0
    weighted = 0
    for t in range(T):
        z = supply - deficits[t] + b
        if z < 0.0:
            weighted += depth + 1
        depth = 0 if z < 0.0 or z >= capacity else depth + 1
        b = min(capacity, max(z, 0.0))
    return -voll / T * weighted


def carried_unserved_and_slope(deficits: np.ndarray, supply, spec: StorageSpec):
    """``storage.unserved_and_slope_batch`` in one forward sweep.

    The same greedy rule and unserved total.  ``carried``, the right
    derivative of the usable level plus the stage's own share
    max(x < d_t, nu*mu), adds to the weight on each uncovered stage,
    restarts where the level is pinned (emptied by a shortfall, or full)
    and decays by lambda with the level.
    """
    deficits = np.atleast_2d(np.asarray(deficits, dtype=float))
    n, T = deficits.shape
    x = np.broadcast_to(np.asarray(supply, dtype=float), (n,))
    lam = spec.storage_eff
    gain = spec.discharge_eff * spec.recharge_eff
    cap = spec.discharge_eff * spec.capacity
    u, total, weight, carried = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    z, tmp = np.empty(n), np.empty(n)
    short, inside = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    for t in range(T):
        np.subtract(x, deficits[:, t], out=z)
        if gain == 1.0:
            carried += 1.0
        else:
            carried += np.maximum(np.less(z, 0.0, out=tmp), gain, out=tmp)
            np.minimum(z, np.multiply(z, gain, out=tmp), out=z)
        z += u
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


def reversed_twins(deficits: np.ndarray, supply, centre: float):
    """The time-reversed, negated twins of (n, T) deficit paths about ``centre`` c:
    deficits 2c - d[:, ::-1] at supply 2c - x, the stage increments x - d_t reversed
    and negated.  On ideal storage a twin's slope weight is T minus its path's
    (``rld.storage``), wherever no level ties a pin's boundary."""
    twice = 2.0 * centre
    return twice - np.asarray(deficits, dtype=float)[:, ::-1], twice - np.asarray(supply)


def h_prime_all_branches(x):
    """``ctapprox.h_prime`` evaluating every branch everywhere, then selecting."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CUTOFF
    big = x > 350.0
    xs = np.where(small | big, 1.0, x)
    with np.errstate(invalid="ignore"):
        em1 = np.expm1(xs)
        numer = em1 - xs * np.exp(xs)
        exact = numer / (em1 * em1)
        series = -0.5 + x / 6.0 - x**3 / 180.0
        out = np.where(small, series, np.where(big, 0.0, exact))
    return out if out.ndim else float(out)


def simulate_reflected_walk(params: RbmParams, dt: float, n_steps: int,
                            rng: np.random.Generator,
                            start: float | None = None) -> tuple[float, float]:
    """Simulate the doubly reflected walk; returns (V_t/t, Q_t/t).

    Each Gaussian step is augmented with the Brownian-bridge extremum over
    the step, so boundary pushes missed between sample points are counted;
    plain endpoint reflection underestimates the push rates by O(sqrt(dt)).
    Simultaneous hits of both barriers within one step are ignored, which
    is negligible whenever the barrier width is many step sizes.  The
    start level defaults to a draw from the steady-state density to
    suppress the initial transient.
    """
    B = params.barrier
    if start is None:
        # inverse-CDF draw from the steady-state density
        u = rng.random()
        if params.drift == 0.0:
            b = u * B
        else:
            a = 2.0 * params.drift / params.volatility**2
            b = np.log1p(u * np.expm1(a * B)) / a
    else:
        b = float(start)
    step_var = params.volatility**2 * dt
    incs = params.drift * dt + np.sqrt(step_var) * rng.standard_normal(n_steps)
    bridge = -2.0 * step_var * np.log(rng.random(n_steps))  # for extremum draws
    v_total = 0.0
    q_total = 0.0
    b = float(b)
    for inc, r in zip(incs.tolist(), bridge.tolist()):
        c = b + inc
        gap = inc * inc + r
        lo = 0.5 * (b + c - math.sqrt(gap))   # bridge minimum over the step
        hi = 0.5 * (b + c + math.sqrt(gap))   # bridge maximum (same draw; one
        # barrier at most is reachable per step, so reusing r is harmless)
        if lo < 0.0:
            v_total -= lo
            c -= lo
            if c > B:       # pushed across after touching the floor
                q_total += c - B
                c = B
        elif hi > B:
            q_total += hi - B
            c -= hi - B
            if c < 0.0:
                v_total -= c
                c = 0.0
        b = c
    t_total = dt * n_steps
    return v_total / t_total, -q_total / t_total


def _sobol_normals(dims: int, n_samples: int, seed: int) -> np.ndarray:
    m = max(10, math.ceil(math.log2(max(n_samples, 2))))
    eng = qmc.Sobol(d=dims, scramble=True, seed=seed)
    u = eng.random_base2(m)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return ndtri(u)


def sobol_stage_rhs(idx: int, prices, deltas, shift_stds, grad, directions=None, *,
                    n_samples: int = 200_000, seed: int = 0):
    """Stage ``idx``'s right-hand side as a scrambled-Sobol mean over revision paths.

    Each path draws the revisions after stage idx once and pays the price
    of the first later stage that acts on it (a buy when the position sits
    at or below its threshold, a sell when above), or the terminal
    subgradient at the end if none acts.  ``deltas`` holds the later
    stages' offsets.  Common random numbers across calls; the seed picks
    the scrambling.
    """
    prices = np.asarray(prices, dtype=float)
    shift_stds = np.asarray(shift_stds, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    R = prices.size
    if directions is None:
        directions = (BUY,) * R
    dims = R - idx
    z = _sobol_normals(dims, n_samples, seed + 7919 * idx)
    cum = np.cumsum(z * shift_stds[idx:], axis=1)
    future_deltas = deltas[idx + 1:]
    future_prices = prices[idx + 1:]
    future_dirs = directions[idx + 1:]
    # each future stage's action edge per path, built once per stage
    edges = [future_deltas[j] + cum[:, j] for j in range(dims - 1)]
    final_cum = np.ascontiguousarray(cum[:, -1])
    n_paths = final_cum.size
    del z, cum

    def rhs(delta: float) -> float:
        contrib = np.empty(n_paths)
        alive = np.ones(n_paths, dtype=bool)
        for j, edge in enumerate(edges):
            above = delta > edge
            acts = above if future_dirs[j] == SELL else ~above
            newly = alive & acts
            contrib[newly] = future_prices[j]
            alive &= ~acts
        if alive.any():
            contrib[alive] = -np.asarray(grad(delta - final_cum[alive]))
        return float(contrib.mean())

    return rhs


def nested_stage_rhs(idx: int, prices, deltas, shift_stds, grad, directions=None, *,
                     rhs_last=None, n_nodes: int = 128):
    """Stage ``idx``'s right-hand side U_idx by nested Gauss-Legendre, untabulated.

    U_{R-1} is ``rhs_last`` (default: -E[grad(y - s Z)] over the final
    revision s by 64-node Gauss-Hermite).  W_k(y) is price_k where stage k
    acts and U_k(y) elsewhere, and U_{k-1}(y) = E[W_k(y - s_{k-1} Z)].
    Stages joined by zero-std revisions see the same position, so each
    expectation runs over the first action among stage k and the stages
    after it up to the next positive std: the offsets of that group cut
    the Gaussian, a cell where a stage acts adds its price times the
    cell's mass, and a cell where none acts takes ``n_nodes``-point
    Gauss-Legendre over its part of [-8.5, 8.5], each node recursing into
    the level after the group.  Returns a vectorized function of y.
    """
    prices = np.asarray(prices, dtype=float)
    shift_stds = np.asarray(shift_stds, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    R = prices.size
    if directions is None:
        directions = (BUY,) * R
    if rhs_last is None:
        gh_x, gh_w = np.polynomial.hermite.hermgauss(64)
        nodes = math.sqrt(2.0) * shift_stds[R - 1] * gh_x

        def rhs_last(y):
            vals = np.asarray(grad((y[:, None] - nodes).ravel()), dtype=float)
            return -(vals.reshape(y.size, nodes.size) @ gh_w) / math.sqrt(math.pi)

    gl_x, gl_w = np.polynomial.legendre.leggauss(n_nodes)

    def acts(j, u):
        return u > deltas[j] if directions[j] == SELL else u <= deltas[j]

    def level(k, y):
        """U_k at positions y."""
        if k == R - 1:
            return rhs_last(y)
        group = [k + 1]   # stages at the position y - s_k Z, in order
        while group[-1] < R - 1 and shift_stds[group[-1]] == 0.0:
            group.append(group[-1] + 1)
        after = group[-1]

        def first_action(u):
            out = np.full(u.shape, np.nan)
            for j in reversed(group):
                out[acts(j, u)] = prices[j]
            return out

        s = shift_stds[k]
        if s == 0.0:
            out = first_action(y)
            rest = np.isnan(out)
            out[rest] = level(after, y[rest])
            return out
        cuts = np.unique([deltas[j] for j in group if math.isfinite(deltas[j])])
        bounds = np.concatenate([[-np.inf], cuts, [np.inf]])
        out = np.zeros(y.shape)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            # the first action is constant on the cell (lo, hi]; probe it at hi,
            # or above lo in the last cell
            if math.isfinite(hi):
                probe = hi
            else:
                probe = lo + max(1.0, abs(lo)) if math.isfinite(lo) else 0.0
            price = first_action(np.array([probe]))[0]
            a, b = (y - hi) / s, (y - lo) / s     # y - s z in (lo, hi] for z in [a, b)
            if not math.isnan(price):
                out += price * (ndtr(b) - ndtr(a))
                continue
            a, b = np.maximum(a, -8.5), np.minimum(b, 8.5)
            rows = np.flatnonzero(a < b)
            half = 0.5 * (b[rows] - a[rows])
            z = (a[rows] + half)[:, None] + half[:, None] * gl_x
            vals = level(after, (y[rows, None] - s * z).ravel()).reshape(z.shape)
            out[rows] += half * ((vals * np.exp(-0.5 * z * z)) @ gl_w) / math.sqrt(2.0 * math.pi)
        return out

    return lambda y: level(idx, np.atleast_1d(np.asarray(y, dtype=float)))


def dense_last_stage_residual(grad, offset: float, std: float, price: float, *,
                              n_points: int = 200_001) -> float:
    """|-E[grad(offset - std Z)] - price| by a uniform rule over z in [-9, 9].

    Every node weighs the standard normal density times the node spacing,
    so a subgradient step narrower than ``std`` is resolved once the
    spacing is well below the step's width, with no knowledge of where
    the step lies: the solver's rule needs the model's cuts to see it.
    """
    z = np.linspace(-9.0, 9.0, n_points)
    weights = np.exp(-0.5 * z * z) * (z[1] - z[0]) / math.sqrt(2.0 * math.pi)
    return abs(-float(np.asarray(grad(offset - std * z)) @ weights) - price)


def linear_program_ideal(deficits, capacity, buy, sell, voll):
    """Perfect-foresight optimum of one row as an LP over (s+, s-, b, u, c).

    The per-stage supply s = s+ - s- is bought at ``buy`` and sold at
    ``sell``; b is the storage level, u the unserved energy and c the
    curtailment: b_t = b_{t-1} + s - D_t + u_t - c_t, b_0 = 0.
    """
    T = deficits.size
    eye = np.eye(T)
    storage = eye - np.eye(T, k=-1)
    a_eq = np.hstack([-np.ones((T, 1)), np.ones((T, 1)), storage, -eye, eye])
    cost = np.concatenate([[buy * T, -sell * T], np.zeros(T), np.full(T, voll), np.zeros(T)])
    bounds = [(0.0, None)] * 2 + [(0.0, capacity)] * T + [(0.0, None)] * (2 * T)
    res = linprog(cost, A_eq=a_eq, b_eq=-deficits, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.fun


def two_pass_ideal(deficits, capacity, buy, sell, voll):
    """Perfect-foresight cost of each row by two one-price searches.

    With sell <= buy the cost is the larger of the buy-priced and the
    sell-priced costs: a row whose buy-priced minimizer s_b is >= 0 keeps
    its cost, any other row takes the sell-priced minimizer capped at 0,
    or 0 when selling does not pay (sell <= 0).
    """
    supply, costs = ideal_costs_batch(deficits, capacity, buy, buy, voll)
    short = np.flatnonzero(supply < 0.0)
    if short.size:
        rows = deficits[short]
        s = np.zeros(short.size)
        if sell > 0.0:
            s = np.minimum(ideal_costs_batch(rows, capacity, sell, sell, voll)[0], 0.0)
        costs[short] = sell * (rows.shape[1] * s) + delivery_costs_batch(
            rows, s, StorageSpec(capacity), voll)
    return costs


def read_results(path) -> BenchmarkTable:
    """Parse a CSV written by emit_results back into a table."""
    rows: BenchmarkTable = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != RESULT_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {reader.fieldnames}")
        for rec in reader:
            rows.append(BenchmarkRow(
                policy=rec["policy"],
                d_total=float(rec["D"]),
                capacity=float(rec["B"]),
                n_runs=int(rec["n_runs"]),
                mean_cost=float(rec["mean_cost"]),
                stderr=float(rec["stderr"]),
                integration_cost=float(rec["integration_cost"]),
                wall_ms=float(rec["wall_ms"]),
            ))
    return rows


def validate_ladder_pairwise(ladder, cost=None) -> list[str]:
    """Check every pairwise price and lead-time constraint.

    Returns the list of violated constraints; an empty list means ok.
    Violations are data, not faults, so nothing raises here.
    """
    if ladder.n_stages == 0:
        raise ValueError("ladder must be nonempty")
    violations: list[str] = []
    stages = ladder.stages
    if BUY not in ladder.directions:
        violations.append("ladder needs at least one buy stage")
    for s in stages:
        if s.direction not in (BUY, SELL):
            violations.append(f"stage {s.index}: direction must be 'buy' or 'sell'")
        if s.direction == BUY and s.price <= 0:
            violations.append(f"stage {s.index}: buy price must be positive, got {s.price}")
    for i, a in enumerate(stages):
        for b in stages[i + 1:]:
            if a.direction == BUY and b.direction == BUY and not a.price < b.price:
                violations.append(
                    f"stages {a.index}<{b.index}: buy prices must increase "
                    f"toward delivery ({a.price} !< {b.price})"
                )
            if a.direction == SELL and b.direction == SELL and not a.price > b.price:
                violations.append(
                    f"stages {a.index}<{b.index}: sell prices must decrease "
                    f"toward delivery ({a.price} !> {b.price})"
                )
            if a.direction == BUY and b.direction == SELL and not a.price > b.price:
                violations.append(
                    f"stages {a.index}<{b.index}: no-arbitrage requires buy price "
                    f"{a.price} > later sell price {b.price}"
                )
            if a.direction == SELL and b.direction == BUY and not a.price < b.price:
                violations.append(
                    f"stages {a.index}<{b.index}: no-arbitrage requires sell price "
                    f"{a.price} < later buy price {b.price}"
                )
            if not a.lead_time_hours > b.lead_time_hours:
                violations.append(
                    f"stages {a.index}<{b.index}: lead times must strictly decrease"
                )
    if cost is not None:
        top = max(s.price for s in stages)
        if not cost.voll > top:
            violations.append(
                f"voll {cost.voll} must exceed the highest ladder price {top}; "
                "otherwise no threshold solves the stage equation"
            )
    return violations


def inter_stage_stds_per_stage(scenario) -> np.ndarray:
    """``Scenario.inter_stage_stds`` one stage at a time: the clamped drop of
    the curve variance from each lead time to the next, then the mean_share
    part of the variance left at the last lead time."""
    curve, lead_times = scenario.curve, scenario.ladder.lead_times
    R = len(lead_times)
    out = np.empty(R)
    for r in range(R - 1):
        out[r] = math.sqrt(max(curve.variance_at(float(lead_times[r]))
                               - curve.variance_at(float(lead_times[r + 1])), 0.0))
    out[R - 1] = math.sqrt(scenario.mean_share * scenario.final_horizon_variance)
    return out
