"""Threshold computation and dispatch policies.

Each market stage buys (or sells) up to an information-dependent target.
The last stage's target inverts the terminal cost subgradient; earlier
stages solve a nested expansion over the first future stage that ends up
purchasing, with expectations over the inter-stage forecast revisions.
Targets are solved as offsets relative to the current total-deficit
forecast, which makes them reusable across forecast levels: the realized
threshold at stage r is the current forecast plus the stage offset.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import ndtr, ndtri
from scipy.stats import qmc

from .ctapprox import ct_terminal_subgradient
from .lattice import closed_form_b0, lattice_terminal_subgradient
from .model import (
    BUY,
    SELL,
    ForecastErrorCurve,
    ForecastModel,
    MarketLadder,
    Scenario,
    StorageSpec,
)
from .rng import run_generator
from .storage import delivery_costs_batch, subgradient_estimates_batch


class DegeneratePriceError(RuntimeError):
    """A stage price falls outside the subgradient's achievable range."""


ENGINES = ("lattice", "mc", "ct")


def _solve_decreasing(fn: Callable[[float], float], target: float,
                      lo: float, hi: float, resid_tol: float,
                      width_tol: float = 1e-9,
                      max_iter: int = 200) -> tuple[float, float, int]:
    """Root of a nonincreasing fn(x) = target with bracket expansion."""
    def finite(x: float) -> float:
        val = fn(x)
        if not (math.isfinite(x) and math.isfinite(val)):
            raise DegeneratePriceError(f"target {target}: f({x}) = {val} is not finite")
        return val

    f_lo = finite(lo)
    f_hi = finite(hi)
    grow = max(hi - lo, 1.0)
    for _ in range(80):
        if f_lo >= target:
            break
        lo -= grow
        grow *= 2.0
        f_lo = finite(lo)
    else:
        raise DegeneratePriceError(f"target {target} above achievable range (max {f_lo})")
    grow = max(hi - lo, 1.0)
    for _ in range(80):
        if f_hi <= target:
            break
        hi += grow
        grow *= 2.0
        f_hi = finite(hi)
    else:
        raise DegeneratePriceError(f"target {target} below achievable range (min {f_hi})")

    mid = 0.5 * (lo + hi)
    resid = math.inf
    iters = 0
    for iters in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        val = finite(mid)
        resid = abs(val - target)
        if resid <= resid_tol:
            break
        if val > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < width_tol * max(1.0, abs(mid)):
            mid = 0.5 * (lo + hi)
            resid = abs(finite(mid) - target)
            break
    return mid, resid, iters


@dataclass(frozen=True, eq=False)
class TerminalModel:
    """Terminal-cost subgradient as a function of the accumulated position
    minus the current total forecast (vectorized)."""

    engine: str
    grad: Callable
    scale: float      # characteristic width, used to seed brackets
    grad_exact: Callable | None = None   # vectorized, set when grad interpolates


def build_terminal_model(scenario: Scenario, engine: str, *,
                         n_mc_paths: int = 20_000, seed: int = 0,
                         grid_points_per_scale: int = 8) -> TerminalModel:
    """Build the engine's terminal subgradient in forecast-relative form.

    A uniform shift of the forecast is identical to an opposite shift of
    the accumulated position, so one curve in w = x - forecast_total
    serves every forecast level.  The lattice and Monte Carlo engines are
    evaluated on a dense grid and interpolated with a shape-preserving
    cubic; the continuous-time engine is analytic.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    fc = scenario.delivery_forecast()
    T = scenario.T
    voll = scenario.cost.voll
    capacity = scenario.storage.capacity
    m_total = fc.total_mean
    sig_tot = math.sqrt(scenario.delivery_fluctuation_variance)
    scale = max(math.sqrt(T) * sig_tot, 1e-6)

    if sig_tot == 0.0:
        profile = fc.d_hat

        def grad_hard(w):
            w = np.atleast_1d(np.asarray(w, dtype=float))
            if w.size == 0:
                return np.empty(0)
            ds = np.broadcast_to(profile, (w.size, T))
            return subgradient_estimates_batch(ds, (w + m_total) / T, capacity, voll)

        return TerminalModel(engine, grad_hard, scale=max(T * capacity, 1.0))

    sigma_sq = scenario.delivery_fluctuation_variance
    # storage below 1e-12 stage sigmas holds nothing, and the ct width
    # sigma_sq / 2B explodes there, so every engine takes the B = 0 closed form
    if capacity <= 1e-12 * math.sqrt(sigma_sq / T):

        def grad_b0(w):
            return closed_form_b0(np.asarray(w, dtype=float) + m_total, fc, voll)[1]

        return TerminalModel(engine, grad_b0, scale)

    if engine == "ct":

        def grad_ct(w):
            return ct_terminal_subgradient(w, 0.0, sigma_sq, capacity, voll)

        return TerminalModel(engine, grad_ct, scale=max(scale, sigma_sq / (2 * capacity)))

    # dense grid where the subgradient transitions, coarse saturated tails
    core = T * capacity + 7.5 * scale
    outer = core + 8.0 * float(scenario.curve.sigmas.max()) + 0.25
    fine = scale / grid_points_per_scale
    ws = np.unique(np.concatenate([
        np.arange(-core, core + fine, fine),
        np.arange(-outer, outer + 4.0 * fine, 4.0 * fine),
    ]))

    if engine == "lattice":
        vals = lattice_terminal_subgradient(ws + m_total, fc, capacity, voll)
    else:
        gen = run_generator(seed, 0x6D63)  # dedicated stream for the mc engine
        noise = gen.standard_normal((n_mc_paths, T))
        deficits = fc.d_hat[None, :] + fc.sigma[None, :] * noise
        vals = np.array([
            subgradient_estimates_batch(deficits, (w + m_total) / T, capacity, voll).mean()
            for w in ws
        ])

    vals = np.maximum.accumulate(vals)   # roundoff/MC noise must not break monotonicity
    # The subgradient is a steep sigmoid in w; its probit transform is close
    # to linear, so interpolating there keeps the inverse accurate in both
    # the transition region and the tails.
    frac = np.clip(-vals / voll, 1e-15, 1.0 - 1e-15)
    zs = np.minimum.accumulate(ndtri(frac))
    interp = PchipInterpolator(ws, zs)

    def grad_interp(w):
        w = np.asarray(w, dtype=float)
        return -voll * ndtr(interp(np.clip(w, ws[0], ws[-1])))

    grad_exact = None
    if engine == "lattice":
        def grad_exact(w):
            return lattice_terminal_subgradient(np.asarray(w, dtype=float) + m_total,
                                                fc, capacity, voll)

    return TerminalModel(engine, grad_interp, scale, grad_exact=grad_exact)


def _sobol_normals(dims: int, n_samples: int, seed: int) -> np.ndarray:
    m = max(10, math.ceil(math.log2(max(n_samples, 2))))
    eng = qmc.Sobol(d=dims, scramble=True, seed=seed)
    u = eng.random_base2(m)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return ndtri(u)


def solve_delta_offsets(prices: np.ndarray, voll: float, shift_stds: np.ndarray,
                        grad, *, scale: float = 1.0, n_samples: int = 200_000,
                        seed: int = 0, grad_exact: Callable | None = None,
                        directions: tuple[str, ...] | None = None):
    """Backward recursion for the per-stage threshold offsets.

    ``shift_stds[r]`` is the std of the forecast revision after stage r+1
    (the last entry is the revision between the final market and
    delivery).  The last stage inverts the expected terminal subgradient
    by Gauss-Hermite quadrature over that final revision; earlier stages
    solve the first-future-action expansion with the revision sequence
    sampled once per path (scrambled Sobol, common random numbers across
    bisection iterates).  A future buy stage acts when the position sits
    below its threshold; a future sell stage acts when it sits above.
    """
    prices = np.asarray(prices, dtype=float)
    shift_stds = np.asarray(shift_stds, dtype=float)
    R = prices.size
    if shift_stds.size != R:
        raise ValueError("need one forecast-revision std per market stage")
    if directions is None:
        directions = (BUY,) * R
    deltas = np.empty(R)
    residuals = np.empty(R)
    iterations = np.zeros(R, dtype=int)
    resid_tol = 1e-6 * voll

    gh_x, gh_w = np.polynomial.hermite.hermgauss(64)
    nodes = math.sqrt(2.0) * shift_stds[R - 1] * gh_x
    weights = gh_w / math.sqrt(math.pi)

    def rhs_last(delta: float) -> float:
        return -float(weights @ np.asarray(grad(delta - nodes)))

    lo0 = -4.0 * scale - 6.0 * float(shift_stds[R - 1])
    hi0 = 4.0 * scale + 6.0 * float(shift_stds[R - 1])
    deltas[R - 1], residuals[R - 1], iterations[R - 1] = _solve_decreasing(
        rhs_last, float(prices[R - 1]), lo0, hi0, resid_tol
    )

    if grad_exact is not None:
        # Newton polish against the non-interpolated engine so the recorded
        # residual is honest with respect to the exact subgradient.
        def rhs_exact(delta: float) -> float:
            return -float(weights @ grad_exact(delta - nodes))

        d_cur = float(deltas[R - 1])
        h = 1e-5 * max(scale, 1.0)
        for _ in range(6):
            val = rhs_exact(d_cur)
            resid = val - float(prices[R - 1])
            residuals[R - 1] = abs(resid)
            if abs(resid) <= resid_tol:
                break
            slope = (rhs_last(d_cur + h) - rhs_last(d_cur - h)) / (2.0 * h)
            if slope >= 0.0:
                break
            step = resid / slope
            d_cur -= math.copysign(min(abs(step), 0.5 * scale), step)
            iterations[R - 1] += 1
        deltas[R - 1] = d_cur

    for idx in range(R - 2, -1, -1):
        dims = R - idx
        z = _sobol_normals(dims, n_samples, seed + 7919 * idx)
        cum = np.cumsum(z * shift_stds[idx:], axis=1)
        future_deltas = deltas[idx + 1:]
        future_prices = prices[idx + 1:]
        final_cum = cum[:, -1]

        future_dirs = directions[idx + 1:]

        def rhs(delta: float) -> float:
            contrib = np.empty(cum.shape[0])
            alive = np.ones(cum.shape[0], dtype=bool)
            for j in range(dims - 1):
                above = delta > future_deltas[j] + cum[:, j]
                acts = above if future_dirs[j] == SELL else ~above
                newly = alive & acts
                contrib[newly] = future_prices[j]
                alive &= ~acts
            if alive.any():
                contrib[alive] = -np.asarray(grad(delta - final_cum[alive]))
            return float(contrib.mean())

        spread = 6.0 * float(np.sqrt(np.sum(shift_stds[idx:] ** 2)))
        lo = float(np.min(deltas[idx + 1:])) - spread - 4.0 * scale
        hi = float(np.max(deltas[idx + 1:])) + spread + 4.0 * scale
        deltas[idx], residuals[idx], iterations[idx] = _solve_decreasing(
            rhs, float(prices[idx]), lo, hi, resid_tol
        )

    return deltas, residuals, iterations


@dataclass(frozen=True, eq=False)
class ThresholdSchedule:
    """Per-stage dispatch targets plus solver diagnostics."""

    engine: str
    offsets: np.ndarray       # target minus current total forecast
    thresholds: np.ndarray    # targets at the scenario's nominal forecast
    residuals: np.ndarray
    iterations: np.ndarray
    prices: np.ndarray
    lead_times: np.ndarray
    directions: tuple[str, ...]


def solve_thresholds_backward(scenario: Scenario, engine: str = "lattice", *,
                              n_samples: int = 200_000, seed: int = 0,
                              model: TerminalModel | None = None) -> ThresholdSchedule:
    """Solve every stage's threshold offset for the chosen engine."""
    if model is None:
        model = build_terminal_model(scenario, engine, seed=seed)
    shift_stds = scenario.inter_stage_stds()
    deltas, residuals, iterations = solve_delta_offsets(
        scenario.ladder.prices, scenario.cost.voll, shift_stds, model.grad,
        scale=model.scale, n_samples=n_samples, seed=seed,
        grad_exact=model.grad_exact, directions=scenario.ladder.directions,
    )
    return ThresholdSchedule(
        engine=engine,
        offsets=deltas,
        thresholds=scenario.d_total + deltas,
        residuals=residuals,
        iterations=iterations,
        prices=scenario.ladder.prices,
        lead_times=scenario.ladder.lead_times,
        directions=scenario.ladder.directions,
    )


def three_sigma_schedule(curve: ForecastErrorCurve, ladder: MarketLadder,
                         forecast: ForecastModel) -> ThresholdSchedule:
    """Rule-of-thumb schedule: hedge each stage by three lead-time sigmas."""
    offsets = np.array([3.0 * curve.sigma_at(float(lt)) for lt in ladder.lead_times])
    return ThresholdSchedule(
        engine="3sigma",
        offsets=offsets,
        thresholds=forecast.total_mean + offsets,
        residuals=np.full(ladder.n_stages, np.nan),
        iterations=np.zeros(ladder.n_stages, dtype=int),
        prices=ladder.prices,
        lead_times=ladder.lead_times,
        directions=ladder.directions,
    )


@dataclass(frozen=True, eq=False)
class PolicyResult:
    purchases: np.ndarray
    x_final: float
    delivery_cost: float
    total_cost: float


def simulate_policy_batch(schedule: ThresholdSchedule, scenario: Scenario,
                          shift_normals: np.ndarray, noise_normals: np.ndarray):
    """Vectorized policy evaluation over standard-normal innovation rows.

    Returns (purchases (n, R), x_final (n,), delivery_costs (n,),
    total_costs (n,)).  ``Scenario.realize`` scales the innovations, so the
    same draws give common random numbers across policies and scenarios.
    """
    forecasts, deficits = scenario.realize(shift_normals, noise_normals)
    n, R = forecasts.shape
    purchases = np.empty((n, R))
    x = np.zeros(n)
    for r in range(R):
        target = forecasts[:, r] + schedule.offsets[r]
        if schedule.directions[r] == BUY:
            s_r = np.maximum(target - x, 0.0)
        else:
            s_r = np.minimum(target - x, 0.0)
        purchases[:, r] = s_r
        x = x + s_r

    delivery = delivery_costs_batch(deficits, x / scenario.T, scenario.storage,
                                    scenario.cost.voll)
    totals = purchases @ schedule.prices + delivery
    return purchases, x, delivery, totals


def simulate_policy(schedule: ThresholdSchedule, scenario: Scenario,
                    shift_normals, noise_normals) -> PolicyResult:
    """Run one policy path; innovations are standard normals (see batch)."""
    p, x, d, tot = simulate_policy_batch(schedule, scenario, shift_normals, noise_normals)
    return PolicyResult(p[0], float(x[0]), float(d[0]), float(tot[0]))


def ideal_costs_batch(deficits: np.ndarray, capacity: float,
                      day_ahead_price: float, voll: float):
    """Perfect-foresight cost of each deficit row (ideal storage).

    Minimizes day-ahead procurement plus realized VOLL over the scalar
    accumulated position by bisecting the path subgradient, which is exact
    because the per-path cost is convex piecewise linear.
    """
    deficits = np.atleast_2d(np.asarray(deficits, dtype=float))
    n, T = deficits.shape
    lo = T * (deficits.min(axis=1) - capacity - 1.0)
    hi = T * (deficits.max(axis=1) + 1.0)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        g = day_ahead_price + subgradient_estimates_batch(deficits, mid / T, capacity, voll)
        lo = np.where(g < 0.0, mid, lo)
        hi = np.where(g < 0.0, hi, mid)
    x_acc = 0.5 * (lo + hi)
    costs = day_ahead_price * x_acc + delivery_costs_batch(
        deficits, x_acc / T, StorageSpec(capacity), voll)
    return x_acc / T, costs

