"""Threshold computation and dispatch policies.

Each market stage buys (or sells) up to an information-dependent target.
The last stage's target inverts the terminal cost subgradient; earlier
stages solve a nested expansion over the first future stage that acts, by
quadrature over the inter-stage forecast revisions.
Targets are solved as offsets relative to the current total-deficit
forecast, which makes them reusable across forecast levels: the realized
threshold at stage r is the current forecast plus the stage offset.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator
from scipy.special import ndtr, ndtri

from .ctapprox import ct_terminal_subgradient
from .lattice import closed_form_b0, lattice_terminal_subgradient
from .model import BUY, SELL, Scenario, StorageSpec
from .rng import run_generator
from .storage import (
    delivery_costs_batch,
    subgradient_estimates_batch,
    unserved_and_slope_batch,
)


class DegeneratePriceError(RuntimeError):
    """A stage price falls outside the subgradient's achievable range."""


ENGINES = ("lattice", "mc", "ct")
# the mc engine's Philox index: above every evaluation block (rng.BLOCK_RUNS)
MC_STREAM = 0x6D63


class _BelowRangeError(DegeneratePriceError):
    """fn(x) stays above the target however far the bracket grows."""


def _solve_decreasing(fn: Callable[[float], float], target: float,
                      lo: float, hi: float, resid_tol: float) -> tuple[float, float, int]:
    """Root of a nonincreasing fn(x) = target with bracket expansion.

    The bracket ends grow outward until fn(lo) >= target > fn(hi).  Then
    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) steps to the
    false-position point, and halves the stored residual of an end that
    is kept twice in a row, so both ends keep moving.  A point that does
    not land strictly inside the bracket is replaced by the midpoint.  The
    search stops at |fn(x) - target| <= resid_tol, when the bracket is
    narrower than 1e-9 * max(1, |x|), or after 200 steps.  Returns (x,
    |fn(x) - target|, steps).
    """
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
        if f_hi < target:
            break
        hi += grow
        grow *= 2.0
        f_hi = finite(hi)
    else:
        raise _BelowRangeError(f"target {target} below achievable range (min {f_hi})")

    # signed residuals: r_lo >= 0 > r_hi throughout
    r_lo, r_hi = f_lo - target, f_hi - target
    kept = 0     # +1: lo was kept by the last step, -1: hi was
    x = 0.5 * (lo + hi)
    resid = math.inf
    iters = 0
    for iters in range(1, 201):
        x = lo + r_lo / (r_lo - r_hi) * (hi - lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        r = finite(x) - target
        resid = abs(r)
        if resid <= resid_tol:
            break
        if r > 0.0:
            lo, r_lo = x, r
            if kept < 0:
                r_hi *= 0.5
            kept = -1
        else:
            hi, r_hi = x, r
            if kept > 0:
                r_lo *= 0.5
            kept = 1
        if hi - lo < 1e-9 * max(1.0, abs(x)):
            x = 0.5 * (lo + hi)
            resid = abs(finite(x) - target)
            break
    return x, resid, iters


@dataclass(frozen=True, eq=False)
class TerminalModel:
    """Terminal-cost subgradient as a function of the accumulated position
    minus the current total forecast (vectorized)."""

    engine: str
    grad: Callable
    scale: float      # characteristic width, used to seed brackets
    grad_exact: Callable | None = None   # vectorized, set when grad interpolates


def build_terminal_model(scenario: Scenario, engine: str, *,
                         n_mc_paths: int = 20_000, seed: int = 0) -> TerminalModel:
    """Build the engine's terminal subgradient in forecast-relative form.

    A uniform shift of the forecast is identical to an opposite shift of
    the accumulated position, so one curve in w = x - forecast_total
    serves every forecast level.  The lattice and Monte Carlo engines are
    evaluated on a dense grid and interpolated with a shape-preserving
    cubic; the continuous-time engine is analytic.  All three engines
    model ideal storage of the scenario's capacity and ignore its
    efficiencies, even at nu = 0, where the storage can deliver nothing.
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
            w = np.asarray(w, dtype=float)
            ds = np.broadcast_to(profile, (w.size, T))
            return subgradient_estimates_batch(ds, (w.ravel() + m_total) / T, capacity,
                                               voll).reshape(w.shape)

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

    # dense grid (8 points per scale) where the subgradient transitions,
    # coarse saturated tails
    core = T * capacity + 7.5 * scale
    outer = core + 8.0 * float(scenario.curve.sigmas.max()) + 0.25
    fine = scale / 8
    ws = np.unique(np.concatenate([
        np.arange(-core, core + fine, fine),
        np.arange(-outer, outer + 4.0 * fine, 4.0 * fine),
    ]))

    if engine == "lattice":
        vals = lattice_terminal_subgradient(ws + m_total, fc, capacity, voll)
    else:
        noise = run_generator(seed, MC_STREAM).standard_normal((n_mc_paths, T))
        # no forecast revisions: the delivery fluctuations around d_hat alone
        deficits = scenario.realize(np.zeros((n_mc_paths, scenario.ladder.n_stages)), noise)[1]
        # the spent draws hold the grid's row copies: no new large blocks
        vals = _mc_subgradients(deficits, (ws + m_total) / T, capacity, voll,
                                scratch=noise.reshape(-1))

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


def _mc_subgradients(deficits: np.ndarray, supplies: np.ndarray, capacity: float,
                     voll: float, scratch: np.ndarray) -> np.ndarray:
    """Mean ``subgradient_estimates_batch`` over the rows at each ascending supply.

    Only rows whose estimate is not known yet go through the kernel.  A row
    whose supply is below its lowest deficit is short at every stage with
    empty storage: exactly ``-voll / T * T``.  A row whose estimate reached
    0 stays at 0, because the kernel's exact weight never grows with the
    supply.  It counts the stages t whose first pin at or after t (a
    shortfall, or a level at the capacity) is a shortfall, and a higher
    supply raises every level, since each rounded step is monotone:
    shortfalls only disappear and full levels only appear.  The full
    vector is filled in row order before the mean, so every value is
    bitwise the plain per-supply kernel mean.  ``scratch`` (a float vector
    of at least ``deficits.size`` entries, overwritten) holds the rows
    sent each time, so the loop allocates no (n, T) array.
    """
    n, T = deficits.shape
    lowest = deficits.min(axis=1)
    est = np.full(n, -voll / T * T)
    todo = np.empty(n, dtype=bool)
    unsettled = np.empty(n, dtype=bool)
    vals = np.empty(supplies.size)
    for i, supply in enumerate(supplies):
        np.greater_equal(supply, lowest, out=todo)
        todo &= np.not_equal(est, 0.0, out=unsettled)
        rows = np.flatnonzero(todo)
        if rows.size:
            # stage-major rows of the copy: the kernel reads it column-major
            by_stage = scratch[:rows.size * T].reshape(T, rows.size)
            np.take(deficits.T, rows, axis=1, out=by_stage, mode="clip")
            est[rows] = subgradient_estimates_batch(by_stage.T, supply, capacity, voll)
        vals[i] = est.mean()
    return vals


# Gauss-Legendre rule of the stage expectations on [-8.5, 8.5] stds (1.9e-17 of the
# mass lies beyond); spline points per revision std, capped per window reach
_GL_X, _GL_W = np.polynomial.legendre.leggauss(96)
_GRID_PER_STD, _GRID_MAX = 16, 4096


def _expectation(stages, base: Callable, s: float) -> Callable:
    """y -> E[W(y - s Z)], Z standard normal, W(u) the price of the first of
    ``stages`` (offset, sells, price) acting at u (a buy at u <= offset, a sell
    at u > offset), else ``base(u)``: per cell between offsets, a price times
    its Gaussian mass or Gauss-Legendre over the smooth base."""
    edges = [-np.inf, *np.unique([d for d, _, _ in stages if math.isfinite(d)]), np.inf]
    cells = [(lo, hi, next((p for d, sells, p in stages if (d <= lo if sells else d >= hi)), None))
             for lo, hi in zip(edges[:-1], edges[1:])]

    def expect(y: np.ndarray) -> np.ndarray:
        out = np.zeros(y.shape)
        for lo, hi, price in cells:
            # y - s z lies in (lo, hi] for z in [(y - hi) / s, (y - lo) / s)
            if s == 0.0:
                inside = (lo < y) & (y <= hi)
                out[inside] = base(y[inside]) if price is None else price
            elif price is not None:
                out += price * (ndtr((y - lo) / s) - ndtr((y - hi) / s))
            else:
                a, b = np.maximum((y - hi) / s, -8.5), np.minimum((y - lo) / s, 8.5)
                rows = np.flatnonzero(a < b)
                half = 0.5 * (b[rows] - a[rows])
                z = (a[rows] + half)[:, None] + half[:, None] * _GL_X
                vals = base((y[rows, None] - s * z).ravel()).reshape(z.shape)
                out[rows] += half * ((vals * np.exp(-0.5 * z * z)) @ _GL_W) / math.sqrt(2 * math.pi)
        return out

    return expect


def _tabulate(fn: Callable, far: Callable, spans, step: float) -> Callable:
    """``fn`` by a cubic spline per run of multiples of ``step`` in ``spans``; ``far`` elsewhere."""
    ticks = np.unique([t for lo, hi in spans
                       for t in range(math.floor(lo / step), math.ceil(hi / step) + 1)])
    runs = np.split(ticks, np.flatnonzero(np.diff(ticks) > 1) + 1)
    splines = [CubicSpline(t * step, fn(t * step)) for t in runs if t.size > 1]

    def table(u: np.ndarray) -> np.ndarray:
        out = np.full(u.shape, np.nan)
        for spline in splines:
            inside = (u >= spline.x[0]) & (u <= spline.x[-1])
            out[inside] = spline(u[inside])
        rest = np.isnan(out)
        out[rest] = far(u[rest])
        return out

    return table


def solve_delta_offsets(prices: np.ndarray, voll: float, shift_stds: np.ndarray,
                        grad, *, scale: float = 1.0, grad_exact: Callable | None = None,
                        directions: tuple[str, ...] | None = None):
    """Backward recursion for the per-stage threshold offsets.

    ``shift_stds[r]`` is the std of the forecast revision after stage r+1
    (the last entry is the revision between the final market and
    delivery).  Stage r solves U_r(delta) = price_r in the position minus
    the current forecast.  U_{R-1} is the expected terminal subgradient by
    Gauss-Hermite quadrature over the final revision (the 44 of 64 nodes of
    normalized weight >= 1e-18).  Earlier stages follow the first future
    action: U_{k-1}(y) = E[W_k(y - s_{k-1} Z)], with W_k = price_k where
    stage k acts and U_k elsewhere (``_expectation``); a level with a
    positive std is tabulated near the later offsets.  Every stage equation
    is solved by Illinois regula falsi (``_solve_decreasing``); with
    ``grad_exact`` the last stage then takes Newton steps against it.  A
    sell stage whose right-hand side never falls below its price never pays
    to sell: its offset is +inf (residual 0).  Returns (offsets, residuals,
    iterations); an iteration count is root-finder steps plus Newton steps.
    """
    prices = np.asarray(prices, dtype=float)
    shift_stds = np.asarray(shift_stds, dtype=float)
    R = prices.size
    if shift_stds.size != R:
        raise ValueError("need one forecast-revision std per market stage")
    if directions is None:
        directions = (BUY,) * R
    deltas, residuals = np.empty(R), np.empty(R)
    iterations = np.zeros(R, dtype=int)
    resid_tol = 1e-6 * voll

    gh_x, weights = np.polynomial.hermite.hermgauss(64)
    weights /= math.sqrt(math.pi)
    gh_x, weights = gh_x[weights >= 1e-18], weights[weights >= 1e-18]

    def terminal(std: float, g: Callable = grad) -> Callable:
        """u -> -E[g(u - std Z)] by Gauss-Hermite quadrature."""
        shifts = math.sqrt(2.0) * std * gh_x
        return lambda u: -(g((u[:, None] - shifts).ravel()).reshape(u.size, shifts.size) @ weights)

    # level k's spline windows reach 9 total stds plus 8.5 per revision before k
    tail_std = np.sqrt(np.cumsum(shift_stds[::-1] ** 2)[::-1])
    reach = 9.0 * tail_std[0] + 8.5 * (np.cumsum(shift_stds) - shift_stds)
    later, stages = [], []   # (offset, sells, price): solved, and acting at U_k's position
    expect = terminal(float(shift_stds[R - 1]))
    for idx in range(R - 1, -1, -1):
        if idx < R - 1:
            k = idx + 1
            if shift_stds[k] > 0.0:
                # tabulate U_k near the later offsets where stage k does not act;
                # beyond 9 tail stds it is its first later action or terminal value
                step = max(shift_stds[k] / _GRID_PER_STD, reach[k] / _GRID_MAX)
                d_k, sells, _ = later[0]
                keep = (-math.inf, d_k + 4 * step) if sells else (d_k - 4 * step, math.inf)
                spans = [(max(d - reach[k], keep[0]), min(d + reach[k], keep[1]))
                         for d, _, _ in later if math.isfinite(d)]
                far = _expectation(later[1:], terminal(float(tail_std[k])), 0.0)
                base = _tabulate(base, far, spans, step)
            stages = [later[0], *stages]
            expect = _expectation(stages, base, float(shift_stds[idx]))

        def rhs(delta: float, expect=expect) -> float:
            return float(expect(np.array([delta]))[0])

        # a never-selling stage (offset +inf) does not place the bracket
        finite = [d for d, _, _ in later if math.isfinite(d)] or [0.0]
        spread = 6.0 * float(tail_std[idx]) + 4.0 * scale
        try:
            deltas[idx], residuals[idx], iterations[idx] = _solve_decreasing(
                rhs, float(prices[idx]), min(finite) - spread, max(finite) + spread,
                0.1 * resid_tol)
        except _BelowRangeError:
            if directions[idx] != SELL:
                raise
            deltas[idx], residuals[idx] = math.inf, 0.0
        if idx == R - 1 and grad_exact is not None and math.isfinite(deltas[idx]):
            # Newton polish against the exact engine: the recorded residual is honest
            rhs_exact = terminal(float(shift_stds[idx]), grad_exact)
            h = 1e-5 * max(scale, 1.0)
            for _ in range(6):
                resid = float(rhs_exact(deltas[idx:idx + 1])[0]) - float(prices[idx])
                residuals[idx] = abs(resid)
                if abs(resid) <= resid_tol:
                    break
                slope = (rhs(deltas[idx] + h) - rhs(deltas[idx] - h)) / (2.0 * h)
                if slope >= 0.0:
                    break
                step = resid / slope
                deltas[idx] -= math.copysign(min(abs(step), 0.5 * scale), step)
                iterations[idx] += 1
        later.insert(0, (float(deltas[idx]), directions[idx] == SELL, float(prices[idx])))
        if idx == R - 1 or shift_stds[idx] > 0.0:
            stages, base = [], expect

    return deltas, residuals, iterations


@dataclass(frozen=True, eq=False)
class ThresholdSchedule:
    """Per-stage threshold offsets plus solver diagnostics.

    Stage r's threshold is its current total-deficit forecast plus
    ``offsets[r]``; its price, lead time and direction are those of stage r
    of the scenario's ladder.
    """

    engine: str
    offsets: np.ndarray       # target minus current total forecast
    residuals: np.ndarray     # |stage right-hand side - price|, one per stage
    iterations: np.ndarray    # root-finder steps plus Newton steps, one per stage


def solve_thresholds_backward(scenario: Scenario, engine: str = "lattice", *,
                              seed: int = 0) -> ThresholdSchedule:
    """Solve every stage's threshold offset; ``seed`` keys the mc engine's paths."""
    model = build_terminal_model(scenario, engine, seed=seed)
    deltas, residuals, iterations = solve_delta_offsets(
        scenario.ladder.prices, scenario.cost.voll, scenario.inter_stage_stds(), model.grad,
        scale=model.scale, grad_exact=model.grad_exact, directions=scenario.ladder.directions,
    )
    return ThresholdSchedule(engine, deltas, residuals, iterations)


def three_sigma_schedule(scenario: Scenario) -> ThresholdSchedule:
    """Rule-of-thumb schedule: hedge each stage by three lead-time sigmas."""
    ladder = scenario.ladder
    offsets = np.array([3.0 * scenario.curve.sigma_at(float(lt)) for lt in ladder.lead_times])
    return ThresholdSchedule("3sigma", offsets, np.full(ladder.n_stages, np.nan),
                             np.zeros(ladder.n_stages, dtype=int))


def simulate_policy_batch(schedule: ThresholdSchedule, scenario: Scenario,
                          forecasts: np.ndarray, deficits: np.ndarray):
    """Vectorized policy evaluation over realized paths.

    ``forecasts`` (n, R) and ``deficits`` (n, T) are ``Scenario.realize``
    output, so one realization serves every policy and the ideal with
    common random numbers.  Stages trade in the directions and at the
    prices of the scenario's ladder.  Returns (purchases (n, R), x_final
    (n,), delivery_costs (n,), total_costs (n,)).
    """
    ladder = scenario.ladder
    if np.shape(schedule.offsets) != (ladder.n_stages,):
        raise ValueError(f"schedule has {np.size(schedule.offsets)} offsets for "
                         f"{ladder.n_stages} ladder stages")
    n, R = forecasts.shape
    purchases = np.empty((n, R))
    x = np.zeros(n)
    for r, direction in enumerate(ladder.directions):
        target = forecasts[:, r] + schedule.offsets[r]
        if direction == BUY:
            s_r = np.maximum(target - x, 0.0)
        else:
            s_r = np.minimum(target - x, 0.0)
        purchases[:, r] = s_r
        x = x + s_r

    delivery = delivery_costs_batch(deficits, x / scenario.T, scenario.storage,
                                    scenario.cost.voll)
    totals = purchases @ ladder.prices + delivery
    return purchases, x, delivery, totals


# rows per search block; its working copy is 1.9 MB at T = 60 (8192 rows ran
# 20% faster but raised the peak memory of a 50000-run benchmark by 1.5 MB)
_IDEAL_BLOCK = 4096


def ideal_costs_batch(deficits: np.ndarray, capacity: float,
                      day_ahead_price: float, voll: float):
    """Perfect-foresight per-stage supply and cost of each deficit row.

    Ideal storage.  Each row's cost ``p*T*s + VOLL*V(s)`` is convex and
    piecewise linear in the per-stage supply s with integer-weighted
    slopes (``storage.unserved_and_slope_batch``), so a tangent-cut
    (Kelley) search finds its minimum exactly; see ``_ideal_supply``.  The
    cost is ``p*(T*s) + delivery_costs_batch(...)`` at the returned s.
    """
    # column-major (a no-op on Scenario.realize output): the search reads
    # the deficits one stage column at a time
    deficits = np.asfortranarray(np.atleast_2d(np.asarray(deficits, dtype=float)))
    n, T = deficits.shape
    spec = StorageSpec(capacity)
    supply = np.empty(n)
    work = np.empty((min(n, _IDEAL_BLOCK), T), order="F")
    for start in range(0, n, _IDEAL_BLOCK):
        rows = slice(start, start + _IDEAL_BLOCK)
        supply[rows] = _ideal_supply(deficits[rows], spec, day_ahead_price, voll, work)
    costs = day_ahead_price * (T * supply) + delivery_costs_batch(deficits, supply, spec, voll)
    return supply, costs


def _ideal_supply(deficits, spec, price, voll, work):
    """Minimizer of ``price*T*s + voll*V(s)`` for each row of one block.

    Kelley's cutting plane on a convex piecewise-linear function of one
    variable on ideal storage ``spec``.  Each bracket end carries its cost
    f and right slope g = price*T - voll*w (w an integer in 0..T); g < 0
    at ``lo`` and g >= 0 at ``hi``, so the minimum lies between.  The first
    ends are the exact outer pieces: below the lowest deficit every stage
    is short (w = T), above the highest none is (w = 0).  Each step
    evaluates the point t where the two tangent lines meet.  If g(t) is 0
    or equals an end's slope, f is linear from that end to t, so f(t)
    equals the tangent lower bound and t is a minimizer; a t that rounds
    onto an end puts the minimum at that end.  Otherwise w(t) lies strictly
    between the ends' weights and t replaces one end, so a row retires
    within T steps.  The same count bounds a price outside [0, voll), whose
    cost is unbounded below: the search then stops at an arbitrary
    point.  The working copy ``work`` holds the unretired rows, compacted
    after every step.
    """
    m, T = deficits.shape
    lo = deficits.min(axis=1) - 1.0
    hi = deficits.max(axis=1) + 1.0
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("deficits must be finite")
    price_T = price * T
    f_lo = price_T * lo + voll * (deficits.sum(axis=1) - T * lo)
    f_hi = price_T * hi
    g_lo = np.full(m, price_T - voll * T)
    g_hi = np.full(m, price_T)
    rows = np.arange(m)
    out = np.empty(m)
    active = work[:m]
    active[...] = deficits
    for _ in range(T + 1):
        t = lo + (f_hi - f_lo - g_hi * (hi - lo)) / (g_lo - g_hi)
        unserved, weight = unserved_and_slope_batch(active, t, spec)
        f = price * (T * t) + voll * unserved
        g = price_T - voll * weight
        inside = (lo < t) & (t < hi)
        done = ~inside | (g == 0.0) | (g == g_lo) | (g == g_hi)
        out[rows[done]] = np.where(inside, t, np.where(t <= lo, lo, hi))[done]
        keep = ~done
        k = int(keep.sum())
        if k == 0:
            return out
        if k < rows.size:
            for col in range(T):
                work[:k, col] = active[:, col][keep]
            active = work[:k]
            lo, hi, f_lo, f_hi, g_lo, g_hi, t, f, g, rows = (
                a[keep] for a in (lo, hi, f_lo, f_hi, g_lo, g_hi, t, f, g, rows))
        left = g < 0.0
        lo, f_lo, g_lo = np.where(left, t, lo), np.where(left, f, f_lo), np.where(left, g, g_lo)
        hi, f_hi, g_hi = np.where(left, hi, t), np.where(left, f_hi, f), np.where(left, g_hi, g)
    raise RuntimeError("tangent-cut search did not retire every row within T + 1 steps")
