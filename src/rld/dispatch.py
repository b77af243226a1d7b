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

from .ctapprox import ct_terminal_subgradient
from .lattice import closed_form_b0, lattice_terminal_subgradient
from .model import BUY, SELL, Scenario, StorageSpec, ValidationError
from .normal import ndtr, ndtri
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
MC_PATHS = 20_000     # delivery paths behind the mc engine's grid
# The widest final forecast revision, in delivery-interval stds and (mc) in terminal
# scales, whose last-stage rule still meets the 1e-6 VOLL gate on the lattice or mc
# model, measured by a dense rule over T in [2, 60] and B in [1e-4, 0.1].  mc's grid
# noise misses it at some T for B >= 1e-2: at T in {2, 6, 8, 17} and B in {1e-2, 0.1}
# the rule read 1.1e-3 to 2.3e-3 VOLL at 0.579 scales, and at most 7.8e-4 at 0.55
MAX_REVISION = {"lattice": (2.4, math.inf), "mc": (2.4, 0.55)}


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
    """Terminal-cost subgradient as a function of the accumulated position minus
    the current total forecast (vectorized), smooth on a revision's scale between
    ``cuts``.  Cuts mark turns narrower than that: the stage cells split at them,
    and a stage table sums over its tick lattice across them only with a step
    of at most a quarter of their spacing (ct: a cut every 4 widths sigma^2/2B; the
    B = 0 closed form: about each bin where an eighth of its stage terms turn)."""

    engine: str
    grad: Callable
    scale: float      # characteristic width, used to seed brackets
    grad_exact: Callable | None = None   # vectorized, set when grad interpolates
    cuts: tuple[float, ...] | np.ndarray = ()
    grid: np.ndarray | None = None       # (2, points): the w and values grad interpolates


def build_terminal_model(scenario: Scenario, engine: str, *, seed: int = 0) -> TerminalModel:
    """Build the engine's terminal subgradient in forecast-relative form.

    A uniform shift of the forecast is identical to an opposite shift of
    the accumulated position, so one curve in w = x - forecast_total
    serves every forecast level.  The lattice and Monte Carlo engines are
    evaluated on one uniform grid, whatever the capacity, and interpolated
    in probit space by a monotone cubic Hermite interpolant whose node
    slopes are the grid's not-a-knot spline slopes, filtered
    (``_monotone_cubic``), held at the grid ends; the continuous-time engine
    is analytic.  The Monte Carlo engine, and the pointwise model of an
    unrevised forecast with no delivery fluctuation, run the scenario's
    storage, efficiencies included; the lattice and continuous-time engines
    model ideal storage of its capacity, even at nu = 0, where the storage
    can deliver nothing.  A lattice or mc model under a final forecast revision
    wider than ``MAX_REVISION`` allows is refused, at B = 0 too.

    On a point-symmetric profile (d_t + d_{T-1-t} equal for every t, every
    flat profile included) the grid is laid out symmetric about w = 0, where
    the value is -voll / 2 exactly, and one half is evaluated: the lattice
    solves the positions below the centre, and mc, on ideal storage only,
    averages its paths above it.  The other half follows from the storage
    walk's time-reversal duality, g(-w) = -voll - g(w) (``rld.storage``); for
    mc it is the estimate from the paths' reversed, negated twins.  Other
    profiles, and mc on lossy storage, evaluate the whole grid.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    fc = scenario.delivery_forecast()
    T = scenario.T
    voll = scenario.cost.voll
    spec = scenario.storage
    capacity = spec.capacity
    m_total = fc.total_mean
    sig_tot = math.sqrt(scenario.delivery_fluctuation_variance)
    scale = max(math.sqrt(T) * sig_tot, 1e-6)

    if sig_tot == 0.0:
        # a step in w that no stage cut marks: only an unrevised forecast
        # evaluates it pointwise
        if np.any(scenario.inter_stage_stds() > 0.0):
            raise ValidationError(
                f"mean_share: {scenario.mean_share} at a final-horizon sigma of "
                f"{math.sqrt(scenario.final_horizon_variance):.6g} leaves no delivery "
                "fluctuation under a forecast revision; the stage rule cannot integrate "
                "its step terminal subgradient")
        profile = fc.d_hat

        def grad_hard(w):
            w = np.asarray(w, dtype=float)
            ds = np.broadcast_to(profile, (w.size, T))
            return subgradient_estimates_batch(ds, (w.ravel() + m_total) / T, spec,
                                               voll).reshape(w.shape)

        return TerminalModel(engine, grad_hard, scale=max(T * capacity, 1.0))

    sigma_sq = scenario.delivery_fluctuation_variance
    if engine in MAX_REVISION:   # at every B, the closed form's B = 0 included
        revision = float(scenario.inter_stage_stds()[-1])
        in_stds, in_scales = MAX_REVISION[engine]
        if revision > in_stds * sig_tot or revision > in_scales * scale:
            raise ValidationError(
                f"mean_share: {scenario.mean_share} puts the final forecast revision at "
                f"{revision / sig_tot:.3g} delivery-interval stds and {revision / scale:.3g} "
                f"scales, past the {engine} engine's limits ({in_stds} and {in_scales}): its last "
                "stage's rule would miss the terminal model's turns; the ct engine solves it")
    # storage below 1e-12 stage sigmas holds nothing, and the ct width
    # sigma_sq / 2B explodes there, so every engine takes the B = 0 closed form
    if capacity <= 1e-12 * math.sqrt(sigma_sq / T):

        def grad_b0(w):
            return closed_form_b0(np.asarray(w, dtype=float) + m_total, fc, voll)[1]

        # stage t's term turns over a few of its widths T*sigma_t = scale about T*d_t - m_total;
        # where an eighth of the stages or more turn in one bin of 4 widths, the model steps
        # by VOLL/8 or more: cut at the bin and 4 widths either side (ct's cuts are 4 apart)
        held, count = np.unique(np.rint((T * fc.d_hat - m_total) / (4 * scale)),
                                return_counts=True)
        cuts = np.unique(held[8 * count >= T, None] + np.arange(-1, 2)) * (4 * scale)
        return TerminalModel(engine, grad_b0, scale, cuts=cuts)

    if engine == "ct":

        def grad_ct(w):
            return ct_terminal_subgradient(w, 0.0, sigma_sq, capacity, voll)

        width = sigma_sq / (2 * capacity)   # h' turns within 40 widths of 0: cut every 4
        return TerminalModel(engine, grad_ct, max(scale, width), cuts=width * np.r_[-40:41:4])

    # 8 points per scale (sqrt(T) interval stds, which are T stage stds), 9
    # scales beyond the lowest and the highest stage deficit: below, every
    # stage is short and the empty storage never charges, above none is, so
    # the subgradient is -voll and 0 there to T * ndtr(-9) * voll; only the
    # profile's spread adds points
    fine = scale / 8
    spread = T * float(np.ptp(fc.d_hat))
    steps = 2 * 9 * 8 + math.ceil(spread / fine)
    if steps >= 2**20:
        raise ValidationError(f"d_hat: a profile spread of {spread:.6g} needs a {engine} "
                              "terminal grid of over 2**20 points; the ct engine solves any profile")
    # g(-w) = -voll - g(w) about w = 0, the supply c, on a point-symmetric profile
    # (d_t + d_{T-1-t} = 2c, and the stage stds are equal) with ideal storage
    pairs = fc.d_hat + fc.d_hat[::-1]
    ideal = (spec.storage_eff, spec.recharge_eff, spec.discharge_eff) == (1.0, 1.0, 1.0)
    mirrored = bool(np.all(pairs == pairs[0])) and (engine == "lattice" or ideal)
    if mirrored:
        half = -(-steps // 2)
        ws = fine * np.arange(-half, half + 1)
    else:
        ws = T * float(fc.d_hat.min()) - m_total - 9.0 * scale + fine * np.arange(steps + 1)

    grad_exact = None
    if engine == "lattice":
        def grad_exact(w):
            return lattice_terminal_subgradient(np.asarray(w, dtype=float) + m_total,
                                                fc, capacity, voll)

        def solve(w):
            try:
                return grad_exact(w)
            except ValueError as exc:   # a grid position past the lattice's panel budget
                raise ValidationError(f"storage.B: {exc}; the ct engine solves any "
                                      "capacity") from exc
    else:
        noise = run_generator(seed, MC_STREAM).standard_normal((MC_PATHS, T))
        # no forecast revisions: the delivery fluctuations around d_hat alone
        deficits = scenario.realize(np.zeros((MC_PATHS, scenario.ladder.n_stages)), noise)[1]

        def solve(w):   # the spent draws hold the grid's row copies: no new large blocks
            return _mc_subgradients(deficits, (w + m_total) / T, spec, voll,
                                    scratch=noise.reshape(-1))

    if mirrored:
        # the lattice solves below the centre, where its rows take fewer panels; mc
        # averages above it, where more of its rows retire early
        part = slice(0, half) if engine == "lattice" else slice(half + 1, None)
        vals = np.full(ws.size, -0.5 * voll)
        vals[part] = solve(ws[part])
        vals[::-1][part] = -voll - vals[part]
    else:
        vals = solve(ws)
    vals = np.maximum.accumulate(vals)   # roundoff/MC noise must not break monotonicity
    # The subgradient is a steep sigmoid in w; its probit transform is close
    # to linear and smooth, so a spline-accurate monotone cubic there keeps
    # the inverse accurate in both the transition region and the tails.
    frac = np.clip(-vals / voll, 1e-15, 1.0 - 1e-15)
    zs = np.minimum.accumulate(ndtri(frac))
    interp = _monotone_cubic(ws, zs)

    def grad_interp(w):
        w = np.asarray(w, dtype=float)
        return -voll * ndtr(interp(np.clip(w, ws[0], ws[-1])))

    return TerminalModel(engine, grad_interp, scale, grad_exact=grad_exact,
                         grid=np.stack([ws, vals]))


def _monotone_cubic(x: np.ndarray, y: np.ndarray) -> _Hermite:
    """Monotone cubic Hermite interpolant of monotone data on uniform nodes.

    Its node slopes are the not-a-knot cubic spline's (``_spline_slopes``),
    filtered (Hyman, SIAM J. Sci. Stat. Comput. 4, 1983): 0 where the
    adjacent secants differ in sign or either is 0, else clipped into
    [0, 3 min |secant|] with the secants' sign, which keeps every piece
    monotone (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980).  An end
    node takes its one secant for both.
    """
    secants = np.diff(y) / np.diff(x)
    left, right = np.concatenate([secants[:1], secants]), np.concatenate([secants, secants[-1:]])
    sign = np.where(left * right > 0.0, np.sign(left), 0.0)
    bound = 3.0 * np.minimum(np.abs(left), np.abs(right))
    return _Hermite(x, y, sign * np.clip(sign * _spline_slopes(x, y), 0.0, bound))


# the inverse of the infinite tridiag(1, 4, 1): (-r)^|k| / 2 sqrt(3), r = 2 - sqrt(3) the
# root of r^2 - 4 r + 1; beyond 32 taps it is below 2e-19 of its diagonal
_NAK_R = 2.0 - math.sqrt(3.0)
_NAK_TAPS = 32
_NAK_KERNEL = (-_NAK_R) ** np.abs(np.arange(-_NAK_TAPS, _NAK_TAPS + 1)) / (2.0 * math.sqrt(3.0))


def _spline_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node slopes of the not-a-knot cubic spline through (x, y), ``x`` uniform.

    With secants m, the interior rows are s[i-1] + 4 s[i] + s[i+1] =
    3 (m[i-1] + m[i]) and the end rows s[0] + 2 s[1] = (5 m[0] + m[1]) / 2
    and its mirror image.  One convolution with ``_NAK_KERNEL`` solves the
    interior rows; the homogeneous solutions (-r)^i and (-r)^(n-1-i) then
    meet the end rows, a 2 x 2 solve.  Under 4 nodes the end rows coincide
    (3 nodes) or lack a second secant (2), and the spline is the parabola or
    line through the nodes.
    """
    n = y.size
    m = np.diff(y) / np.diff(x)
    if n < 4:
        mid = m.mean()
        return np.r_[2.0 * m[0], np.full(n - 2, 2.0 * mid), 2.0 * m[-1]] - mid
    rhs = np.zeros(n)
    rhs[1:-1] = 3.0 * (m[:-1] + m[1:])
    s = np.convolve(rhs, _NAK_KERNEL)[_NAK_TAPS:_NAK_TAPS + n]
    miss0 = 0.5 * (5.0 * m[0] + m[1]) - (s[0] + 2.0 * s[1])
    miss1 = 0.5 * (m[-2] + 5.0 * m[-1]) - (2.0 * s[-2] + s[-1])
    # an end row gives a of its own end's solution and c of the other's
    a, c = 1.0 - 2.0 * _NAK_R, (-_NAK_R) ** (n - 2) * (2.0 - _NAK_R)
    decay = (-_NAK_R) ** np.arange(min(n, _NAK_TAPS)) / (a * a - c * c)
    s[:decay.size] += (a * miss0 - c * miss1) * decay
    s[::-1][:decay.size] += (a * miss1 - c * miss0) * decay
    return s


class _Hermite:
    """Piecewise cubic through (x, y), ``x`` ascending, with node slopes
    ``slopes`` (default: the not-a-knot spline's, on uniform ``x``),
    extended by its end pieces.  A point takes the piece of the last node
    at or below it (the last piece at x[-1] and NaN), and c3 + c2 d + c1 d^2
    + c0 d^3 in its offset d from that node.  The nodes are uniform, so the
    piece is (u - x[0]) / h rounded down, and then moved by one where the
    rounding put it past an inner node."""

    __slots__ = ("x", "_h", "_edges", "_coef")

    def __init__(self, x: np.ndarray, y: np.ndarray, slopes: np.ndarray | None = None):
        if slopes is None:
            slopes = _spline_slopes(x, y)
        h = np.diff(x)
        secants = np.diff(y) / h
        t = (slopes[:-1] + slopes[1:] - 2.0 * secants) / h
        self.x, self._h = x, (x[-1] - x[0]) / (x.size - 1)
        self._edges = np.concatenate([[-np.inf], x[1:-1], [np.inf]])   # of piece i: i, i + 1
        self._coef = np.stack([t / h, (secants - slopes[:-1]) / h - t, slopes[:-1], y[:-1]])

    def __call__(self, u) -> np.ndarray:
        u, x, edges = np.asarray(u, dtype=float), self.x, self._edges
        inside = np.minimum(np.maximum(u, x[0]), x[-1])   # NaN stays: the last piece
        i = np.fmin(np.floor((inside - x[0]) / self._h), x.size - 2).astype(np.intp)
        i += inside >= edges[i + 1]
        i -= inside < edges[i]
        d = u - x[i]
        c0, c1, c2, c3 = self._coef.take(i, axis=1)
        d2 = d * d
        return c3 + c2 * d + c1 * d2 + c0 * (d2 * d)


def _retire(gone: np.ndarray, start: int, *tables: np.ndarray) -> int:
    """Drop the rows where ``gone`` from the working range that starts at ``start``.

    ``gone`` flags the range's rows in order; with k of them set, the range
    then starts at ``start + k``.  Each live row among its first k moves
    into a gone slot beyond them, in every line of each table (one entry
    per row, so a (T, n) table moves T contiguous stage columns).  Only
    the rows that leave or move are touched, and no temporary is larger
    than their count.
    """
    k = int(np.count_nonzero(gone))
    src = np.flatnonzero(~gone[:k])
    if src.size:
        src += start
        dst = np.flatnonzero(gone[k:]) + (start + k)
        for table in tables:
            for line in table:
                line[dst] = line[src]
    return start + k


def _mc_subgradients(deficits: np.ndarray, supplies: np.ndarray, spec: StorageSpec,
                     voll: float, scratch: np.ndarray) -> np.ndarray:
    """Mean ``subgradient_estimates_batch`` over the rows at each ascending supply.

    Only rows whose estimate is not known yet go through the kernel, on
    ``spec``'s storage.  A row whose supply is below its lowest deficit is
    short at every stage with empty storage: each stage adds 1 to the
    weight, exactly ``-voll / T * T`` whatever the efficiencies.  A row
    whose estimate reached 0 stays at 0.  Its weight is 0 exactly when no
    stage is short, since a short stage's supply is below its deficit and
    adds at least 1, and a higher supply raises every forward level, since
    each rounded step (the gain and lambda scalings included) is monotone:
    shortfalls only disappear.

    The rows are copied once into ``scratch`` (a float vector of at least
    ``deficits.size`` entries, overwritten), stage-major and sorted by
    lowest deficit, so the open rows are one contiguous range [a, b) of
    every stage column: b advances past the rows whose lowest deficit the
    supply reaches, and a row whose estimate reaches 0 leaves through
    ``_retire`` at a.  The kernel reads the range in place; each call
    allocates only its two one-byte masks per row and stage.  The
    estimates are kept by original row, and the mean is taken in row
    order, so every value is bitwise the plain per-supply kernel mean.
    """
    n, T = deficits.shape
    lowest = deficits.min(axis=1)
    idx = np.argsort(lowest, kind="stable")
    entered = np.searchsorted(lowest[idx], supplies, side="right")
    by_stage = scratch[:n * T].reshape(T, n)
    np.take(deficits.T, idx, axis=1, out=by_stage, mode="clip")
    est = np.full(n, -voll / T * T)
    vals = np.empty(supplies.size)
    a = 0
    for i, (supply, b) in enumerate(zip(supplies, entered)):
        if a < b:
            open_rows = subgradient_estimates_batch(by_stage[:, a:b].T, supply, spec, voll)
            est[idx[a:b]] = open_rows
            a = _retire(open_rows == 0.0, a, by_stage, idx[None])
        vals[i] = est.mean()
    return vals


# quadrature: 22 Gauss-Legendre nodes on a cell's part of each z panel, 87% of the mass in the
# middle one and 1.9e-17 beyond 8.5 stds (the exact lattice check takes the halves: 44
# positions); spline points per revision std, capped per window reach
_GL_X, _GL_W = np.polynomial.legendre.leggauss(22)
_PANELS, _HALVES = np.array([-8.5, -1.5, 1.5, 8.5]), np.array([-8.5, 0.0, 8.5])
_GRID_PER_STD, _GRID_MAX = 16, 4096


def _expectation(stages, base: Callable, s: float, cuts=(), panels=_PANELS) -> Callable:
    """y -> E[W(y - s Z)], Z standard normal, W(u) the price of the first of
    ``stages`` (offset, sells, price) acting at u (a buy at u <= offset, a sell
    at u > offset), else ``base(u)``: per cell between offsets and ``cuts``, a
    price times its Gaussian mass or 22 Gauss-Legendre nodes over the base on
    its part of each z panel (edges ``panels``; skipped beyond 8.5 s of all y).

    ``expect(y, step)`` takes ascending y on the lattice of multiples of a
    ``step`` no coarser than s / 16.  A y whose 8.5 s window holds no offset
    and lies where no stage acts then takes ``_lattice_sum`` instead, unless
    ``cuts`` under 4 steps apart (coinciding too) mark turns too narrow for it."""
    edges = [-np.inf, *np.unique([*cuts, *(d for d, _, _ in stages if math.isfinite(d))]), np.inf]
    cells = [(lo, hi, next((p for d, sells, p in stages if (d <= lo if sells else d >= hi)), None))
             for lo, hi in zip(edges[:-1], edges[1:])]
    smooth = np.array([price is None for _, _, price in cells])
    offsets = np.array([d for d, _, _ in stages if math.isfinite(d)])
    cut_gap = np.min(np.diff(np.sort(cuts)), initial=np.inf)
    # the finite edges of priced cells, each shared by the cells on its two sides
    priced = [i for i in range(1, len(cells)) if not (smooth[i - 1] and smooth[i])]
    priced_at = np.array(edges)[priced, None]

    def expect(y: np.ndarray, step: float = 0.0) -> np.ndarray:
        out = np.zeros(y.shape)
        # Phi((y - edge) / s) by edge index: 1 at -inf (edge 0) and 0 at +inf (the last)
        cdf = dict(zip(priced, ndtr((y - priced_at) / s))) if s > 0.0 and priced else {}
        summed = np.zeros(y.shape, dtype=bool)
        if 0.0 < 16.0 * step <= s and 4.0 * step <= cut_gap:
            summed = smooth[np.searchsorted(edges, y) - 1]
            summed &= (np.abs(y[:, None] - offsets) > 8.5 * s).all(axis=1)
            if summed.any():
                out[summed] = _lattice_sum(base, y[summed], s, step)
        gl = y[~summed]
        reach = np.min(gl, initial=np.inf) - 8.5 * s, np.max(gl, initial=-np.inf) + 8.5 * s
        for i, (lo, hi, price) in enumerate(cells):
            # y - s z lies in (lo, hi] for z in [(y - hi) / s, (y - lo) / s)
            if price is None and not (lo < reach[1] and hi >= reach[0]):
                continue
            if s == 0.0:
                inside = (lo < y) & (y <= hi)
                out[inside] = base(y[inside]) if price is None else price
            elif price is not None:
                out += price * (cdf.get(i, 1.0) - cdf.get(i + 1, 0.0))
            else:
                a = np.maximum((y - hi) / s, panels[:-1, None])   # a row per panel
                half = np.maximum(0.5 * (np.minimum((y - lo) / s, panels[1:, None]) - a), 0.0)
                half[:, summed] = 0.0
                p, r = np.nonzero(half)   # the (panel, y) parts of the cell, in one base call
                h = half[p, r]
                z = (a[p, r] + h)[:, None] + h[:, None] * _GL_X
                vals = base((y[r, None] - s * z).ravel()).reshape(z.shape)
                part = h * ((vals * np.exp(-0.5 * z * z)) @ _GL_W) / math.sqrt(2 * math.pi)
                out += np.bincount(r, part, minlength=y.size)
        return out

    return expect


def _lattice_sum(base: Callable, y: np.ndarray, s: float, step: float) -> np.ndarray:
    """E[base(y - s Z)] at ascending y on the ``step`` lattice as the sum of
    base(y - m step) phi(m step / s) step / s over |m step| <= 8.5 s: one base
    call on the lattice points from 8.5 s below the lowest y to 8.5 s above
    the highest, and one convolution."""
    m_max = int(8.5 * s / step)
    taps = np.exp(-0.5 * (np.arange(-m_max, m_max + 1) * (step / s)) ** 2)
    taps *= step / (s * math.sqrt(2 * math.pi))
    t = np.rint(y / step).astype(np.int64)
    vals = base(np.arange(t[0] - m_max, t[-1] + m_max + 1) * step)
    return np.convolve(vals, taps, "valid")[t - t[0]]


def _tabulate(fn: Callable, far: Callable, spans, step: float) -> Callable:
    """``fn`` by a not-a-knot cubic spline (``_Hermite``) per run of consecutive
    multiples of ``step`` in ``spans``, from one ``fn(ticks, step)`` call per
    run, within its nodes' range; ``far`` elsewhere."""
    ticks = np.unique([t for lo, hi in spans
                       for t in range(math.floor(lo / step), math.ceil(hi / step) + 1)])
    runs = np.split(ticks, np.flatnonzero(np.diff(ticks) > 1) + 1)
    splines = [_Hermite(t * step, fn(t * step, step)) for t in runs if t.size > 1]

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
                        model: TerminalModel, *, directions: tuple[str, ...] | None = None):
    """Backward recursion for the per-stage threshold offsets.

    ``shift_stds[r]`` is the std of the forecast revision after stage r+1
    (the last entry is the revision between the final market and
    delivery).  Stage r solves U_r(delta) = price_r in the position minus
    the current forecast, for the ``model``'s terminal subgradient grad:
    U_{R-1}(y) = -E[grad(y - s_{R-1} Z)], U_{k-1}(y) = E[W_k(y - s_{k-1} Z)],
    W_k = price_k where stage k acts and U_k elsewhere, each one
    ``_expectation`` split at the model's ``cuts`` while no revision has
    smoothed grad.  Where its std is positive, U_k is tabulated near the
    later offsets on ticks std/16 apart (at most 4096 per window reach), by
    one lattice sum per run over the ticks whose window holds no offset; the
    cell split serves the other ticks, and the root finder's right-hand
    sides are never tabulated.  Every equation is solved by Illinois regula falsi.
    With ``model.grad_exact`` the last offset is then checked against the
    exact right-hand side (on the two z halves: 44 positions); only while
    that misses the 1e-6 * voll gate is the interpolated equation solved
    again, at the price minus the exact side's miss (at most 6 times), and
    its recorded residual is the exact one at the returned offset.  A sell
    stage whose right-hand side never falls below its price never pays to
    sell: offset +inf, residual 0.  Returns (offsets, residuals, iterations:
    root-finder steps of every solve of the stage).
    """
    prices = np.asarray(prices, dtype=float)
    shift_stds = np.asarray(shift_stds, dtype=float)
    R = prices.size
    if shift_stds.size != R:
        raise ValueError("need one forecast-revision std per market stage")
    if directions is None:
        directions = (BUY,) * R
    grad, scale, grad_exact, cuts = model.grad, model.scale, model.grad_exact, model.cuts
    deltas, residuals = np.empty(R), np.empty(R)
    iterations = np.zeros(R, dtype=int)
    resid_tol = 1e-6 * voll

    # level k's spline windows reach 9 total stds plus 8.5 per revision before k
    tail_std = np.sqrt(np.cumsum(shift_stds[::-1] ** 2)[::-1])
    reach = 9.0 * tail_std[0] + 8.5 * (np.cumsum(shift_stds) - shift_stds)
    later, stages = [], []   # (offset, sells, price): solved, and acting at U_k's position
    expect = _expectation([], lambda u: -grad(u), float(shift_stds[R - 1]), cuts)
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
                far = _expectation(later[1:], _expectation([], lambda u: -grad(u),
                                                           float(tail_std[k]), cuts), 0.0)
                base = _tabulate(base, far, spans, step)
            stages = [later[0], *stages]
            expect = _expectation(stages, base, float(shift_stds[idx]),
                                  cuts if tail_std[k] == 0.0 else ())

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
            # check against the exact engine; while the gate is missed, solve again at the
            # price minus the exact side's miss: the residual is the returned offset's
            rhs_exact = _expectation([], lambda u: -grad_exact(u), shift_stds[idx], cuts, _HALVES)
            exact = float(rhs_exact(deltas[idx:idx + 1])[0])
            for _ in range(6):
                if abs(exact - prices[idx]) <= resid_tol:
                    break
                deltas[idx], _, steps = _solve_decreasing(  # the miss: exact - interpolated
                    rhs, float(prices[idx]) - (exact - rhs(deltas[idx])), deltas[idx] - scale,
                    deltas[idx] + scale, 0.1 * resid_tol)
                iterations[idx] += steps
                exact = float(rhs_exact(deltas[idx:idx + 1])[0])
            residuals[idx] = abs(exact - prices[idx])
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
    residuals: np.ndarray     # |stage right-hand side - price| per stage; nan: none solved
    iterations: np.ndarray    # root-finder steps, one count per stage


def solve_thresholds_backward(scenario: Scenario, engine: str = "lattice", *,
                              seed: int = 0) -> ThresholdSchedule:
    """Solve every stage's threshold offset; ``seed`` keys the mc engine's paths."""
    model = build_terminal_model(scenario, engine, seed=seed)
    deltas, residuals, iterations = solve_delta_offsets(
        scenario.ladder.prices, scenario.cost.voll, scenario.inter_stage_stds(), model,
        directions=scenario.ladder.directions)
    return ThresholdSchedule(engine, deltas, residuals, iterations)


def three_sigma_schedule(scenario: Scenario) -> ThresholdSchedule:
    """Rule-of-thumb schedule: hedge each stage by three lead-time sigmas."""
    ladder = scenario.ladder
    offsets = np.array([3.0 * scenario.curve.sigma_at(float(lt)) for lt in ladder.lead_times])
    return ThresholdSchedule("3sigma", offsets, np.full(ladder.n_stages, np.nan),
                             np.zeros(ladder.n_stages, dtype=int))


def simulate_policy_batch(schedules, scenario: Scenario, forecasts: np.ndarray,
                          deficits: np.ndarray):
    """Vectorized policy evaluation over realized paths.

    ``forecasts`` (n, R) and ``deficits`` (n, T) are ``Scenario.realize``
    output, so one realization serves every policy and the ideal with
    common random numbers.  Stages trade in the directions and at the
    prices of the scenario's ladder.  Returns (purchases (n, R), x_final
    (n,), delivery_costs (n,), total_costs (n,)) for one ``ThresholdSchedule``;
    a sequence of them is evaluated together, one ``delivery_costs_batch``
    sweep for all, and each output gains a leading policy axis, every
    policy's entries bitwise as alone.
    """
    ladder = scenario.ladder
    group = [schedules] if isinstance(schedules, ThresholdSchedule) else list(schedules)
    for schedule in group:
        if np.shape(schedule.offsets) != (ladder.n_stages,):
            raise ValueError(f"schedule has {np.size(schedule.offsets)} offsets for "
                             f"{ladder.n_stages} ladder stages")
    offsets = np.reshape([s.offsets for s in group], (len(group), ladder.n_stages, 1))
    n, R = forecasts.shape
    purchases = np.empty((len(group), n, R))
    x = np.zeros((len(group), n))
    for r, direction in enumerate(ladder.directions):
        target = forecasts[:, r] + offsets[:, r]
        if direction == BUY:
            s_r = np.maximum(target - x, 0.0)
        else:
            s_r = np.minimum(target - x, 0.0)
        purchases[:, :, r] = s_r
        x = x + s_r

    delivery = delivery_costs_batch(deficits, x / scenario.T, scenario.storage,
                                    scenario.cost.voll)
    totals = purchases @ ladder.prices + delivery
    if isinstance(schedules, ThresholdSchedule):
        return purchases[0], x[0], delivery[0], totals[0]
    return purchases, x, delivery, totals


def ideal_costs_batch(deficits: np.ndarray, capacity: float, buy_price: float,
                      sell_price: float, voll: float):
    """Perfect-foresight per-stage supply and cost of each deficit row.

    Ideal storage.  A row buys a supply s >= 0 at ``buy_price`` or sells
    -s at ``sell_price``; its cost ``p(s)*T*s + VOLL*V(s)``, with p the
    buy price at s >= 0 and the sell price below 0, is piecewise linear
    in s with integer-weighted slopes (``storage.unserved_and_slope_batch``).
    A sell price at or below the buy price only raises the slope at the
    kink s = 0, so the cost stays convex and Kelley's cutting plane finds
    its minimum exactly.  Equal prices give the one-price cost.

    Each bracket end carries its cost f and right slope g = p*T - voll*w
    (w an integer in 0..T); g < 0 at ``lo`` and g >= 0 at ``hi``, so the
    minimum lies between.  The first ends are the exact outer pieces,
    widened to contain the kink at 0: below the lowest deficit every stage
    is short (w = T), above the highest none is (w = 0).  Each step
    evaluates the point t where the two tangent lines meet.  The right
    slope of a convex function never decreases, so if g(t) equals an end's
    slope it is that slope everywhere between, f is linear from that end
    to t, and f(t) equals the tangent lower bound: t is a minimizer, as it
    is where g(t) is 0.  A t that rounds onto an end puts the minimum at
    that end.  Otherwise g(t) lies strictly between the ends' slopes and t
    replaces one end.  The w in 0..T and the kink make at most T + 2
    linear pieces, and each such step leaves fewer pieces strictly between
    the ends' pieces, T at first, so a row retires within T + 1 steps: one
    kernel pass each, whatever the row count.  The same count bounds a
    price outside [0, voll), whose cost is unbounded below: the search
    then stops at an arbitrary point.  The cost returned is the search's
    own ``p*(T*s) + VOLL*V(s)`` at the returned s.

    The caller bounds the block: the search holds one column-major copy of
    the rows (8*T bytes a row) and the kernel's pin masks (2*T bytes a
    row).  The unretired rows are one range at the end of the copy, read
    in place; after each step ``_retire`` moves surviving rows into the
    slots of rows that retired, with their bracket ends and row numbers.
    Returns (supply, cost).
    """
    if sell_price > buy_price:
        raise ValueError(f"sell price {sell_price} above buy price {buy_price}: "
                         "the ideal's cost is not convex")
    # the search reads the deficits one stage column at a time
    work = np.array(deficits, dtype=float, order="F", ndmin=2)
    n, T = work.shape
    spec = StorageSpec(capacity)
    # each end's supply, cost and right slope: lo's row, then hi's
    bracket = np.empty((2, 3, n))
    (lo, f_lo, g_lo), (hi, f_hi, g_hi) = bracket
    np.minimum(work.min(axis=1) - 1.0, 0.0, out=lo)
    np.maximum(work.max(axis=1) + 1.0, 0.0, out=hi)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("deficits must be finite")
    # each row's sum, stage by stage as in a block: a lone row would be summed pairwise
    f_lo[:] = work[:, 0]
    for col in work.T[1:]:
        f_lo += col
    price_lo = np.where(lo < 0.0, sell_price * T, buy_price * T)
    f_lo[:] = price_lo * lo + voll * (f_lo - T * lo)
    f_hi[:] = buy_price * T * hi
    g_lo[:] = price_lo - voll * T
    g_hi[:] = buy_price * T
    rows = np.arange(n)
    supply, cost = np.empty(n), np.empty(n)
    a = 0
    for _ in range(T + 1):
        ends = bracket[:, :, a:]
        (lo, f_lo, g_lo), (hi, f_hi, g_hi) = ends
        t = lo + (f_hi - f_lo - g_hi * (hi - lo)) / (g_lo - g_hi)
        unserved, weight = unserved_and_slope_batch(work[a:], t, spec)
        price = np.where(t < 0.0, sell_price, buy_price)
        f = price * (T * t) + voll * unserved
        g = price * T - voll * weight
        inside = (lo < t) & (t < hi)
        done = ~inside | (g == 0.0) | (g == g_lo) | (g == g_hi)
        below = t <= lo
        retired = rows[a:][done]
        supply[retired] = np.where(inside, t, np.where(below, lo, hi))[done]
        cost[retired] = np.where(inside, f, np.where(below, f_lo, f_hi))[done]
        # t replaces the end on its side of the minimum, then retired rows leave
        for side, moved in zip(ends, (g < 0.0, g >= 0.0)):
            for end, value in zip(side, (t, f, g)):
                np.copyto(end, value, where=moved)
        a = _retire(done, a, work.T, bracket.reshape(6, n), rows[None])
        if a == n:
            return supply, cost
    raise RuntimeError("tangent-cut search did not retire every row within T + 1 steps")
