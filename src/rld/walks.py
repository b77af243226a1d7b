"""Sequential window probabilities for random walks with independent steps.

A walk S_j = e_0 + ... + e_j is pushed through a sequence of half-open
windows (lower_j, upper_j].  After each step the engine reports the mass
leaving below the window, the mass staying inside, the mass leaving above,
and the first moment of the upward-leaving mass, then carries the surviving
sub-density forward.  Gaussian steps propagate a density sampled on a
fixed-size grid clipped to SPAN standard deviations beyond the current
support (a window farther out than that keeps its near SPAN standard
deviations); discrete steps propagate exact point masses, so substituting a
discrete step distribution turns the whole recursion into exact
enumeration.  Many walks advance at once, one array row and one window
each, and walks that start later can join the rows of a running state.
A Gaussian step between grids of equal spacing has a Toeplitz kernel, so
a settled row holds only the real FFT of its 2P - 1 kernel taps (P grid
points) and convolves its density with it; steps out of a point mass and
onto a still-growing grid use a dense P x P kernel, built for one row at
a time and kept by none.  A settled row keeps its spectrum and window
fractions for as long as its grid repeats the previous step's geometry
up to translation.

Masses and tail moments against window edges are always computed from the
normal CDF/pdf (or exact atom sums), and the carried density is
renormalized to the CDF-exact inside mass, so below + inside + above
equals the incoming mass to within floating-point rounding regardless of
quadrature error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import ndtr

SPAN = 6.0
GRID_POINTS = 257
_TINY = 1e-300
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _npdf(z):
    with np.errstate(over="ignore"):   # an overflowing square is the pdf's limit 0
        return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


@dataclass(frozen=True)
class NormalStep:
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"step std must be nonnegative, got {self.sigma}")


@dataclass(frozen=True)
class DiscreteStep:
    atoms: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.atoms) != len(self.probs) or not self.atoms:
            raise ValueError("atoms and probs must be nonempty and equal length")
        if any(p < 0 for p in self.probs):
            raise ValueError("atom probabilities must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError("atom probabilities must sum to 1")


Step = NormalStep | DiscreteStep


def as_steps(step_stds) -> list[Step]:
    """Coerce a list of stds (or ready Step objects) into Step instances."""
    steps: list[Step] = []
    for s in step_stds:
        if isinstance(s, (NormalStep, DiscreteStep)):
            steps.append(s)
        else:
            sd = float(s)
            steps.append(NormalStep(sd) if sd > 0.0 else DiscreteStep((0.0,), (1.0,)))
    return steps


@dataclass(frozen=True, eq=False)
class _Atoms:
    points: np.ndarray    # (m,) sorted support, shared by every walk
    weights: np.ndarray   # (m,) for all walks at once, or (rows, m)


@dataclass(frozen=True, eq=False)
class _Move:
    """One Gaussian step out of a grid, per row, kept for translated repeats.

    ``key`` holds the window edges and the last grid point relative to the
    first grid point, in step stds.  Rows whose next step has the same key
    (within _KEY_TOL) reuse their spectrum and window fractions; a row
    stepped by a dense kernel, or joined without a move, has a NaN key,
    which nothing matches.
    """

    sigma: float
    key: np.ndarray          # (3, rows)
    spectrum: np.ndarray     # (rows, _FFT_LEN // 2 + 1) rfft of the row's kernel taps
    fractions: np.ndarray    # (rows, 3, GRID_POINTS) step fractions ending below the
                             # window, above it, and sigma * pdf of reaching the upper edge


@dataclass(frozen=True, eq=False)
class _Grid:
    xs: np.ndarray        # (rows, GRID_POINTS), each row uniform (odd, Simpson-ready)
    weights: np.ndarray   # (rows, GRID_POINTS) Simpson weight times density
    rows: np.ndarray      # the caller's walk index of each row; dead walks are dropped
    move: _Move | None    # the step that made this state, if it started from a grid


WalkState = _Atoms | _Grid | None


@dataclass(frozen=True)
class WindowResult:
    below: float
    inside: float
    above: float
    above_moment: float   # E[S; previous windows held, S > upper]
    state: WalkState      # surviving sub-density inside the window


def initial_state() -> WalkState:
    return _Atoms(np.array([0.0]), np.array([1.0]))


def _simpson_pattern(m: int) -> np.ndarray:
    if m % 2 == 0:
        raise ValueError("Simpson rule needs an odd point count")
    w = np.ones(m)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


_PATTERN = _simpson_pattern(GRID_POINTS)
_UNIT = np.arange(GRID_POINTS, dtype=float)
# A reused kernel shifts its arguments by at most a few _KEY_TOL step stds.
_KEY_TOL = 1e-12
# Kernel taps k = -(P-1) .. P-1 of a Toeplitz step, and a real FFT length
# at which their circular convolution with P weights leaves the P wanted
# outputs, at indices P-1 .. 2P-2, free of wrap-around.
_TAPS = np.arange(1 - GRID_POINTS, GRID_POINTS, dtype=float)
_FFT_LEN = next_fast_len(_TAPS.size, real=True)


def advance(state: WalkState, step: Step, lower, upper,
            floor: float = _TINY) -> WindowResult:
    """Push the walk one step and split its mass against (lower, upper].

    Scalar bounds give float results.  Bounds of shape (n,) push n walks
    at once, each against its own window: the result fields are (n,)
    arrays, and the initial state is shared by every walk.
    A walk whose inside mass is ``floor`` or less is dropped and reports
    zeros from then on; the state is None once every walk is gone.
    """
    if isinstance(step, NormalStep) and step.sigma == 0.0:
        step = DiscreteStep((0.0,), (1.0,))
    lo = np.atleast_1d(np.asarray(lower, dtype=float))
    hi = np.atleast_1d(np.asarray(upper, dtype=float))
    if state is None:
        zero = np.zeros(lo.size)
        res = WindowResult(zero, zero, zero, zero, None)
    elif isinstance(step, DiscreteStep):
        if not isinstance(state, _Atoms):
            # Grid states only arise from Gaussian steps; no engine here
            # mixes a discrete step in afterwards.
            raise NotImplementedError("discrete step after a Gaussian step is not supported")
        res = _discrete_step(state, step, lo, hi, floor)
    else:
        res = _gauss_step(state, step.sigma, lo, hi, floor)
    if np.ndim(lower) == 0:
        return WindowResult(float(res.below[0]), float(res.inside[0]), float(res.above[0]),
                            float(res.above_moment[0]), res.state)
    return res


def _discrete_step(state: _Atoms, step: DiscreteStep, lower: np.ndarray,
                   upper: np.ndarray, floor: float) -> WindowResult:
    """Exact point masses: one weight row per walk over a support shared by all walks."""
    n = lower.size
    pts = (state.points[:, None] + np.asarray(step.atoms)[None, :]).ravel()
    wts = np.broadcast_to(state.weights, (n, state.points.size))
    wts = (wts[:, :, None] * np.asarray(step.probs)).reshape(n, -1)
    pts, inv = np.unique(pts, return_inverse=True)
    bins = (np.arange(n)[:, None] * pts.size + inv).ravel()
    wts = np.bincount(bins, weights=wts.ravel(), minlength=n * pts.size).reshape(n, -1)
    below_mask = pts <= lower[:, None]
    above_mask = pts > upper[:, None]
    inside_mask = ~below_mask & ~above_mask
    # Sequential sums along each row: the exact zeros of atoms that only
    # other walks reach then vanish, so a row sums bit for bit as it would
    # on its own support.
    masks = np.array([below_mask, inside_mask, above_mask, above_mask])
    terms = np.where(masks, np.array([wts, wts, wts, wts * pts]), 0.0)
    below, inside, above, moment = np.cumsum(terms, axis=-1)[..., -1]
    live = inside_mask & (inside > floor)[:, None]
    keep = live.any(axis=0)
    nxt = _Atoms(pts[keep], np.where(live, wts, 0.0)[:, keep]) if keep.any() else None
    return WindowResult(below, inside, above, moment, nxt)


def _gauss_kernel(ys: np.ndarray, xs: np.ndarray, sigma: float) -> np.ndarray:
    """Standard normal pdf of (y - x) / sigma for every pair of one row's grid points.

    The same arithmetic as _npdf, done in place on one buffer.
    """
    k = ys[:, None] - xs[None, :]
    k /= sigma
    np.square(k, out=k)
    k *= -0.5
    np.exp(k, out=k)
    k /= _SQRT_2PI
    return k


def _fractions(pts, lo, hi, sigma):
    """(rows, 3, points) window fractions of a step out of pts (see _Move)."""
    with np.errstate(over="ignore"):   # an infinite z is the fractions' limit
        z_lo, z_hi = (lo[:, None] - pts) / sigma, (hi[:, None] - pts) / sigma
    return np.stack([ndtr(z_lo), ndtr(-z_hi), sigma * _npdf(z_hi)], axis=1)


def _toeplitz_move(pts, lo, hi, offset, dy, sigma):
    """Kernel spectrum and window fractions of a step onto the old grid spacing, per row.

    New grid point i lies offset + (i - j) * dy beyond old grid point j.
    """
    taps = _npdf((offset[:, None] + _TAPS * dy[:, None]) / sigma)
    return rfft(taps, _FFT_LEN), _fractions(pts, lo, hi, sigma)


def _convolve(spectrum: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """Per row, the Toeplitz kernel whose taps have real FFT ``spectrum``, applied to ``wts``."""
    full = irfft(spectrum * rfft(wts, _FFT_LEN), _FFT_LEN)
    return full[:, GRID_POINTS - 1:2 * GRID_POINTS - 1]


def _gauss_step(state: _Atoms | _Grid, sigma: float, lower: np.ndarray,
                upper: np.ndarray, floor: float) -> WindowResult:
    n = lower.size
    if isinstance(state, _Atoms):
        rows = np.arange(n)
        pts = np.broadcast_to(state.points, (n, state.points.size))
        wts = np.broadcast_to(state.weights, pts.shape)
        x0, x1 = pts.min(axis=1), pts.max(axis=1)
        move = None
    else:
        rows, pts, wts, move = state.rows, state.xs, state.weights, state.move
        x0, x1 = pts[:, 0], pts[:, -1]
    lo = lower[rows]
    hi = upper[rows]
    # a window at or beyond SPAN stds of the support keeps the SPAN stds on its near side
    wlo = np.maximum(lo, np.minimum(x0 - SPAN * sigma, hi - SPAN * sigma))
    whi = np.minimum(hi, np.maximum(x1 + SPAN * sigma, lo + SPAN * sigma))
    dy = (whi - wlo) / (GRID_POINTS - 1)
    ys = _UNIT * dy[:, None] + wlo[:, None]
    ys[:, -1] = whi

    with np.errstate(over="ignore"):   # an infinite key never matches, as it should
        key = (np.array([lo, hi, x1]) - x0) / sigma
    if move is not None and move.sigma == sigma:
        with np.errstate(invalid="ignore"):   # infinite window edges never match
            stale = ~np.all(np.abs(key - move.key) <= _KEY_TOL, axis=0)
    else:
        stale = np.ones(rows.size, dtype=bool)
    dense = None   # the rows stepped by a dense kernel, when there are any
    if not stale.any():
        spectrum, fractions = move.spectrum, move.fractions
    else:
        # Toeplitz rows: a repeat, or a new grid with the old grid's spacing
        toeplitz = ~stale
        if isinstance(state, _Grid):
            toeplitz |= np.abs((whi - wlo) - (x1 - x0)) <= _KEY_TOL * sigma
        spectrum = np.zeros((rows.size, _FFT_LEN // 2 + 1), dtype=complex)
        fractions = np.empty((rows.size, 3, pts.shape[1]))
        reused, fresh = ~stale, stale & toeplitz
        if reused.any():
            spectrum[reused], fractions[reused] = move.spectrum[reused], move.fractions[reused]
        if fresh.any():
            spectrum[fresh], fractions[fresh] = _toeplitz_move(
                pts[fresh], lo[fresh], hi[fresh], (wlo - x0)[fresh], dy[fresh], sigma)
        if not toeplitz.all():
            dense = ~toeplitz
            fractions[dense] = _fractions(pts[dense], lo[dense], hi[dense], sigma)

    below = np.einsum("rp,rp->r", wts, fractions[:, 0])
    above = np.einsum("rp,rp->r", wts, fractions[:, 1])
    moment = np.einsum("rp,rp->r", wts, pts * fractions[:, 1] + fractions[:, 2])
    inside = np.where(hi > lo, np.maximum(wts.sum(axis=1) - below - above, 0.0), 0.0)
    out = np.zeros((4, n))
    out[:, rows] = below, inside, above, moment

    if dense is None:
        dens = _convolve(spectrum, wts)
    else:
        dens = np.empty((rows.size, GRID_POINTS))
        # one row at a time: a growing grid's kernel is 257 x 257 (0.53 MB)
        for r in np.flatnonzero(dense):
            dens[r] = _gauss_kernel(ys[r], pts[r], sigma) @ wts[r]
        if not dense.all():
            dens[~dense] = _convolve(spectrum[~dense], wts[~dense])
        key = np.where(dense, np.nan, key)   # never matched: dense steps keep no kernel
    dens /= sigma
    np.maximum(dens, 0.0, out=dens)   # FFT round-off around true zeros
    quad_mass = np.einsum("rp,p->r", dens, _PATTERN) * dy   # row by row, as alone
    live = (whi > wlo) & (inside > floor) & (quad_mass > _TINY)
    if not live.any():
        return WindowResult(*out, None)
    keep = slice(None) if live.all() else live   # a slice keeps views, no copies
    # renormalize to the CDF-exact inside mass
    nxt_wts = dens[keep] * ((inside[keep] / quad_mass[keep] * dy[keep])[:, None] * _PATTERN)
    made = None
    if isinstance(state, _Grid):
        made = _Move(sigma, key[:, keep], spectrum[keep], fractions[keep])
    return WindowResult(*out, _Grid(ys[keep], nxt_wts, rows[keep], made))


def _join(state: WalkState, born: WalkState, rows: np.ndarray, n: int) -> WalkState:
    """``state`` with the walks of ``born`` added as walks ``rows`` of n.

    Both states come out of the same step, and ``state`` holds none of
    ``rows``.  Born grid rows carry no _Move, so they get NaN keys and
    build their next kernels afresh, as they would alone; atoms move onto
    the union of both supports, with zero weight where a walk has none.
    """
    if born is None:
        return state
    if isinstance(born, _Atoms):
        points = born.points if state is None else np.union1d(state.points, born.points)
        weights = np.zeros((n, points.size))
        if state is not None:
            weights[:, np.searchsorted(points, state.points)] = state.weights
        weights[rows[:, None], np.searchsorted(points, born.points)] = born.weights
        return _Atoms(points, weights)
    rows = rows[born.rows]
    if state is None:
        return _Grid(born.xs, born.weights, rows, None)
    move, k = state.move, rows.size
    if move is not None:
        move = _Move(move.sigma, np.hstack([move.key, np.full((3, k), np.nan)]),
                     np.vstack([move.spectrum, np.zeros((k,) + move.spectrum.shape[1:])]),
                     np.vstack([move.fractions, np.zeros((k,) + move.fractions.shape[1:])]))
    return _Grid(np.vstack([state.xs, born.xs]), np.vstack([state.weights, born.weights]),
                 np.concatenate([state.rows, rows]), move)
