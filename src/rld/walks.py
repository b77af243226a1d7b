"""Sequential window probabilities for random walks with independent steps.

A walk S_j = e_0 + ... + e_j is pushed through a sequence of half-open
windows (lower_j, upper_j].  After each step the engine reports the mass
leaving below the window, the mass staying inside, the mass leaving above,
and the first moment of the upward-leaving mass, then carries the surviving
sub-density forward.  Gaussian steps propagate a density sampled on a
fixed-size grid clipped to SPAN standard deviations beyond the current
support; discrete steps propagate exact point masses, so substituting a
discrete step distribution turns the whole recursion into exact
enumeration.  Many walks advance at once, one array row and one window
each.  Under Gaussian steps a row keeps its transition kernel and window
fractions for as long as its grid repeats the previous step's geometry
up to translation, and a caller-owned dict can share them between walks.

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
from scipy.special import ndtr

SPAN = 6.0
GRID_POINTS = 257
_TINY = 1e-300
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _npdf(z):
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
    (within _KEY_TOL) reuse their kernel and window fractions.
    """

    sigma: float
    key: np.ndarray          # (3, rows)
    kernel: np.ndarray       # (rows, GRID_POINTS, GRID_POINTS), new grid x old grid
    below: np.ndarray        # (rows, GRID_POINTS) step fractions ending below the window
    above: np.ndarray        # ... ending above it
    tail_pdf: np.ndarray     # sigma * pdf of the step reaching the upper edge


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
KERNEL_DICT_MAX = 128


def advance(state: WalkState, step: Step, lower, upper,
            floor: float = _TINY, kernels: dict | None = None) -> WindowResult:
    """Push the walk one step and split its mass against (lower, upper].

    Scalar bounds give float results.  Bounds of shape (n,) push n walks
    at once, each against its own window: the result fields are (n,)
    arrays, and the initial state is shared by every walk.
    A walk whose inside mass is ``floor`` or less is dropped and reports
    zeros from then on; the state is None once every walk is gone.

    ``kernels`` is an optional dict, owned by the caller, that shares
    Gaussian kernels and window fractions between walks whose grid and
    window match up to translation; it holds at most KERNEL_DICT_MAX
    entries of 0.53 MB each.
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
        res = _gauss_step(state, step.sigma, lo, hi, floor, kernels)
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
    """Standard normal pdf of (y - x) / sigma for every grid pair, one matrix per row.

    The same arithmetic as _npdf, done in place on one buffer.
    """
    k = ys[:, :, None] - xs[:, None, :]
    k /= sigma
    np.square(k, out=k)
    k *= -0.5
    np.exp(k, out=k)
    k /= _SQRT_2PI
    return k


def _fresh_move(ys, pts, lo, hi, sigma):
    """Kernel and window fractions (see _Move) of a step from pts onto ys, per row."""
    z_hi = (hi[:, None] - pts) / sigma
    return (_gauss_kernel(ys, pts, sigma), ndtr((lo[:, None] - pts) / sigma),
            ndtr(-z_hi), sigma * _npdf(z_hi))


def _shared_move(ys, pts, lo, hi, sigma, key, kernels: dict):
    """_fresh_move per grid row, looked up in ``kernels`` by the row's key.

    The key fixes the row's whole geometry in step stds, so it is rounded
    like the reuse tolerance: a hit perturbs the kernel and fraction
    arguments by at most ~1e-12 step stds.
    """
    parts = []
    for r, geometry in enumerate(np.round(key.T, 12).tolist()):
        found = kernels.get(tuple(geometry))
        if found is None:
            if len(kernels) >= KERNEL_DICT_MAX:
                kernels.clear()
            one = slice(r, r + 1)
            found = kernels[tuple(geometry)] = _fresh_move(
                ys[one], pts[one], lo[one], hi[one], sigma)
        parts.append(found)
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(field) for field in zip(*parts))


def _gauss_step(state: _Atoms | _Grid, sigma: float, lower: np.ndarray,
                upper: np.ndarray, floor: float, kernels: dict | None) -> WindowResult:
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
    wlo = np.maximum(lo, x0 - SPAN * sigma)
    whi = np.minimum(hi, x1 + SPAN * sigma)
    dy = (whi - wlo) / (GRID_POINTS - 1)
    ys = _UNIT * dy[:, None] + wlo[:, None]
    ys[:, -1] = whi

    key = (np.array([lo, hi, x1]) - x0) / sigma
    if move is not None and move.sigma == sigma:
        with np.errstate(invalid="ignore"):   # infinite window edges never match
            stale = ~np.all(np.abs(key - move.key) <= _KEY_TOL, axis=0)
    else:
        stale = np.ones(rows.size, dtype=bool)
    if not stale.any():
        kernel, below_frac, above_frac, tail_pdf = (
            move.kernel, move.below, move.above, move.tail_pdf)
    else:
        sel = slice(None) if stale.all() else stale
        if kernels is None or isinstance(state, _Atoms):
            fresh = _fresh_move(ys[sel], pts[sel], lo[sel], hi[sel], sigma)
        else:
            fresh = _shared_move(ys[sel], pts[sel], lo[sel], hi[sel], sigma,
                                 key[:, sel], kernels)
        if stale.all():
            kernel, below_frac, above_frac, tail_pdf = fresh
        else:
            kernel, below_frac, above_frac, tail_pdf = (
                old.copy() for old in (move.kernel, move.below, move.above, move.tail_pdf))
            for old, new in zip((kernel, below_frac, above_frac, tail_pdf), fresh):
                old[stale] = new

    below = np.einsum("rp,rp->r", wts, below_frac)
    above = np.einsum("rp,rp->r", wts, above_frac)
    moment = np.einsum("rp,rp->r", wts, pts * above_frac + tail_pdf)
    inside = np.where(hi > lo, np.maximum(wts.sum(axis=1) - below - above, 0.0), 0.0)
    out = np.zeros((4, n))
    out[:, rows] = below, inside, above, moment

    dens = np.matmul(kernel, wts[:, :, None])[:, :, 0] / sigma
    quad_mass = dens @ _PATTERN * dy
    live = (whi > wlo) & (inside > floor) & (quad_mass > _TINY)
    if not live.any():
        return WindowResult(*out, None)
    keep = slice(None) if live.all() else live   # a slice keeps views, no copies
    # renormalize to the CDF-exact inside mass
    nxt_wts = dens[keep] * ((inside[keep] / quad_mass[keep] * dy[keep])[:, None] * _PATTERN)
    made = None
    if isinstance(state, _Grid):
        made = _Move(sigma, key[:, keep], kernel[keep], below_frac[keep],
                     above_frac[keep], tail_pdf[keep])
    return WindowResult(*out, _Grid(ys[keep], nxt_wts, rows[keep], made))
