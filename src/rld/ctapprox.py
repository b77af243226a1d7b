"""Reflected-Brownian-motion approximation of the delivery interval.

The stored energy behaves like a Brownian motion with drift equal to the
per-stage supply surplus, doubly reflected in [0, B].  Its long-run
boundary push rates give a closed-form approximation of the expected
unserved energy, hence of the terminal cost and its derivative.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below this argument size the exact expression for h' cancels
# catastrophically; a truncated series keeps full accuracy there.
_SERIES_CUTOFF = 1e-3
_MAX_FLOAT = np.finfo(float).max


@dataclass(frozen=True)
class RbmParams:
    drift: float        # energy per stage
    volatility: float   # energy per sqrt(stage)
    barrier: float      # capacity B

    def __post_init__(self):
        if self.volatility <= 0:
            raise ValueError("volatility must be positive")
        if self.barrier <= 0:
            raise ValueError("barrier must be positive")

    @property
    def width(self) -> float:   # sigma^2 / 2B, the energy scale of the push rates
        return self.volatility * self.volatility / (2.0 * self.barrier)


def h_prime(x):
    """Derivative of h: ((1-x)e^x - 1) / (e^x - 1)^2, continued by -1/2 at 0."""
    x = np.asarray(x, dtype=float)
    # above ~350 the squared denominator overflows while the true value is
    # below 1e-145, so the exact branch is cut off at its limit of 0; below
    # -750 e^x is 0 and the exact branch is already its limit of -1 (at
    # -inf it would be -1 - inf * 0)
    out = np.zeros_like(x)
    small = np.abs(x) < _SERIES_CUTOFF
    low = x < -750.0
    out[low] = -1.0
    exact = ~(small | low | (x > 350.0))
    xe = x[exact]
    em1 = np.expm1(xe)
    # (1-x)e^x - 1 rewritten so the cancelling terms subtract directly
    out[exact] = (em1 - xe * np.exp(xe)) / (em1 * em1)
    xs = x[small]
    out[small] = -0.5 + xs / 6.0 - xs**3 / 180.0
    return out if out.ndim else float(out)


def _push_rate(drift, y, width):
    """drift / (e^y - 1) = width * h(y), h(x) = x / (e^x - 1) continued by 1 at 0.

    The long-run rate at which a Brownian motion with this drift, reflected in
    [0, B], is pushed up at 0, where y = drift / width and width = sigma^2 / 2B
    (Harrison, *Brownian Motion and Stochastic Flow Systems*, 1985).  Where y
    overflows to +-inf the division reaches the limits 0 and -drift; an
    infinite drift is first clamped to the largest double, so that inf / inf
    is 0 too.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.where(y == 0.0, width, np.minimum(drift, _MAX_FLOAT) / np.expm1(y))


def rbm_long_run(params: RbmParams) -> tuple[float, float]:
    """Long-run rates of the lower and upper boundary pushes (V up, Q down).

    The push at B is the push at 0 of the mirrored motion B - b, of drift -drift.
    """
    y = params.drift / params.width    # Python floats overflow to inf silently
    return (float(_push_rate(params.drift, y, params.width)),
            -float(_push_rate(-params.drift, -y, params.width)))


def _ct_argument(x_accumulated, d_hat_total: float, sigma_sq: float, capacity: float):
    """(gap x - d_hat_total, ratio 2B/sigma_sq, y = ratio * gap); where the ratio
    overflows, y is its B -> inf limit, -inf, 0 or inf by the sign of the gap."""
    if capacity <= 0 or sigma_sq <= 0:
        raise ValueError("ct approximation needs capacity > 0 and sigma_sq > 0")
    gap = np.asarray(x_accumulated, dtype=float) - d_hat_total
    ratio = 2.0 * float(capacity) / float(sigma_sq)   # Python floats overflow to inf silently
    y = np.where(gap == 0.0, 0.0, np.copysign(np.inf, gap)) if ratio == np.inf else ratio * gap
    return gap, ratio, y


def ct_terminal_cost(x_accumulated, d_hat_total: float, sigma_sq: float,
                     capacity: float, voll: float):
    """Approximate expected delivery cost from the long-run push rate.

    ``sigma_sq`` is the interval-total variance of the fluctuation process;
    scaling (B, sigma_sq) together leaves the result unchanged.  It is voll
    times the push rate of drift x - d_hat_total at width sigma_sq / 2B; where
    2B/sigma_sq overflows, that is its limit voll * max(d_hat_total - x, 0).
    """
    gap, ratio, y = _ct_argument(x_accumulated, d_hat_total, sigma_sq, capacity)
    out = voll * _push_rate(gap, y, 1.0 / ratio)
    return out if np.ndim(out) else float(out)


def ct_terminal_subgradient(x_accumulated, d_hat_total: float, sigma_sq: float,
                            capacity: float, voll: float):
    """Derivative of the approximate cost in the accumulated position; where 2B/sigma_sq
    overflows, its limit -voll, -voll/2 and 0 below, at and above d_hat_total."""
    out = voll * h_prime(_ct_argument(x_accumulated, d_hat_total, sigma_sq, capacity)[2])
    return out if np.ndim(out) else float(out)
