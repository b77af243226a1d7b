"""Reflected-Brownian-motion approximation of the delivery interval.

The stored energy behaves like a Brownian motion with drift equal to the
per-stage supply surplus, doubly reflected in [0, B].  Its long-run
boundary push rates give a closed-form approximation of the expected
unserved energy, hence of the terminal cost and its derivative.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below this argument size the exact expressions for h and h' cancel
# catastrophically; truncated series keep full accuracy there.
_SERIES_CUTOFF = 1e-3


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


def h_func(x):
    """x / (e^x - 1), continued by 1 at x = 0.  Positive, strictly decreasing."""
    x = np.asarray(x, dtype=float)
    # each branch runs only on its own elements; above 710 expm1 overflows
    # and x / expm1(x) is already 0, so the exact branch stops there
    # (at +inf it would be inf / inf)
    out = np.zeros_like(x)
    small = np.abs(x) < _SERIES_CUTOFF
    exact = ~(small | (x > 710.0))
    xe = x[exact]
    with np.errstate(over="ignore"):
        out[exact] = xe / np.expm1(xe)
    xs = x[small]
    out[small] = 1.0 - xs / 2.0 + xs * xs / 12.0
    return out if out.ndim else float(out)


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


def rbm_long_run(params: RbmParams) -> tuple[float, float]:
    """Long-run rates of the lower and upper boundary pushes (V up, Q down).

    They are width * h(+-y) with y = drift / width.  Away from y = 0 that is
    drift / expm1(+-y), which stays finite where y overflows: the rates
    tend to max(-drift, 0) and -max(drift, 0) as the width shrinks.
    """
    scale = params.width
    y = params.drift / scale    # Python floats overflow to inf silently
    if abs(y) < _SERIES_CUTOFF:   # where h's series is the more accurate
        return float(scale * h_func(y)), float(-scale * h_func(-y))
    with np.errstate(over="ignore"):
        return float(params.drift / np.expm1(y)), float(params.drift / np.expm1(-y))


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
    scaling (B, sigma_sq) together leaves the result unchanged.  Where 2B/sigma_sq
    overflows, the cost is its limit voll * max(d_hat_total - x, 0).
    """
    gap, ratio, y = _ct_argument(x_accumulated, d_hat_total, sigma_sq, capacity)
    out = voll * np.maximum(-gap, 0.0) if ratio == np.inf else voll / ratio * h_func(y)
    return out if np.ndim(out) else float(out)


def ct_terminal_subgradient(x_accumulated, d_hat_total: float, sigma_sq: float,
                            capacity: float, voll: float):
    """Derivative of the approximate cost in the accumulated position; where 2B/sigma_sq
    overflows, its limit -voll, -voll/2 and 0 below, at and above d_hat_total."""
    out = voll * h_prime(_ct_argument(x_accumulated, d_hat_total, sigma_sq, capacity)[2])
    return out if np.ndim(out) else float(out)
