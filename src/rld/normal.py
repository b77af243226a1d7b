"""The standard normal law: density, CDF and quantile, elementwise on float arrays.

Every element's value depends on that element alone, bit for bit, whatever the shape
or size of the array it is in, and a 0-d input returns a scalar.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.polynomial import polyval

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_NEG_SQRT1_2 = -math.sqrt(0.5)

# Wichura's AS241 (PPND16, Appl. Stat. 37, 1988), lowest degree first: numerator and
# denominator for |p - 1/2| <= 0.425, then for r = sqrt(-log min(p, 1 - p)) <= 5 and above.
_CENTRAL = ((3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
             1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
             3.3430575583588128105e4, 2.5090809287301226727e3),
            (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
             2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
             5.2264952788528545610e3))
_NEAR = ((1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
          3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
          2.27238449892691845833e-2, 7.74545014278341407640e-4),
         (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
          1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
          1.05075007164441684324e-9))
_FAR = ((6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
         2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
         2.71155556874348757815e-5, 2.01033439929228813265e-7),
        (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
         7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
         2.04426310338993978564e-15))


def npdf(z):
    with np.errstate(over="ignore"):   # an overflowing square is the pdf's limit 0
        return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


def ndtr(x):
    """Phi(x) as erfc(-x / sqrt 2) / 2 (Cephes), by ``math.erfc`` on each element."""
    x = np.asarray(x, dtype=float)
    z = np.ravel(x * _NEG_SQRT1_2)
    out = np.fromiter(map(math.erfc, memoryview(z)), float, z.size)
    out *= 0.5
    return out.reshape(x.shape)[()]


def ndtri(p):
    """Phi^-1(p) by AS241: -inf at 0, +inf at 1 and NaN outside [0, 1]."""
    p = np.asarray(p, dtype=float)
    inside = (p > 0.0) & (p < 1.0)
    p_in = np.where(inside, p, 0.5)
    q = p_in - 0.5
    r = 0.180625 - q * q
    central = polyval(r, _CENTRAL[0]) * q / polyval(r, _CENTRAL[1])
    r = np.sqrt(-np.log(np.where(q <= 0.0, p_in, 1.0 - p_in)))
    near, far = r - 1.6, r - 5.0
    tail = np.where(r <= 5.0, polyval(near, _NEAR[0]) / polyval(near, _NEAR[1]),
                    polyval(far, _FAR[0]) / polyval(far, _FAR[1]))
    x = np.where(np.abs(q) <= 0.425, central, np.where(q < 0.0, -tail, tail))
    edge = np.where(p == 0.0, -np.inf, np.where(p == 1.0, np.inf, np.nan))
    return np.where(inside, x, edge)[()]
