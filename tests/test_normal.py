"""rld.normal against mpmath: the CDF to its argument rounding, the quantile to 8 ulp,
scipy's special values, and elementwise results that ignore the array around them."""
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special

from rld.normal import ndtr, ndtri

mpmath.mp.prec = 128


def exact_quantile(p: float):
    """Phi^-1(p) to about 120 bits: Newton's method from the double estimate."""
    target, x = mpmath.mpf(p), mpmath.mpf(float(special.ndtri(p)))
    for _ in range(4):
        x -= (mpmath.ncdf(x) - target) / mpmath.npdf(x)
    return x


class TestCdf:
    def test_within_its_argument_rounding(self):
        # erfc(-x / sqrt 2) / 2 rounds x / sqrt 2 by 2^-53 relative, which moves
        # Phi by up to x^2 2^-53 relative; below Phi(-37.5) = 2.2e-308 the result
        # is subnormal, so one subnormal spacing is added to the bound
        x = np.concatenate([np.linspace(-38.0, 9.0, 2351), [-1e-300, 1e-300, 0.5, -0.5]])
        got = ndtr(x)
        exact = [mpmath.ncdf(mpmath.mpf(v)) for v in x]
        err = np.array([float(abs(mpmath.mpf(g) - e)) for g, e in zip(got, exact)])
        bound = (4.0 + x * x) * 2.0**-52 * np.array([float(e) for e in exact]) + 2.0**-1074
        assert np.all(err <= bound), x[err > bound]

    def test_special_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ndtr(x)
        np.testing.assert_array_equal(got, [0.5, 0.5, 1.0, 0.0, np.nan])
        np.testing.assert_array_equal(got, special.ndtr(x))


class TestQuantile:
    def test_within_8_ulp(self):
        p = np.concatenate([np.geomspace(1e-300, 0.5, 1501), np.linspace(0.01, 0.99, 197),
                            1.0 - np.geomspace(2.0**-53, 0.5, 501),
                            # the branch edges: |p - 1/2| = 0.425, r = 5
                            [0.075, 0.925, math.exp(-25.0), -math.expm1(-25.0)]])
        got = ndtri(p)
        ulps = [float(abs(mpmath.mpf(g) - e)) / np.spacing(abs(float(e)))
                for g, e in zip(got, map(exact_quantile, p))]
        assert max(ulps) <= 8.0, (max(ulps), p[np.argmax(ulps)])

    def test_special_values(self):
        p = np.array([0.0, 1.0, -0.0, -1e-300, 1.0 + 2.0**-52, -np.inf, np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ndtri(p)
        np.testing.assert_array_equal(got, [-np.inf, np.inf, -np.inf, *[np.nan] * 5])
        np.testing.assert_array_equal(got, special.ndtri(p))


@pytest.mark.parametrize("fn, values", [
    (ndtr, np.linspace(-40.0, 10.0, 1000)),
    (ndtri, np.concatenate([np.geomspace(1e-310, 0.5, 500), 1.0 - np.geomspace(1e-16, 0.5, 500)])),
])
class TestElementwise:
    def test_a_0d_input_returns_a_scalar(self, fn, values):
        for v in (float(values[3]), values[3], np.array(values[3])):
            got = fn(v)
            assert isinstance(got, np.float64) and np.ndim(got) == 0
            assert got == fn(values)[3]
        assert fn(values.reshape(25, 40)).shape == (25, 40)

    def test_an_element_ignores_the_array_around_it(self, fn, values):
        # the lattice checks a row solved alone against the same row in its block
        full = fn(values)
        alone = np.array([fn(values[i:i + 1])[0] for i in range(values.size)])
        assert alone.tobytes() == full.tobytes()
        for size in (2, 3, 7, 16, 33, 100):
            parts = [fn(values[i:i + size]) for i in range(0, values.size, size)]
            assert np.concatenate(parts).tobytes() == full.tobytes(), size
        grid = values[:1000].reshape(40, 25)
        assert fn(grid).ravel().tobytes() == full[:1000].tobytes()
        assert fn(grid.T).T.ravel().tobytes() == full[:1000].tobytes()
        assert fn(values[::3]).tobytes() == full[::3].tobytes()
