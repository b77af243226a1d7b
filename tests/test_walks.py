import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from rld import walks
from rld.walks import DiscreteStep, NormalStep, advance, as_steps, initial_state
from oracles import (
    ZeroProbabilityError,
    dense_gauss_density,
    truncated_walk_mean,
    walk_rectangle_prob,
)


class TestRectangleProb:
    def test_single_step_symmetry(self):
        assert walk_rectangle_prob([1.0], [0.0], [0.0], "upper_tail") == pytest.approx(0.5)

    def test_bivariate_orthant(self):
        # P(S1 > 0, S2 > 0) = 1/4 + arcsin(1/sqrt(2)) / (2 pi) = 0.375
        p = walk_rectangle_prob([1.0, 1.0], [0.0, 0.0], [np.inf, 0.0], "upper_tail")
        assert p == pytest.approx(0.375, abs=1e-6)

    def test_zero_width_final_interval(self):
        assert walk_rectangle_prob([1.0, 1.0], [-1.0, 0.3], [1.0, 0.3], "interval") == 0.0

    def test_lower_tail_complements(self):
        lo, hi = [-0.7], [0.4]
        total = sum(
            walk_rectangle_prob([1.3], lo, hi, mode)
            for mode in ("lower_tail", "interval", "upper_tail")
        )
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_interval_matches_normal_cdf(self):
        p = walk_rectangle_prob([2.0], [-1.0], [3.0], "interval")
        assert p == pytest.approx(norm.cdf(1.5) - norm.cdf(-0.5), abs=1e-14)

    def test_two_step_interval_oracle(self):
        # P(a < S1 <= b, c < S2 <= d) for a correlated Gaussian pair, by MC
        rng = np.random.default_rng(42)
        n = 400_000
        e = rng.standard_normal((n, 2))
        s1 = 0.8 * e[:, 0]
        s2 = s1 + 1.1 * e[:, 1]
        hit = ((-0.5 < s1) & (s1 <= 0.6) & (-0.2 < s2) & (s2 <= 1.4)).mean()
        p = walk_rectangle_prob([0.8, 1.1], [-0.5, -0.2], [0.6, 1.4], "interval")
        se = math.sqrt(hit * (1 - hit) / n)
        assert abs(p - hit) < 3 * se

    def test_discrete_steps_enumerate_exactly(self):
        step = DiscreteStep((-1.0, 0.0, 2.0), (0.3, 0.5, 0.2))
        p = walk_rectangle_prob([step, step], [-1.5, -0.5], [1.5, 2.5], "interval")
        atoms = np.array(step.atoms)
        probs = np.array(step.probs)
        total = 0.0
        for i, a in enumerate(atoms):
            if not (-1.5 < a <= 1.5):
                continue
            for j, b in enumerate(atoms):
                if -0.5 < a + b <= 2.5:
                    total += probs[i] * probs[j]
        assert p == pytest.approx(total, abs=1e-15)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            walk_rectangle_prob([1.0, 1.0], [0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            walk_rectangle_prob([1.0], [2.0], [1.0])
        with pytest.raises(ValueError):
            walk_rectangle_prob([1.0], [0.0], [1.0], "sideways")


class TestTruncatedMean:
    def test_half_normal(self):
        m = truncated_walk_mean([1.0], [], [], 0.0)
        assert m == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)

    def test_mills_ratio(self):
        m = truncated_walk_mean([1.0], [], [], 3.0)
        assert m == pytest.approx(norm.pdf(3.0) / norm.cdf(-3.0), rel=1e-10)

    def test_two_step_against_mc(self):
        rng = np.random.default_rng(9)
        n = 500_000
        s1 = 0.7 * rng.standard_normal(n)
        s2 = s1 + 0.9 * rng.standard_normal(n)
        sel = (-0.3 < s1) & (s1 <= 0.8) & (s2 > 0.5)
        mc = s2[sel].mean()
        m = truncated_walk_mean([0.7, 0.9], [-0.3], [0.8], 0.5)
        se = s2[sel].std(ddof=1) / math.sqrt(sel.sum())
        assert abs(m - mc) < 4 * se

    def test_degenerate_zero_std(self):
        assert truncated_walk_mean([0.0, 0.0], [-1.0], [1.0], -0.5) == 0.0

    def test_zero_probability_event(self):
        with pytest.raises(ZeroProbabilityError):
            truncated_walk_mean([0.0], [], [], 0.5)
        with pytest.raises(ZeroProbabilityError):
            truncated_walk_mean([1.0, 1.0], [50.0], [60.0], 0.0)


class TestAdvanceInternals:
    def test_conservation_is_exact(self):
        state = initial_state()
        res = advance(state, NormalStep(1.0), -0.8, 0.2)
        assert res.below + res.inside + res.above == pytest.approx(1.0, abs=1e-15)
        res2 = advance(res.state, NormalStep(0.5), -1.0, 0.5)
        assert res2.below + res2.inside + res2.above == pytest.approx(res.inside, abs=1e-15)

    def test_moment_matches_cdf_formula(self):
        res = advance(initial_state(), NormalStep(2.0), -np.inf, 1.0)
        # E[S; S > 1] for N(0, 2^2) is sigma * pdf(1/sigma)
        assert res.above_moment == pytest.approx(2.0 * norm.pdf(0.5), rel=1e-12)

    def test_zero_sigma_becomes_point_mass(self):
        res = advance(initial_state(), NormalStep(0.0), -1.0, 1.0)
        assert res.inside == 1.0
        res2 = advance(res.state, NormalStep(0.0), 0.5, 2.0)
        assert res2.below == 1.0 and res2.inside == 0.0

    def test_discrete_rows_match_scalar_walks(self):
        # the rows share one support; each sums bit for bit like a walk of its own
        step = DiscreteStep((-0.3, 0.1, 0.25), (0.3, 0.5, 0.2))
        lows = np.array([[-0.5, -0.4, -0.2], [-0.1, -0.6, -0.3], [-0.45, 0.0, -1.0]])
        highs = lows + np.array([[0.6], [0.45], [0.7]])
        state, rows = initial_state(), [initial_state() for _ in lows]
        for j in range(3):
            res = advance(state, step, lows[:, j], highs[:, j])
            for i in range(len(lows)):
                one = advance(rows[i], step, lows[i, j], highs[i, j])
                assert (res.below[i], res.inside[i], res.above[i], res.above_moment[i]) == (
                    one.below, one.inside, one.above, one.above_moment)
                rows[i] = one.state
            state = res.state

    @pytest.mark.parametrize("beyond", [6.0, 6.5, 7.5])
    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
    def test_walk_survives_a_window_beyond_the_span(self, side, beyond):
        # a window at or past SPAN stds of the support holds far more than the
        # floor, so the walk and its inside mass carry on: from the point
        # mass, then from a grid on (-1, 1]
        far = (-np.inf, side * beyond) if side < 0 else (side * beyond, np.inf)
        res = advance(initial_state(), NormalStep(1.0), *far)
        assert res.inside == pytest.approx(norm.sf(beyond), rel=1e-12)
        grid = advance(initial_state(), NormalStep(1.0), -1.0, 1.0).state
        edge = side * (1.0 + beyond * 0.5)
        res2 = advance(grid, NormalStep(0.5), *((-np.inf, edge) if side < 0 else (edge, np.inf)))
        for r in (res, res2):
            assert r.inside > 1e-30 and r.state is not None
            nxt = advance(r.state, NormalStep(0.5), -np.inf, np.inf)
            assert nxt.inside == pytest.approx(r.inside, rel=1e-12)

    def test_dead_state_passthrough(self):
        res = advance(None, NormalStep(1.0), -1.0, 1.0)
        assert res.inside == 0.0 and res.state is None

    def test_as_steps_conversion(self):
        steps = as_steps([1.0, 0.0, DiscreteStep((0.0,), (1.0,))])
        assert isinstance(steps[0], NormalStep)
        assert isinstance(steps[1], DiscreteStep)
        assert isinstance(steps[2], DiscreteStep)

    def test_discrete_validation(self):
        with pytest.raises(ValueError):
            DiscreteStep((1.0, 2.0), (0.7, 0.7))
        with pytest.raises(ValueError):
            NormalStep(-1.0)


# about the per-stage error std of the shipped scenario
SIGMA = 1.15e-3
# B << sigma: flat kernel taps; B >> sigma: banded taps, and the grid grows for
# several steps before it fills the window
CAPACITIES = st.sampled_from([1e-4, 1e-3, 0.1])


def chain_windows(capacity, drift, seed, rows, steps):
    """Windows (edge - B, edge] of lattice-like chains: edges are running margin sums plus B."""
    rng = np.random.default_rng(seed)
    margins = SIGMA * (drift + 0.5 * rng.standard_normal((rows, steps)))
    edges = capacity + np.cumsum(margins, axis=1)
    return edges - capacity, edges


class TestToeplitzStep:
    """Steps between equally spaced grids convolve by FFT; a dense kernel is the oracle."""

    @given(capacity=CAPACITIES, drift=st.floats(-1.0, 1.0), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_kernel(self, capacity, drift, seed):
        lows, highs = chain_windows(capacity, drift, seed, 4, 20)
        state, toeplitz_rows = initial_state(), 0
        for j in range(lows.shape[1]):
            res = advance(state, NormalStep(SIGMA), lows[:, j], highs[:, j])
            nxt = res.state
            assert nxt is not None
            assert np.all(nxt.weights >= 0.0)
            if isinstance(state, walks._Grid):
                old = np.searchsorted(state.rows, nxt.rows)
                xs, inside = state.xs[old], res.inside[nxt.rows]
                masses = dense_gauss_density(nxt.xs, xs, state.weights[old], SIGMA)
                masses *= walks._PATTERN
                # the step renormalizes its density to the CDF-exact inside mass
                expected = masses * (inside / masses.sum(axis=1))[:, None]
                assert np.all(np.abs(nxt.weights - expected) <= 1e-14 * inside[:, None])
                old_width, new_width = xs[:, -1] - xs[:, 0], nxt.xs[:, -1] - nxt.xs[:, 0]
                toeplitz_rows += np.count_nonzero(
                    np.abs(new_width - old_width) <= walks._KEY_TOL * SIGMA)
            state = nxt
        assert toeplitz_rows > 0

    @given(capacity=CAPACITIES, drift=st.floats(-1.0, 1.0), seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_batch_rows_walk_as_alone(self, capacity, drift, seed):
        lows, highs = chain_windows(capacity, drift, seed, 16, 20)
        state, alone = initial_state(), [initial_state()] * len(lows)
        for j in range(lows.shape[1]):
            res = advance(state, NormalStep(SIGMA), lows[:, j], highs[:, j])
            for i in range(len(lows)):
                one = advance(alone[i], NormalStep(SIGMA), lows[i, j], highs[i, j])
                assert (res.below[i], res.inside[i], res.above[i], res.above_moment[i]) == (
                    one.below, one.inside, one.above, one.above_moment)
                alone[i] = one.state
            state = res.state
            for k, i in enumerate(state.rows):
                np.testing.assert_array_equal(state.weights[k], alone[i].weights[0])


class TestJoin:
    """Walks that start late join a running state and step as they would alone."""

    @pytest.mark.parametrize("step", [
        NormalStep(SIGMA), DiscreteStep((-SIGMA, 0.0, 0.5 * SIGMA), (0.25, 0.5, 0.25))])
    def test_joined_walks_step_as_alone(self, step):
        # walks 0-3 start at step 0 and walks 4-7 join at step 2; the windows
        # of B = 1e-3 let some walks die before the last step
        lows, highs = chain_windows(1e-3, 0.3, 7, 8, 6)
        starts = np.repeat([0, 2], 4)
        state, alone = None, [initial_state()] * 8
        for j in range(lows.shape[1]):
            got = np.zeros((4, 8))
            if state is not None:
                res = advance(state, step, lows[:, j], highs[:, j])
                got[:] = res.below, res.inside, res.above, res.above_moment
                state = res.state
            born = np.flatnonzero(starts == j)
            if born.size:
                res = advance(initial_state(), step, lows[born, j], highs[born, j])
                got[:, born] = res.below, res.inside, res.above, res.above_moment
                state = walks._join(state, res.state, born, 8)
            for i in np.flatnonzero(starts <= j):
                one = advance(alone[i], step, lows[i, j], highs[i, j])
                assert tuple(got[:, i]) == (one.below, one.inside, one.above, one.above_moment)
                alone[i] = one.state
            assert not got[:, starts > j].any()
