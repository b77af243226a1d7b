import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm, truncnorm

from rld import walks
from rld.walks import DiscreteStep, NormalStep, advance, as_steps, empty_storage, levels
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


def stage(law, step, shift, capacity, width, panels):
    """advance on float or array drifts, one row each."""
    return advance(law, step, np.atleast_1d(np.asarray(shift, dtype=float)), capacity, width,
                   panels)


def total_mass(law):
    return law.mass[:, 0].sum(axis=1) + law.nodes[:, 0].sum(axis=(1, 2))


class TestAdvanceInternals:
    def test_conservation_is_exact(self):
        # pinned at 0, pinned at B and carried inside sum to the incoming mass
        _, _, law = stage(empty_storage(1), NormalStep(1.0), -0.2, 1.0, 0.5, 2)
        assert total_mass(law)[0] == pytest.approx(1.0, abs=1e-15)
        assert law.mass[0, 0, 0] == pytest.approx(norm.cdf(0.2), abs=1e-15)
        assert law.mass[0, 0, 1] == pytest.approx(norm.sf(1.2), abs=1e-15)
        _, _, law2 = stage(law, NormalStep(0.5), 0.1, 1.0, 0.5, 2)
        assert total_mass(law2)[0] == pytest.approx(1.0, abs=1e-15)

    def test_moment_matches_cdf_formula(self):
        # from empty storage, E[(-z)^+] for z ~ N(m, s^2) is the normal loss function,
        # and the slope weight E[1; z < 0] its CDF
        m, s = 0.3, 2.0
        unserved, weight, _ = stage(empty_storage(1), NormalStep(s), m, 5.0, 1.0, 5)
        loss = s * norm.pdf(m / s) - m * norm.cdf(-m / s)
        assert unserved[0] == pytest.approx(loss, rel=1e-12)
        assert weight[0] == pytest.approx(norm.cdf(-m / s), rel=1e-12)

    def test_zero_sigma_becomes_point_mass(self):
        # a zero-std step is the deterministic Lindley step b' = clip(b + shift, 0, B)
        unserved, _, law = stage(empty_storage(3), NormalStep(0.0), [-0.4, 0.3, 1.5], 1.0, 1.0, 0)
        np.testing.assert_array_equal(unserved, [0.4, 0.0, 0.0])
        np.testing.assert_array_equal(law.points[:, 0], [0.0, 0.3, 1.0])
        np.testing.assert_array_equal(law.mass[:, 0, 0], 1.0)
        unserved, _, law = stage(law, NormalStep(0.0), [0.2, -0.5, -0.25], 1.0, 1.0, 0)
        np.testing.assert_array_equal(unserved, [0.0, 0.2, 0.0])
        np.testing.assert_array_equal(law.points[:, 0], [0.2, 0.0, 0.75])

    def test_discrete_rows_match_scalar_walks(self):
        # each row of a discrete step sums bit for bit like a law of its own,
        # which the batch pads with the row's top level at no mass
        step = DiscreteStep((-0.3, 0.1, 0.25), (0.3, 0.5, 0.2))
        shifts = np.array([[0.1, -0.2, 0.3], [-0.05, 0.4, -0.1], [0.2, 0.0, -0.3]])
        law, rows = empty_storage(3), [empty_storage(1) for _ in shifts]
        for j in range(3):
            unserved, weight, law = stage(law, step, shifts[:, j], 0.45, 0.45, 0)
            for i in range(len(shifts)):
                u, w, rows[i] = stage(rows[i], step, shifts[i, j], 0.45, 0.45, 0)
                assert (unserved[i], weight[i]) == (u[0], w[0])
                own = rows[i].points.shape[1]
                np.testing.assert_array_equal(law.points[i, :own], rows[i].points[0])
                np.testing.assert_array_equal(law.mass[i, :, :own], rows[i].mass[0])
                assert not law.mass[i, :, own:].any()
                assert (law.points[i, own:] == rows[i].points[0, -1]).all()

    @pytest.mark.parametrize("beyond", [6.0, 6.5, 7.5])
    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
    def test_walk_survives_a_window_beyond_the_span(self, side, beyond):
        # a stage that leaves inside only a far tail, 6 to 7.5 stds out, keeps
        # that mass with its shape (the truncated normal's mean level, to the
        # 1e-9 that 8 nodes resolve of a density falling 7.5 e-folds per
        # panel), and the next stage carries it on
        B = 20.0
        shift = -beyond if side < 0 else B + beyond
        _, _, law = stage(empty_storage(1), NormalStep(1.0), shift, B, 1.0, 20)
        inside = law.nodes[0, 0].ravel()
        assert inside.sum() == pytest.approx(norm.sf(beyond), rel=1e-12)
        mean = truncnorm.mean(-shift, B - shift, loc=shift)
        assert inside @ levels(20, 1.0) / inside.sum() == pytest.approx(mean, rel=1e-8)
        _, _, nxt = stage(law, NormalStep(0.5), -side * 5.0, B, 1.0, 20)
        assert total_mass(nxt)[0] == pytest.approx(1.0, abs=1e-15)
        assert nxt.nodes[0, 0].sum() > 0.1 * norm.sf(beyond)

    def test_as_steps_conversion(self):
        steps = as_steps([1.0, 0.0, DiscreteStep((0.0,), (1.0,))])
        assert isinstance(steps[0], NormalStep)
        assert steps[1] == NormalStep(0.0)   # advance takes a zero std as the zero atom
        assert isinstance(steps[2], DiscreteStep)

    def test_discrete_validation(self):
        with pytest.raises(ValueError):
            DiscreteStep((1.0, 2.0), (0.7, 0.7))
        with pytest.raises(ValueError):
            NormalStep(-1.0)


# about the per-stage error std of the shipped scenario
SIGMA = 1.15e-3
# B << sigma: one panel; B >> sigma: many panels, whose kernel is a band of
# panel offsets, and the density's reach grows stage by stage
CAPACITIES = st.sampled_from([1e-4, 1e-3, 0.1])


def stage_drifts(drift, seed, rows, steps):
    """Per-stage drifts x - d_t of a few positions around a common drift."""
    rng = np.random.default_rng(seed)
    return SIGMA * (drift + 0.5 * rng.standard_normal((rows, steps)))


def panel_layout(capacity, stages):
    """Panel width of at most SIGMA and the panels each stage reaches (2 SIGMA of
    drift a stage and CUT stds of the summed noise, as ``build_lattice`` bounds it)."""
    cells = math.ceil(capacity / SIGMA)
    reach = (np.arange(1, stages + 1) * 2.0 + walks.CUT * np.sqrt(np.arange(1, stages + 1)))
    return capacity / cells, np.minimum(np.ceil(reach * SIGMA * cells / capacity), cells)


class TestToeplitzStep:
    """Steps between equal panels use a banded kernel; a dense kernel is the oracle."""

    @given(capacity=CAPACITIES, drift=st.floats(-1.0, 1.0), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_kernel(self, capacity, drift, seed):
        shifts = stage_drifts(drift, seed, 4, 20)
        width, panels = panel_layout(capacity, 20)
        law = empty_storage(4)
        for j in range(shifts.shape[1]):
            _, _, nxt = advance(law, NormalStep(SIGMA), shifts[:, j], capacity, width,
                                int(panels[j]))
            assert np.all(nxt.nodes >= 0.0)
            # every source level and its mass and E[beta + 1; .], one dense kernel
            src = np.hstack([law.points, np.broadcast_to(levels(law.nodes.shape[2], width),
                                                         (4, law.nodes[:, 0].size // 4))])
            w = np.concatenate([law.mass, law.nodes.reshape(4, 2, -1)], axis=2)
            w[:, 1] += w[:, 0]
            ys = np.broadcast_to(levels(int(panels[j]), width), (4, nxt.nodes[:, 0].size // 4))
            for a in range(2):
                dens = dense_gauss_density(ys, src + shifts[:, j, None], w[:, a], SIGMA)
                dens *= np.tile(walks._UNIT_W * width, int(panels[j]))
                got = nxt.nodes[:, a].reshape(4, -1)
                # the step renormalises its density to the CDF-exact inside mass
                expected = dens * (got.sum(axis=1) / dens.sum(axis=1))[:, None]
                assert np.all(np.abs(got - expected) <= 1e-14 * got.sum(axis=1)[:, None])
            law = nxt

    @given(capacity=CAPACITIES, drift=st.floats(-1.0, 1.0), seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_batch_rows_walk_as_alone(self, capacity, drift, seed):
        shifts = stage_drifts(drift, seed, 16, 20)
        width, panels = panel_layout(capacity, 20)
        law, alone = empty_storage(16), [empty_storage(1)] * 16
        for j in range(shifts.shape[1]):
            unserved, weight, law = advance(law, NormalStep(SIGMA), shifts[:, j], capacity,
                                            width, int(panels[j]))
            for i in range(16):
                u, w, alone[i] = advance(alone[i], NormalStep(SIGMA), shifts[i, j:j + 1],
                                         capacity, width, int(panels[j]))
                assert (unserved[i], weight[i]) == (u[0], w[0])
                np.testing.assert_array_equal(law.nodes[i], alone[i].nodes[0])
