import json
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rld.model import (
    MAX_T,
    MAX_VOLL,
    CostModel,
    ForecastErrorCurve,
    ForecastModel,
    MarketLadder,
    ParseError,
    ValidationError,
    load_curve,
    load_scenario,
    scenario_from_dict,
    validate_ladder,
)
from conftest import DEFAULT_CURVE, make_scenario
from oracles import inter_stage_stds_per_stage, validate_ladder_pairwise

SHIPPED = resources.files("rld").joinpath("data/vi_scenario.json")


def ladder_of(prices, leads=None, directions=None):
    n = len(prices)
    leads = leads or [24.0 / (i + 1) for i in range(n)]
    directions = directions or ["buy"] * n
    return MarketLadder.from_rows(zip(leads, prices, directions))


class TestValidateLadder:
    def test_vi_prices_ok(self):
        lad = ladder_of([52.0, 60.0, 72.0], leads=[24.0, 1.0, 0.25])
        assert validate_ladder(lad, CostModel(1000.0)) == []

    def test_decreasing_buy_prices_flagged(self):
        lad = ladder_of([60.0, 52.0], leads=[24.0, 1.0])
        violations = validate_ladder(lad)
        assert any("buy prices must increase" in v for v in violations)

    def test_buy_then_cheaper_sell_is_arbitrage_free(self):
        lad = MarketLadder.from_rows([(24.0, 52.0, "buy"), (1.0, 60.0, "sell")])
        violations = validate_ladder(lad)
        assert any("no-arbitrage" in v for v in violations)

    def test_sell_then_dearer_buy_is_arbitrage_free(self):
        lad = MarketLadder.from_rows([(24.0, 70.0, "sell"), (1.0, 60.0, "buy")])
        assert any("no-arbitrage" in v for v in validate_ladder(lad))
        ok = MarketLadder.from_rows([(24.0, -5.0, "sell"), (1.0, 60.0, "buy")])
        assert validate_ladder(ok) == []

    def test_ladder_needs_a_buy_stage(self):
        lad = MarketLadder.from_rows([(24.0, 80.0, "sell"), (1.0, 70.0, "sell")])
        assert any("buy stage" in v for v in validate_ladder(lad))

    def test_sell_prices_must_decrease(self):
        lad = MarketLadder.from_rows([(24.0, 80.0, "sell"), (1.0, 90.0, "sell")])
        assert any("sell prices" in v for v in validate_ladder(lad))

    def test_lead_times_must_decrease(self):
        lad = ladder_of([52.0, 60.0], leads=[1.0, 24.0])
        assert any("lead times" in v for v in validate_ladder(lad))

    def test_voll_must_exceed_ladder(self):
        lad = ladder_of([52.0, 60.0], leads=[24.0, 1.0])
        assert any("voll" in v for v in validate_ladder(lad, CostModel(60.0)))
        assert validate_ladder(lad, CostModel(61.0)) == []

    def test_empty_ladder_rejected(self):
        assert validate_ladder(MarketLadder(())) == ["ladder must be nonempty"]
        with pytest.raises(ValidationError, match="ladder must be nonempty"):
            replace(make_scenario(T=4), ladder=MarketLadder(()))

    @given(st.lists(st.floats(1.0, 500.0), min_size=2, max_size=6, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_ok_iff_strictly_increasing(self, prices):
        lad = ladder_of(prices, leads=[100.0 - i for i in range(len(prices))])
        ok = validate_ladder(lad) == []
        assert ok == all(a < b for a, b in zip(prices, prices[1:]))

    @pytest.mark.parametrize("lead, price", [
        (24.0, -np.inf), (24.0, np.nan), (np.inf, -5.0), (np.nan, -5.0)])
    def test_non_finite_stage_flagged(self, lead, price):
        lad = MarketLadder.from_rows([(lead, price, "sell"), (1.0, 60.0, "buy")])
        assert any("must be finite" in v for v in validate_ladder(lad, CostModel(1000.0)))

    @given(st.data(), st.integers(1, 5), st.sampled_from([None, 70.0, 1000.0]))
    @settings(max_examples=400, deadline=None)
    def test_neighbour_rules_equal_pairwise_rules(self, data, n, voll):
        # tied lead times, tied prices and both directions; the rules on
        # neighbours flag a ladder exactly when some pair of stages breaks one
        price = st.one_of(st.sampled_from([-5.0, 0.0, 40.0, 52.0, 60.0, 72.0]),
                          st.floats(-5.0, 80.0))
        leads = sorted(data.draw(st.lists(st.sampled_from([24.0, 12.0, 1.0, 0.25]),
                                          min_size=n, max_size=n)), reverse=True)
        directions = data.draw(st.lists(st.sampled_from(["buy", "sell"]),
                                        min_size=n, max_size=n))
        prices = data.draw(st.lists(price, min_size=n, max_size=n))
        if data.draw(st.booleans()):
            # buy prices rising and sell prices falling: only ties and the
            # sell/buy gap can break a rule
            buys = iter(sorted(p for p, d in zip(prices, directions) if d == "buy"))
            sells = iter(sorted((p for p, d in zip(prices, directions) if d == "sell"),
                                reverse=True))
            prices = [next(buys) if d == "buy" else next(sells) for d in directions]
        lad = MarketLadder.from_rows(zip(leads, prices, directions))
        cost = None if voll is None else CostModel(voll)
        assert bool(validate_ladder(lad, cost)) == bool(validate_ladder_pairwise(lad, cost))


class TestCurve:
    def test_interpolation_linear_in_variance(self):
        curve = ForecastErrorCurve.from_table([[10.0, 0.2], [2.0, 0.1]])
        mid = curve.variance_at(6.0)
        assert mid == pytest.approx(0.5 * (0.2**2 + 0.1**2), rel=1e-12)
        # interpolating the std directly would give a different number
        assert mid != pytest.approx(((0.2 + 0.1) / 2) ** 2, rel=1e-3)

    def test_outside_range_raises(self):
        curve = ForecastErrorCurve.from_table([[10.0, 0.2], [2.0, 0.1]])
        with pytest.raises(ValueError):
            curve.sigma_at(11.0)
        with pytest.raises(ValueError):
            curve.sigma_at(1.0)

    def test_monotonicity_enforced(self):
        with pytest.raises(ValidationError):
            ForecastErrorCurve.from_table([[10.0, 0.1], [2.0, 0.2]])
        with pytest.raises(ValidationError):
            ForecastErrorCurve.from_table([[2.0, 0.2], [10.0, 0.1]])


class TestStageErrorVariance:
    """The variance of the forecast error revealed between market stages,
    as ``Scenario.inter_stage_stds`` squares it."""

    def test_difference_of_squares(self):
        scn = make_scenario(prices=(52.0, 60.0), leads=(24.0, 1.0),
                            curve=[[24.0, 0.2], [1.0, 0.15]])
        assert scn.inter_stage_stds()[0] ** 2 == pytest.approx(0.0175, abs=1e-12)

    def test_no_information_gain_is_zero(self):
        scn = make_scenario(prices=(52.0, 60.0), leads=(24.0, 1.0),
                            curve=[[24.0, 0.2], [1.0, 0.2]])
        assert scn.inter_stage_stds()[0] == 0.0

    def test_telescoping_sum(self):
        scn = make_scenario(leads=(24.0, 1.0, 0.25))
        total = np.sum(scn.inter_stage_stds()[:-1] ** 2)
        expect = scn.curve.variance_at(24.0) - scn.curve.variance_at(0.25)
        assert total == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("curve", [None, [[24.0, 0.2], [1.0, 0.2], [0.25, 0.1]]],
                             ids=["shipped", "flat-segment"])
    def test_equals_per_stage_formula_bitwise(self, curve):
        scn = load_scenario(SHIPPED) if curve is None else make_scenario(curve=curve)
        assert scn.inter_stage_stds().tobytes() == inter_stage_stds_per_stage(scn).tobytes()

    def test_delivery_split_uses_mean_share(self):
        scn = make_scenario(mean_share=0.2)
        sigma_final = scn.curve.sigma_at(0.25)
        assert scn.delivery_fluctuation_variance == pytest.approx(0.8 * sigma_final**2)
        stds = scn.inter_stage_stds()
        assert stds[-1] == pytest.approx(np.sqrt(0.2) * sigma_final)


class TestScenarioLoading:
    def test_shipped_scenario(self):
        scn = load_scenario(str(SHIPPED))
        assert scn.ladder.n_stages == 3
        assert scn.T == 60
        assert scn.d_total == pytest.approx(0.4)
        assert scn.cost.voll == 1000.0
        assert scn.mean_share == 0.2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValidationError):
            make_scenario(B=-0.5)

    def test_missing_sigma_column(self, tmp_path):
        curve = tmp_path / "curve.csv"
        curve.write_text("horizon_hours,stddev\n24,0.2\n1,0.1\n")
        with pytest.raises(ParseError):
            load_curve(curve)

    @pytest.mark.parametrize("row, cell", [
        ("0.1", "sigma"), ("0.1,", "sigma"), (",0.01", "horizon_hours"),
        ("abc,0.01", "horizon_hours"), ("0.1,true", "sigma"),
    ])
    def test_bad_curve_cells_are_parse_errors(self, tmp_path, row, cell):
        # a short row's missing cell reads as None, which is not a number
        curve = tmp_path / "curve.csv"
        curve.write_text(f"horizon_hours,sigma\n24,0.04\n1,0.015\n{row}\n")
        with pytest.raises(ParseError, match=f"line 4: {cell}: not a number"):
            load_curve(curve)

    @pytest.mark.parametrize("value", [5, None, ["curve.csv"], True])
    def test_non_string_curve_file_is_a_parse_error(self, value):
        doc = {
            "ladder": [{"lead_time_hours": 24.0, "price": 52.0}],
            "voll": 1000.0, "storage": {"B": 0.001}, "T": 6, "d_hat": 0.4,
            "curve_file": value,
        }
        with pytest.raises(ParseError, match="curve_file: not a file name"):
            scenario_from_dict(doc)

    def test_bad_json(self, tmp_path):
        f = tmp_path / "scn.json"
        f.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(f)

    def test_missing_field_path_in_error(self):
        with pytest.raises(ParseError, match="voll"):
            scenario_from_dict({"ladder": [{"lead_time_hours": 24, "price": 52}]})

    @pytest.mark.parametrize("field, value", [
        ("voll", "abc"), ("T", "x"), ("mean_share", "x"), ("curve", [[24]]),
        ("d_hat", ["x"]), ("storage", {"B": "abc"}),
        ("voll", True), ("T", True), ("d_hat", True), ("d_hat", [True] * 6),
        ("mean_share", True), ("storage", {"B": True}), ("storage", {"B": 0.001, "nu": False}),
        ("ladder", [{"lead_time_hours": True, "price": 52.0}]),
        ("ladder", [{"lead_time_hours": 24.0, "price": True}]),
        ("curve", [[24.0, True], [0.25, 0.01]]),
    ])
    def test_malformed_values_are_parse_errors(self, field, value):
        doc = {
            "ladder": [{"lead_time_hours": 24.0, "price": 52.0}],
            "voll": 1000.0, "storage": {"B": 0.001}, "T": 6, "d_hat": 0.4,
            "curve": DEFAULT_CURVE, field: value,
        }
        with pytest.raises(ParseError, match=field):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("value", [60.7, True, False, float("inf"), float("nan"), 10**400])
    def test_non_integer_T_is_a_parse_error(self, value):
        doc = {
            "ladder": [{"lead_time_hours": 24.0, "price": 52.0}],
            "voll": 1000.0, "storage": {"B": 0.001}, "T": value, "d_hat": 0.4,
            "curve": DEFAULT_CURVE,
        }
        with pytest.raises(ParseError, match="T"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("value, expect", [(60, 60), (60.0, 60), (1e3, 1000)])
    def test_integral_T_loads(self, value, expect):
        doc = {
            "ladder": [{"lead_time_hours": 24.0, "price": 52.0}],
            "voll": 1000.0, "storage": {"B": 0.001}, "T": value, "d_hat": 0.4,
            "curve": DEFAULT_CURVE,
        }
        scn = scenario_from_dict(doc)
        assert scn.T == expect and type(scn.T) is int
        assert scn.d_hat_stage.shape == (expect,)

    @pytest.mark.parametrize("field, value", [
        ("voll", float("inf")), ("d_hat", float("nan")), ("d_hat", [0.1, float("nan")] * 3),
        ("storage", {"B": float("nan")}), ("storage", {"B": float("inf")}),
        ("curve", [[24, float("nan")], [0.25, 0.01]]),
    ])
    def test_non_finite_values_are_validation_errors(self, field, value):
        doc = {
            "ladder": [{"lead_time_hours": 24.0, "price": 52.0}],
            "voll": 1000.0, "storage": {"B": 0.001}, "T": 6, "d_hat": 0.4,
            "curve": DEFAULT_CURVE, field: value,
        }
        with pytest.raises(ValidationError, match="finite"):
            scenario_from_dict(doc)

    def test_voll_above_bound_is_a_validation_error(self):
        assert CostModel(MAX_VOLL).voll == MAX_VOLL
        with pytest.raises(ValidationError, match="voll: must be <= 1e"):
            CostModel(np.nextafter(MAX_VOLL, np.inf))

    def test_d_hat_array_roundtrip(self):
        doc = {
            "ladder": [{"lead_time_hours": 24.0, "price": 52.0, "direction": "buy"},
                       {"lead_time_hours": 0.25, "price": 72.0, "direction": "buy"}],
            "voll": 500.0,
            "storage": {"B": 0.001},
            "T": 3,
            "d_hat": [0.1, 0.2, 0.3],
            "curve": DEFAULT_CURVE,
        }
        scn = scenario_from_dict(doc)
        assert np.allclose(scn.d_hat_stage, [0.1, 0.2, 0.3])
        assert scn.d_total == pytest.approx(0.6)
        with pytest.raises(ValidationError):
            scenario_from_dict({**doc, "d_hat": [0.1, 0.2]})

    def test_sell_only_ladder_is_a_validation_error(self):
        doc = {
            "ladder": [{"lead_time_hours": 24.0, "price": 52.0, "direction": "sell"}],
            "voll": 1000.0, "storage": {"B": 0.001}, "T": 6, "d_hat": 0.4,
            "curve": DEFAULT_CURVE,
        }
        with pytest.raises(ValidationError, match="buy stage"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("T", [0, -3])
    def test_non_positive_T_is_a_validation_error(self, T):
        doc = {
            "ladder": [{"lead_time_hours": 24.0, "price": 52.0}],
            "voll": 1000.0, "storage": {"B": 0.001}, "T": T, "d_hat": 0.4,
            "curve": DEFAULT_CURVE,
        }
        with pytest.raises(ValidationError, match="T must be >= 1"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("T", [1e30, MAX_T + 1])
    def test_T_above_bound_is_a_validation_error(self, T):
        # a scalar d_hat is spread over T stages only once T is in range
        doc = {
            "ladder": [{"lead_time_hours": 24.0, "price": 52.0}],
            "voll": 1000.0, "storage": {"B": 0.001}, "T": T, "d_hat": 0.4,
            "curve": DEFAULT_CURVE,
        }
        with pytest.raises(ValidationError, match=f"T must be >= 1 and <= {MAX_T}"):
            scenario_from_dict(doc)
        with pytest.raises(ValidationError, match=f"<= {MAX_T}"):
            replace(make_scenario(T=4), n_delivery_stages=int(T))

    def test_scalar_d_hat_spread_per_stage(self):
        scn = make_scenario(T=10, d=0.5)
        assert np.allclose(scn.d_hat_stage, 0.05)

    def test_mean_share_bounds(self):
        with pytest.raises(ValidationError):
            make_scenario(mean_share=1.5)

    def test_lead_time_outside_curve_rejected(self):
        with pytest.raises(ValidationError, match="curve range"):
            make_scenario(leads=(48.0, 1.0, 0.25))

    def test_price_inversion_rejected(self):
        with pytest.raises(ValidationError):
            make_scenario(prices=(72.0, 60.0, 52.0))

    def test_arrays_immutable(self):
        scn = make_scenario(T=4)
        with pytest.raises(ValueError):
            scn.d_hat_stage[0] = 99.0
        fc = scn.delivery_forecast()
        with pytest.raises(ValueError):
            fc.sigma[0] = 1.0


class TestScenarioConstruction:
    """Every construction runs the same checks as a scenario file."""

    @pytest.mark.parametrize("change, message", [
        (dict(ladder=ladder_of([72.0, 60.0, 52.0], leads=[24.0, 1.0, 0.25])),
         "buy prices must increase"),
        (dict(cost=CostModel(50.0)), "voll 50.0 must exceed"),
        (dict(n_delivery_stages=0, d_hat_stage=np.zeros(0)), "T must be >= 1"),
        (dict(d_hat_stage=np.zeros(3)), "length T"),
        (dict(mean_share=-0.1), "mean_share"),
        (dict(ladder=ladder_of([52.0, 60.0, 72.0], leads=[48.0, 1.0, 0.25])),
         "outside curve range"),
        (dict(ladder=MarketLadder.from_rows(
            [(24.0, -np.inf, "sell"), (1.0, 60.0, "buy"), (0.25, 72.0, "buy")])),
         "must be finite"),
    ], ids=["falling-buys", "low-voll", "T-0", "short-d_hat", "mean_share",
            "48h-lead", "inf-price"])
    def test_replace_is_validated(self, change, message):
        with pytest.raises(ValidationError, match=message):
            replace(make_scenario(T=4), **change)

    def test_violations_reported_together(self):
        with pytest.raises(ValidationError) as info:
            replace(make_scenario(T=4), cost=CostModel(50.0), mean_share=2.0)
        assert str(info.value).startswith("scenario validation failed:")
        assert "voll" in str(info.value) and "mean_share" in str(info.value)


class TestVariants:
    def test_with_capacity_keeps_everything_else(self):
        scn = make_scenario(T=4, efficiencies=(0.9, 0.8, 0.7))
        point = scn.with_capacity(0.05)
        assert point.storage.capacity == 0.05
        assert (point.storage.storage_eff, point.storage.recharge_eff,
                point.storage.discharge_eff) == (0.9, 0.8, 0.7)
        assert point.ladder is scn.ladder and point.curve is scn.curve
        assert np.array_equal(point.d_hat_stage, scn.d_hat_stage)

    def test_with_d_total_spreads_evenly(self):
        scn = make_scenario(T=4, B=0.02)
        point = scn.with_d_total(-0.8)
        assert np.array_equal(point.d_hat_stage, np.full(4, -0.2))
        assert point.storage is scn.storage and point.mean_share == scn.mean_share
        with pytest.raises(ValueError):
            point.d_hat_stage[0] = 1.0

    @pytest.mark.parametrize("variant, value", [
        ("with_capacity", -1.0), ("with_capacity", float("inf")),
        ("with_capacity", float("nan")), ("with_d_total", float("nan")),
    ])
    def test_variants_are_validated(self, variant, value):
        with pytest.raises(ValidationError):
            getattr(make_scenario(T=4), variant)(value)


class TestForecastModel:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            ForecastModel(2, np.zeros(2), np.array([0.1, -0.1]))


class TestRealize:
    def test_stage_forecasts_accumulate_revisions(self):
        scn = make_scenario(T=5, d=0.3)
        rng = np.random.default_rng(4)
        shifts, noise = rng.standard_normal((7, 3)), rng.standard_normal((7, 5))
        forecasts, deficits = scn.realize(shifts, noise)
        assert forecasts.shape == (7, 3) and deficits.shape == (7, 5)
        assert deficits.flags.f_contiguous   # stage columns are contiguous
        assert np.all(forecasts[:, 0] == scn.d_total)
        revisions = shifts * scn.inter_stage_stds()
        assert np.allclose(np.diff(forecasts, axis=1), revisions[:, :-1], atol=1e-15)
        # the interval total moves by every revision; the fluctuations sum out
        sigma_stage = np.sqrt(scn.delivery_fluctuation_variance / scn.T)
        expect = scn.d_total + revisions.sum(axis=1) + sigma_stage * noise.sum(axis=1)
        assert np.allclose(deficits.sum(axis=1), expect, atol=1e-14)

    @given(n=st.integers(1, 40), R=st.integers(1, 4), T=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_deficits_are_the_column_at_a_time_formula(self, n, R, T, seed):
        # each stage's mean (final revision over T plus d_hat_t) plus sigma * noise,
        # bit for bit, whatever the memory order the realization writes in
        scn = make_scenario(T=T, d=list(np.linspace(0.2, 0.5, T)),
                            prices=(52.0, 56.0, 60.0, 66.0)[:R],
                            leads=(24.0, 6.0, 1.0, 0.25)[:R])
        rng = np.random.default_rng(seed)
        draws = rng.standard_normal((n, R + T))   # one row-major block, as rng streams them
        shifts, noise = draws[:, :R], draws[:, R:]
        forecasts, deficits = scn.realize(shifts, noise)
        revised = np.cumsum(np.column_stack([np.full(n, scn.d_total),
                                             shifts * scn.inter_stage_stds()]), axis=1)
        sigma = np.sqrt(scn.delivery_fluctuation_variance / T)
        shift_stage = (revised[:, R] - scn.d_total) / T
        expect = np.empty((n, T))
        for t in range(T):
            expect[:, t] = (shift_stage + scn.d_hat_stage[t]) + noise[:, t] * sigma
        assert forecasts.tobytes() == revised[:, :R].tobytes()
        assert deficits.flags.f_contiguous and np.array_equal(deficits, expect)
        assert deficits.tobytes(order="A") == np.asfortranarray(expect).tobytes(order="A")

    def test_one_path_and_shape_check(self):
        scn = make_scenario(T=4)
        forecasts, deficits = scn.realize(np.zeros(3), np.zeros(4))
        assert forecasts.shape == (1, 3)
        assert np.array_equal(deficits[0], scn.d_hat_stage)
        with pytest.raises(ValueError, match="shapes"):
            scn.realize(np.zeros((2, 3)), np.zeros((2, 5)))
