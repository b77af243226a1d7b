"""Domain types and scenario configuration for risk-limiting dispatch.

Unit conventions: energies are normalized so that the delivery-interval
total deficit D is order one (typically in [-1, 1]).  Accumulated market
positions x and threshold offsets share those units; per-stage quantities
are the interval totals divided by the number of delivery stages T.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


class ScenarioError(Exception):
    """Base class for scenario ingestion problems."""


class ParseError(ScenarioError):
    """Malformed scenario or curve file (schema breach)."""


class ValidationError(ScenarioError):
    """Well-formed input that violates a model invariant."""


BUY = "buy"
SELL = "sell"

MAX_T = 4096   # policy evaluation blocks hold 8192 runs x T doubles: 256 MiB each here
# costs weigh rounding slivers of unserved energy by voll: the shipped ideal
# mean drifts by about 3.7e-19 * voll, and from about 1e15 on ct's cost jumps
MAX_VOLL = 1e12


@dataclass(frozen=True)
class MarketStage:
    index: int
    lead_time_hours: float
    price: float
    direction: str


@dataclass(frozen=True)
class MarketLadder:
    """Ordered recourse stages, earliest (longest lead time) first."""

    stages: tuple[MarketStage, ...]

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def prices(self) -> np.ndarray:
        return np.array([s.price for s in self.stages])

    @property
    def lead_times(self) -> np.ndarray:
        return np.array([s.lead_time_hours for s in self.stages])

    @property
    def directions(self) -> tuple[str, ...]:
        return tuple(s.direction for s in self.stages)

    @staticmethod
    def from_rows(rows) -> "MarketLadder":
        stages = tuple(
            MarketStage(index=i + 1, lead_time_hours=float(lt), price=float(p), direction=str(d))
            for i, (lt, p, d) in enumerate(rows)
        )
        return MarketLadder(stages)


@dataclass(frozen=True)
class StorageSpec:
    """Capacity and efficiency parameters of a fast storage device."""

    capacity: float
    storage_eff: float = 1.0    # carry-over between stages
    recharge_eff: float = 1.0
    discharge_eff: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.capacity < math.inf:
            raise ValidationError(f"storage.B: capacity must be finite and >= 0, "
                                  f"got {self.capacity}")
        for name, val in (
            ("lambda", self.storage_eff),
            ("mu", self.recharge_eff),
            ("nu", self.discharge_eff),
        ):
            if not 0.0 <= val <= 1.0:
                raise ValidationError(f"storage.{name}: efficiency must be in [0, 1], got {val}")


@dataclass(frozen=True)
class CostModel:
    """Value-of-lost-load penalty per unit of unserved energy."""

    voll: float

    def __post_init__(self):
        if not math.isfinite(self.voll):
            raise ValidationError(f"voll: must be finite, got {self.voll}")
        if self.voll > MAX_VOLL:
            raise ValidationError(f"voll: must be <= {MAX_VOLL:g}, got {self.voll:g}")


@dataclass(frozen=True, eq=False)
class ForecastModel:
    """Per-delivery-stage predicted deficits and error standard deviations.

    Both arrays have length T and hold per-stage quantities (interval total
    divided by T for the means).  Errors are independent across stages.
    """

    n_stages: int
    d_hat: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d_hat, dtype=float)
        s = np.asarray(self.sigma, dtype=float)
        if d.shape != (self.n_stages,) or s.shape != (self.n_stages,):
            raise ValidationError("forecast: d_hat and sigma must have length T")
        if np.any(s < 0):
            raise ValidationError("forecast: sigma must be nonnegative")
        d.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "d_hat", d)
        object.__setattr__(self, "sigma", s)

    @property
    def total_mean(self) -> float:
        return float(self.d_hat.sum())


@dataclass(frozen=True, eq=False)
class ForecastErrorCurve:
    """Standard deviation of the horizon-ahead forecast error.

    Interpolation between tabulated horizons is linear in variance, the
    additive quantity for independent error increments.
    """

    horizons: np.ndarray    # strictly increasing
    sigmas: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.horizons, dtype=float)
        s = np.asarray(self.sigmas, dtype=float)
        if h.ndim != 1 or h.shape != s.shape or h.size < 1:
            raise ValidationError("curve: horizons and sigmas must be equal-length vectors")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(s))):
            raise ValidationError("curve: horizons and sigmas must be finite")
        if np.any(np.diff(h) <= 0):
            raise ValidationError("curve: horizons must be strictly increasing")
        if np.any(s < 0):
            raise ValidationError("curve: sigma values must be nonnegative")
        if np.any(np.diff(s) < 0):
            raise ValidationError("curve: sigma must be nonincreasing as the horizon decreases")
        h.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "horizons", h)
        object.__setattr__(self, "sigmas", s)

    @property
    def max_horizon(self) -> float:
        return float(self.horizons[-1])

    @property
    def min_horizon(self) -> float:
        return float(self.horizons[0])

    def variance_at(self, horizon: float) -> float:
        if horizon < self.min_horizon or horizon > self.max_horizon:
            raise ValueError(
                f"horizon {horizon} outside curve range [{self.min_horizon}, {self.max_horizon}]"
            )
        return float(np.interp(horizon, self.horizons, self.sigmas**2))

    def sigma_at(self, horizon: float) -> float:
        return math.sqrt(self.variance_at(horizon))

    @staticmethod
    def from_table(rows) -> "ForecastErrorCurve":
        """Build from (horizon, sigma) rows sorted by decreasing horizon."""
        pts = [(float(h), float(s)) for h, s in rows]
        if any(pts[i][0] <= pts[i + 1][0] for i in range(len(pts) - 1)):
            raise ValidationError("curve: rows must be sorted by strictly decreasing horizon")
        pts.reverse()
        return ForecastErrorCurve(
            np.array([p[0] for p in pts]), np.array([p[1] for p in pts])
        )


@dataclass(frozen=True, eq=False)
class Scenario:
    """A complete dispatch problem: markets, storage, penalty, forecast errors."""

    ladder: MarketLadder
    storage: StorageSpec
    cost: CostModel
    curve: ForecastErrorCurve
    n_delivery_stages: int
    d_hat_stage: np.ndarray     # per-stage predicted deficits, length T
    mean_share: float           # fraction of final-horizon variance in the mean error

    def __post_init__(self):
        d = np.asarray(self.d_hat_stage, dtype=float)
        violations = validate_ladder(self.ladder, self.cost)
        if not 1 <= self.n_delivery_stages <= MAX_T:
            violations.append(f"T must be >= 1 and <= {MAX_T}, got {self.n_delivery_stages}")
        elif d.shape != (self.n_delivery_stages,):
            violations.append("d_hat: profile must have length T")
        elif not np.all(np.isfinite(d)):
            violations.append("d_hat: deficits must be finite")
        if not 0.0 <= self.mean_share <= 1.0:
            violations.append(f"mean_share must be in [0, 1], got {self.mean_share}")
        lo, hi = self.curve.min_horizon, self.curve.max_horizon
        violations += [
            f"stage {s.index}: lead time {s.lead_time_hours}h outside curve range [{lo}, {hi}]"
            for s in self.ladder.stages if not lo <= s.lead_time_hours <= hi]
        if violations:
            raise ValidationError("scenario validation failed:\n  " + "\n  ".join(violations))
        d.setflags(write=False)
        object.__setattr__(self, "d_hat_stage", d)

    @property
    def T(self) -> int:
        return self.n_delivery_stages

    @property
    def d_total(self) -> float:
        """Interval-total predicted deficit (the normalized D)."""
        return float(self.d_hat_stage.sum())

    @property
    def final_horizon_variance(self) -> float:
        """Total residual error variance at the last market's lead time."""
        return self.curve.variance_at(float(self.ladder.lead_times[-1]))

    @property
    def delivery_fluctuation_variance(self) -> float:
        """Interval-total variance of the intra-delivery fluctuation process."""
        return (1.0 - self.mean_share) * self.final_horizon_variance

    def delivery_forecast(self) -> ForecastModel:
        """Forecast model seen at the start of delivery: per-stage iid errors."""
        sigma_stage = math.sqrt(self.delivery_fluctuation_variance / self.T)
        return ForecastModel(self.T, self.d_hat_stage, np.full(self.T, sigma_stage))

    def inter_stage_stds(self) -> np.ndarray:
        """Std of the mean-forecast shift revealed after each market stage.

        Entry r (0-based) is the shift between stage r+1 and stage r+2; the
        last entry is the final mean revelation between the last market and
        delivery (the mean_share split of the residual variance).  A shift's
        variance is the drop of the curve variance between the two lead
        times, clamped at zero so roundoff never makes it negative.
        """
        var = np.array([self.curve.variance_at(t) for t in self.ladder.lead_times.tolist()])
        return np.sqrt(np.append(np.maximum(var[:-1] - var[1:], 0.0),
                                 self.mean_share * var[-1]))

    def realize(self, shift_normals, noise_normals) -> tuple[np.ndarray, np.ndarray]:
        """Turn standard-normal innovation rows into realized forecasts and deficits.

        ``shift_normals`` (n, R) scale to the forecast revisions after each
        market stage, ``noise_normals`` (n, T) to the per-stage fluctuations
        inside the delivery interval.  Returns the total-deficit forecast
        each market stage sees (n, R) and the realized per-stage deficits
        (n, T), column-major so that each stage's column is contiguous for
        the storage kernels that sweep stage by stage.  The same draws give
        common random numbers across policies.
        """
        shift_normals = np.atleast_2d(np.asarray(shift_normals, dtype=float))
        noise_normals = np.atleast_2d(np.asarray(noise_normals, dtype=float))
        n = shift_normals.shape[0]
        R, T = self.ladder.n_stages, self.T
        if shift_normals.shape != (n, R) or noise_normals.shape != (n, T):
            raise ValueError("innovation arrays must have shapes (n, R) and (n, T)")
        # the one (n, T) array, allocated first: repeated calls then reuse
        # the block the previous call freed instead of growing the heap
        deficits = np.empty((n, T), order="F")
        # forecasts accumulate stage by stage: d_total, then each revision
        forecasts = np.cumsum(np.column_stack(
            [np.full(n, self.d_total), shift_normals * self.inter_stage_stds()]), axis=1)
        sigma_stage = math.sqrt(self.delivery_fluctuation_variance / T)
        shift_stage = (forecasts[:, R] - self.d_total) / T
        tmp = np.empty(n)
        for t, col in enumerate(deficits.T):   # in place, a column at a time
            np.add(shift_stage, self.d_hat_stage[t], out=col)
            col += np.multiply(noise_normals[:, t], sigma_stage, out=tmp)
        return forecasts[:, :R], deficits

    def with_capacity(self, capacity: float) -> "Scenario":
        return replace(self, storage=replace(self.storage, capacity=capacity))

    def with_d_total(self, d_total: float) -> "Scenario":
        """Same scenario at a different mean deficit (flat per-stage profile)."""
        return replace(self, d_hat_stage=np.full(self.T, float(d_total) / self.T))


def validate_ladder(ladder: MarketLadder, cost: CostModel | None = None) -> list[str]:
    """Check the ladder's price and lead-time rules.

    Lead times fall strictly toward delivery, and so do sell prices; buy
    prices rise strictly, and every sell price lies below every buy price
    (no arbitrage in either order).  Returns the list of violated
    constraints; an empty list means ok.
    Violations are data, not faults, so nothing raises here.
    """
    if ladder.n_stages == 0:
        return ["ladder must be nonempty"]
    violations: list[str] = []
    stages = ladder.stages
    buys = [s for s in stages if s.direction == BUY]
    sells = [s for s in stages if s.direction == SELL]
    if not buys:
        violations.append("ladder needs at least one buy stage")
    for s in stages:
        if not (math.isfinite(s.lead_time_hours) and math.isfinite(s.price)):
            violations.append(f"stage {s.index}: lead time and price must be finite")
        if s.direction not in (BUY, SELL):
            violations.append(f"stage {s.index}: direction must be 'buy' or 'sell'")
        if s.direction == BUY and s.price <= 0:
            violations.append(f"stage {s.index}: buy price must be positive, got {s.price}")
    for a, b in zip(stages, stages[1:]):
        if not a.lead_time_hours > b.lead_time_hours:
            violations.append(f"stages {a.index}<{b.index}: lead times must strictly decrease")
    for a, b in zip(buys, buys[1:]):
        if not a.price < b.price:
            violations.append(f"stages {a.index}<{b.index}: buy prices must increase "
                              f"toward delivery ({a.price} !< {b.price})")
    for a, b in zip(sells, sells[1:]):
        if not a.price > b.price:
            violations.append(f"stages {a.index}<{b.index}: sell prices must decrease "
                              f"toward delivery ({a.price} !> {b.price})")
    if buys and sells:
        sell, buy = max(s.price for s in sells), min(s.price for s in buys)
        if not sell < buy:
            violations.append(f"no-arbitrage requires the highest sell price {sell} "
                              f"< the lowest buy price {buy}")
    if cost is not None:
        top = max(s.price for s in stages)
        if not cost.voll > top:
            violations.append(
                f"voll {cost.voll} must exceed the highest ladder price {top}; "
                "otherwise no threshold solves the stage equation"
            )
    return violations


def number(key: str, value) -> float:
    """``value`` as a float, or a ParseError naming ``key``."""
    try:   # a JSON boolean is not a number: float(None) refuses it
        return float(None if isinstance(value, bool) else value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{key}: not a number: {value!r}") from exc


def load_curve(path: str | Path) -> ForecastErrorCurve:
    """Read a forecast error curve CSV with header ``horizon_hours,sigma``."""
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if not {"horizon_hours", "sigma"} <= set(reader.fieldnames or ()):
                raise ParseError(f"{path}: curve CSV must have columns horizon_hours,sigma; "
                                 f"got {reader.fieldnames}")
            # a short row's missing cell is None, which is not a number
            rows = [tuple(number(f"{path} line {reader.line_num}: {key}", row[key])
                          for key in ("horizon_hours", "sigma")) for row in reader]
    except (OSError, ValueError, csv.Error) as exc:   # undecodable text is a ValueError
        raise ParseError(f"{path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: curve CSV has no data rows")
    return ForecastErrorCurve.from_table(rows)


def scenario_from_dict(doc: dict, base_dir: str | Path = ".") -> Scenario:
    """Read a Scenario from a parsed JSON document; the Scenario validates itself."""

    def need(key):
        if key not in doc:
            raise ParseError(f"scenario: missing required field '{key}'")
        return doc[key]

    ladder_rows = need("ladder")
    if not isinstance(ladder_rows, list) or not ladder_rows:
        raise ParseError("ladder: must be a nonempty list of stages")
    try:
        ladder = MarketLadder.from_rows(
            (number(f"ladder[{i}].lead_time_hours", row["lead_time_hours"]),
             number(f"ladder[{i}].price", row["price"]), row.get("direction", BUY))
            for i, row in enumerate(ladder_rows)
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"ladder: malformed stage entry: {exc}") from exc

    cost = CostModel(voll=number("voll", need("voll")))

    st = need("storage")
    try:
        storage = StorageSpec(
            capacity=number("storage.B", st["B"]),
            storage_eff=number("storage.lambda", st.get("lambda", 1.0)),
            recharge_eff=number("storage.mu", st.get("mu", 1.0)),
            discharge_eff=number("storage.nu", st.get("nu", 1.0)),
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"storage: malformed block: {exc}") from exc

    t_doc = need("T")
    if isinstance(t_doc, bool) or not number("T", t_doc).is_integer():
        raise ParseError(f"T: not an integer: {t_doc!r}")
    n_stages = int(float(t_doc))

    d_hat = need("d_hat")
    if isinstance(d_hat, list):
        d_stage = np.array([number("d_hat", v) for v in d_hat])
    else:   # the interval total, spread evenly (a T out of range leaves it empty)
        d_stage = np.full(n_stages if 1 <= n_stages <= MAX_T else 0,
                          number("d_hat", d_hat)) / n_stages

    if "curve" in doc:
        try:
            curve = ForecastErrorCurve.from_table(
                (number("curve", h), number("curve", s)) for h, s in doc["curve"])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"curve: rows must be [horizon_hours, sigma] pairs: {exc}") from exc
    elif isinstance(doc.get("curve_file"), str):
        curve = load_curve(Path(base_dir) / doc["curve_file"])
    else:
        raise ParseError(f"curve_file: not a file name: {need('curve_file')!r}")

    return Scenario(
        ladder=ladder,
        storage=storage,
        cost=cost,
        curve=curve,
        n_delivery_stages=n_stages,
        d_hat_stage=d_stage,
        mean_share=number("mean_share", doc.get("mean_share", 0.2)),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Load, parse and validate a scenario JSON file."""
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return scenario_from_dict(doc, base_dir=path.parent)
