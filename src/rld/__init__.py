"""Risk-limiting dispatch with fast-ramping storage.

The package root holds the library surface shown in the README plus the
domain, schedule and error types; everything else lives in its module.
"""

from .benchmark import BenchmarkRow, run_benchmark, sweep
from .ctapprox import ct_terminal_cost
from .dispatch import DegeneratePriceError, ThresholdSchedule, solve_thresholds_backward
from .lattice import lattice_terminal_cost, lattice_terminal_subgradient
from .model import (
    CostModel,
    ForecastErrorCurve,
    ForecastModel,
    MarketLadder,
    MarketStage,
    ParseError,
    Scenario,
    ScenarioError,
    StorageSpec,
    ValidationError,
    load_scenario,
    scenario_from_dict,
)

__version__ = "0.1.0"
