import numpy as np
import pytest
from hypothesis import settings

from rld.model import ForecastModel, scenario_from_dict

# every run draws the same examples (and reads no example database), so a
# green run does not depend on the draw; a test's own @seed still wins
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

DEFAULT_CURVE = [
    [24, 0.040], [12, 0.033], [8, 0.029], [4, 0.0235],
    [2, 0.019], [1, 0.015], [0.5, 0.012], [0.25, 0.010],
]


def constant_forecast(n_stages, d_hat, sigma):
    """T stages that share one predicted deficit and one error std."""
    return ForecastModel(n_stages, np.full(n_stages, float(d_hat)),
                         np.full(n_stages, float(sigma)))


def make_scenario(T=60, B=0.001, d=0.4, prices=(52.0, 60.0, 72.0),
                  leads=(24.0, 1.0, 0.25), voll=1000.0, mean_share=0.2,
                  curve=None, efficiencies=(1.0, 1.0, 1.0)):
    doc = {
        "ladder": [
            {"lead_time_hours": lt, "price": p, "direction": "buy"}
            for lt, p in zip(leads, prices)
        ],
        "voll": voll,
        "storage": {
            "B": B,
            "lambda": efficiencies[0],
            "mu": efficiencies[1],
            "nu": efficiencies[2],
        },
        "T": T,
        "d_hat": d,
        "mean_share": mean_share,
        "curve": curve if curve is not None else DEFAULT_CURVE,
    }
    return scenario_from_dict(doc)


@pytest.fixture
def vi_scenario():
    """The shipped benchmark configuration."""
    return make_scenario()


@pytest.fixture
def small_scenario():
    """Cheap scenario for solver-path tests."""
    return make_scenario(T=6, B=0.02, d=0.3)
