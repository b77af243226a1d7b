"""Every function that perfbench/tracer.py patches by name must exist in rld.

``perfbench/run.py --trace 1`` replaces each (module, name) pair of
``TRACED``; a rename or deletion in ``src`` would crash it, so the pairs
are checked here.  The tracer module is loaded from its file, unchanged.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_pairs():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return [(layer, name) for layer, name, _ in module.TRACED]


@pytest.mark.parametrize("layer, name", traced_pairs())
def test_traced_name_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"rld.{layer}"), name, None))
