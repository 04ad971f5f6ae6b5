"""The benchmark under perfbench/ wraps escontrol functions by name: its
tracer wraps every (layer, name) in ``spans.LAYERS``, and its set-up probe
patches ``scenario.run_episode`` and ``scenario.run_multi_episode``. A
rename in the package must fail here, not as a crashed traced run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooks():
    layers = _load_spans().LAYERS
    traced = [(layer, name) for layer, names in layers.items() for name in names]
    probed = [("scenario", "run_episode"), ("scenario", "run_multi_episode")]
    return traced + [hook for hook in probed if hook not in traced]


@pytest.mark.parametrize("layer, name", _hooks(), ids=str)
def test_benchmark_hook_resolves_to_a_callable(layer, name):
    target = importlib.import_module(f"escontrol.{layer}")
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)
