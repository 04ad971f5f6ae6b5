"""The benchmark under perfbench/ wraps escontrol functions by name: its
tracer wraps every (layer, name) in ``spans.LAYERS``, and its set-up probe
patches ``scenario.run_episode`` and ``scenario.run_multi_episode``. A
rename in the package must fail here, not as a crashed traced run."""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from escontrol import feedback, harness

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


def test_traced_runs_feed_the_benchmark_observers(tmp_path, monkeypatch):
    # the tracer's observers read what run_es returns on run_experiment's
    # path (es.coefficient_history_mb) and unpack write_csv's (path, header,
    # rows) (harness.csv_cells, harness.bytes_written)
    records, csv_calls = [], []

    def returned_records(fn):
        def spy(*args, **kwargs):
            records.append(fn(*args, **kwargs))
            return records[-1]
        return spy

    def csv_arguments(fn):
        def spy(*args, **kwargs):
            csv_calls.append((args, kwargs))
            return fn(*args, **kwargs)
        return spy

    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        for module in (harness, feedback):
            monkeypatch.setattr(module, "run_es", returned_records(module.run_es))
        monkeypatch.setattr(harness, "write_csv", csv_arguments(harness.write_csv))
        for name in ("example3_tracking", "feedback_2d"):
            harness.run_experiment(harness.ExperimentSpec(
                scenario_path=str(harness.scenarios_dir() / f"{name}.scn"),
                n_iterations=100, out_dir=str(tmp_path / name),
                overrides={"grid.n_steps": "60"}))
    finally:
        monkeypatch.undo()  # before the tracer restores what it wrapped
        tracer.uninstall()

    assert len(records) == 2
    arrays = [getattr(record, name) for record in records
              for name in ("coefficients", "costs", "measured_costs")]
    assert all(isinstance(a, np.ndarray) for a in arrays)
    assert tracer.counters["es.coefficient_history_mb"] == \
        pytest.approx(sum(a.nbytes for a in arrays) / 1e6)

    assert all(len(args) == 3 and not kwargs for args, kwargs in csv_calls)
    written = [Path(args[0]) for args, _ in csv_calls]
    assert {p.name for p in written} == {"iterations.csv", "trajectory.csv", "gains.csv"}
    cells = sum(len(line.split(",")) for p in written for line in p.read_text().splitlines())
    assert tracer.counters["harness.csv_cells"] == cells
    assert tracer.counters["harness.bytes_written"] == sum(p.stat().st_size for p in written)
    run_es = tracer.summary()["es.run_es"]
    assert (run_es["calls"], run_es["failures"]) == (2, 0)
