"""Spans around the public functions escontrol's modules call one another
through, installed from outside the package.

A wrapped function records one span per call: its name, start, end, the
span open when it was called (its parent) and whether it raised. Spans stay
in memory (compact ``array`` columns) until the run ends. A span's self time
is its duration minus the durations of its direct children; children of one
span never overlap, because the program is single-threaded.

Wrapping replaces every binding of the function in every loaded escontrol
module (``from .ode import propagate_linear`` copies the name into the
importing module), and wraps class methods on the class itself.
"""
from __future__ import annotations

import importlib
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = {
    "ode": ("propagate_linear", "rk4_step_forcing", "prefix_transitions",
            "rk4_step_matrices", "integrate_rk4"),
    "basis": ("controller_samples", "ControllerCoefficients.from_flat"),
    "scenario": ("run_episode", "cost_of_trajectory", "run_multi_episode",
                 "cost_of_trajectories", "NoiseModel.draw"),
    "es": ("es_step", "run_es"),
    "feedback": ("run_feedback_episodes", "GainField.from_flat", "synthesize_gain"),
    "lqr": ("scenario_oracle", "oracle_costs"),
    "harness": ("load_scenario", "build_scenario", "es_config_for",
                "write_iterations_csv", "write_csv", "run_experiment"),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)

# counters derived from call arguments and results rather than from timing
COUNTERS = ("es.coefficient_history_mb", "harness.csv_cells", "harness.bytes_written")


def _replace_everywhere(original, replacement, patches: list) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "escontrol" and not mod_name.startswith("escontrol."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patches.append((mod, attr, original))


def patch_functions(targets, make_wrapper) -> list:
    """Replace each ``(layer, name)`` in ``targets`` by ``make_wrapper(span, fn)``.

    Returns the patch list for :func:`unpatch`.
    """
    patches: list = []
    for layer, name in targets:
        mod = importlib.import_module(f"escontrol.{layer}")
        span = f"{layer}.{name}"
        if "." in name:
            cls_name, meth = name.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make_wrapper(span, raw.__func__))
            else:
                wrapped = make_wrapper(span, raw)
            setattr(cls, meth, wrapped)
            patches.append((cls, meth, raw))
        else:
            original = getattr(mod, name)
            _replace_everywhere(original, make_wrapper(span, original), patches)
    return patches


def unpatch(patches: list) -> None:
    for obj, attr, original in reversed(patches):
        setattr(obj, attr, original)


class Tracer:
    """In-memory span recorder with per-span counters."""

    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.failed = array("b")
        # host-speed samples taken inside spans (hostspeed.Sampler): their
        # time is not charged to the span they interrupted
        self.pause_parents = array("i")
        self.pause_starts = array("d")
        self.pause_ends = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self._stack = [-1]
        self._patches: list = []

    def _wrap(self, span: str, fn):
        name_id = self.name_ids[span]
        names, parents, starts, ends, failed = (self.names, self.parents, self.starts,
                                                self.ends, self.failed)
        stack = self._stack
        before, after = self._observers().get(span, (None, None))

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            failed.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observers(self):
        """(before, after) hooks per span that feed the counters."""
        counters = self.counters

        def history_size(_args, record):
            arrays = (record.coefficients, record.costs, record.measured_costs)
            counters["es.coefficient_history_mb"] += sum(a.nbytes for a in arrays) / 1e6

        def count_cells(args):
            path, header, rows = args
            width = len(header)

            def counted():
                for row in rows:
                    counters["harness.csv_cells"] += width
                    yield row

            counters["harness.csv_cells"] += width
            return path, header, counted()

        def file_size(args, _result):
            counters["harness.bytes_written"] += os.path.getsize(args[0])

        return {"es.run_es": (None, history_size),
                "harness.write_csv": (count_cells, file_size)}

    def record_pause(self, start: float, end: float) -> None:
        """Note time spent outside escontrol while the span on top of the
        stack was open. Called from a signal handler, so it touches only
        the pause columns, never the span columns mid-update."""
        self.pause_parents.append(self._stack[-1])
        self.pause_starts.append(start)
        self.pause_ends.append(end)

    def install(self) -> None:
        targets = [(layer, name) for layer, names in LAYERS.items() for name in names]
        self._patches = patch_functions(targets, self._wrap)

    def uninstall(self) -> None:
        unpatch(self._patches)
        self._patches = []

    def mark(self) -> int:
        """Index of the next span; spans from a mark on form one slice."""
        return len(self.starts)

    def summary(self, begin: int = 0) -> dict:
        """calls, self_s and failures per span name over the spans from
        ``begin`` on."""
        end = len(self.starts)
        # slicing an array copies it, so no buffer stays exported and the
        # recorder can keep appending
        names = np.frombuffer(self.names[begin:end], dtype=np.int32)
        parents = np.frombuffer(self.parents[begin:end], dtype=np.int32)
        dur = (np.frombuffer(self.ends[begin:end], dtype=np.float64)
               - np.frombuffer(self.starts[begin:end], dtype=np.float64))
        failed = np.frombuffer(self.failed[begin:end], dtype=np.int8)
        child = np.zeros_like(dur)
        inside = parents >= begin
        np.add.at(child, parents[inside] - begin, dur[inside])
        starts = np.frombuffer(self.starts[begin:end], dtype=np.float64)
        p_parent = np.frombuffer(self.pause_parents, dtype=np.int32) - begin
        p_start = np.frombuffer(self.pause_starts, dtype=np.float64)
        p_end = np.frombuffer(self.pause_ends, dtype=np.float64)
        ok = (p_parent >= 0) & (p_parent < dur.shape[0])
        p_parent, p_start, p_end = p_parent[ok], p_start[ok], p_end[ok]
        # a pause counts against a span only if it fell inside its interval
        within = (p_start >= starts[p_parent]) & (p_end <= starts[p_parent] + dur[p_parent])
        np.add.at(child, p_parent[within], (p_end - p_start)[within])
        self_time = dur - child
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_time, minlength=k)
        fails = np.bincount(names, weights=failed, minlength=k)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                       "failures": int(fails[i])}
                for i, name in enumerate(SPAN_NAMES)}

    def save(self, path) -> None:
        """Write every recorded span (name index, parent index, start, end,
        failed; ``span_names`` maps name indices to names) and every pause."""
        np.savez_compressed(
            path, span_names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.names, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
            pause_parent=np.frombuffer(self.pause_parents, dtype=np.int32),
            pause_start=np.frombuffer(self.pause_starts, dtype=np.float64),
            pause_end=np.frombuffer(self.pause_ends, dtype=np.float64))
