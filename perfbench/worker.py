"""Child process of the benchmark: one fresh interpreter per workload run.

    worker.py setup --workload W --seed N --out DIR --result FILE
        Starts the workload's first call and stops it at its first episode;
        writes the CLOCK_MONOTONIC time of that episode.
    worker.py run --workload W --seed N --seconds S --trace 0|1 --out DIR --result FILE
        Runs whole rounds of the workload until S seconds have passed. With
        --trace 1 the rounds alternate untraced and traced (at least one of
        each), and the spans are written to DIR/spans.npz at the end.

escontrol is imported from the checkout's ``src`` directory, never from an
installed copy.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import escontrol  # noqa: E402
from escontrol import harness  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

if Path(escontrol.__file__).resolve().parent != ROOT / "src" / "escontrol":
    raise SystemExit(f"escontrol imported from {escontrol.__file__}, not from {ROOT / 'src'}")


def _spec(call: workloads.Call, out_dir: Path) -> harness.ExperimentSpec:
    return harness.ExperimentSpec(scenario_path=str(ROOT / call.scenario_path),
                          n_iterations=call.n_iterations, seed=call.noise_seed,
                          out_dir=str(out_dir))


class _FirstEpisode(Exception):
    pass


def setup(workload: workloads.Workload, out: Path) -> dict:
    """Run the first call up to its first episode."""
    seen = {}

    def stop_at_first(_span, _fn):
        def hook(*_args, **_kwargs):
            seen["t"] = time.monotonic()
            raise _FirstEpisode

        return hook

    spans.patch_functions([("scenario", "run_episode"), ("scenario", "run_multi_episode")],
                          stop_at_first)
    try:
        harness.run_experiment(_spec(workload.calls[0], out / "setup"))
    except _FirstEpisode:
        return {"first_episode_monotonic": seen["t"]}
    raise RuntimeError("the first call finished without running an episode")


def run(workload: workloads.Workload, seconds: float, traced: bool, out: Path) -> dict:
    # imported here, not at the top, so that a set-up probe loads no
    # benchmark code (hostspeed pulls in reference and scipy.integrate)
    # before its first episode
    import hostspeed

    tracer = spans.Tracer() if traced else None
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        index = len(rounds)
        tracing = traced and index % 2 == 1
        if tracing:
            counters_before = dict(tracer.counters)
            mark = tracer.mark()
            tracer.install()
        calls = []
        before = hostspeed.kernel_seconds()
        for call in workload.calls:
            out_dir = out / f"r{index:02d}" / call.label
            error = None
            sampler = hostspeed.Sampler(tracer.record_pause if tracing else None)
            started = time.perf_counter()
            with sampler:
                try:
                    # through the module, so that a traced round sees the call
                    harness.run_experiment(_spec(call, out_dir))
                except Exception:  # one failed operation; the round goes on
                    error = traceback.format_exc(limit=4)
            wall = time.perf_counter() - started
            after = hostspeed.kernel_seconds()
            kernels = [before, *sampler.samples, after]
            calls.append({"label": call.label, "out_dir": str(out_dir), "error": error,
                          "wall_s": wall, "sampler_s": sampler.busy_s, "kernel_s": kernels,
                          "rescaled_s": hostspeed.rescale(wall, sampler.busy_s, kernels)})
            before = after
        entry = {"traced": tracing, "run_s": sum(c["rescaled_s"] for c in calls),
                 "wall_s": sum(c["wall_s"] - c["sampler_s"] for c in calls),
                 "calls": calls}
        if tracing:
            tracer.uninstall()
            entry["layers"] = tracer.summary(mark)
            entry["counters"] = {k: tracer.counters[k] - counters_before[k]
                                 for k in tracer.counters}
        rounds.append(entry)
        if time.perf_counter() >= deadline and (not traced or len(rounds) >= 2):
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced:
        tracer.save(out / "spans.npz")
    return {"rounds": rounds, "peak_rss_mb": peak_kib * 1024 / 1e6}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    workload = workloads.build(args.workload, args.seed)
    out = Path(args.out)
    if args.mode == "setup":
        result = setup(workload, out)
    else:
        result = run(workload, args.seconds, bool(args.trace), out)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
