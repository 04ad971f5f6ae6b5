#!/usr/bin/env python3
"""Reference figures for perfbench/README.md; not part of the gated benchmark.

    python3 perfbench/episode_times.py
        time per episode of every shipped scenario: one `run_experiment`
        call of ITERATIONS iterations each, wall time / iterations
    python3 perfbench/episode_times.py --full feedback_2d
        one shipped scenario at its shipped length: wall time, peak RSS,
        iterations.csv size and the relative gap to J*

Each measurement runs in its own interpreter, so the peak RSS is that
run's. Outputs go to perfbench/out/episode_times/ and are deleted after
they are measured.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "episode_times"
ITERATIONS = 2000

_CHILD = """
import json, resource, sys, time
from pathlib import Path
from escontrol.harness import ExperimentSpec, run_experiment
path, iters, out = sys.argv[1], sys.argv[2], Path(sys.argv[3])
started = time.perf_counter()
summary = run_experiment(ExperimentSpec(scenario_path=path, out_dir=str(out),
                                        n_iterations=int(iters) if iters != "-" else None))
print(json.dumps({
    "wall_s": time.perf_counter() - started,
    "iterations": summary.iterations,
    "relative_gap": summary.relative_gap,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    "iterations_csv_mb": (out / "iterations.csv").stat().st_size / 1e6,
}))
"""


def measure(scenario: Path, iters: str) -> dict:
    out = OUT / scenario.stem
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(scenario), iters, str(out)],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          check=True, capture_output=True, text=True)
    shutil.rmtree(out, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--full", default=None, metavar="SCENARIO")
    args = parser.parse_args()
    scenarios = sorted((ROOT / "src" / "escontrol" / "scenarios").glob("*.scn"))
    if args.full:
        res = measure(next(p for p in scenarios if p.stem == args.full), "-")
        print(json.dumps({"scenario": args.full, **res}))
        return 0
    for path in scenarios:
        res = measure(path, str(ITERATIONS))
        print(f"{path.stem:26s} {1e6 * res['wall_s'] / res['iterations']:8.0f} us/episode "
              f"({res['iterations']} iterations, {res['wall_s']:.2f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
