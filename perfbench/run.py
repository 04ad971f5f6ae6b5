#!/usr/bin/env python3
"""escontrol benchmark: one workload run, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is driven from outside
through ``escontrol.harness.run_experiment`` (the path ``esctl run`` takes)
in fresh interpreters that import the checkout's ``src``:

* set-up: SETUP_PROBES interpreters each start the workload's first call
  and stop at its first episode. Each probe is followed by a baseline
  interpreter that only imports the libraries escontrol imports, and its
  time is divided by the mean of the baselines on either side of it;
  ``setup_s`` is the median ratio times BASELINE_REFERENCE_S (see
  measure_setup);
* the run: one interpreter runs whole rounds of the workload for S seconds
  (see workloads.py); with --trace 1 it alternates untraced and traced
  rounds.

Afterwards every call of every round is checked against the independent
references (checks.py). The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (calls), and ``metrics``
-- the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Artifacts of the first round and the spans of a traced run stay
in perfbench/out/<workload>/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 11
# The baseline interpreter of the set-up probes: fixed work of the same kind
# as escontrol's set-up (starting Python and importing numpy, SciPy and
# PyYAML from their compiled files), which no change to escontrol can move.
BASELINE_CODE = ("import time, numpy, scipy.linalg, scipy.special, yaml; "
                 "print(time.monotonic())")
# The baseline's median time on the 2-core reference host (README.md).
BASELINE_REFERENCE_S = 0.40
PROBE_TIMEOUT_S = 60
RUN_TIMEOUT_MARGIN_S = 120


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _worker(mode: str, args, out: Path, timeout: float) -> dict:
    result = out / f"{mode}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out), "--result", str(result)]
    subprocess.run(cmd, env=_child_env(), cwd=ROOT, check=True, timeout=timeout,
                   stdout=subprocess.DEVNULL)
    return json.loads(result.read_text())


def _baseline_seconds() -> float:
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", BASELINE_CODE], env=_child_env(),
                          cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S,
                          capture_output=True, text=True)
    return float(proc.stdout.split()[-1]) - started


def measure_setup(args, out: Path) -> list[float]:
    """Set-up times of SETUP_PROBES fresh interpreters on the reference host.

    The host's speed drifts by tens of percent from one second to the next,
    and a probe is mostly interpreter start-up and library imports. So each
    probe's time is divided by the mean time of the baseline interpreters
    run just before and just after it, which do the same kind of work, and
    scaled to the baseline's time on the reference host.
    """
    times, before = [], _baseline_seconds()
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        res = _worker("setup", args, out, PROBE_TIMEOUT_S)
        probe = res["first_episode_monotonic"] - started
        after = _baseline_seconds()
        times.append(probe * BASELINE_REFERENCE_S / ((before + after) / 2.0))
        before = after
    shutil.rmtree(out / "setup", ignore_errors=True)
    return times


def _artifacts(out_dir: Path) -> dict:
    """File contents of one call's output directory; summary.json without
    its wall time, the one field that differs between identical runs."""
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}
    if "summary.json" in files:
        summary = json.loads(files["summary.json"])
        summary.pop("wall_time_s", None)
        files["summary.json"] = json.dumps(summary, sort_keys=True).encode()
    return files


def check_rounds(workload: workloads.Workload, rounds: list[dict]) -> dict:
    """Check every call of every round.

    Episodes to target are summed over the first round's calls; a call
    that raises or misses its gap counts n_iterations + 1.

    The first round's calls are checked against the references. A later
    round's call must leave artifacts identical to the first round's; then
    it passes exactly the checks the first round's call passed, since the
    checks read nothing else. Otherwise it is checked in full as well.
    """
    problem_of = {c.scenario: reference.load_problem(ROOT / c.scenario_path)
                  for c in workload.calls}
    tally = {"raised": 0, "wrong": 0, "episodes": 0, "report": []}
    first: list = [None] * len(workload.calls)   # (artifacts, problems) of round 0
    for r, entry in enumerate(rounds):
        for i, (call, res) in enumerate(zip(workload.calls, entry["calls"])):
            where = f"round {r} {call.label}"
            if res["error"] is not None:
                tally["raised"] += 1
                tally["report"].append(f"{where}: raised\n{res['error']}")
                if r == 0:
                    tally["episodes"] += call.n_iterations + 1
                continue
            out_dir = Path(res["out_dir"])
            artifacts = _artifacts(out_dir)
            if first[i] is not None and artifacts == first[i][0]:
                problems = first[i][1]
            else:
                out = checks.RunOutput.load(out_dir)
                count, problems = checks.check_run(problem_of[call.scenario], out,
                                                   call.target_gap)
                if out.summary["seed"] != call.noise_seed:
                    problems.append(f"summary seed {out.summary['seed']} != "
                                    f"{call.noise_seed}")
                if r == 0:
                    first[i] = (artifacts, problems)
                    # a call that misses its gap counts its full length,
                    # so a miss can never lower the metric
                    tally["episodes"] += (call.n_iterations + 1 if count is None
                                          else count)
                elif first[i] is not None:
                    problems = problems + ["artifacts differ from round 0"]
            if problems:
                tally["wrong"] += 1
                tally["report"].extend(f"{where}: {p}" for p in problems)
    return tally


def _run_seconds(rounds: list[dict]) -> float:
    """Sum over the workload's calls of each call's median rescaled time
    over ``rounds``: a call slowed by the host in one round and another
    call in the next do not both reach the result."""
    return sum(statistics.median(r["calls"][i]["rescaled_s"] for r in rounds)
               for i in range(len(rounds[0]["calls"])))


def end_to_end(run: dict, setup_times: list[float], episodes: int, out: Path) -> dict:
    first = out / "r00"
    artifact_bytes = sum(p.stat().st_size for p in first.rglob("*") if p.is_file())
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (_run_seconds(run["rounds"]), "s"),
        "episodes_to_target": (episodes, "count"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "artifact_mb": (artifact_bytes / 1e6, "MB"),
    }


def per_layer(run: dict) -> dict:
    traced = [r for r in run["rounds"] if r["traced"]]
    plain = [r for r in run["rounds"] if not r["traced"]]
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = (statistics.median(
            r["layers"][name]["calls"] for r in traced), "count")
        # self times rescaled like run_s, by the round's host speed
        metrics[f"{name}.self_s"] = (statistics.median(
            r["layers"][name]["self_s"] * r["run_s"] / r["wall_s"] for r in traced), "s")
        metrics[f"{name}.failures"] = (statistics.median(
            r["layers"][name]["failures"] for r in traced), "count")
    for name, unit in zip(spans.COUNTERS, ("MB", "count", "B")):
        metrics[name] = (statistics.median(r["counters"][name] for r in traced), unit)
    metrics["trace.overhead_s"] = (_run_seconds(traced) - _run_seconds(plain), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "escontrol" / "__init__.py").is_file():
        print(f"no escontrol sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed)
    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    setup_times = [] if args.trace else measure_setup(args, out)
    run = _worker("run", args, out, args.seconds + RUN_TIMEOUT_MARGIN_S)
    tally = check_rounds(workload, run["rounds"])
    for line in tally["report"]:
        print(line, file=sys.stderr)
    for index in range(1, len(run["rounds"])):
        shutil.rmtree(out / f"r{index:02d}", ignore_errors=True)

    metrics = (per_layer(run) if args.trace
               else end_to_end(run, setup_times, tally["episodes"], out))
    print(json.dumps({
        "correct": tally["wrong"] == 0,
        "attempted": sum(len(r["calls"]) for r in run["rounds"]),
        "failed": tally["raised"] + tally["wrong"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
