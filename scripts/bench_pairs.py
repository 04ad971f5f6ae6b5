#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark on one workload.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seeds A-B --out BENCH_n.json

PARENT and CHANGE are roots of two source trees of this repository, best
fresh copies side by side in one directory. For every seed N from A to B,
runs ``python3 perfbench/run.py --workload W --seed N --seconds 20 --trace
0`` in both trees, the parent first on odd seeds and the change first on
even ones. It only reads what perfbench writes, and changes nothing in
either tree but perfbench's own output directory.

Each run keeps its result line (the last line perfbench prints) and adds,
from its ``perfbench/out/W/run.json``:

- ``raw_s``: the sum over the workload's calls of each call's median raw
  time over the rounds, ``wall_s - sampler_s`` (not divided by host speed);
- ``in_call_kernel_ms``: the mean of the host-speed kernel samples taken
  inside the calls, and ``edge_kernel_ms`` that of the samples taken
  between them. ``run_s`` is rescaled by both, so a change that slows the
  kernel inside a call (say, by page faults after a fork) shows up here.

Writes the pairs and a summary per metric (medians, the parent's quartiles,
the pairs in which the change is lower) to the ``--out`` file, in the
layout of the repository's BENCH_<n>.json files; an existing file keeps its
other workloads and keys. Prints the summary. Exits 1 if a run failed.
"""
from __future__ import annotations

import argparse
import datetime
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in ``tree``: its result line plus the raw times
    and kernel samples of its run.json."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    rounds = json.loads((tree / "perfbench" / "out" / workload / "run.json").read_text())["rounds"]
    calls = [[r["calls"][i] for r in rounds] for i in range(len(rounds[0]["calls"]))]
    result["raw_s"] = sum(statistics.median(c["wall_s"] - c["sampler_s"] for c in call)
                          for call in calls)
    inside = [k for call in calls for c in call for k in c["kernel_s"][1:-1]]
    edges = [k for call in calls for c in call for k in (c["kernel_s"][0], c["kernel_s"][-1])]
    result["in_call_kernel_ms"] = 1e3 * statistics.fmean(inside) if inside else None
    result["edge_kernel_ms"] = 1e3 * statistics.fmean(edges)
    return result


def _values(run: dict) -> dict:
    values = {name: m["value"] for name, m in run.get("metrics", {}).items()}
    values.update((key, run[key]) for key in ("raw_s", "in_call_kernel_ms", "edge_kernel_ms")
                  if run.get(key) is not None)
    return values


def summarize(pairs: list[dict]) -> dict:
    """Per metric over the pairs in which both runs succeeded: medians, the
    quartiles of each side and the pairs in which the change is lower."""
    ok = [p for p in pairs if all("error" not in p[side] for side in SIDES)]
    summary = {}
    names = list(_values(ok[0]["parent"])) if ok else []
    for name in names:
        per_side = {side: [_values(p[side])[name] for p in ok] for side in SIDES}
        old, new = per_side["parent"], per_side["change"]
        entry = {f"{side}_median": statistics.median(values)
                 for side, values in per_side.items()}
        for side, values in per_side.items():
            quartiles = (statistics.quantiles(values, n=4, method="inclusive")
                         if len(values) > 1 else values * 3)
            entry[f"{side}_quartiles"] = [quartiles[0], quartiles[2]]
        base = entry["parent_median"]
        entry["relative_change_of_median"] = \
            (entry["change_median"] - base) / base if base else None
        entry["change_lower_in_pairs"] = sum(b < a for a, b in zip(old, new))
        entry["equal_in_pairs"] = sum(b == a for a, b in zip(old, new))
        entry["pairs"] = len(ok)
        summary[name] = entry
    summary["correct_all"] = all(p[side].get("correct") is True for p in pairs for side in SIDES)
    summary["failed_total"] = {side: sum(p[side].get("failed", 0) for p in pairs)
                               for side in SIDES}
    summary["runs_that_raised"] = sum("error" in p[side] for p in pairs for side in SIDES)
    if "episodes_to_target" in names:
        summary["episodes_equal_pair_by_pair"] = \
            summary["episodes_to_target"]["equal_in_pairs"] == len(ok)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent tree")
    parser.add_argument("change", type=Path, help="root of the changed tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds, help="A-B, both included")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    pairs = []
    for seed in args.seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], args.workload, seed, args.seconds, args.trace)
        pairs.append(pair)
        print(f"seed {seed}: " + "; ".join(
            f"{side} {pair[side].get('error') or _values(pair[side])}" for side in SIDES),
              flush=True)

    record = json.loads(args.out.read_text()) if args.out.exists() else {
        "what": None,
        "command": "python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {args.seconds} --trace {args.trace}",
        "host": f"{platform.machine()} host, Python {platform.python_version()}",
        "parent": trees["parent"].name,
        "order": "odd seeds run the parent first, even seeds the change first",
        "checkouts": "both sides run from their own trees, passed as PARENT and CHANGE",
        "claim": None,
        "summary": {},
        "workloads": {},
    }
    summary = summarize(pairs)
    record["summary"][args.workload] = summary
    record["workloads"][args.workload] = {
        "trace": args.trace, "seconds": args.seconds,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "pairs": pairs}
    args.out.write_text(json.dumps(record, indent=1) + "\n")

    for name, entry in summary.items():
        if isinstance(entry, dict) and "pairs" in entry:
            change = entry["relative_change_of_median"]
            print(f"{args.workload} {name}: {entry['parent_median']:.6g} -> "
                  f"{entry['change_median']:.6g}"
                  + ("" if change is None else f" ({100 * change:+.1f}%)")
                  + f", lower in {entry['change_lower_in_pairs']} of {entry['pairs']}"
                  f" (parent quartiles {entry['parent_quartiles'][0]:.6g}"
                  f"-{entry['parent_quartiles'][1]:.6g})")
        else:
            print(f"{args.workload} {name}: {entry}")
    return 1 if summary["runs_that_raised"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
