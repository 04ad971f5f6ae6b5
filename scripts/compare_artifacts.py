#!/usr/bin/env python3
"""Compare the artifacts of two source trees of this repository.

    python3 scripts/compare_artifacts.py PARENT CHANGE

For every shipped scenario of each tree, runs ``esctl run --iters 300
--seed 7``, ``esctl run --iters 2100 --seed 7`` and ``esctl oracle`` with
that tree's ``src`` on the import path. 300 iterations fit in one 1 024-row
block of iterations.csv, which is written inline; 2 100 span three, which a
writer process beside the ES loop formats. It then compares the two sides
file by file:

- a CSV prints "identical", or its largest relative difference: over every
  numeric column, the largest |parent - change| divided by the column's
  largest magnitude;
- a summary.json prints the keys whose values differ, other than
  ``wall_time_s`` and ``scenario_path``, with the relative difference of
  two floats, or "identical".

Exits 1 if a run fails or a file exists on one side only, else 0.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = {"run": ["run", "--iters", "300", "--seed", "7"],
            "run-2100": ["run", "--iters", "2100", "--seed", "7"], "oracle": ["oracle"]}
IGNORED_SUMMARY_KEYS = {"wall_time_s", "scenario_path"}


def run_tree(tree: Path, out: Path) -> list[str]:
    """Run every command on every shipped scenario of ``tree`` into ``out``;
    returns the failures."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    failures = []
    for scenario in sorted((tree / "src" / "escontrol" / "scenarios").glob("*.scn")):
        for name, args in COMMANDS.items():
            target = out / scenario.stem / name
            done = subprocess.run(
                [sys.executable, "-m", "escontrol.cli", *args, "--scenario", str(scenario),
                 "--out", str(target)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            if done.returncode != 0:
                failures.append(f"{tree}: {scenario.stem} {name} exited {done.returncode}: "
                                f"{done.stderr.strip()[-300:]}")
    return failures


def _flat_items(value, prefix=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _flat_items(item, f"{prefix}{key}.")
    else:
        yield prefix[:-1], value


def compare_summary(parent: Path, change: Path) -> str:
    old = dict(_flat_items(json.loads(parent.read_text())))
    new = dict(_flat_items(json.loads(change.read_text())))
    differ = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if key.split(".")[0] in IGNORED_SUMMARY_KEYS or a == b:
            continue
        if isinstance(a, float) and isinstance(b, float):
            key += f" ({abs(a - b) / max(abs(a), abs(b)):.3g} relative)"
        differ.append(key)
    return "identical" if not differ else "differs in " + ", ".join(differ)


def compare_csv(parent: Path, change: Path) -> str:
    if parent.read_bytes() == change.read_bytes():
        return "identical"
    with parent.open(newline="") as f:
        old = list(csv.reader(f))
    with change.open(newline="") as f:
        new = list(csv.reader(f))
    if old[0] != new[0] or len(old) != len(new):
        return (f"different shape: {len(old) - 1} rows of {len(old[0])} columns "
                f"against {len(new) - 1} rows of {len(new[0])}")
    worst, where = 0.0, None
    for j, column in enumerate(old[0]):
        try:
            a = [float(row[j]) for row in old[1:]]
            b = [float(row[j]) for row in new[1:]]
        except ValueError:
            if any(x[j] != y[j] for x, y in zip(old[1:], new[1:])):
                return f"text differs in column {column!r}"
            continue
        scale = max(max(map(abs, a), default=0.0), max(map(abs, b), default=0.0))
        diff = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
        relative = diff / scale if scale > 0.0 else 0.0
        if diff > 0.0 and (where is None or relative > worst):
            worst, where = relative, column
    if where is None:
        return "bytes differ, values equal"
    return f"largest relative difference {worst:.3g} (column {where!r})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent tree")
    parser.add_argument("change", type=Path, help="root of the changed tree")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        outs = {side: Path(tmp) / side for side in ("parent", "change")}
        failures = run_tree(args.parent.resolve(), outs["parent"]) + \
            run_tree(args.change.resolve(), outs["change"])
        files = {side: {p.relative_to(out) for p in out.rglob("*") if p.is_file()}
                 for side, out in outs.items()}
        for rel in sorted(files["parent"] | files["change"]):
            if rel not in files["parent"] or rel not in files["change"]:
                side = "parent" if rel in files["parent"] else "change"
                failures.append(f"{rel}: only on the {side} side")
                continue
            old, new = outs["parent"] / rel, outs["change"] / rel
            if rel.suffix == ".csv":
                print(f"{rel}: {compare_csv(old, new)}")
            elif rel.name == "summary.json":
                print(f"{rel}: {compare_summary(old, new)}")
            else:
                same = old.read_bytes() == new.read_bytes()
                print(f"{rel}: {'identical' if same else 'differs'}")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
