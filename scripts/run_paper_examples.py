#!/usr/bin/env python3
"""Reproduce every shipped scenario in its natural mode.

By default each scenario runs with its tuned, shipped iteration count
(the tracking and gain-synthesis runs take a few minutes each); pass
--scale 0.1 for a quick smoke pass at a tenth of the iterations.
"""
import argparse
import json

from escontrol.harness import ExperimentSpec, load_scenario, run_experiment, shipped_scenarios


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs", help="output root directory")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every scenario's iteration count")
    parser.add_argument("--only", default=None,
                        help="substring filter on scenario names")
    args = parser.parse_args()

    for path in shipped_scenarios():
        if args.only and args.only not in path.stem:
            continue
        overrides = {}
        if args.scale != 1.0:
            n_iterations = load_scenario(path).es_defaults["n_iterations"]
            overrides["es.n_iterations"] = str(max(10, int(n_iterations * args.scale)))
        print(f"== {path.stem}")
        summary = run_experiment(ExperimentSpec(
            scenario_path=str(path),
            out_dir=f"{args.out}/{path.stem}",
            overrides=overrides,
        ))
        print(json.dumps(summary.to_dict(), indent=2))


if __name__ == "__main__":
    main()
