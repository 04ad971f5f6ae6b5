"""Command-line entry point.

    esctl run      --scenario FILE [--iters N] [--seed S] [--out DIR] [--override k=v ...]
    esctl oracle   --scenario FILE [--out DIR] [--override k=v ...]
    esctl compare  --scenario FILE [--iters N] [--seed S] [--out DIR] [--override k=v ...]
    esctl list-scenarios [--dir EXTRA_DIR]

``run`` dispatches to open-loop ES or feedback synthesis depending on the
scenario's ``feedback`` flag. Output directory defaults to
$ESCONTROL_OUTPUT_DIR/<scenario>-<mode> (or ./runs/...; the file stem names
a scenario that cannot be loaded). Module errors exit nonzero after writing
a machine-readable error.json there, with the ES iteration, integrator step
or Riccati node of the failure when it has one.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import yaml

from .errors import EsControlError
from .harness import ExperimentSpec, output_dir, run_experiment, shipped_scenarios


def _add_common(parser: argparse.ArgumentParser, with_iters: bool):
    parser.add_argument("--scenario", required=True, help="scenario file path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario's noise seed")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a scenario config entry by dotted path, "
                             "e.g. --override es.omega0=1600")
    if with_iters:
        parser.add_argument("--iters", type=int, default=None,
                            help="number of ES iterations")


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--override expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key] = value
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esctl",
        description="Extremum-seeking controller synthesis experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("run", help="run ES on a scenario"), with_iters=True)
    _add_common(sub.add_parser("oracle", help="analytic oracle only"), with_iters=False)
    _add_common(sub.add_parser("compare", help="ES run plus oracle comparison"),
                with_iters=True)
    list_p = sub.add_parser("list-scenarios", help="list shipped scenario files")
    list_p.add_argument("--dir", default=None, help="additional directory to scan")
    return parser


def _list_scenarios(extra_dir: str | None) -> int:
    paths = list(shipped_scenarios())
    if extra_dir:
        paths.extend(sorted(Path(extra_dir).glob("*.scn")))
    for path in paths:
        description = ""
        try:
            cfg = yaml.safe_load(path.read_text())
            description = (cfg or {}).get("description", "")
        except Exception:
            description = "(unreadable)"
        print(f"{path.stem:28s} {path}  {description}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-scenarios":
        return _list_scenarios(args.dir)

    mode = {"run": None, "oracle": "oracle-only", "compare": "compare"}[args.command]
    spec = ExperimentSpec(
        scenario_path=args.scenario,
        mode=mode,
        n_iterations=getattr(args, "iters", None),
        seed=args.seed,
        out_dir=args.out,
        overrides=_parse_overrides(args.override),
    )
    try:
        summary = run_experiment(spec)
    except EsControlError as exc:
        record = {
            "error": type(exc).__name__,
            "message": str(exc),
            "scenario": args.scenario,
            "mode": mode or "run",
        }
        record.update({key: int(getattr(exc, key)) for key in ("iteration", "step_index",
                       "node_index") if getattr(exc, key, None) is not None})
        sys.stderr.write(json.dumps(record) + "\n")
        # a scenario that could not be loaded has no name yet: use its file stem
        out = Path(getattr(exc, "out_dir", None)
                   or output_dir(spec, Path(args.scenario).stem, record["mode"]))
        out.mkdir(parents=True, exist_ok=True)
        (out / "error.json").write_text(json.dumps(record, indent=2))
        return 1
    print(json.dumps(summary.to_dict(), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
