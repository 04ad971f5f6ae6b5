"""scripts/compare_artifacts.py's per-file comparisons, on small files: a CSV
names every column that differs, and a summary.json every key."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT_PATH = Path(__file__).resolve().parents[1] / "scripts" / "compare_artifacts.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_artifacts", SCRIPT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csv(path, rows):
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return path


HEADER = ["phase", "tau", "x_0", "u_0"]
ROWS = [["first", "0.0", "1.0", "0.5"],
        ["first", "0.5", "2.0", "-0.25"],
        ["last", "1.0", "4.0", "0.125"]]


def test_equal_csvs_are_identical(compare, tmp_path):
    old = _csv(tmp_path / "old.csv", [HEADER] + ROWS)
    new = _csv(tmp_path / "new.csv", [HEADER] + ROWS)
    assert compare.compare_csv(old, new) == "identical"


def test_every_differing_column_is_named_worst_first(compare, tmp_path):
    changed = [row[:] for row in ROWS]
    changed[0][2], changed[2][2] = "1.0000000004", "4.000000004"  # x_0: 2 cells
    changed[1][3] = "-0.2500001"                                  # u_0: 1 cell
    old = _csv(tmp_path / "old.csv", [HEADER] + ROWS)
    new = _csv(tmp_path / "new.csv", [HEADER] + changed)
    assert compare.compare_csv(old, new) == (
        "2 columns differ: 'u_0' 1 cell, largest relative difference 2e-07; "
        "'x_0' 2 cells, largest relative difference 1e-09")


def test_a_text_column_and_a_sign_of_zero_are_named(compare, tmp_path):
    changed = [row[:] for row in ROWS]
    changed[2][0] = "first"
    changed[0][1] = "-0.0"
    old = _csv(tmp_path / "old.csv", [HEADER] + ROWS)
    new = _csv(tmp_path / "new.csv", [HEADER] + changed)
    assert compare.compare_csv(old, new) == (
        "2 columns differ: 'phase' 1 cell (text); "
        "'tau' 1 cell, largest relative difference 0")


def test_shape_and_line_ending_differences(compare, tmp_path):
    old = _csv(tmp_path / "old.csv", [HEADER] + ROWS)
    assert compare.compare_csv(old, _csv(tmp_path / "short.csv", [HEADER] + ROWS[:2])) == (
        "different shape: 3 rows of 4 columns against 2 rows of 4")
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(old.read_bytes().replace(b"\n", b"\r\n"))
    assert compare.compare_csv(old, crlf) == "bytes differ, cells equal"


def test_summary_names_each_differing_key(compare, tmp_path):
    base = {"wall_time_s": 1.5, "scenario_path": "/a/x.scn", "final_cost": 2.0,
            "config": {"k": 0.5, "mode": "open_loop"}, "iterations": 300}
    old = tmp_path / "old.json"
    old.write_text(json.dumps(base))
    same = tmp_path / "same.json"
    same.write_text(json.dumps(dict(base, wall_time_s=9.0, scenario_path="/b/x.scn")))
    assert compare.compare_summary(old, same) == "identical"
    new = tmp_path / "new.json"
    new.write_text(json.dumps(dict(base, final_cost=2.5, iterations=301,
                                   config={"k": 0.5, "mode": "feedback"})))
    assert compare.compare_summary(old, new) == (
        "differs in config.mode, final_cost (0.2 relative), iterations")
