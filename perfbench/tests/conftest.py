import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(ROOT / "src"))


@pytest.fixture(scope="module")
def scenario_path():
    return lambda name: ROOT / "src" / "escontrol" / "scenarios" / f"{name}.scn"
