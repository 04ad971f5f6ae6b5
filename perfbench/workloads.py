"""The benchmark's workloads: which `run_experiment` calls make one round.

A round is a fixed list of calls, run one after another in one process.
Every round of a run repeats the same calls with the same inputs, so a
round's artifacts, episode counts and failures are identical from round to
round and only the timings vary.

Run lengths are cut from the shipped ones so that a round takes a few
seconds, and each target gap is one the call reaches well inside its run
length (README.md gives the measured crossing points).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCENARIO_DIR = "src/escontrol/scenarios"

# timevarying_noisy runs once per noise seed, in many short runs so that
# per-run costs weigh; its 50% gap is crossed after 112-126 episodes, so the
# sum over the seeds hardly moves from one benchmark seed to the next
DRIFTING_SEEDS = 32


@dataclass(frozen=True)
class Call:
    """One `run_experiment` call and the gap its run must reach."""

    label: str
    scenario: str
    n_iterations: int
    noise_seed: int
    target_gap: float

    @property
    def scenario_path(self) -> str:
        return f"{SCENARIO_DIR}/{self.scenario}.scn"


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]


def noise_seeds(seed: int, count: int) -> list[int]:
    """Noise seeds for one benchmark seed: the first ``count`` words of
    numpy's SeedSequence(seed)."""
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(count, np.uint32)]


def build(name: str, seed: int) -> Workload:
    if name not in WHY:
        raise KeyError(f"unknown workload {name!r}; expected one of {sorted(WHY)}")
    seeds = noise_seeds(seed, DRIFTING_SEEDS)
    if name == "feedback_synthesis":
        calls = (Call("feedback_2d", "feedback_2d", 6000, seeds[0], 0.08),
                 Call("feedback_tracking_demo", "feedback_tracking_demo", 6000,
                      seeds[0], 0.30))
    elif name == "openloop_tracking":
        calls = (Call("example3_tracking", "example3_tracking", 20000, seeds[0], 0.50),)
    else:
        calls = tuple(Call(f"timevarying_noisy-{i:02d}", "timevarying_noisy", 400, s, 0.50)
                      for i, s in enumerate(seeds))
    return Workload(name, calls)


WHY = {
    "feedback_synthesis": "2x2 gain synthesis plus a gain+feedforward run: the "
                          "prefix-scan closed loop, batched cost, 80-coefficient ES "
                          "step and the widest iterations.csv rows",
    "openloop_tracking": "longest open-loop problem: scalar propagate_linear loop, "
                         "tracking cost and a 40-coefficient ES, where an exact "
                         "quadratic model or a scalar scan would act",
    "drifting_noisy": "32 short noisy runs of a drifting plant: noise draws, a plant "
                      "evaluated every episode, and per-run costs (set-up, Riccati "
                      "oracle) weigh most",
}
