"""Episodes to target never improve when a call fails."""
from escontrol.harness import ExperimentSpec, run_experiment

import run
import workloads


def test_a_call_that_misses_or_raises_counts_its_full_length(tmp_path, scenario_path):
    # timevarying_noisy first comes within 50% of J* after about 110 episodes
    short = workloads.Call("short", "timevarying_noisy", 50, 3, 0.50)
    run_experiment(ExperimentSpec(scenario_path=str(scenario_path("timevarying_noisy")),
                                  n_iterations=short.n_iterations, seed=short.noise_seed,
                                  out_dir=str(tmp_path / "short")))
    raising = workloads.Call("raising", "timevarying_noisy", 70, 3, 0.50)
    workload = workloads.Workload("test", (short, raising))
    rounds = [{"calls": [{"error": None, "out_dir": str(tmp_path / "short")},
                         {"error": "Traceback: ...", "out_dir": str(tmp_path / "none")}]}]
    tally = run.check_rounds(workload, rounds)
    assert tally["episodes"] == 51 + 71
    assert (tally["raised"], tally["wrong"]) == (1, 1)
    assert any("never came within" in line for line in tally["report"])
