"""Each correctness check passes escontrol's real output and rejects a
corrupted copy of it."""
import copy

import numpy as np
import pytest
from escontrol.harness import ExperimentSpec, run_experiment

import checks
import reference


def _run(tmp_path_factory, scenario_path, name, iterations, seed):
    out = tmp_path_factory.mktemp(name)
    run_experiment(ExperimentSpec(scenario_path=str(scenario_path(name)),
                                  n_iterations=iterations, seed=seed, out_dir=str(out)))
    return reference.load_problem(scenario_path(name)), checks.RunOutput.load(out)


@pytest.fixture(scope="module")
def noisy(tmp_path_factory, scenario_path):
    return _run(tmp_path_factory, scenario_path, "timevarying_noisy", 400, 11)


@pytest.fixture(scope="module")
def tracking_feedback(tmp_path_factory, scenario_path):
    return _run(tmp_path_factory, scenario_path, "feedback_tracking_demo", 300, 0)


@pytest.mark.parametrize("fixture", ["noisy", "tracking_feedback"])
def test_real_output_passes_every_check(fixture, request):
    prob, out = request.getfixturevalue(fixture)
    episodes, problems = checks.check_run(prob, out, gap=5.0)
    assert problems == []
    assert episodes is not None and episodes >= reference.slowest_period(out.es_config)


def test_perturbed_coefficient_row_breaks_the_update_law(noisy):
    _, out = noisy
    bad = copy.deepcopy(out)
    bad.coefficients[200, 3] += 1e-6
    problems = checks.check_update_law(bad)
    assert len(problems) == 1 and "s=200" in problems[0]


def test_perturbed_coefficient_row_breaks_the_recomputed_cost(tracking_feedback):
    prob, out = tracking_feedback
    bad = copy.deepcopy(out)
    bad.coefficients[-1, 0] += 1e-3
    assert checks.check_recomputed_costs(prob, out) == []
    assert len(checks.check_recomputed_costs(prob, bad)) == 1


def test_cost_below_the_optimum_is_rejected(noisy):
    prob, out = noisy
    optimum = checks.optimum_per_step(prob, out)
    bad = copy.deepcopy(out)
    bad.costs[123] = 0.99 * optimum[123]
    problems = checks.check_optimality(bad, optimum)
    assert len(problems) == 1 and "s=123" in problems[0]


def test_wrong_oracle_cost_is_rejected(tracking_feedback):
    prob, out = tracking_feedback
    bad = copy.deepcopy(out)
    bad.summary["oracle_costs_per_initial_condition"][1] *= 1.0 + 1e-6
    assert len(checks.check_oracle(prob, bad)) == 1


@pytest.mark.parametrize("shift", [0.5, -0.5])
def test_shifted_noise_draws_are_rejected(noisy, shift):
    prob, out = noisy
    bad = copy.deepcopy(out)
    bad.measured += shift * prob.noise_std
    assert checks.check_noise(out, prob.noise_std) == []
    assert "noise mean" in checks.check_noise(bad, prob.noise_std)[0]


def test_rescaled_noise_draws_are_rejected(noisy):
    prob, out = noisy
    bad = copy.deepcopy(out)
    bad.measured = bad.costs + 1.5 * (bad.measured - bad.costs)
    assert "noise std" in checks.check_noise(bad, prob.noise_std)[0]


def test_any_noise_without_noise_is_rejected(tracking_feedback):
    prob, out = tracking_feedback
    assert prob.noise_std == 0.0
    bad = copy.deepcopy(out)
    bad.measured[7] = np.nextafter(bad.measured[7], np.inf)
    assert len(checks.check_noise(bad, 0.0)) == 1


def test_unreached_target_gap_is_reported(noisy):
    prob, out = noisy
    _, problems = checks.check_run(prob, out, gap=1e-6)
    assert len(problems) == 1 and problems[0].startswith("never came within")
