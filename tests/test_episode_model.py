"""The exact quadratic episode model against the step-by-step simulation.

For a time-invariant linear plant under a quadratic cost, run_episode and the
open-loop branch of run_multi_episode evaluate J = 1/2 a'Ha + g'a + j0 and
the states x_free + G a instead of integrating. These tests hold that model
to the simulation at 1e-9 relative on every shipped scenario it serves, and
check that everything else is still simulated.
"""
import dataclasses
import warnings

import numpy as np
import pytest

from helpers import (example2_scenario, feedback_2d_scenario, scalar_scenario,
                     simulated_cost_fn, simulated_episode)
from escontrol import scenario as scenario_mod
from escontrol.basis import ControllerCoefficients
from escontrol.errors import IntegrationDivergedError
from escontrol.es import assemble_quadratic_cost, restricted_optimum
from escontrol.feedback import GainField, run_feedback_episodes
from escontrol.harness import load_scenario, shipped_scenarios
from escontrol.ode import TimeGrid
from escontrol.scenario import (GeneralCost, GeneralDynamics, episode_model, run_episode,
                                run_multi_episode)

SHIPPED = {p.stem: p for p in shipped_scenarios()}
OPEN_LOOP_TIME_INVARIANT = ("example1_integrator", "example2_scalar",
                            "example2_scalar_periodic", "example3_tracking")
SCALES = (1e-2, 1e-1, 1.0, 1e1, 1e2)
REL = 1e-9


def _random_coefficients(scenario, rng, scale):
    shape = (scenario.control_dim, scenario.basis.n_functions)
    return ControllerCoefficients(scale * rng.standard_normal(shape))


def _assert_matches_simulation(scenario, coeffs, x0, episode):
    states, controls, j = simulated_episode(scenario, coeffs, x0)
    assert abs(episode.cost - j) <= REL * abs(j)
    assert np.abs(episode.trajectory.states - states).max() <= REL * np.abs(states).max()
    assert np.abs(episode.controls - controls).max() <= REL * np.abs(controls).max()


@pytest.mark.parametrize("name", OPEN_LOOP_TIME_INVARIANT)
def test_model_matches_simulation_on_shipped_open_loop_scenarios(name, rng):
    scenario = load_scenario(SHIPPED[name])
    assert scenario.dynamics.time_invariant
    model = episode_model(scenario)
    assert model is not None
    x0 = scenario.initial_conditions[0]
    for scale in SCALES:
        for _ in range(3):
            coeffs = _random_coefficients(scenario, rng, scale)
            episode = run_episode(scenario, coeffs)
            # served by the model, not by the simulation
            assert episode.cost == model.episode(coeffs, x0)[2]
            _assert_matches_simulation(scenario, coeffs, x0, episode)


def test_model_matches_simulation_through_run_multi_episode(rng):
    scenario = dataclasses.replace(feedback_2d_scenario(), feedback=False)
    assert len(scenario.initial_conditions) == 2
    assert episode_model(scenario) is not None
    for scale in SCALES:
        coeffs = _random_coefficients(scenario, rng, scale)
        multi = run_multi_episode(scenario, coeffs)
        for x0, episode in zip(scenario.initial_conditions, multi.episodes):
            _assert_matches_simulation(scenario, coeffs, x0, episode)
        expected = sum(simulated_episode(scenario, coeffs, x0)[2]
                       for x0 in scenario.initial_conditions)
        assert multi.total_cost == pytest.approx(expected, rel=REL)


def _general_dynamics_scenario():
    base = example2_scenario(n_steps=100, m=2)
    return dataclasses.replace(base, dynamics=GeneralDynamics(
        f=lambda tau, x, u: x + u, state_dim=1, control_dim=1))


def _general_cost_scenario():
    base = example2_scenario(n_steps=100, m=2)
    return dataclasses.replace(base, cost=GeneralCost(
        terminal=lambda x: float(x[0] ** 2),
        running=lambda x, u: float(x[0] ** 2 + u[0] ** 2)))


@pytest.fixture
def model_refused(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the quadratic episode model was used")

    monkeypatch.setattr(scenario_mod.QuadraticEpisodeModel, "episode", refuse)


@pytest.mark.parametrize("make", [
    lambda: load_scenario(SHIPPED["timevarying_noisy"]),
    _general_dynamics_scenario,
    _general_cost_scenario,
], ids=["timevarying_noisy", "general_dynamics", "general_cost"])
def test_model_is_not_used_outside_its_domain(make, model_refused, rng):
    scenario = make()
    coeffs = _random_coefficients(scenario, rng, 1.0)
    episode = run_episode(scenario, coeffs, slow_time=1500.0)
    states, _, j = simulated_episode(scenario, coeffs, scenario.initial_conditions[0],
                                     slow_time=1500.0)
    assert episode.cost == j
    assert np.array_equal(episode.trajectory.states, states)
    assert "episode_model" not in scenario._cache


def test_model_is_not_used_for_a_gain_field(model_refused, rng):
    scenario = feedback_2d_scenario(n_steps=100, m=2)
    field = GainField.from_flat(0.1 * rng.standard_normal(2 * 2 * 4), scenario.basis,
                                scenario.state_dim, scenario.control_dim)
    multi = run_multi_episode(scenario, field)
    direct = run_feedback_episodes(scenario, field, scenario.initial_conditions, 0.0)
    assert [ep.cost for ep in multi.episodes] == [ep.cost for ep in direct]
    assert "episode_model" not in scenario._cache


def test_replaced_scenario_does_not_reuse_the_cached_model(rng):
    scenario = example2_scenario(n_steps=200, m=2)
    coeffs = _random_coefficients(scenario, rng, 1.0)
    run_episode(scenario, coeffs)
    finer = dataclasses.replace(scenario, grid=TimeGrid(0.0, 1.0, 300))
    episode = run_episode(finer, coeffs)
    assert episode.trajectory.states.shape == (301, 1)
    _assert_matches_simulation(finer, coeffs, finer.initial_conditions[0], episode)


def _max_rel(actual, expected):
    return np.abs(np.asarray(actual) - expected).max() / np.abs(expected).max()


@pytest.mark.parametrize("make, slow_time", [
    (lambda: example2_scenario(n_steps=200), 0.0),
    (lambda: dataclasses.replace(feedback_2d_scenario(n_steps=200, m=3), feedback=False), 0.0),
    (lambda: load_scenario(SHIPPED["timevarying_noisy"]), 1500.0),
], ids=["example2", "open_loop_2x2_two_ics", "timevarying_noisy"])
def test_restricted_optimum_matches_the_probed_quadratic_form(make, slow_time):
    scenario = make()
    dim = scenario.control_dim * scenario.basis.n_functions
    probed = assemble_quadratic_cost(simulated_cost_fn(scenario, slow_time), dim)
    _, _, model = restricted_optimum(scenario, slow_time)
    assert _max_rel(model.hessian, probed.hessian) <= REL
    assert _max_rel(model.gradient0, probed.gradient0) <= REL
    assert abs(model.j0 - probed.j0) <= REL * abs(probed.j0)
    # only a time-invariant plant keeps its model
    assert ("episode_model" in scenario._cache) == scenario.dynamics.time_invariant


def test_overflowing_model_falls_back_without_a_numpy_warning():
    scenario = scalar_scenario(a=10.0, n_steps=200, m=2)
    coeffs = ControllerCoefficients.from_flat(np.full(4, 1e306), 1)
    with pytest.raises(IntegrationDivergedError) as bare:
        simulated_episode(scenario, coeffs, scenario.initial_conditions[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationDivergedError) as served:
            run_episode(scenario, coeffs)
    assert served.value.step_index == bare.value.step_index
