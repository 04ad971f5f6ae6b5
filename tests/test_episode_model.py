"""The exact quadratic episode model against the step-by-step simulation,
and run_es's measurements against the public episode functions.

For a time-invariant linear plant under a quadratic cost, run_episode and the
open-loop branch of run_multi_episode evaluate J = 1/2 a'Ha + g'a + j0
instead of integrating; their trajectories are always simulated. These tests
hold that model to the simulation at 1e-9 relative on every shipped scenario
it serves, and check that everything else is still simulated. The
measurements run_es takes without result objects must give the public
functions' (J, J_hat) bit for bit.
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from helpers import (B_2D, X0_2D, Y0_2D, Z0_2D, example2_scenario, feedback_2d_scenario,
                     scalar_scenario, simulated_cost_fn, simulated_episode)
# run_es on a scenario's episode measurement, as esctl run and synthesize_gain take it
from helpers import run_scenario_es as run_es
from escontrol import scenario as scenario_mod
from escontrol.basis import ControllerCoefficients, FourierPairsBasis
from escontrol.errors import IntegrationDivergedError
from escontrol.es import assemble_quadratic_cost, restricted_optimum
from escontrol.feedback import GainField, run_feedback_episodes, synthesize_gain
from escontrol.harness import es_config_for, load_scenario, shipped_scenarios
from escontrol.ode import TimeGrid
from escontrol.scenario import (GeneralCost, GeneralDynamics, LinearDynamics, QuadraticCost,
                                Scenario, episode_measurement, episode_model, run_episode,
                                run_multi_episode)

SHIPPED = {p.stem: p for p in shipped_scenarios()}
OPEN_LOOP_TIME_INVARIANT = ("example1_integrator", "example2_scalar",
                            "example2_scalar_periodic", "example3_tracking")
SCALES = (1e-2, 1e-1, 1.0, 1e1, 1e2)
REL = 1e-9


def _random_coefficients(scenario, rng, scale):
    shape = (scenario.control_dim, scenario.basis.n_functions)
    return ControllerCoefficients(scale * rng.standard_normal(shape))


def _model_cost(model, coeffs, start):
    """J of the episode from initial condition ``start`` by the model's quadratic form."""
    a = coeffs.values.ravel()
    _, g, j0 = model.frees[start]
    return float(a @ (0.5 * (model.hessian @ a) + g)) + j0


def _assert_matches_simulation(scenario, coeffs, x0, episode):
    states, controls, j = simulated_episode(scenario, coeffs, x0)
    assert abs(episode.cost - j) <= REL * abs(j)
    assert np.abs(episode.states - states).max() <= REL * np.abs(states).max()
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
            # J served by the model, not by the simulation
            assert episode.cost == _model_cost(model, coeffs, 0)
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

    monkeypatch.setattr(scenario_mod.QuadraticEpisodeModel, "__init__", refuse)


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
    assert np.array_equal(episode.states, states)
    assert "_episode_model" not in vars(scenario)


def test_model_is_not_used_for_a_gain_field(model_refused, rng):
    scenario = feedback_2d_scenario(n_steps=100, m=2)
    field = GainField.from_flat(0.1 * rng.standard_normal(2 * 2 * 4), scenario.basis,
                                scenario.state_dim, scenario.control_dim)
    multi = run_multi_episode(scenario, field)
    direct = run_feedback_episodes(scenario, field, scenario.initial_conditions, 0.0)
    assert [ep.cost for ep in multi.episodes] == [ep.cost for ep in direct]
    assert "_episode_model" not in vars(scenario)



def _drifting_two_state_scenario():
    """An open-loop d = 2 plant whose A drifts with slow time, two starts."""
    base = dataclasses.replace(feedback_2d_scenario(n_steps=40, m=2), feedback=False)
    b = np.array(B_2D)
    return dataclasses.replace(base, dynamics=LinearDynamics(
        a_fn=lambda t: -(1.0 + 1e-3 * t) * np.eye(2), b_fn=lambda t: b,
        state_dim=2, control_dim=2))


@pytest.mark.parametrize("make", [lambda: load_scenario(SHIPPED["timevarying_noisy"]),
                                  _drifting_two_state_scenario],
                         ids=["timevarying_noisy", "drifting_two_state"])
def test_each_simulated_start_is_integrated_once(make, monkeypatch, rng):
    scenario = make()
    coeffs = _random_coefficients(scenario, rng, 1.0)
    expected = [simulated_episode(scenario, coeffs, x0, slow_time=1500.0)
                for x0 in scenario.initial_conditions]
    starts = []
    original = scenario_mod._integrate_open_loop

    def counted(scn, values, slow_time, x0):
        starts.append(x0)
        return original(scn, values, slow_time, x0)

    monkeypatch.setattr(scenario_mod, "_integrate_open_loop", counted)
    multi = run_multi_episode(scenario, coeffs, slow_time=1500.0)
    assert len(starts) == len(scenario.initial_conditions)
    for episode, (states, u_nodes, j) in zip(multi.episodes, expected, strict=True):
        assert np.array_equal(episode.states, states)
        assert np.array_equal(episode.controls, u_nodes)
        assert episode.cost == j


def test_replaced_scenario_does_not_reuse_the_cached_model(rng):
    scenario = example2_scenario(n_steps=200, m=2)
    coeffs = _random_coefficients(scenario, rng, 1.0)
    run_episode(scenario, coeffs)
    finer = dataclasses.replace(scenario, grid=TimeGrid(0.0, 1.0, 300))
    episode = run_episode(finer, coeffs)
    assert episode.states.shape == (301, 1)
    _assert_matches_simulation(finer, coeffs, finer.initial_conditions[0], episode)


def test_a_scenario_with_another_plant_gets_its_own_model():
    scenario = load_scenario(SHIPPED["example2_scalar"])
    flat = 0.3 * np.eye(scenario.basis.n_functions)[0]
    assert scenario_mod.open_loop_cost(scenario)(flat, 0.0) == pytest.approx(42.328, abs=1e-3)
    model = vars(scenario)["_episode_model"]
    steeper = LinearDynamics.constant(2.0, 1.0)
    # the plant cannot change under the model kept for it
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.dynamics = steeper
    replaced = dataclasses.replace(scenario, dynamics=steeper)
    assert "_episode_model" not in vars(replaced)
    j = scenario_mod.open_loop_cost(replaced)(flat, 0.0)
    assert vars(replaced)["_episode_model"] is not model
    assert j == pytest.approx(275.17, abs=1e-2)
    assert j == pytest.approx(simulated_cost_fn(replaced)(flat), rel=REL)


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
    assert ("_episode_model" in vars(scenario)) == scenario.dynamics.time_invariant


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


@pytest.mark.parametrize("make", [
    lambda: example2_scenario(n_steps=200, m=1),
    lambda: example2_scenario(n_steps=200, m=10),
    lambda: dataclasses.replace(feedback_2d_scenario(n_steps=200, m=3), feedback=False),
], ids=["scalar_m1", "scalar_m10", "open_loop_2x2_two_ics"])
def test_model_build_makes_one_forced_scan(make, monkeypatch):
    scenario = make()
    forced = []
    scan = scenario_mod.propagate_linear  # the name the model calls

    def counted(phi, w, x0, grid):
        forced.append(w is not None)
        return scan(phi, w, x0, grid)

    monkeypatch.setattr(scenario_mod, "propagate_linear", counted)
    model = episode_model(scenario)
    # then one unforced scan per initial condition, in the same build
    assert forced == [True] + [False] * len(scenario.initial_conditions)
    assert model.max_abs > 0.0


# --- run_es's measurement: measure(flat, s) -> (J, J_hat) ----------------------

MEASURED_STEPS = (0, 1, 511, 512, 1500)  # noise blocks hold 512 draws
DELTA = 1e-3


def _bits(values):
    return [float(v).hex() for v in values]


def _measurement_and_reference(scenario):
    """run_es's measurement of the scenario, and the public episode call whose
    (J, J_hat) it must return."""
    def slow_time(s):
        return scenario.slow_time_for(s, DELTA)

    if scenario.feedback:
        def reference(flat, s):
            field = GainField.from_flat(flat, scenario.basis, scenario.state_dim,
                                        scenario.control_dim,
                                        feedforward=scenario.feedforward)
            res = run_multi_episode(scenario, field, slow_time(s), noise_index=s)
            return res.total_cost, res.measured_total_cost
    else:
        def reference(flat, s):
            coeffs = ControllerCoefficients.from_flat(flat, scenario.control_dim)
            if len(scenario.initial_conditions) == 1:
                res = run_episode(scenario, coeffs, slow_time(s), noise_index=s)
                return res.cost, res.measured_cost
            res = run_multi_episode(scenario, coeffs, slow_time(s), noise_index=s)
            return res.total_cost, res.measured_total_cost

    return episode_measurement(scenario, DELTA), reference


def _n_coefficients(scenario):
    n = scenario.control_dim * scenario.basis.n_functions
    if scenario.feedback:
        n *= scenario.state_dim
        if scenario.feedforward:
            n += scenario.control_dim * scenario.basis.n_functions
    return n


@pytest.mark.parametrize("make", [
    *(lambda name=name: load_scenario(SHIPPED[name]) for name in sorted(SHIPPED)),
    lambda: dataclasses.replace(feedback_2d_scenario(n_steps=200, m=3), feedback=False),
    lambda: dataclasses.replace(feedback_2d_scenario(
        n_steps=200, m=3, initial_conditions=(X0_2D, Y0_2D, Z0_2D)), feedback=False),
    lambda: feedback_2d_scenario(n_steps=200, m=3, feedforward=True,
                                 initial_conditions=(X0_2D, Y0_2D, Z0_2D)),
], ids=[*sorted(SHIPPED), "open_loop_2x2_two_ics", "open_loop_2x2_three_ics",
        "feedforward_2x2_three_ics"])
def test_measurement_matches_the_public_episode_functions_bitwise(make, rng, monkeypatch):
    scenario = make()
    measurement, reference = _measurement_and_reference(scenario)
    n = _n_coefficients(scenario)
    # J's last bits depend on the vector, so take many
    flats = [np.zeros(n)] + [scale * rng.standard_normal(n)
                             for scale in (0.1, 0.3, 1.0) for _ in range(4)]
    episodes = []
    original = scenario_mod._episodes

    def counted(*args):
        episodes.append(args)
        return original(*args)

    monkeypatch.setattr(scenario_mod, "_episodes", counted)
    by_measure = []
    for s in MEASURED_STEPS:
        for flat in flats:
            before = len(episodes)
            measured = measurement(flat, s)
            by_measure.append(len(episodes) - before)
            assert all(isinstance(v, float) for v in measured)
            assert _bits(measured) == _bits(reference(flat, s)), (s, flat)
    # past the first measurement, J comes without episode results
    assert by_measure[0] == 1 and sum(by_measure[1:]) == 0


@pytest.mark.parametrize("name", ["example3_tracking", "timevarying_noisy", "feedback_2d"])
def test_run_es_takes_its_first_measurement_through_the_public_functions(name, monkeypatch):
    scenario = load_scenario(SHIPPED[name])
    calls = []

    def counting(public):
        def wrapper(scn, *args, **kwargs):
            # the episode model is built inside the first call, never before it
            calls.append("_episode_model" in vars(scn))
            return public(scn, *args, **kwargs)

        return wrapper

    for public in ("run_episode", "run_multi_episode"):
        monkeypatch.setattr(scenario_mod, public, counting(getattr(scenario_mod, public)))
    if scenario.feedback:
        record = synthesize_gain(scenario, es_config_for(scenario), 20)[1]
    else:
        record = run_es(scenario, es_config_for(scenario), 20)
    assert calls == [False]
    assert np.all(np.isfinite(record.costs))
    assert ("_episode_model" in vars(scenario)) == \
        (scenario.dynamics.time_invariant and not scenario.feedback)


def test_overflowing_vector_after_the_model_is_cached_fails_as_the_simulation():
    scenario = scalar_scenario(a=10.0, n_steps=200, m=2)
    measurement = episode_measurement(scenario, DELTA)
    measurement(np.zeros(4), 0)
    assert vars(scenario)["_episode_model"] is not None
    huge = np.full(4, 1e306)
    with pytest.raises(IntegrationDivergedError) as bare:
        simulated_episode(scenario, ControllerCoefficients.from_flat(huge, 1),
                          scenario.initial_conditions[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationDivergedError) as served:
            measurement(huge, 3)
    assert served.value.step_index == bare.value.step_index


def test_finite_cost_with_an_overflowing_unobserved_state_fails_as_the_simulation():
    # the cost sees only x_1; x_2 grows by about 16 per step from the control
    # alone, so a large control overflows x_2 while J stays finite
    scenario = Scenario(
        name="unobserved",
        dynamics=LinearDynamics.constant([[0.0, 0.0], [0.0, 600.0]], [[1.0], [1.0]]),
        cost=QuadraticCost(c_matrix=[[1.0, 0.0]], p_matrix=2.0, q_matrix=2.0, r_matrix=2.0),
        grid=TimeGrid(0.0, 1.0, 200),
        basis=FourierPairsBasis(m=2, horizon=1.0, extension=0.1),
        initial_conditions=[np.array([1.0, 0.0])],
    )
    measurement = episode_measurement(scenario, DELTA)
    small = np.array([0.3, -0.2, 0.1, 0.4])
    measurement(small, 0)
    model = vars(scenario)["_episode_model"]
    assert model is not None
    large = np.full(4, 1e70)
    coeffs = ControllerCoefficients.from_flat(large, 1)
    x0 = scenario.initial_conditions[0]
    with np.errstate(over="ignore", invalid="ignore"):
        h_a = model.hessian @ large
        _, g, j0 = model.frees[0]
        assert math.isfinite(float(large @ (0.5 * h_a + g)) + j0)
    with pytest.raises(IntegrationDivergedError) as bare:
        simulated_episode(scenario, coeffs, x0)
    with pytest.raises(IntegrationDivergedError) as served:
        measurement(large, 1)
    assert served.value.step_index == bare.value.step_index
    j = run_episode(scenario, ControllerCoefficients.from_flat(small, 1)).cost
    assert _bits(measurement(small, 2)) == _bits((j, j))


@pytest.mark.parametrize("make", [
    lambda: example2_scenario(n_steps=200, m=2, noise_std=0.1, seed=3),
    lambda: dataclasses.replace(feedback_2d_scenario(n_steps=200, m=3, noise_std=0.1),
                                feedback=False),
], ids=["example2", "open_loop_2x2_two_ics"])
def test_vector_at_the_model_bound_is_simulated_on_both_paths(make):
    scenario = make()
    n = scenario.control_dim * scenario.basis.n_functions
    measurement = episode_measurement(scenario, DELTA)
    measurement(np.zeros(n), 0)
    model = vars(scenario)["_episode_model"]
    below = np.linspace(-1.0, 1.0, n) * np.nextafter(model.max_abs, 0.0)
    assert np.abs(below).max() < model.max_abs
    _, reference = _measurement_and_reference(scenario)
    for s, scale in ((1, 1.0), (2, 3.0)):
        flat = np.linspace(-1.0, 1.0, n) * (scale * model.max_abs)
        assert not np.abs(flat).max() < model.max_abs
        measured = measurement(flat, s)
        assert _bits(measured) == _bits(reference(flat, s))
        # served by the simulation, not by the model
        assert measured[0] == simulated_cost_fn(scenario)(flat)
