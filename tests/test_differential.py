"""Differential tests: fast paths against step-by-step references on small
generated linear-quadratic problems.

The shipped scenarios cover only d <= 2 and p <= 2 with one reference
shape; these draws reach d, p and the output dimension up to 3, stable and
unstable plants, with and without feedforward and reference. Costs are
checked against a per-node Python loop that shares no code with the
batched quadrature. The episode model's quadratic form is checked against
probing the simulated cost, and the constant-A RK4 step map against the
stacked one. Hypothesis runs derandomized, so every run checks the same
draws. Streamed run records are checked against the full in-memory
record on every shipped scenario, and block noise draws against one Philox
generator per draw.
"""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (fresh_philox_draw, frozen_steps, packed_riccati_reference,
                     quadratic_cost_samples, reference_iterations_csv, run_scenario_es,
                     simulated_cost_fn, stacked_steps)
from escontrol import es as es_module
from escontrol import feedback as feedback_module
from escontrol import harness
from escontrol import scenario as scenario_module
from escontrol.basis import ControllerCoefficients, FourierPairsBasis
from escontrol.errors import IntegrationDivergedError, RiccatiInstabilityError
from escontrol.es import EsConfig, assemble_quadratic_cost, restricted_optimum
from escontrol.feedback import GainField, run_feedback_episodes
from escontrol.harness import (ExperimentSpec, load_scenario, read_scenario_config,
                               run_experiment, shipped_scenarios)
from escontrol.lqr import solve_riccati
from escontrol.ode import TimeGrid, integrate_rk4, propagate_linear
from escontrol.scenario import (GeneralCost, GeneralDynamics, LinearDynamics, NoiseModel,
                                QuadraticCost, Scenario, _integrate_open_loop, _scalar_episode_costs,
                                closed_loop_cost, cost_of_trajectories, cost_of_trajectory,
                                episode_measurement, episode_model, open_loop_cost, run_episode,
                                run_multi_episode)

DIFFERENTIAL = settings(derandomize=True, max_examples=150, deadline=None,
                        database=None)

# a diverging draw scales every gain coefficient by this: each RK4 step then
# amplifies by about (h |K|)^4 > 1e150, so the overflow lands at the same
# step on both sides instead of one step apart near the threshold
DIVERGING_SCALE = 1e45


def _psd(rng, n, floor=0.0):
    half = rng.standard_normal((n, n))
    return half @ half.T + floor * np.eye(n)


@st.composite
def closed_loop_problems(draw):
    """(scenario, gain field, initial conditions, diverging, slow time) of one
    draw; a drifting plant's A and B move with the slow time."""
    d = draw(st.integers(1, 3), label="d")
    p = draw(st.integers(1, 3), label="p")
    n_out = draw(st.integers(1, 3), label="outputs")
    stable = draw(st.booleans(), label="stable A")
    feedforward = draw(st.booleans(), label="feedforward")
    tracking = draw(st.booleans(), label="reference")
    diverging = draw(st.booleans(), label="diverging gains")
    drifting = draw(st.booleans(), label="drifting plant")
    slow_time = draw(st.sampled_from([0.0, 0.7, 2.0, 1234.5]), label="slow time")
    n_steps = draw(st.integers(2, 64), label="n_steps")
    m = draw(st.integers(1, 3), label="m")
    extension = draw(st.sampled_from([0.1, 0.5, 1.0]), label="extension")
    horizon = draw(st.sampled_from([0.5, 1.0, 2.0]), label="horizon")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))

    a = 0.8 * rng.standard_normal((d, d))
    # shift the spectrum so that its rightmost real part is -0.5 or +0.5
    a += ((-0.5 if stable else 0.5) - np.linalg.eigvals(a).real.max()) * np.eye(d)
    b = rng.standard_normal((d, p))
    if drifting:
        da = 0.3 * rng.standard_normal((d, d))
        dynamics = LinearDynamics(a_fn=lambda t: a + math.sin(t) * da,
                                  b_fn=lambda t: (1.0 + 0.25 * math.cos(t)) * b,
                                  state_dim=d, control_dim=p)
    else:
        dynamics = LinearDynamics.constant(a, b)
    amp, freq, phase = rng.standard_normal((3, n_out))
    reference = (lambda t: amp * np.sin(4.0 * freq * np.asarray(t)[..., None] + phase)) \
        if tracking else None
    scenario = Scenario(
        name="generated",
        dynamics=dynamics,
        cost=QuadraticCost(c_matrix=rng.standard_normal((n_out, d)),
                           p_matrix=_psd(rng, n_out), q_matrix=_psd(rng, n_out),
                           r_matrix=_psd(rng, p, floor=0.5), reference=reference),
        grid=TimeGrid(0.0, horizon, n_steps),
        basis=FourierPairsBasis(m=m, horizon=horizon, extension=extension),
        initial_conditions=[np.ones(d)],
        feedback=True,
        feedforward=feedforward,
    )
    n_f = scenario.basis.n_functions
    scale = DIVERGING_SCALE if diverging else 0.5
    field = GainField(scenario.basis, d, p, scale * rng.standard_normal((p, d, n_f)),
                      rng.standard_normal((p, n_f)) if feedforward else None)
    x0s = list(rng.standard_normal((draw(st.integers(1, 3), label="starts"), d)))
    return scenario, field, x0s, diverging, slow_time


def _fourier_rows(basis, tau):
    """Basis functions at tau by direct summation: cos(w_j tau), sin(w_j tau)."""
    return np.array([f(2.0 * math.pi * j * tau / basis.t_eff)
                     for j in range(1, basis.m + 1) for f in (math.cos, math.sin)])


def _stepwise_episode(scenario, field, x0, slow_time):
    """(states, node controls, J) under u = -K(tau) x + V(tau) with the plant
    frozen at ``slow_time``, integrated step by step by generic RK4 with the
    field summed at every stage time."""
    a = np.asarray(scenario.dynamics.a_fn(slow_time))
    b = np.asarray(scenario.dynamics.b_fn(slow_time))

    def control(tau, x):
        rows = _fourier_rows(scenario.basis, tau)
        u = -(field.gain_coeffs @ rows) @ x
        return u + field.ff_coeffs @ rows if field.has_feedforward else u

    states = integrate_rk4(lambda tau, x: a @ x + b @ control(tau, x), x0,
                           scenario.grid)
    controls = np.stack([control(tau, x) for tau, x in zip(scenario.grid.nodes(), states)])
    return states, controls, cost_of_trajectory(scenario.cost, scenario.grid, states, controls)


def _close(got, want, rel=1e-12):
    return np.abs(got - want).max() <= rel * np.abs(want).max()


@DIFFERENTIAL
@given(closed_loop_problems())
def test_batched_closed_loop_matches_stepwise_rk4(problem):
    scenario, field, x0s, diverging, slow_time = problem
    expected, failed_steps = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for x0 in x0s:
            try:
                expected.append(_stepwise_episode(scenario, field, x0, slow_time))
            except IntegrationDivergedError as exc:
                failed_steps.append(exc.step_index)
        if failed_steps:
            # the batch fails at the earliest failing step of its episodes
            with pytest.raises(IntegrationDivergedError) as batched:
                run_feedback_episodes(scenario, field, x0s, slow_time)
            assert batched.value.step_index == min(failed_steps)
            return
    assert not diverging, "a diverging draw stayed finite"
    for episode, (states, controls, cost) in zip(
            run_feedback_episodes(scenario, field, x0s, slow_time), expected):
        assert _close(episode.states, states)
        assert _close(episode.controls, controls)
        assert math.isclose(episode.cost, cost, rel_tol=1e-12)
    total = closed_loop_cost(dataclasses.replace(scenario, initial_conditions=x0s))
    assert math.isclose(total(field.flat(), slow_time), sum(cost for *_, cost in expected),
                        rel_tol=1e-12)


def _indefinite(rng, n):
    """A symmetric n x n weight with one negative eigenvalue, the others positive."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    weights = basis @ np.diag(np.r_[-0.5 - rng.random(), 0.5 + rng.random(n - 1)]) @ basis.T
    return 0.5 * (weights + weights.T)


def _reference(rng, n_out):
    amp, freq, phase = rng.standard_normal((3, n_out))
    return lambda t: amp * np.sin(4.0 * freq * np.asarray(t)[..., None] + phase)


def _per_node_cost(cost, grid, states, controls):
    """(J, scale) of one episode of a QuadraticCost, by a Python loop over the
    nodes with explicit trapezoid weights: h inside, h/2 at both ends. The
    scale is J's sum of absolute terms, the size its rounding is relative to."""
    h, n = grid.h, grid.n_steps
    terms = []
    for k in range(n + 1):
        tau = grid.t_start + k * h
        err = cost.c_matrix @ states[k]
        if cost.reference is not None:
            err = err - np.atleast_1d(cost.reference(tau))
        running = 0.5 * (err @ cost.q_matrix @ err + controls[k] @ cost.r_matrix @ controls[k])
        terms.append((0.5 * h if k in (0, n) else h) * running)
        if k == n:
            terms.append(0.5 * (err @ cost.p_matrix @ err))
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


@st.composite
def costed_episodes(draw):
    """(QuadraticCost, grid, states (n + 1, m, d), controls (n + 1, m, p)) of one draw."""
    d = draw(st.integers(1, 3), label="d")
    p = draw(st.integers(1, 3), label="p")
    n_out = draw(st.integers(1, 3), label="outputs")
    indefinite = draw(st.booleans(), label="indefinite P")
    tracking = draw(st.booleans(), label="reference")
    n_steps = draw(st.integers(2, 64), label="n_steps")
    m = draw(st.integers(1, 3), label="episodes")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    cost = QuadraticCost(c_matrix=rng.standard_normal((n_out, d)),
                         p_matrix=_indefinite(rng, n_out) if indefinite else _psd(rng, n_out),
                         q_matrix=_psd(rng, n_out), r_matrix=_psd(rng, p, floor=0.5),
                         reference=_reference(rng, n_out) if tracking else None,
                         terminal_indefinite_ok=True)
    grid = TimeGrid(0.0, draw(st.sampled_from([0.5, 1.0, 2.0]), label="horizon"), n_steps)
    return (cost, grid, rng.standard_normal((n_steps + 1, m, d)),
            rng.standard_normal((n_steps + 1, m, p)))


def _as_general(cost):
    """The QuadraticCost ``cost`` without a reference, as GeneralCost callables."""
    def running(x, u):
        err = cost.c_matrix @ x
        return 0.5 * (err @ cost.q_matrix @ err + u @ cost.r_matrix @ u)

    def terminal(x):
        err = cost.c_matrix @ x
        return 0.5 * (err @ cost.p_matrix @ err)

    return GeneralCost(terminal=terminal, running=running)


@DIFFERENTIAL
@given(costed_episodes())
def test_cost_of_trajectories_matches_a_per_node_loop(problem):
    cost, grid, states, controls = problem
    m = states.shape[1]
    batch = cost_of_trajectories(cost, grid, states, controls)
    assert batch.shape == (m,)
    costs = [(cost, batch)]
    if cost.reference is None:
        general = _as_general(cost)
        costs.append((general, cost_of_trajectories(general, grid, states, controls)))
    for spec, got in costs:
        for i in range(m):
            want, scale = _per_node_cost(cost, grid, states[:, i], controls[:, i])
            assert abs(got[i] - want) <= 1e-12 * scale
            single = cost_of_trajectory(spec, grid, states[:, i], controls[:, i])
            assert abs(single - got[i]) <= 1e-12 * scale
            if m == 1:  # the same call; m > 1 columns are summed in another order
                assert single == got[i]
    if cost.q_matrix.shape == cost.r_matrix.shape == (1, 1) and cost.reference is None:
        # 1x1 weights multiply elementwise with the bits of the matrix products
        for i in range(m):
            assert cost_of_trajectory(cost, grid, states[:, i], controls[:, i]) == \
                quadratic_cost_samples(cost, grid, states[:, i], controls[:, i])


@st.composite
def open_loop_problems(draw):
    """An open-loop scenario of a time-invariant linear plant under a
    QuadraticCost with 1-3 initial conditions, and the flat coefficients of
    one episode."""
    d = draw(st.integers(1, 3), label="d")
    p = draw(st.integers(1, 3), label="p")
    n_out = draw(st.integers(1, 3), label="outputs")
    stable = draw(st.booleans(), label="stable A")
    tracking = draw(st.booleans(), label="reference")
    n_steps = draw(st.integers(2, 64), label="n_steps")
    horizon = draw(st.sampled_from([0.5, 1.0, 2.0]), label="horizon")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))

    a = 0.8 * rng.standard_normal((d, d))
    a += ((-0.5 if stable else 0.5) - np.linalg.eigvals(a).real.max()) * np.eye(d)
    scenario = Scenario(
        name="generated-open-loop",
        dynamics=LinearDynamics.constant(a, rng.standard_normal((d, p))),
        cost=QuadraticCost(c_matrix=rng.standard_normal((n_out, d)),
                           p_matrix=_psd(rng, n_out), q_matrix=_psd(rng, n_out),
                           r_matrix=_psd(rng, p, floor=0.5),
                           reference=_reference(rng, n_out) if tracking else None),
        grid=TimeGrid(0.0, horizon, n_steps),
        basis=FourierPairsBasis(m=draw(st.integers(1, 3), label="m"), horizon=horizon,
                                extension=draw(st.sampled_from([0.1, 0.5, 1.0]),
                                               label="extension")),
        initial_conditions=list(rng.standard_normal((draw(st.integers(1, 3), label="starts"),
                                                     d))),
    )
    return scenario, 0.5 * rng.standard_normal(p * scenario.basis.n_functions)


@DIFFERENTIAL
@given(open_loop_problems())
def test_quadratic_episode_model_matches_stepwise_rk4(problem):
    scenario, flat = problem
    model = episode_model(scenario)
    assert model is not None and np.abs(flat).max() < model.max_abs
    coeffs = ControllerCoefficients.from_flat(flat, scenario.control_dim)
    a = scenario.dynamics.a_fn(0.0)
    b = scenario.dynamics.b_fn(0.0)

    def control(tau):
        return coeffs.values @ _fourier_rows(scenario.basis, tau)

    multi = run_multi_episode(scenario, coeffs)
    total = 0.0
    for x0, episode in zip(scenario.initial_conditions, multi.episodes):
        states = integrate_rk4(lambda tau, x: a @ x + b @ control(tau), x0,
                               scenario.grid)
        controls = np.stack([control(tau) for tau in scenario.grid.nodes()])
        cost, _ = _per_node_cost(scenario.cost, scenario.grid, states, controls)
        assert _close(episode.states, states, rel=1e-9)
        assert _close(episode.controls, controls, rel=1e-9)
        assert math.isclose(episode.cost, cost, rel_tol=1e-9)
        total += cost
    assert math.isclose(multi.total_cost, total, rel_tol=1e-9)
    # the first measurement builds what the scenario caches; the second is
    # the cost-only path run_es takes from then on
    measurement = episode_measurement(scenario, delta=1e-3)
    for s in range(2):
        assert measurement(flat, s) == (multi.total_cost, multi.total_cost)


@DIFFERENTIAL
@given(open_loop_problems())
def test_restricted_optimum_model_form_matches_probing_the_simulated_cost(problem):
    # the model's H, g and j0 come from its forcing response G; probing the
    # step-by-step simulation recovers them without it
    scenario, _ = problem
    c_star, j_star, model = restricted_optimum(scenario)
    probed = assemble_quadratic_cost(simulated_cost_fn(scenario), c_star.size)
    scale = max(1.0, abs(probed.j0), np.abs(probed.hessian).max(),
                np.abs(probed.gradient0).max())
    for got, want in ((model.hessian, probed.hessian), (model.gradient0, probed.gradient0),
                      (model.j0, probed.j0)):
        assert np.abs(np.asarray(got) - want).max() <= 1e-9 * scale
    assert np.array_equal(model.hessian, model.hessian.T)
    # J at the minimizer is first-order insensitive to H's conditioning
    assert math.isclose(j_star, probed(c_star), rel_tol=1e-9, abs_tol=1e-9 * scale)
    assert j_star <= probed(probed.minimizer()) + 1e-9 * scale


@st.composite
def drifting_problems(draw):
    """An open-loop scenario of a drifting linear plant, A(t) and B(t), under
    a QuadraticCost with 1-3 initial conditions; the flat coefficients and
    the slow time of one episode; and whether the plant diverges. A
    diverging plant's A is scaled by DIVERGING_SCALE, so that each step
    amplifies by about (h |A|)^4 / 24 > 1e150."""
    d = draw(st.integers(1, 3), label="d")
    p = draw(st.integers(1, 3), label="p")
    n_out = draw(st.integers(1, 3), label="outputs")
    tracking = draw(st.booleans(), label="reference")
    diverging = draw(st.booleans(), label="diverging plant")
    n_steps = draw(st.integers(2, 64), label="n_steps")
    horizon = draw(st.sampled_from([0.5, 1.0, 2.0]), label="horizon")
    slow_time = draw(st.floats(0.0, 5000.0), label="slow time")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))

    scale = DIVERGING_SCALE if diverging else 1.0
    a0, a1 = 0.8 * rng.standard_normal((2, d, d))
    b0, b1 = rng.standard_normal((2, d, p))
    rate = rng.uniform(1e-3, 1.0)
    scenario = Scenario(
        name="generated-drifting",
        dynamics=LinearDynamics(a_fn=lambda t: scale * (a0 + math.sin(rate * t) * a1),
                                b_fn=lambda t: b0 + math.cos(rate * t) * b1,
                                state_dim=d, control_dim=p),
        cost=QuadraticCost(c_matrix=rng.standard_normal((n_out, d)),
                           p_matrix=_psd(rng, n_out), q_matrix=_psd(rng, n_out),
                           r_matrix=_psd(rng, p, floor=0.5),
                           reference=_reference(rng, n_out) if tracking else None),
        grid=TimeGrid(0.0, horizon, n_steps),
        basis=FourierPairsBasis(m=draw(st.integers(1, 3), label="m"), horizon=horizon,
                                extension=draw(st.sampled_from([0.1, 0.5, 1.0]),
                                               label="extension")),
        initial_conditions=list(rng.standard_normal((draw(st.integers(1, 3), label="starts"),
                                                     d))),
    )
    flat = 0.5 * rng.standard_normal(p * scenario.basis.n_functions)
    return scenario, flat, slow_time, diverging


def _stepwise_open_loop(scenario, coeffs, slow_time):
    """(states, node controls, J) of every initial condition in order, up to
    and including the first that diverges, which gives its step index in
    place of the triple: step-by-step generic RK4 with A and B frozen at
    slow_time and the control summed at every stage time."""
    a = scenario.dynamics.a_fn(slow_time)
    b = scenario.dynamics.b_fn(slow_time)

    def control(tau):
        return coeffs.values @ _fourier_rows(scenario.basis, tau)

    controls = np.stack([control(tau) for tau in scenario.grid.nodes()])
    episodes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for x0 in scenario.initial_conditions:
            try:
                states = integrate_rk4(lambda tau, x: a @ x + b @ control(tau), x0,
                                       scenario.grid)
            except IntegrationDivergedError as exc:
                episodes.append(exc.step_index)
                break
            cost, _ = _per_node_cost(scenario.cost, scenario.grid, states, controls)
            episodes.append((states, controls, cost))
    return episodes


@DIFFERENTIAL
@given(drifting_problems())
def test_drifting_episodes_match_stepwise_rk4_of_the_frozen_plant(problem):
    scenario, flat, slow_time, diverging = problem
    coeffs = ControllerCoefficients.from_flat(flat, scenario.control_dim)
    expected = _stepwise_open_loop(scenario, coeffs, slow_time)
    if diverging:
        failed_step = expected[-1]
        assert isinstance(failed_step, int), "a diverging draw stayed finite"
        for episodes in (lambda: run_multi_episode(scenario, coeffs, slow_time),
                         lambda: open_loop_cost(scenario)(flat, slow_time)):
            with pytest.raises(IntegrationDivergedError) as exc:
                episodes()
            assert exc.value.step_index == failed_step
        # run_es measures its first episode at slow time 0 and adds the iteration
        at_start = _stepwise_open_loop(scenario, coeffs, 0.0)[-1]
        config = EsConfig.build(k=0.1, alpha=1.0, omega0=100.0, n_coeffs=flat.size)
        with pytest.raises(IntegrationDivergedError) as exc:
            run_scenario_es(scenario, config, 1, initial_coeffs=flat)
        assert exc.value.iteration == 0
        assert exc.value.step_index == at_start
        return
    multi = run_multi_episode(scenario, coeffs, slow_time)
    for episode, (states, controls, cost) in zip(multi.episodes, expected, strict=True):
        assert _close(episode.states, states)
        assert _close(episode.controls, controls)
        assert math.isclose(episode.cost, cost, rel_tol=1e-12)
    assert math.isclose(multi.total_cost, sum(cost for _, _, cost in expected),
                        rel_tol=1e-12)
    # a drifting plant is simulated on every path, with the same bits, and
    # never gets a cached model
    assert open_loop_cost(scenario)(flat, slow_time) == multi.total_cost
    assert run_episode(scenario, coeffs, slow_time).cost == multi.episodes[0].cost
    assert "_episode_model" not in vars(scenario)


SHIPPED = {p.stem: p for p in shipped_scenarios()}
SCALAR_OPEN_LOOP = ("example1_integrator", "example2_scalar", "example2_scalar_periodic",
                    "example3_tracking", "timevarying_noisy")


@st.composite
def scalar_open_loop_problems(draw):
    """A shipped scalar open-loop scenario, as shipped or with a drifting A
    or B, one or two initial conditions, or a diverging A(t); the flat
    coefficients and the slow time of one episode; and whether it diverges."""
    name = draw(st.sampled_from(SCALAR_OPEN_LOOP), label="scenario")
    variant = draw(st.sampled_from(["shipped", "drifting a", "drifting b", "two starts",
                                    "diverging"]), label="variant")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    dynamics = read_scenario_config(SHIPPED[name])["dynamics"]
    overrides = {
        "shipped": {},
        "drifting a": {"dynamics.a": f"({dynamics['a']}) + t/1000"},
        "drifting b": {"dynamics.b": f"({dynamics['b']}) * (1 + 0.25*sin(t/300))"},
        "two starts": {"initial_conditions": "[[1.5], [-0.7]]"},
        # each step amplifies by about (h |A|)^4 / 24 > 1e150
        "diverging": {"dynamics.a": "1e45 * (1 + t/1000)"},
    }[variant]
    scenario = load_scenario(SHIPPED[name], overrides)
    flat = rng.uniform(0.1, 10.0) * rng.standard_normal(scenario.basis.n_functions)
    return scenario, flat, draw(st.floats(0.0, 5000.0), label="slow time"), \
        variant == "diverging"


@DIFFERENTIAL
@given(scalar_open_loop_problems())
def test_scalar_episode_costs_give_the_bits_of_the_simulated_trajectory(problem):
    scenario, flat, slow_time, diverging = problem
    scalar_costs = _scalar_episode_costs(scenario, len(scenario.initial_conditions))
    assert scalar_costs is not None
    values = flat.reshape(1, -1)
    if diverging:
        with pytest.raises(IntegrationDivergedError) as simulated:
            _integrate_open_loop(scenario, values, slow_time, scenario.initial_conditions[0])
        for costs in (lambda: scalar_costs(flat, slow_time),
                      lambda: open_loop_cost(scenario)(flat, slow_time)):
            with pytest.raises(IntegrationDivergedError) as exc:
                costs()
            assert exc.value.step_index == simulated.value.step_index
        return
    expected = []
    for x0 in scenario.initial_conditions:
        states, u_nodes = _integrate_open_loop(scenario, values, slow_time, x0)
        expected.append(cost_of_trajectory(scenario.cost, scenario.grid, states, u_nodes))
    assert scalar_costs(flat, slow_time) == expected
    if not scenario.dynamics.time_invariant:  # served by the scalar costs
        total = open_loop_cost(scenario)(flat, slow_time)
        assert total == (expected[0] if len(expected) == 1 else float(sum(expected)))
    # the first measurement runs the episode, the second takes the cost-only path
    measurement = episode_measurement(scenario, delta=1e-3)
    s = int(slow_time)
    assert measurement(flat, s) == measurement(flat, s)


def _counting_integrations(monkeypatch):
    """A list that gets one entry per _integrate_open_loop call from now on."""
    calls = []
    original = scenario_module._integrate_open_loop

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(scenario_module, "_integrate_open_loop", counted)
    return calls


def _drifting_scenario(d, p, general_dynamics=False, general_cost=False):
    """A drifting plant with d states and p controls under a quadratic cost
    (GeneralDynamics or GeneralCost on request) and one initial condition."""
    def a_fn(t):
        return (-1.0 - 1e-3 * t) * np.eye(d)

    def b_fn(t):
        return np.ones((d, p)) * (1.0 + 1e-3 * t)

    if general_dynamics:
        dynamics = GeneralDynamics(f=lambda tau, x, u: a_fn(0.0) @ x + b_fn(0.0) @ u,
                                   state_dim=d, control_dim=p)
    else:
        dynamics = LinearDynamics(a_fn=a_fn, b_fn=b_fn, state_dim=d, control_dim=p)
    cost = QuadraticCost(c_matrix=np.eye(d), p_matrix=np.eye(d), q_matrix=np.eye(d),
                         r_matrix=np.eye(p))
    if general_cost:
        cost = _as_general(cost)
    return Scenario(name="dispatch", dynamics=dynamics, cost=cost,
                    grid=TimeGrid(0.0, 1.0, 40),
                    basis=FourierPairsBasis(m=2, horizon=1.0, extension=0.5),
                    initial_conditions=[np.ones(d)])


@pytest.mark.parametrize("d, p, general_dynamics, general_cost, scalar", [
    (1, 1, False, False, True),
    (2, 1, False, False, False),
    (1, 2, False, False, False),
    (3, 3, False, False, False),
    (1, 1, True, False, False),
    (1, 1, False, True, False),
])
def test_only_scalar_linear_quadratic_episodes_take_the_scalar_costs(
        d, p, general_dynamics, general_cost, scalar, monkeypatch):
    scenario = _drifting_scenario(d, p, general_dynamics, general_cost)
    assert (_scalar_episode_costs(scenario, len(scenario.initial_conditions)) is not None) == scalar
    calls = _counting_integrations(monkeypatch)
    flat = np.linspace(-1.0, 1.0, p * scenario.basis.n_functions)
    open_loop_cost(scenario)(flat, 250.0)
    assert len(calls) == (0 if scalar else 1)


def test_a_drifting_plant_never_gets_a_cached_episode_model():
    scenario = load_scenario(SHIPPED["timevarying_noisy"])
    flat = np.linspace(-0.5, 0.5, scenario.basis.n_functions)
    measurement = episode_measurement(scenario, delta=1e-3)
    for s in range(3):
        measurement(flat, s)
    run_episode(scenario, ControllerCoefficients.from_flat(flat, 1), slow_time=900.0)
    early, late = episode_model(scenario, 0.0), episode_model(scenario, 4000.0)
    assert early is not late and not np.array_equal(early.hessian, late.hessian)
    assert "_episode_model" not in vars(scenario)


def test_a_replaced_scenario_never_reuses_the_original_model():
    original = load_scenario(SHIPPED["example2_scalar"])
    model = episode_model(original)
    assert vars(original)["_episode_model"] is model
    steeper = dataclasses.replace(original, dynamics=LinearDynamics.constant(2.0, 1.0))
    assert "_episode_model" not in vars(steeper)
    replaced_model = episode_model(steeper)
    assert replaced_model is not model and vars(steeper)["_episode_model"] is replaced_model
    assert vars(original)["_episode_model"] is model
    flat = np.linspace(-0.5, 0.5, steeper.basis.n_functions)
    served = open_loop_cost(steeper)(flat, 0.0)
    simulated = _scalar_episode_costs(steeper, 1)(flat, 0.0)[0]
    assert math.isclose(served, simulated, rel_tol=1e-9)
    assert not math.isclose(served, open_loop_cost(original)(flat, 0.0), rel_tol=1e-3)


@st.composite
def step_map_problems(draw):
    """(A, stage samples of the forcing or None, start, grid, diverging) of
    one draw: d up to 3, a start of shape (d,) or a (d, cols) block. The
    forcing samples are random, so both sides read the same values whatever
    their stage order. A diverging A is scaled by DIVERGING_SCALE."""
    d = draw(st.integers(1, 3), label="d")
    cols = draw(st.sampled_from([None, 1, 3]), label="block columns")
    forced = draw(st.booleans(), label="forcing")
    diverging = draw(st.booleans(), label="diverging plant")
    n_steps = draw(st.integers(2, 64), label="n_steps")
    grid = TimeGrid(0.0, draw(st.sampled_from([0.5, 1.0, 2.0]), label="horizon"), n_steps)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    a = (DIVERGING_SCALE if diverging else 1.0) * rng.standard_normal((d, d))
    shape = (d,) if cols is None else (d, cols)
    forcing = rng.standard_normal((2 * n_steps + 1,) + shape) if forced else None
    return a, forcing, rng.standard_normal(shape), grid, diverging


@DIFFERENTIAL
@given(step_map_problems())
def test_constant_a_step_map_matches_the_stacked_one_on_generated_plants(problem):
    # the frozen step (rk4_frozen_step with B = I) against the stage
    # recursion on A broadcast to a stack, both scanned by propagate_linear
    a, forcing, x0, grid, diverging = problem
    runs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for steps in (frozen_steps, stacked_steps):
            try:
                runs.append(propagate_linear(*steps(a, forcing, grid), x0, grid))
            except IntegrationDivergedError as exc:
                runs.append(exc.step_index)
    frozen, stacked = runs
    if isinstance(frozen, int) or isinstance(stacked, int):
        assert all(isinstance(run, int) for run in runs) and frozen == stacked
        return
    assert not diverging, "a diverging draw stayed finite"
    assert np.abs(frozen - stacked).max() <= 1e-13 * np.abs(stacked).max()


@st.composite
def riccati_problems(draw):
    """(dynamics, cost, grid, diverging) of one draw: d, p and outputs up to
    3, with or without a tracking reference. A diverging draw's terminal
    weight is -1e8 times a positive definite one, which drives S to -inf
    within the first steps of the backward sweep. S is never checked for
    definiteness, which the packed solve does not do, and which coarse
    grids (RK4 does not keep S semidefinite) would trip."""
    d = draw(st.integers(1, 3), label="d")
    p = draw(st.integers(1, 3), label="p")
    n_out = draw(st.integers(1, 3), label="outputs")
    stable = draw(st.booleans(), label="stable A")
    tracking = draw(st.booleans(), label="reference")
    diverging = draw(st.booleans(), label="diverging")
    n_steps = draw(st.integers(2, 64), label="n_steps")
    horizon = draw(st.sampled_from([0.5, 1.0, 2.0]), label="horizon")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))

    a = 0.8 * rng.standard_normal((d, d))
    a += ((-0.5 if stable else 0.5) - np.linalg.eigvals(a).real.max()) * np.eye(d)
    terminal = _psd(rng, n_out, floor=0.5) * (-1e8 if diverging else 1.0)
    cost = QuadraticCost(c_matrix=rng.standard_normal((n_out, d)), p_matrix=terminal,
                         q_matrix=_psd(rng, n_out), r_matrix=_psd(rng, p, floor=0.5),
                         reference=_reference(rng, n_out) if tracking else None,
                         terminal_indefinite_ok=True)
    return (LinearDynamics.constant(a, rng.standard_normal((d, p))), cost,
            TimeGrid(0.0, horizon, n_steps), diverging)


@DIFFERENTIAL
@given(riccati_problems())
def test_riccati_sweep_matches_the_packed_rk4_solve_on_generated_problems(problem):
    dynamics, cost, grid, diverging = problem
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            expected = packed_riccati_reference(dynamics, cost, grid)
        except RiccatiInstabilityError as exc:
            expected = exc
    assert isinstance(expected, RiccatiInstabilityError) or not diverging, \
        "a diverging draw stayed finite"
    if isinstance(expected, RiccatiInstabilityError):  # coarse grids can blow up too
        with pytest.raises(RiccatiInstabilityError) as got:
            solve_riccati(dynamics, cost, grid)
        assert str(got.value) == str(expected)
        assert got.value.node_index == expected.node_index is not None
        return
    solution = solve_riccati(dynamics, cost, grid)
    for name in ("s_matrices", "gains", "feedforward", "_s_stages", "_k_stages",
                 "_v_stages"):
        got, want = getattr(solution, name), getattr(expected, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


# --- streamed run records ---------------------------------------------------


def _artifacts(out):
    """The bytes of every file in an output directory, with summary.json
    parsed and its wall time dropped."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.name == "summary.json":
            summary = json.loads(path.read_text())
            del summary["wall_time_s"]
            files[path.name] = summary
        else:
            files[path.name] = path.read_bytes()
    return files


# lengths shorter than the 18-row final window, and on either side of a block
# edge of the streamed run, cut to 64 rows so that short runs cross edges
@pytest.mark.parametrize("n_iterations", [1, 17, 63, 64, 65, 200])
@pytest.mark.parametrize("path", shipped_scenarios(), ids=lambda path: path.stem)
def test_streamed_artifacts_equal_the_reference_writers_on_the_full_record(
        path, n_iterations, tmp_path, monkeypatch):
    spec = ExperimentSpec(scenario_path=str(path), n_iterations=n_iterations)
    monkeypatch.setattr(es_module, "_ROW_BLOCK", 64)
    run_experiment(dataclasses.replace(spec, out_dir=str(tmp_path / "streamed")))

    # the same run on the full in-memory record, iterations.csv from the
    # reference writer
    full = tmp_path / "full"
    run_es = es_module.run_es

    def in_memory(*args, consume_rows, **kwargs):
        record = run_es(*args, **kwargs)
        assert record.dropped_rows == 0
        reference_iterations_csv(full / "iterations.csv", record)
        return record

    monkeypatch.setattr(harness, "run_es", in_memory)
    monkeypatch.setattr(feedback_module, "run_es", in_memory)
    run_experiment(dataclasses.replace(spec, out_dir=str(full)))

    streamed, expected = _artifacts(tmp_path / "streamed"), _artifacts(full)
    assert "iterations.csv" in expected and list(streamed) == list(expected)
    for name in expected:
        assert streamed[name] == expected[name], name


# --- noise draws ------------------------------------------------------------


def test_noise_draws_at_block_edges_equal_one_philox_generator_per_draw():
    assert NoiseModel._BLOCK == 512
    edges = [0, 511, 512, 513, 1023, 1024]
    for order in (edges, edges[::-1], [1024, 0, 513, 1023, 511, 512]):
        model = NoiseModel(0.5, 20260810)
        assert [model.draw(i).hex() for i in order] == \
            [fresh_philox_draw(0.5, 20260810, i).hex() for i in order]
    # two models on one seed keep their blocks apart, interleaved either way
    first, second = NoiseModel(0.5, 42), NoiseModel(1.25, 42)
    for i, j in zip(edges, edges[::-1]):
        assert first.draw(i).hex() == fresh_philox_draw(0.5, 42, i).hex()
        assert second.draw(j).hex() == fresh_philox_draw(1.25, 42, j).hex()
        assert second.draw(i).hex() == fresh_philox_draw(1.25, 42, i).hex()
