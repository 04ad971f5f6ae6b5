import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import (X0_2D, Y0_2D, eval_gain, feedback_2d_scenario, project_gains,
                     quadrature_trapezoid, quadratic_cost_samples, scalar_scenario,
                     zero_gain_field)
from escontrol.basis import CustomSampledBasis, FourierPairsBasis
from escontrol.errors import (ContractViolationError, IllPosedSynthesisError,
                              IntegrationDivergedError)
from escontrol.es import PHASE_COS, PHASE_SIN
from escontrol.feedback import (GainField, gain_dither_assignment, run_feedback_episodes,
                                synthesize_gain)
from escontrol.harness import es_config_for, load_scenario, scenarios_dir
from escontrol.lqr import optimal_cost_quadratic_form, scenario_oracle, simulate_optimal
from escontrol.ode import TimeGrid, integrate_rk4_linear
from escontrol.scenario import (coefficients_of, cost_of_trajectory, run_episode,
                                run_multi_episode)


def test_eval_gain_zeros_and_single_entry():
    basis = FourierPairsBasis(m=2, horizon=1.0, extension=0.1)
    zero = zero_gain_field(basis, state_dim=2, control_dim=2)
    assert np.all(eval_gain(zero, 0.3) == 0.0)

    coeffs = np.zeros((2, 2, 4))
    coeffs[0, 0, 0] = 1.0  # a_1 of entry (1,1): cos term, equals 1 at tau=0
    field = GainField(basis, 2, 2, coeffs)
    k0 = eval_gain(field, 0.0)
    assert k0[0, 0] == pytest.approx(1.0)
    assert np.all(k0.ravel()[1:] == 0.0)


def test_eval_gain_matches_direct_summation(rng):
    basis = FourierPairsBasis(m=3, horizon=1.0, extension=0.1)
    coeffs = rng.standard_normal((2, 2, 6))
    field = GainField(basis, 2, 2, coeffs)
    tau = 0.617
    k = eval_gain(field, tau)
    t_eff = 1.1
    for l in range(2):
        for q in range(2):
            direct = sum(
                coeffs[l, q, 2 * j] * math.cos(2 * math.pi * (j + 1) * tau / t_eff)
                + coeffs[l, q, 2 * j + 1] * math.sin(2 * math.pi * (j + 1) * tau / t_eff)
                for j in range(3)
            )
            assert k[l, q] == pytest.approx(direct, abs=1e-12)


def test_eval_gain_superposition(rng):
    basis = FourierPairsBasis(m=2, horizon=1.0, extension=0.1)
    c1 = rng.standard_normal((2, 2, 4))
    c2 = rng.standard_normal((2, 2, 4))
    tau = 0.25
    total = eval_gain(GainField(basis, 2, 2, c1 + c2), tau)
    assert np.allclose(
        total,
        eval_gain(GainField(basis, 2, 2, c1), tau) + eval_gain(GainField(basis, 2, 2, c2), tau),
        atol=1e-12,
    )


def test_eval_gain_out_of_range():
    basis = FourierPairsBasis(m=1, horizon=1.0, extension=0.1)
    field = zero_gain_field(basis, 2, 2)
    with pytest.raises(ContractViolationError):
        eval_gain(field, 1.2)


def test_zero_field_reproduces_free_response():
    scenario = feedback_2d_scenario(n_steps=800)
    zero = zero_gain_field(scenario.basis, 2, 2)
    res = run_feedback_episodes(scenario, zero, [np.array(X0_2D)])[0]
    a = np.array(scenario.dynamics.a_fn(0.0))
    states = np.stack([expm(a * t) @ np.array(X0_2D) for t in scenario.grid.nodes()])
    expected = quadratic_cost_samples(scenario.cost, scenario.grid, states,
                                      np.zeros((scenario.grid.n_steps + 1, 2)))
    assert res.cost == pytest.approx(expected, rel=1e-8)
    assert np.allclose(res.states, states, rtol=1e-9, atol=1e-9)


def test_zero_initial_condition_costs_nothing(rng):
    scenario = feedback_2d_scenario(n_steps=300)
    field = GainField(scenario.basis, 2, 2, rng.standard_normal((2, 2, 20)))
    res = run_feedback_episodes(scenario, field, [np.zeros(2)])[0]
    assert res.cost == 0.0
    assert np.all(res.states == 0.0)


def test_projected_oracle_gains_are_near_optimal():
    # with a DC-capable basis the least-squares fit of K* is near-optimal
    scenario = feedback_2d_scenario(n_steps=800, m=10, extension=1.0)
    sol = scenario_oracle(scenario)
    field = project_gains(sol, scenario.basis, scenario.grid)
    for x0 in (X0_2D, Y0_2D):
        j_star = optimal_cost_quadratic_form(sol, np.array(x0))
        j_fit = run_feedback_episodes(scenario, field, [np.array(x0)])[0].cost
        assert j_fit >= j_star - 1e-8
        assert (j_fit - j_star) / j_star < 0.02


@pytest.mark.parametrize("name", ["feedback_2d", "feedback_tracking_demo"])
def test_batched_closed_loop_matches_stepwise_simulation(name, rng):
    # reference: one episode at a time through the step-by-step RK4 scan,
    # with the gain evaluated by direct summation over the basis
    scenario = load_scenario(scenarios_dir() / f"{name}.scn")
    p, n = scenario.control_dim, scenario.state_dim
    grid = scenario.grid
    n_steps = grid.n_steps
    # basis rows at the RK4 stage times: the nodes, then the midpoints
    phi_s = scenario.basis.eval_matrix(np.concatenate([grid.nodes(), grid.midpoints()]))
    a = np.atleast_2d(scenario.dynamics.a_fn(0.0))
    b = np.atleast_2d(scenario.dynamics.b_fn(0.0))
    n_coeffs = zero_gain_field(scenario.basis, n, p, scenario.feedforward).flat().size
    for _ in range(5):
        field = GainField.from_flat(0.5 * rng.standard_normal(n_coeffs), scenario.basis,
                                    n, p, feedforward=scenario.feedforward)
        k_s = np.einsum("pnf,tf->tpn", field.gain_coeffs, phi_s)
        v_s = phi_s @ field.ff_coeffs.T if field.has_feedforward else np.zeros((len(phi_s), p))
        forcing = v_s @ b.T if field.has_feedforward else None
        a_cl = a - np.einsum("ij,tjl->til", b, k_s)
        episodes = run_feedback_episodes(scenario, field, scenario.initial_conditions)
        assert len(episodes) == len(scenario.initial_conditions)
        for x0, episode in zip(scenario.initial_conditions, episodes):
            states = integrate_rk4_linear(a_cl, forcing, x0, grid)
            nodes = slice(n_steps + 1)
            controls = -np.einsum("tij,tj->ti", k_s[nodes], states) + v_s[nodes]
            cost = cost_of_trajectory(scenario.cost, scenario.grid, states, controls)
            scale = np.abs(states).max()
            assert np.abs(episode.states - states).max() <= 1e-12 * scale
            assert np.abs(episode.controls - controls).max() <= 1e-12 * np.abs(controls).max()
            assert episode.cost == pytest.approx(cost, rel=1e-12)



def test_run_episode_on_a_gain_field_is_the_closed_loop_from_the_first_start(rng):
    scenario = load_scenario(scenarios_dir() / "feedback_2d.scn")
    n_coeffs = zero_gain_field(scenario.basis, 2, 2).flat().size
    field = coefficients_of(scenario, 0.5 * rng.standard_normal(n_coeffs))
    episode = run_episode(scenario, field, slow_time=0.25, noise_index=4)
    direct = run_feedback_episodes(scenario, field, [scenario.initial_conditions[0]], 0.25)[0]
    assert np.array_equal(episode.states, direct.states)
    assert np.array_equal(episode.controls, direct.controls)
    assert episode.cost == direct.cost
    assert episode.measured_cost == direct.cost + scenario.noise.draw(4)

def test_closed_loop_divergence_reports_step_index():
    # K(tau) = -3000 cos(pi tau) makes the RK4 steps amplify by up to ~4e4
    scenario = scalar_scenario(m=1, extension=1.0, n_steps=100, name="blow-up")
    field = GainField(scenario.basis, 1, 1, np.array([[[-3000.0, 0.0]]]))
    x0 = scenario.initial_conditions[0]
    grid = scenario.grid
    k_s = -3000.0 * np.cos(np.pi * np.concatenate([grid.nodes(), grid.midpoints()]))
    a_cl = (1.0 - k_s)[:, None, None]

    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationDivergedError) as stepwise:
            integrate_rk4_linear(a_cl, None, x0, scenario.grid)
        with pytest.raises(IntegrationDivergedError) as batched:
            run_feedback_episodes(scenario, field, [x0])
    assert 0 < stepwise.value.step_index < 100
    assert batched.value.step_index == stepwise.value.step_index


def test_multi_episode_dispatches_gain_fields():
    scenario = feedback_2d_scenario(n_steps=300, noise_std=0.25, seed=5)
    zero = zero_gain_field(scenario.basis, 2, 2)
    multi = run_multi_episode(scenario, zero, noise_index=3)
    direct = sum(ep.cost for ep in run_feedback_episodes(scenario, zero,
                                                         scenario.initial_conditions))
    assert multi.total_cost == pytest.approx(direct, rel=1e-12)
    assert multi.measured_total_cost == pytest.approx(
        multi.total_cost + scenario.noise.draw(3), abs=0
    )


def test_feedback_episodes_refuse_a_field_or_start_that_does_not_fit(rng):
    scenario = load_scenario(scenarios_dir() / "feedback_2d.scn")
    basis, starts = scenario.basis, scenario.initial_conditions
    flat = 0.1 * rng.standard_normal(2 * 2 * basis.n_functions)
    own = run_feedback_episodes(scenario, GainField.from_flat(flat, basis, 2, 2), starts)
    # a basis equal in value is the same basis
    twin = dataclasses.replace(basis)
    assert twin is not basis
    assert [ep.cost for ep in run_feedback_episodes(
        scenario, GainField.from_flat(flat, twin, 2, 2), starts)] == [ep.cost for ep in own]
    misfits = [
        # the closed loop would read these coefficients on the scenario's basis
        GainField.from_flat(flat, FourierPairsBasis(m=10, horizon=1.0, extension=0.0), 2, 2),
        # the same 80 entries as a 2x1 gain on 40 functions, and on the scenario's basis
        GainField.from_flat(flat, FourierPairsBasis(m=20, horizon=1.0), 1, 2),
        GainField.from_flat(flat[:40], basis, 1, 2),
    ]
    for field in misfits:
        with pytest.raises(ContractViolationError, match="another basis|does not fit"):
            run_feedback_episodes(scenario, field, starts)
    fits = GainField.from_flat(flat, basis, 2, 2)
    for bad in ([np.zeros(3)], [np.zeros((2, 1))], [starts[0], 1.0]):
        with pytest.raises(ContractViolationError, match="initial condition shaped"):
            run_feedback_episodes(scenario, fits, bad)


def test_feedback_episodes_compare_sampled_bases_by_identity(rng):
    # a sampled basis holds arrays, which have no value equality: the
    # scenario's own basis fits, a copy with the same columns does not
    scenario = feedback_2d_scenario(n_steps=50, m=2)
    grid = TimeGrid(0.0, 1.0, 40)
    samples = scenario.basis.eval_matrix(grid.nodes())
    sampled = dataclasses.replace(
        scenario, basis=CustomSampledBasis(horizon=1.0, sample_grid=grid, samples=samples))
    flat = 0.1 * rng.standard_normal(2 * 2 * 4)
    episodes = run_feedback_episodes(
        sampled, GainField.from_flat(flat, sampled.basis, 2, 2), sampled.initial_conditions)
    assert all(math.isfinite(ep.cost) for ep in episodes)
    copies = [CustomSampledBasis(horizon=1.0, sample_grid=grid, samples=samples.copy()),
              scenario.basis]
    for basis in copies:
        with pytest.raises(ContractViolationError, match="another basis"):
            run_feedback_episodes(sampled, GainField.from_flat(flat, basis, 2, 2),
                                  sampled.initial_conditions)
    with pytest.raises(ContractViolationError, match="another basis"):
        run_feedback_episodes(scenario, GainField.from_flat(flat, sampled.basis, 2, 2),
                              scenario.initial_conditions)


def test_dither_assignment_follows_row_band_column_phase_rule():
    omega0 = 3197.0
    m = 10
    freqs, phases = gain_dither_assignment(omega0, m, state_dim=2, control_dim=2)
    assert freqs.shape == (80,)
    assert len(set(zip(freqs.tolist(), phases))) == 80  # distinct (freq, phase)
    assert len(set(freqs.tolist())) == 40               # each frequency reused once
    per_entry = freqs.reshape(2, 2, 2 * m)
    phase_entry = np.array(phases, dtype=object).reshape(2, 2, 2 * m)
    # row bands: row 1 in [w0, 1.35 w0], row 2 in (1.35 w0, 1.75 w0]
    assert per_entry[0].min() >= omega0 - 1e-9
    assert per_entry[0].max() <= 1.35 * omega0 + 1e-9
    assert per_entry[1].min() > 1.35 * omega0
    assert per_entry[1].max() <= 1.75 * omega0 + 1e-9
    # columns share the row band through quadrature phases
    assert np.array_equal(per_entry[0, 0], per_entry[0, 1])
    assert all(p == PHASE_COS for p in phase_entry[:, 0].ravel())
    assert all(p == PHASE_SIN for p in phase_entry[:, 1].ravel())


def test_dither_assignment_feedforward_gets_own_bands():
    freqs, phases = gain_dither_assignment(1000.0, 2, state_dim=1, control_dim=1,
                                           feedforward=True)
    assert freqs.shape == (8,)
    gain_freqs, ff_freqs = freqs[:4], freqs[4:]
    assert gain_freqs.max() <= 1.75 * 1000.0 + 1e-9
    assert ff_freqs.min() >= 1.75 * 1000.0 - 1e-9
    assert len(set(zip(freqs.tolist(), phases))) == 8


def test_synthesis_requires_exactly_n_independent_initial_conditions():
    es = {"k": 0.1, "alpha": 10.0, "omega0": 1000.0}
    scenario = feedback_2d_scenario(initial_conditions=[X0_2D], es_defaults=es)
    with pytest.raises(IllPosedSynthesisError):
        synthesize_gain(scenario, es_config_for(scenario), 5)
    dependent = feedback_2d_scenario(
        initial_conditions=[[1.0, -1.0], [2.0, -2.0]], es_defaults=es
    )
    with pytest.raises(IllPosedSynthesisError):
        synthesize_gain(dependent, es_config_for(dependent), 5)


def test_synthesis_refuses_a_scenario_without_the_feedback_flag():
    scenario = feedback_2d_scenario(n_steps=50, m=2, es_defaults={
        "k": 0.1, "alpha": 10.0, "omega0": 1000.0})
    config = es_config_for(scenario)
    scenario = dataclasses.replace(scenario, feedback=False)  # measured in open loop
    with pytest.raises(ContractViolationError, match="feedback: false"):
        synthesize_gain(scenario, config, 5)


def test_feedforward_synthesis_needs_an_extra_affinely_independent_start():
    scenario = dataclasses.replace(
        scalar_scenario(m=2, extension=1.0, n_steps=100, name="ff-count"), feedback=True,
        feedforward=True, es_defaults={"k": 0.2, "alpha": 50.0, "omega0": 1000.0})
    with pytest.raises(IllPosedSynthesisError, match="2 initial conditions"):
        synthesize_gain(scenario, es_config_for(scenario), 5)  # only one start
    scenario = dataclasses.replace(scenario, initial_conditions=[np.array([2.0]),
                                                                 np.array([2.0])])
    with pytest.raises(IllPosedSynthesisError, match="affinely"):
        synthesize_gain(scenario, es_config_for(scenario), 5)  # duplicated start
    scenario = dataclasses.replace(scenario, initial_conditions=[np.array([2.0]),
                                                                 np.array([-1.0])])
    field, _ = synthesize_gain(scenario, es_config_for(scenario), 5)
    assert field.has_feedforward


def test_synthesis_default_step_samples_the_fastest_dither_ten_times():
    scenario = feedback_2d_scenario(n_steps=50, m=2, es_defaults={
        "k": 0.1, "alpha": 10.0, "omega0": 1000.0})
    _, record = synthesize_gain(scenario, es_config_for(scenario), 1)
    freqs = record.config.frequencies
    assert record.config.delta == 2.0 * np.pi / (10.0 * float(freqs.max()))


def test_scalar_gain_synthesis_approaches_oracle_gain():
    scenario = dataclasses.replace(
        scalar_scenario(m=2, extension=1.0, n_steps=200, name="scalar-fb"), feedback=True,
        es_defaults={"k": 0.2, "alpha": 50.0, "omega0": 1000.0})
    sol = scenario_oracle(scenario)
    field, record = synthesize_gain(scenario, es_config_for(scenario), 8000)

    phi = scenario.basis_matrix_stages[:scenario.grid.n_steps + 1]
    k_es = field.gain_samples(phi)[:, 0, 0]
    k_star = sol.gains[:, 0, 0]
    proj = project_gains(sol, scenario.basis, scenario.grid)
    k_proj = proj.gain_samples(phi)[:, 0, 0]

    def l2(values):
        return math.sqrt(quadrature_trapezoid(values**2, scenario.grid))

    es_dist = l2(k_es - k_star)
    proj_dist = l2(k_proj - k_star)
    # the projection is the best the basis can do; ES cannot beat it
    assert es_dist >= proj_dist - 1e-9
    assert es_dist <= proj_dist + 0.08
    # converged closed-loop cost close to the analytic optimum
    j_star = optimal_cost_quadratic_form(sol, scenario.initial_conditions[0])
    j_es = run_episode(scenario, field).cost
    assert (j_es - j_star) / j_star < 0.05


def test_feedforward_field_tracks_reference():
    scenario = scalar_scenario(
        m=3, extension=1.0, n_steps=400, q=20.0, r=0.1,
        reference=lambda tau: np.atleast_1d(1.0 + 0.5 * np.sin(2.0 * np.pi * tau)),
        name="scalar-track-fb",
    )
    sol = scenario_oracle(scenario)
    field = project_gains(sol, scenario.basis, scenario.grid, include_feedforward=True)
    assert field.has_feedforward
    res = run_episode(scenario, field)
    _, _, j_star = simulate_optimal(scenario.dynamics, scenario.cost, scenario.grid,
                                    scenario.initial_conditions[0], sol)
    assert res.cost >= j_star - 1e-8
    assert (res.cost - j_star) / j_star < 0.05
