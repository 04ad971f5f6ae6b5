import math

import numpy as np
import pytest

from helpers import (example2_scenario, feedback_2d_scenario, packed_riccati_reference,
                     refined, scalar_scenario, zero_coefficients)
from escontrol.basis import ControllerCoefficients
from escontrol.errors import ContractViolationError, RiccatiInstabilityError
from escontrol.harness import load_scenario, shipped_scenarios
from escontrol.lqr import (_first_indefinite, optimal_cost_quadratic_form, oracle_costs,
                           scenario_oracle, simulate_optimal, solve_riccati)
from escontrol.ode import TimeGrid
from escontrol.scenario import (LinearDynamics, QuadraticCost, run_episode)


def scalar_riccati_closed_form(a, b, c, p, q, r, taus, horizon):
    """Constant-coefficient scalar Riccati solution (independent oracle).

    Solves -ds/dtau = 2 a s - (b^2/r) s^2 + q c^2 with s(T) = c^2 p.
    """
    taus = np.asarray(taus, dtype=float)
    beta = b * b / r
    gamma = q * c * c
    s_t = c * c * p
    disc = a * a + beta * gamma
    if disc == 0.0:  # double root at the origin: pure terminal-weight flow
        return s_t / (1.0 + s_t * beta * (horizon - taus))
    lam = 2.0 * math.sqrt(disc)
    s_plus = (a + math.sqrt(disc)) / beta
    s_minus = (a - math.sqrt(disc)) / beta
    kappa = (s_t - s_plus) / (s_t - s_minus)
    z = kappa * np.exp(lam * (taus - horizon))
    return (s_plus - s_minus * z) / (1.0 - z)


def test_pure_terminal_scalar_riccati_matches_closed_form():
    grid = TimeGrid(0.0, 1.0, 1000)
    dynamics = LinearDynamics.constant(0.0, 1.0)
    cost = QuadraticCost(c_matrix=1.0, p_matrix=3.0, q_matrix=0.0, r_matrix=1.0)
    sol = solve_riccati(dynamics, cost, grid)
    expected = scalar_riccati_closed_form(0.0, 1.0, 1.0, 3.0, 0.0, 1.0,
                                          grid.nodes(), 1.0)
    assert np.allclose(sol.s_matrices[:, 0, 0], expected, atol=1e-8)


def test_example2_scalar_riccati_matches_closed_form():
    scenario = example2_scenario()
    sol = scenario_oracle(scenario)
    expected = scalar_riccati_closed_form(1.0, 1.0, 1.0, 2.0, 2.0, 2.0,
                                          scenario.grid.nodes(), 1.0)
    assert np.allclose(sol.s_matrices[:, 0, 0], expected, atol=1e-7)
    # gains follow K = R^-1 B' S
    assert np.allclose(sol.gains[:, 0, 0], expected / 2.0, atol=1e-7)


def test_terminal_condition_is_exact():
    scenario = feedback_2d_scenario(n_steps=200)
    sol = scenario_oracle(scenario)
    expected = scenario.cost.c_matrix.T @ scenario.cost.p_matrix @ scenario.cost.c_matrix
    assert np.array_equal(sol.s_matrices[-1], expected)


def test_zero_reference_means_zero_feedforward():
    sol = scenario_oracle(example2_scenario())
    assert np.all(sol.feedforward == 0.0)


def test_s_symmetric_and_psd_with_psd_terminal_weight():
    grid = TimeGrid(0.0, 1.0, 400)
    dynamics = LinearDynamics.constant([[1.0, 0.25], [0.3, 0.7]],
                                       [[1.0, 0.1], [0.2, 0.5]])
    cost = QuadraticCost(c_matrix=np.eye(2), p_matrix=np.eye(2),
                         q_matrix=[[2.0, 0.1], [0.1, 10.0]],
                         r_matrix=[[0.5, 0.1], [0.1, 0.25]])
    sol = solve_riccati(dynamics, cost, grid)
    for s in sol.s_matrices:
        assert np.allclose(s, s.T, atol=1e-9)
        assert np.linalg.eigvalsh(s).min() >= -1e-8


def test_refinement_consistency_of_s0():
    for scenario in (example2_scenario(), feedback_2d_scenario(n_steps=1000)):
        coarse = scenario_oracle(scenario).s_matrices[0]
        fine = solve_riccati(scenario.dynamics, scenario.cost,
                             refined(scenario.grid)).s_matrices[0]
        drift = np.abs(fine - coarse).max() / np.abs(fine).max()
        assert drift < 1e-6


def test_simulate_optimal_at_equilibrium_is_zero():
    scenario = example2_scenario()
    sol = scenario_oracle(scenario)
    traj, controls, j_star = simulate_optimal(scenario.dynamics, scenario.cost,
                                              scenario.grid, np.array([0.0]), sol)
    assert np.all(traj.states == 0.0)
    assert j_star == 0.0


def test_example2_optimal_cost_and_quadratic_form_agree():
    scenario = example2_scenario()
    sol = scenario_oracle(scenario)
    traj, controls, j_star = simulate_optimal(scenario.dynamics, scenario.cost,
                                              scenario.grid, np.array([2.0]), sol)
    s0 = scalar_riccati_closed_form(1.0, 1.0, 1.0, 2.0, 2.0, 2.0,
                                    np.array([0.0]), 1.0)[0]
    expected = 0.5 * s0 * 4.0
    assert optimal_cost_quadratic_form(sol, np.array([2.0])) == pytest.approx(
        expected, abs=1e-7
    )
    assert j_star == pytest.approx(expected, abs=1e-5)
    e2 = math.e**2
    free_response = 4 * e2 + 2 * (e2 - 1)
    assert j_star < free_response


def test_quadratic_form_scaling_and_contract():
    scenario = example2_scenario()
    sol = scenario_oracle(scenario)
    base = optimal_cost_quadratic_form(sol, np.array([2.0]))
    scaled = optimal_cost_quadratic_form(sol, np.array([4.0]))
    assert scaled == pytest.approx(4.0 * base, rel=1e-10)
    assert optimal_cost_quadratic_form(sol, np.array([0.0])) == 0.0

    tracking = scalar_scenario(reference=lambda tau: np.atleast_1d(2.0), m=2)
    tracking_sol = scenario_oracle(tracking)
    with pytest.raises(ContractViolationError):
        optimal_cost_quadratic_form(tracking_sol, np.array([2.0]))


def test_optimality_against_random_basis_controllers(rng):
    scenario = example2_scenario()
    sol = scenario_oracle(scenario)
    _, _, j_star = simulate_optimal(scenario.dynamics, scenario.cost,
                                    scenario.grid, np.array([2.0]), sol)
    for _ in range(100):
        coeffs = ControllerCoefficients(rng.standard_normal((1, 10)))
        assert run_episode(scenario, coeffs).cost >= j_star - 1e-8


def test_tracking_oracle_beats_sampled_controllers(rng):
    scenario = scalar_scenario(
        p=2.0, q=20.0, r=1.0 / 50.0, m=4,
        reference=lambda tau: np.atleast_1d(2.0 + np.sin(2.0 * np.pi * tau)),
    )
    sol = scenario_oracle(scenario)
    assert sol.has_reference
    assert not np.all(sol.feedforward == 0.0)
    _, _, j_star = simulate_optimal(scenario.dynamics, scenario.cost,
                                    scenario.grid, np.array([2.0]), sol)
    zeros = zero_coefficients(scenario.control_dim, scenario.basis)
    assert run_episode(scenario, zeros).cost > j_star
    for _ in range(25):
        coeffs = ControllerCoefficients(rng.standard_normal((1, 8)) * 2.0)
        assert run_episode(scenario, coeffs).cost >= j_star - 1e-8


def test_oracle_costs_per_initial_condition():
    scenario = feedback_2d_scenario(n_steps=400)
    costs = oracle_costs(scenario)
    assert len(costs) == 2
    sol = scenario_oracle(scenario)
    for cost, x0 in zip(costs, scenario.initial_conditions):
        assert cost == pytest.approx(optimal_cost_quadratic_form(sol, x0), rel=1e-12)


def test_riccati_grid_mismatch_rejected():
    scenario = example2_scenario()
    sol = scenario_oracle(scenario)
    with pytest.raises(ContractViolationError):
        simulate_optimal(scenario.dynamics, scenario.cost, TimeGrid(0.0, 1.0, 500),
                         np.array([2.0]), sol)


SHIPPED = {p.stem: p for p in shipped_scenarios()}
SHIPPED_SLOW_TIMES = [(name, 0.0) for name in sorted(SHIPPED)] + [
    ("timevarying_noisy", 1500.0), ("timevarying_noisy", 4000.0)]


def _assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name, slow_time", SHIPPED_SLOW_TIMES)
def test_riccati_sweep_matches_the_packed_rk4_solve_bitwise(name, slow_time):
    scenario = load_scenario(SHIPPED[name])
    sol = scenario_oracle(scenario, slow_time)
    ref = packed_riccati_reference(scenario.dynamics, scenario.cost, scenario.grid,
                                   slow_time)
    for field in ("s_matrices", "gains", "feedforward", "_s_stages", "_k_stages",
                  "_v_stages"):
        _assert_same_bits(getattr(sol, field), getattr(ref, field))
    _assert_same_bits(oracle_costs(scenario, slow_time, sol),
                      oracle_costs(scenario, slow_time, ref))


def _blowing_up(state_dim, reference=None, terminal=-50.0):
    """A plant whose strongly negative terminal weight drives S to -inf
    within the horizon; with a positive one S stays finite."""
    eye = np.eye(state_dim)
    return (LinearDynamics.constant(eye, eye),
            QuadraticCost(c_matrix=eye, p_matrix=terminal * eye, q_matrix=eye,
                          r_matrix=eye, reference=reference,
                          terminal_indefinite_ok=True))


@pytest.mark.parametrize("state_dim, reference, terminal", [
    (1, None, -50.0), (1, lambda tau: np.atleast_1d(1.0 + np.sin(tau)), -50.0),
    (2, None, -50.0), (2, lambda tau: np.array([np.cos(tau), 2.0]), -50.0),
    # S stays finite, v overflows
    (1, lambda tau: np.atleast_1d(1e308), 1.0),
    (2, lambda tau: np.array([1.0, 1e308]), 1.0),
])
def test_riccati_blow_up_reports_the_step_of_the_packed_solve(state_dim, reference,
                                                              terminal):
    dynamics, cost = _blowing_up(state_dim, reference, terminal)
    grid = TimeGrid(0.0, 1.0, 200)
    with pytest.raises(RiccatiInstabilityError) as expected, \
            np.errstate(over="ignore", invalid="ignore"):
        packed_riccati_reference(dynamics, cost, grid)
    with pytest.raises(RiccatiInstabilityError) as got:
        solve_riccati(dynamics, cost, grid)
    assert str(got.value) == str(expected.value)
    assert "state became non-finite at step" in str(got.value)


def _per_node_first_indefinite(mats, tol):
    for idx in range(mats.shape[0]):
        if np.linalg.eigvalsh(mats[idx]).min() < tol:
            return idx
    return None


@pytest.mark.parametrize("failing", [0, 7, 19, None])
def test_first_indefinite_node_matches_the_per_node_check(failing):
    rng = np.random.default_rng(11)
    roots = rng.standard_normal((20, 2, 2))
    mats = roots @ np.transpose(roots, (0, 2, 1))  # PSD
    if failing is not None:
        mats[failing] -= 10.0 * np.eye(2)
        mats[-1 if failing != 19 else 0] -= 1e-9 * np.eye(2)  # inside the tolerance
    got = _first_indefinite(mats, -1e-8)
    assert got == _per_node_first_indefinite(mats, -1e-8) == failing


@pytest.mark.parametrize("name", ["example3_tracking", "feedback_tracking_demo"])
def test_tracking_sweep_samples_the_reference_once_per_stage_time(name):
    scenario = load_scenario(SHIPPED[name])
    cost, grid = scenario.cost, scenario.grid
    taus = []

    def recorded(tau):
        taus.append(tau)
        return reference(tau)

    reference = cost.reference
    object.__setattr__(cost, "reference", recorded)
    solve_riccati(scenario.dynamics, cost, grid)
    # the sweep's stage times: start, midpoint (k2 and k3) and end of each step
    sigma = TimeGrid(0.0, grid.span, 2 * grid.n_steps)
    half = 0.5 * sigma.h
    stages = {t + d for t in (k * sigma.h for k in range(sigma.n_steps))
              for d in (0.0, half, sigma.h)}
    assert len(taus) == 1 + len(stages)  # the terminal value, then one per time
    assert set(taus[1:]) == {grid.t_end - t for t in stages}
