"""The benchmark's independent references against closed forms."""
import dataclasses
import math

import numpy as np
import pytest

import reference


def test_scalar_riccati_closed_form_is_a_tanh_for_the_integrator():
    # dx/dtau = u with 1/2 int (x^2 + u^2): dS/dsigma = 1 - S^2, S(0) = 0
    sigma = np.linspace(0.0, 3.0, 31)
    s = reference.scalar_riccati(0.0, 1.0, 1.0, 0.0, 1.0, 1.0, sigma)
    np.testing.assert_allclose(s, np.tanh(sigma), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("name", ["example2_scalar", "timevarying_noisy"])
def test_scalar_riccati_closed_form_matches_the_ode_solver(name, scenario_path):
    prob = reference.load_problem(scenario_path(name))
    slow_time = 700.0
    closed_j, closed_law = reference.riccati(prob, slow_time)
    # the same plant through the general matrix path (ODE solver for S)
    as_matrix = dataclasses.replace(prob, a_expr=None, b_expr=None)
    ode_j, ode_law = reference.riccati(as_matrix, slow_time)
    np.testing.assert_allclose(ode_j, closed_j, rtol=1e-10)
    for tau in np.linspace(prob.t_start, prob.t_end, 11):
        np.testing.assert_allclose(ode_law(tau)[0], closed_law(tau)[0], rtol=1e-9)


def test_example1_integrator_optimum_is_tanh_1(scenario_path):
    # declared q = r = 2 (half convention): S = 2 tanh(sigma), J* = tanh(1) for x0 = 1
    prob = reference.load_problem(scenario_path("example1_integrator"))
    j_star, _ = reference.riccati(prob, 0.0)
    assert j_star[0] == pytest.approx(math.tanh(1.0), rel=1e-14)


def _integrator_cost_closed_form(c1: float, c2: float, w: float) -> float:
    """int_0^1 (x^2 + u^2) for dx/dtau = u = c1 cos(w tau) + c2 sin(w tau), x(0) = 1."""
    i_s = (1.0 - math.cos(w)) / w
    i_c = math.sin(w) / w
    i_ss = 0.5 - math.sin(2.0 * w) / (4.0 * w)
    i_cc = 0.5 + math.sin(2.0 * w) / (4.0 * w)
    i_sc = math.sin(w) ** 2 / (2.0 * w)
    # x = alpha + beta sin(w tau) + gamma cos(w tau)
    alpha, beta, gamma = 1.0 + c2 / w, c1 / w, -c2 / w
    x2 = (alpha ** 2 + beta ** 2 * i_ss + gamma ** 2 * i_cc + 2 * alpha * beta * i_s
          + 2 * alpha * gamma * i_c + 2 * beta * gamma * i_sc)
    u2 = c1 ** 2 * i_cc + c2 ** 2 * i_ss + 2 * c1 * c2 * i_sc
    return x2 + u2


@pytest.mark.parametrize("coeffs", [(0.0, 0.0), (-0.8, 0.3), (1.5, -2.0)])
def test_example1_grid_cost_matches_the_quadrature_closed_form(coeffs, scenario_path):
    prob = reference.load_problem(scenario_path("example1_integrator"))
    w = 2.0 * math.pi / (prob.t_end - prob.t_start + prob.extension)
    exact = _integrator_cost_closed_form(*coeffs, w)
    # trapezoid error on 2000 steps is O(h^2) ~ 1e-8 of the cost
    assert reference.episode_cost(prob, np.array(coeffs), 0.0) == pytest.approx(exact, rel=1e-7)


def test_first_within_gap_counts_episodes_of_the_trailing_mean():
    costs = np.array([10.0, 8.0, 6.0, 4.0, 2.0, 1.0])
    # trailing means over 2 episodes: 9, 7, 5, 3, 1.5
    # mean 3 <= 1 + 2 first holds over episodes 4 and 5 (s = 3, 4)
    assert reference.first_within_gap(costs, 1.0, 2, 2.0) == 5
    assert reference.first_within_gap(costs, 1.0, 2, 0.4) is None
