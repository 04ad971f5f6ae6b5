import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (cumulative_trapezoid, homogeneous_prefix_transitions,
                     matmul_step_forcing, matmul_step_matrices)
from escontrol.basis import ControllerCoefficients, controller_samples
from escontrol.errors import ContractViolationError, IntegrationDivergedError
from escontrol.harness import load_scenario, shipped_scenarios
from escontrol.ode import (TimeGrid, integrate_rk4, integrate_rk4_linear, prefix_transitions,
                           propagate_linear, quadrature_trapezoid, rk4_step_forcing,
                           rk4_step_matrices, rk4_steps)


def test_grid_invariants():
    grid = TimeGrid(0.0, 1.0, 100)
    assert grid.h == pytest.approx(0.01)
    nodes = grid.nodes()
    assert nodes.shape == (101,)
    assert np.allclose(np.diff(nodes), grid.h)
    with pytest.raises(ContractViolationError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ContractViolationError):
        TimeGrid(0.0, 1.0, 1)


def test_zero_dynamics_stays_constant():
    traj = integrate_rk4(lambda t, x: np.zeros(1), np.array([3.0]), TimeGrid(0.0, 1.0, 100))
    assert np.all(traj.states == 3.0)


def test_exponential_growth_matches_closed_form():
    traj = integrate_rk4(lambda t, x: x, np.array([1.0]), TimeGrid(0.0, 1.0, 1000))
    assert abs(traj.states[-1, 0] - math.e) < 1e-9


def test_constant_derivative_is_exact():
    traj = integrate_rk4(lambda t, x: np.ones(1), np.array([2.0]), TimeGrid(0.0, 1.0, 10))
    assert traj.states[-1, 0] == pytest.approx(3.0, abs=1e-13)


def test_rk4_fourth_order_on_exponential():
    def error(n):
        traj = integrate_rk4(lambda t, x: x, np.array([1.0]), TimeGrid(0.0, 1.0, n))
        return abs(traj.states[-1, 0] - math.e)

    ratio = error(100) / error(200)
    assert 12.0 <= ratio <= 20.0


@settings(max_examples=25, deadline=None)
@given(
    a=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    scale=st.floats(-5.0, 5.0).filter(lambda v: abs(v) > 1e-3),
)
def test_linear_dynamics_scale_with_initial_condition(a, scale):
    mat = np.array(a).reshape(2, 2)
    grid = TimeGrid(0.0, 1.0, 64)
    v = np.array([1.0, -0.5])
    base = integrate_rk4(lambda t, x: mat @ x, v, grid).states
    scaled = integrate_rk4(lambda t, x: mat @ x, scale * v, grid).states
    assert np.allclose(scaled, scale * base, rtol=1e-12, atol=1e-12)


def test_divergence_reports_step_index():
    with pytest.raises(IntegrationDivergedError) as err, np.errstate(over="ignore"):
        integrate_rk4(lambda t, x: x * x, np.array([5.0]), TimeGrid(0.0, 1.0, 100))
    assert err.value.step_index is not None
    assert 0 <= err.value.step_index < 100


def test_trapezoid_constant_and_linear():
    grid = TimeGrid(0.0, 1.0, 10)
    assert quadrature_trapezoid(np.ones(11), grid) == pytest.approx(1.0, abs=1e-14)
    assert quadrature_trapezoid(grid.nodes(), grid) == pytest.approx(0.5, abs=1e-14)


def test_trapezoid_quadratic_converges():
    grid = TimeGrid(0.0, 1.0, 1000)
    taus = grid.nodes()
    assert quadrature_trapezoid(taus**2, grid) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_trapezoid_length_mismatch():
    with pytest.raises(ContractViolationError):
        quadrature_trapezoid(np.ones(10), TimeGrid(0.0, 1.0, 10))


@settings(max_examples=40, deadline=None)
@given(
    n_steps=st.integers(2, 50),
    slope=st.floats(-10.0, 10.0),
    offset=st.floats(-10.0, 10.0),
)
def test_trapezoid_exact_on_affine(n_steps, slope, offset):
    grid = TimeGrid(0.0, 2.0, n_steps)
    taus = grid.nodes()
    expected = slope * 2.0 + offset * 2.0  # integral of slope*tau+offset over [0,2]
    got = quadrature_trapezoid(slope * taus + offset, grid)
    assert got == pytest.approx(expected, abs=1e-11 * (1 + abs(expected)))


def test_cumulative_trapezoid_tracks_running_integral():
    grid = TimeGrid(0.0, 1.0, 500)
    taus = grid.nodes()
    running = cumulative_trapezoid(taus, grid)
    assert np.allclose(running, taus**2 / 2.0, atol=1e-6)
    assert running[0] == 0.0


def test_linear_fast_path_matches_generic_rk4():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2))
    grid = TimeGrid(0.0, 1.0, 100)
    taus = np.concatenate([grid.nodes(), grid.midpoints()])  # the RK4 stage times
    forcing = np.stack([np.sin(3.0 * taus), np.cos(2.0 * taus)], axis=1)
    x0 = np.array([0.3, -1.2])

    fast = integrate_rk4_linear(a, forcing, x0, grid)
    generic = integrate_rk4(
        lambda t, x: a @ x + np.array([math.sin(3.0 * t), math.cos(2.0 * t)]), x0, grid
    )
    scale = np.abs(generic.states).max()
    assert np.allclose(fast.states, generic.states, atol=1e-12 * scale, rtol=1e-12)


def test_linear_fast_path_scalar_matches_generic():
    grid = TimeGrid(0.0, 1.0, 200)
    taus = np.concatenate([grid.nodes(), grid.midpoints()])  # the RK4 stage times
    forcing = np.cos(2.0 * np.pi * taus)[:, None]
    fast = integrate_rk4_linear(np.array([[1.0]]), forcing, np.array([2.0]), grid)
    generic = integrate_rk4(
        lambda t, x: x + math.cos(2.0 * math.pi * t), np.array([2.0]), grid
    )
    assert np.allclose(fast.states, generic.states, rtol=1e-12, atol=1e-12)


SHIPPED = {p.stem: p for p in shipped_scenarios()}
SCALAR_SLOW_TIMES = [("example1_integrator", 0.0), ("example2_scalar", 0.0),
                     ("example2_scalar_periodic", 0.0), ("example3_tracking", 0.0),
                     ("feedback_tracking_demo", 0.0), ("timevarying_noisy", 0.0),
                     ("timevarying_noisy", 1500.0), ("timevarying_noisy", 4000.0)]


def _frozen_plant_inputs(name, slow_time):
    """(A, forcing samples, x0, grid) of an open-loop episode of a shipped
    scenario under random coefficients, plant frozen at slow_time."""
    scenario = load_scenario(SHIPPED[name])
    a = np.atleast_2d(scenario.dynamics.a_fn(slow_time))
    b = np.atleast_2d(scenario.dynamics.b_fn(slow_time))
    rng = np.random.default_rng(5)
    coeffs = ControllerCoefficients(
        rng.standard_normal((scenario.control_dim, scenario.basis.n_functions)))
    u_s = controller_samples(coeffs, scenario.basis_matrix_stages())
    return a, u_s @ b.T, scenario.initial_conditions[0], scenario.grid


def _broadcast(a, grid):
    return np.broadcast_to(a, (2 * grid.n_steps + 1,) + a.shape)


@pytest.mark.parametrize("name, slow_time", SCALAR_SLOW_TIMES)
def test_constant_a_matches_the_broadcast_stack_bitwise(name, slow_time):
    a, forcing, x0, grid = _frozen_plant_inputs(name, slow_time)
    for f in (forcing, None):
        constant = integrate_rk4_linear(a, f, x0, grid).states
        stacked = integrate_rk4_linear(_broadcast(a, grid), f, x0, grid).states
        assert constant.tobytes() == stacked.tobytes()


def test_constant_a_matches_the_broadcast_stack_on_the_2x2_plant():
    a, _, _, grid = _frozen_plant_inputs("feedback_2d", 0.0)
    taus = np.concatenate([grid.nodes(), grid.midpoints()])
    forcing = np.stack([np.sin(3.0 * taus), np.cos(2.0 * taus)], axis=1)
    for x0 in (np.array([1.3, -1.1]), np.array([-1.0, -0.5])):
        for f in (forcing, None):
            constant = integrate_rk4_linear(a, f, x0, grid).states
            stacked = integrate_rk4_linear(_broadcast(a, grid), f, x0, grid).states
            assert np.abs(constant - stacked).max() <= 1e-13 * np.abs(stacked).max()


def test_unforced_scan_only_multiplies():
    # adding a zero forcing would turn -0.0 into 0.0
    for phi in (np.array([[0.5]]), np.full((4, 1, 1), 0.5)):
        states = propagate_linear(phi, None, np.array([-0.0]), TimeGrid(0.0, 1.0, 4)).states
        assert np.all(states == 0.0) and np.all(np.signbit(states))


def test_rk4_steps_on_floats_matches_integrate_rk4_bitwise():
    grid = TimeGrid(0.0, 1.0, 300)

    def rate(t, x):
        return 1.5 * x - 0.2 * x * x + math.cos(4.0 * t)

    floats = list(rk4_steps(rate, 0.7, grid))
    arrays = integrate_rk4(rate, np.array([0.7]), grid).states[1:, 0]
    assert np.array(floats).tobytes() == arrays.tobytes()


def _frozen_plant_block(name, slow_time):
    """(A, forcing samples, starts, grid): three open-loop episodes of a shipped
    scenario as one block of columns, plant frozen at slow_time."""
    a, forcing, x0, grid = _frozen_plant_inputs(name, slow_time)
    scales = np.array([1.0, -0.3, 2.5])
    return a, forcing[..., None] * scales, x0[:, None] * scales[::-1], grid


def _columns(a, forcing, starts, grid):
    """The block's columns, each scanned on its own."""
    return [integrate_rk4_linear(a, None if forcing is None else forcing[..., c],
                                 starts[:, c], grid).states
            for c in range(starts.shape[1])]


@pytest.mark.parametrize("name, slow_time", SCALAR_SLOW_TIMES)
def test_block_scan_matches_the_per_column_scans_bitwise(name, slow_time):
    a, forcing, starts, grid = _frozen_plant_block(name, slow_time)
    for f in (forcing, None):
        block = integrate_rk4_linear(a, f, starts, grid).states
        assert block.shape == (grid.n_steps + 1, 1, starts.shape[1])
        for c, column in enumerate(_columns(a, f, starts, grid)):
            assert block[..., c].tobytes() == column.tobytes()


def test_block_scan_matches_the_per_column_scans_on_the_2x2_plant():
    a, _, _, grid = _frozen_plant_inputs("feedback_2d", 0.0)
    taus = np.concatenate([grid.nodes(), grid.midpoints()])
    forcing = np.stack([np.sin(3.0 * taus), np.cos(2.0 * taus)], axis=1)
    forcing = forcing[..., None] * np.array([1.0, -0.3, 2.5])
    starts = np.array([[1.3, -1.0, 0.0], [-1.1, -0.5, 0.0]])
    for a_samples in (a, _broadcast(a, grid)):
        for f in (forcing, None):
            block = integrate_rk4_linear(a_samples, f, starts, grid).states
            for c, column in enumerate(_columns(a_samples, f, starts, grid)):
                assert np.abs(block[..., c] - column).max() <= 1e-13 * np.abs(column).max()


@pytest.mark.parametrize("name, slow_time", SCALAR_SLOW_TIMES)
def test_scalar_products_match_the_matrix_products_bitwise(name, slow_time):
    # d = 1 steps, forcing and scans multiply elementwise; a 1x1 matrix
    # product is the same single multiply
    a, forcing, _, grid = _frozen_plant_inputs(name, slow_time)
    n, h = grid.n_steps, grid.h
    a_s = a - np.random.default_rng(11).standard_normal((2 * n + 1, 1, 1))
    stacked, constant = (a_s[:n], a_s[n + 1:], a_s[1:n + 1]), (a, a, a)
    f = (forcing[:n], forcing[n + 1:], forcing[1:n + 1])
    f_block = tuple(fk[..., None] * np.array([1.0, -0.3, 2.5]) for fk in f)
    for stages in (stacked, constant):
        assert rk4_step_matrices(*stages, h).tobytes() == \
            matmul_step_matrices(*stages, h).tobytes()
        for fs in (f, f_block):
            assert rk4_step_forcing(*stages[1:], *fs, h).tobytes() == \
                matmul_step_forcing(*stages[1:], *fs, h).tobytes()

    phi = rk4_step_matrices(*stacked, h)
    w = rk4_step_forcing(*stacked[1:], *f, h)
    assert prefix_transitions(phi).tobytes() == homogeneous_prefix_transitions(phi).tobytes()
    maps, offsets = prefix_transitions(phi, w)
    homogeneous = homogeneous_prefix_transitions(phi, w)
    assert maps.tobytes() == homogeneous[:, :1, :1].tobytes()
    assert offsets.tobytes() == homogeneous[:, :1, 1].tobytes()


@pytest.mark.parametrize("a", [np.array([[200.0]]), np.array([[200.0, 1.0], [-1.0, 150.0]])],
                         ids=["scalar", "2x2"])
def test_diverging_block_reports_the_earliest_step_of_its_columns(a):
    grid = TimeGrid(0.0, 1.0, 100)
    # the middle column overflows first, the last one not at all
    starts = np.outer(np.ones(a.shape[0]), [1e250, 1e300, 1e200])
    steps = []
    for c in range(2):
        with pytest.raises(IntegrationDivergedError) as column:
            integrate_rk4_linear(a, None, starts[:, c], grid)
        steps.append(column.value.step_index)
    integrate_rk4_linear(a, None, starts[:, 2], grid)
    assert steps[1] < steps[0]
    with pytest.raises(IntegrationDivergedError) as block:
        integrate_rk4_linear(a, None, starts, grid)
    assert block.value.step_index == steps[1]
