import dataclasses
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import (A_2D, B_2D, P_2D, Q_2D, R_2D, X0_2D, Y0_2D, fresh_philox_draw,
                     example2_scenario, feedback_2d_scenario, quadratic_cost_samples,
                     quadrature_trapezoid, run_scenario_es, scalar_scenario,
                     zero_coefficients)
from escontrol.basis import ControllerCoefficients, FourierPairsBasis
from escontrol.errors import ContractViolationError, ScenarioValidationError
from escontrol.es import EsConfig
from escontrol.harness import load_scenario, shipped_scenarios
from escontrol.lqr import oracle_costs
from escontrol.ode import TimeGrid
from escontrol.scenario import (GeneralCost, GeneralDynamics, LinearDynamics,
                                NoiseModel, QuadraticCost, Scenario,
                                cost_of_trajectory, run_episode, run_multi_episode)

SHIPPED = {p.stem: p for p in shipped_scenarios()}


def test_zero_control_constant_state():
    scenario = scalar_scenario(a=0.0, b=1.0, x0=2.0)
    res = run_episode(scenario, zero_coefficients(scenario.control_dim, scenario.basis))
    assert np.allclose(res.states, 2.0)
    # J = x(1)^2 + int (x^2 + u^2) = 4 + 4
    assert res.cost == pytest.approx(8.0, abs=1e-6)


def test_example2_free_response_cost():
    scenario = example2_scenario()
    res = run_episode(scenario, zero_coefficients(scenario.control_dim, scenario.basis))
    e2 = math.e**2
    assert res.cost == pytest.approx(4 * e2 + 2 * (e2 - 1), abs=1e-4)


def test_noiseless_measurement_is_exact():
    scenario = example2_scenario(noise_std=0.0)
    zeros = zero_coefficients(scenario.control_dim, scenario.basis)
    res = run_episode(scenario, zeros, noise_index=5)
    assert res.measured_cost == res.cost


def test_noise_stream_is_reproducible_and_position_addressable():
    model = NoiseModel(std_dev=0.5, seed=42)
    draws = [model.draw(i) for i in range(5)]
    again = [model.draw(i) for i in range(5)]
    assert draws == again
    assert len(set(draws)) == 5
    other_seed = NoiseModel(std_dev=0.5, seed=43)
    assert other_seed.draw(0) != model.draw(0)
    # scaling is linear in the standard deviation
    double = NoiseModel(std_dev=1.0, seed=42)
    assert double.draw(3) == pytest.approx(2.0 * model.draw(3), rel=1e-12)


def test_noise_draw_i_is_the_4i_th_uniform_of_the_philox_stream():
    # Philox.advance(i) skips i counter blocks of four uniforms; changing
    # that would change every noisy result
    model = NoiseModel(std_dev=0.5, seed=42)
    uniforms = np.random.Generator(np.random.Philox(key=42)).random(20)
    for i in range(5):
        assert model.draw(i) == 0.5 * NormalDist().inv_cdf(float(uniforms[4 * i]))


def test_noise_quantile_agrees_with_scipy_ndtri():
    # every branch of Cephes ndtri (scipy's) on both sides: the central
    # rational function (|y - 1/2| < 1/2 - exp(-2)), the tail polynomial for
    # z = sqrt(-2 log y) < 8 and the one for z >= 8 (y <= exp(-32))
    from scipy.special import ndtri
    rng = np.random.default_rng(20260810)
    far_upper = 1.0 - np.arange(1, 115) * 2.0**-53  # 1 - y0 <= exp(-32)
    edge = math.exp(-2)
    u = np.concatenate([
        rng.random(100_000),
        np.exp(-rng.uniform(2.0, 32.0, 20_000)),
        1.0 - np.exp(-rng.uniform(2.0, 32.0, 20_000)),
        np.exp(-rng.uniform(32.0, 744.0, 20_000)),
        far_upper,
        [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0),
         1.0 - edge, np.nextafter(1.0 - edge, 0.0), np.nextafter(1.0 - edge, 1.0),
         0.5, 5e-324, 1.0 - 1e-16],
    ])
    x = np.sqrt(-2.0 * np.log(np.minimum(u, 1.0 - u)))
    for branch in (u < edge, u > 1.0 - edge):  # both tails, both polynomials
        assert (branch & (x < 8.0)).sum() > 1000 and (branch & (x >= 8.0)).sum() > 50
    quantile = np.array([NormalDist().inv_cdf(v) for v in u.tolist()])
    reference = ndtri(u)
    rel = np.abs(quantile - reference) / np.maximum(np.abs(reference), 5e-324)
    assert rel.max() <= 2e-15, f"rel. difference {rel.max():.3g} at u = {u[rel.argmax()]!r}"


def test_block_draws_equal_one_generator_per_draw():
    block = NoiseModel._BLOCK
    edges = [0, 1, block - 1, block, block + 1, 2 * block - 1, 2 * block, 3 * block + 5]
    shuffled = [2 * block, 3, block, 10**6, block - 1, 0, 10**6 - 1, 10**6 + block, 7]
    first, second = NoiseModel(0.5, 42), NoiseModel(1.25, 20260810)
    for index in edges + shuffled:
        assert first.draw(index) == fresh_philox_draw(0.5, 42, index)
    for index in shuffled:  # two streams interleaved
        assert first.draw(index) == fresh_philox_draw(0.5, 42, index)
        assert second.draw(index) == fresh_philox_draw(1.25, 20260810, index)


def test_noise_seed_must_lie_in_the_philox_key_range():
    for seed in (-3, 2**128, 2.5, "7"):
        with pytest.raises(ScenarioValidationError, match="noise.seed"):
            NoiseModel(0.5, seed)
    widest = NoiseModel(0.5, 2**128 - 1)
    assert widest.draw(0) == fresh_philox_draw(0.5, 2**128 - 1, 0)
    assert NoiseModel(0.5, np.uint64(42)).draw(3) == NoiseModel(0.5, 42).draw(3)


def test_noise_index_must_be_a_nonnegative_integer():
    model = NoiseModel(0.5, 42)
    for index in (-1, -513, 1.5):
        with pytest.raises(ContractViolationError, match="noise index"):
            model.draw(index)
    assert model.draw(np.int64(3)) == model.draw(3) == fresh_philox_draw(0.5, 42, 3)


def test_block_cache_is_not_part_of_the_noise_model_value():
    model = NoiseModel(0.5, 42)
    clean = NoiseModel(0.5, 42)
    model.draw(3)
    assert model == clean and hash(model) == hash(clean) and repr(model) == repr(clean)
    silent = NoiseModel(0.0, 42)
    assert silent.draw(10**6) == 0.0
    assert silent._block == clean._block  # nothing generated


def test_no_scenario_field_can_be_assigned():
    scenario = example2_scenario()
    for field in dataclasses.fields(Scenario):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(scenario, field.name, getattr(scenario, field.name))


def test_measured_cost_uses_stream_position():
    scenario = example2_scenario(noise_std=0.5, seed=9)
    coeffs = zero_coefficients(scenario.control_dim, scenario.basis)
    r0 = run_episode(scenario, coeffs, noise_index=0)
    r1 = run_episode(scenario, coeffs, noise_index=1)
    assert r0.cost == r1.cost
    assert r0.measured_cost != r1.measured_cost
    assert r0.measured_cost == pytest.approx(r0.cost + scenario.noise.draw(0), abs=0)


def test_multi_episode_singleton_matches_run_episode():
    scenario = example2_scenario()
    coeffs = zero_coefficients(scenario.control_dim, scenario.basis)
    single = run_episode(scenario, coeffs)
    multi = run_multi_episode(scenario, coeffs)
    assert multi.total_cost == single.cost
    assert len(multi.episodes) == 1


def test_multi_episode_duplicated_initial_condition_doubles_cost():
    scenario = dataclasses.replace(example2_scenario(),
                                   initial_conditions=[np.array([2.0]), np.array([2.0])])
    coeffs = zero_coefficients(scenario.control_dim, scenario.basis)
    multi = run_multi_episode(scenario, coeffs)
    single = run_episode(scenario, coeffs)
    assert multi.total_cost == pytest.approx(2.0 * single.cost, rel=1e-12)


def test_multi_episode_free_response_matches_matrix_exponential():
    grid = TimeGrid(0.0, 1.0, 800)
    scenario = Scenario(
        name="pair2d",
        dynamics=LinearDynamics.constant(A_2D, B_2D),
        cost=QuadraticCost(c_matrix=np.eye(2), p_matrix=P_2D, q_matrix=Q_2D,
                           r_matrix=R_2D, terminal_indefinite_ok=True),
        grid=grid,
        basis=FourierPairsBasis(m=10, horizon=1.0, extension=0.1),
        initial_conditions=[np.array(X0_2D), np.array(Y0_2D)],
    )
    multi = run_multi_episode(scenario,
                              zero_coefficients(scenario.control_dim, scenario.basis))

    a = np.array(A_2D)
    expected = 0.0
    for x0 in (np.array(X0_2D), np.array(Y0_2D)):
        states = np.stack([expm(a * t) @ x0 for t in grid.nodes()])
        expected += quadratic_cost_samples(scenario.cost, grid, states,
                                           np.zeros((grid.n_steps + 1, 2)))
    assert multi.total_cost == pytest.approx(expected, rel=1e-8)


@settings(max_examples=15, deadline=None)
@given(
    c1=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
    c2=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
    lam=st.floats(0.0, 1.0),
)
def test_cost_is_convex_in_coefficients(c1, c2, lam):
    scenario = example2_scenario(n_steps=128, m=2)
    c1 = np.array([c1])
    c2 = np.array([c2])
    j1 = run_episode(scenario, ControllerCoefficients(c1)).cost
    j2 = run_episode(scenario, ControllerCoefficients(c2)).cost
    j_mix = run_episode(
        scenario, ControllerCoefficients(lam * c1 + (1 - lam) * c2)
    ).cost
    assert j_mix <= lam * j1 + (1 - lam) * j2 + 1e-8


def test_quadratic_cost_nonnegative(rng):
    scenario = example2_scenario(n_steps=128, m=3)
    for _ in range(20):
        coeffs = ControllerCoefficients(rng.standard_normal((1, 6)) * 3.0)
        assert run_episode(scenario, coeffs).cost >= 0.0


@pytest.mark.parametrize("name", ["timevarying_noisy", "example3_tracking"])
def test_cost_of_trajectory_is_pinned_to_its_quadrature_expression(name, rng):
    scenario = load_scenario(SHIPPED[name])
    cost, grid = scenario.cost, scenario.grid
    states = rng.standard_normal((grid.n_steps + 1, 1))
    controls = rng.standard_normal((grid.n_steps + 1, 1))

    def expected():
        taus = np.linspace(grid.t_start, grid.t_end, grid.n_steps + 1)
        err = states @ cost.c_matrix.T - cost.reference_samples(taus)
        running = 0.5 * (np.einsum("ki,ij,kj->k", err, cost.q_matrix, err)
                         + np.einsum("ki,ij,kj->k", controls, cost.r_matrix, controls))
        terminal = 0.5 * float(err[-1] @ cost.p_matrix @ err[-1])
        return terminal + quadrature_trapezoid(running, grid)

    # before and after the reference samples are cached
    for _ in range(2):
        assert cost_of_trajectory(cost, grid, states, controls) == expected()


def test_reference_samples_follow_their_times_and_node_samples_their_grid():
    cost = QuadraticCost(c_matrix=1.0, p_matrix=1.0, q_matrix=1.0, r_matrix=1.0,
                         reference=lambda tau: np.asarray(tau) ** 2)
    for taus in ([0.0, 0.5, 1.0], [0.0, 0.9, 1.0]):  # same length and ends
        assert np.array_equal(cost.reference_samples(np.array(taus))[:, 0],
                              np.array(taus) ** 2)
    grid = TimeGrid(0.0, 1.0, 4)
    nodes = cost.reference_nodes(grid)
    assert cost.reference_nodes(TimeGrid(0.0, 1.0, 4)) is nodes
    assert np.array_equal(nodes[:, 0], grid.nodes() ** 2)
    wider = TimeGrid(0.0, 2.0, 4)
    assert np.array_equal(cost.reference_nodes(wider)[:, 0], wider.nodes() ** 2)
    assert "_nodes" not in repr(cost)


def test_reference_with_as_many_outputs_as_nodes_keeps_its_axes():
    # a (nodes, outputs) result is square here; it must not be read as transposed
    cost = QuadraticCost(c_matrix=np.eye(3), p_matrix=np.eye(3), q_matrix=np.eye(3),
                         r_matrix=1.0,
                         reference=lambda tau: np.asarray(tau)[..., None] * [1.0, 2.0, 3.0])
    grid = TimeGrid(0.0, 1.0, 2)
    assert np.array_equal(cost.reference_nodes(grid), grid.nodes()[:, None] * [1.0, 2.0, 3.0])


def test_a_reference_of_the_wrong_shape_is_refused_by_episodes_and_oracle():
    # one float for a 2-output cost, which numpy would broadcast to both
    # outputs: everywhere, or only inside the horizon (right at T, where the
    # Riccati sweep starts, and wrong once it is under way)
    for reference in (lambda tau: 1.0, lambda tau: [1.0, 1.0] if tau > 0.5 else 1.0):
        cost = QuadraticCost(c_matrix=[[1.0], [1.0]], p_matrix=np.eye(2), q_matrix=np.eye(2),
                             r_matrix=1.0, reference=reference)
        scenario = Scenario(name="two-outputs", dynamics=LinearDynamics.constant(-1.0, 1.0),
                            cost=cost, grid=TimeGrid(0.0, 1.0, 50),
                            basis=FourierPairsBasis(m=2, horizon=1.0),
                            initial_conditions=[np.array([1.0])])
        shape = r"shaped \(1,\), expected \(2,\)"
        with pytest.raises(ContractViolationError, match=shape):
            run_episode(scenario, zero_coefficients(1, scenario.basis))
        with pytest.raises(ContractViolationError, match=shape):
            oracle_costs(scenario)


def test_linear_fast_path_matches_general_dynamics_path(rng):
    scenario = example2_scenario(n_steps=256, m=3)
    general = Scenario(
        name="example2-general",
        dynamics=GeneralDynamics(
            f=lambda tau, x, u: x + u, state_dim=1, control_dim=1
        ),
        cost=scenario.cost,
        grid=scenario.grid,
        basis=scenario.basis,
        initial_conditions=[np.array([2.0])],
    )
    coeffs = ControllerCoefficients(rng.standard_normal((1, 6)))
    fast = run_episode(scenario, coeffs)
    slow = run_episode(general, coeffs)
    assert np.allclose(fast.states, slow.states,
                       rtol=1e-11, atol=1e-11)
    assert fast.cost == pytest.approx(slow.cost, rel=1e-11)


def test_time_varying_plant_frozen_at_slow_time():
    drifting = Scenario(
        name="drifting",
        dynamics=LinearDynamics(
            a_fn=lambda t: np.array([[1.0 + t / 12000.0]]),
            b_fn=lambda t: np.array([[1.0 + 0.25 * math.sin(2 * math.pi * t / 3000.0)]]),
            state_dim=1,
            control_dim=1,
        ),
        cost=QuadraticCost(c_matrix=1.0, p_matrix=2.0, q_matrix=2.0, r_matrix=2.0),
        grid=TimeGrid(0.0, 1.0, 400),
        basis=FourierPairsBasis(m=2, horizon=1.0, extension=0.1),
        initial_conditions=[np.array([1.0])],
        batch_period=1.0,
    )
    t = 1200.0
    frozen = scalar_scenario(
        a=1.0 + t / 12000.0,
        b=1.0 + 0.25 * math.sin(2 * math.pi * t / 3000.0),
        x0=1.0, n_steps=400, m=2,
    )
    coeffs = ControllerCoefficients(np.array([[0.4, -0.3, 0.2, 0.1]]))
    assert run_episode(drifting, coeffs, slow_time=t).cost == pytest.approx(
        run_episode(frozen, coeffs).cost, rel=1e-12
    )
    assert drifting.slow_time_for(7, delta=0.001) == 7.0
    assert frozen.slow_time_for(7, delta=0.001) == pytest.approx(0.007)


def test_general_cost_agrees_with_quadratic_form(rng):
    quad = example2_scenario(n_steps=200, m=2)
    general = Scenario(
        name="example2-generalcost",
        dynamics=quad.dynamics,
        cost=GeneralCost(
            terminal=lambda x: float(x[0] ** 2),
            running=lambda x, u: float(x[0] ** 2 + u[0] ** 2),
        ),
        grid=quad.grid,
        basis=quad.basis,
        initial_conditions=[np.array([2.0])],
    )
    coeffs = ControllerCoefficients(rng.standard_normal((1, 4)))
    assert run_episode(general, coeffs).cost == pytest.approx(
        run_episode(quad, coeffs).cost, rel=1e-12
    )


def test_identical_seeds_give_bit_identical_measurements():
    def measure():
        scenario = example2_scenario(noise_std=0.5, seed=77)
        coeffs = ControllerCoefficients(np.array([[0.1, 0.2, -0.3, 0.0, 0.5,
                                                   0.1, 0.0, -0.2, 0.3, 0.4]]))
        return [run_episode(scenario, coeffs, noise_index=i).measured_cost
                for i in range(10)]

    assert measure() == measure()


def test_cost_validation_messages():
    with pytest.raises(Exception, match="R not positive definite"):
        QuadraticCost(c_matrix=1.0, p_matrix=1.0, q_matrix=1.0, r_matrix=0.0)
    with pytest.raises(Exception, match="P not positive semidefinite"):
        QuadraticCost(c_matrix=1.0, p_matrix=-1.0, q_matrix=1.0, r_matrix=1.0)
    with pytest.raises(Exception, match="not symmetric"):
        QuadraticCost(c_matrix=np.eye(2), p_matrix=[[1.0, 0.5], [0.0, 1.0]],
                      q_matrix=np.eye(2), r_matrix=np.eye(2))


def test_mismatched_coefficients_rejected():
    scenario = example2_scenario(m=3)
    for episodes in (run_episode, run_multi_episode):
        with pytest.raises(ContractViolationError, match="do not fit"):
            episodes(scenario, ControllerCoefficients(np.zeros((1, 4))))
        with pytest.raises(ContractViolationError, match="do not fit"):
            episodes(scenario, ControllerCoefficients(np.zeros((2, 6))))
    # run_es measures through run_multi_episode, from one start or two
    cfg = EsConfig.build(k=0.2, alpha=20.0, omega0=500.0, n_coeffs=6)
    two_starts = dataclasses.replace(scenario, initial_conditions=[[2.0], [-1.0]])
    for starts in (scenario, two_starts):
        with pytest.raises(ContractViolationError, match="ES iteration s=0: .*do not fit"):
            run_scenario_es(starts, cfg, 3, initial_coeffs=np.zeros(4))
    # a feedback scenario's gain field, one coefficient short or one over
    feedback = feedback_2d_scenario(n_steps=50, m=2)
    cfg = EsConfig.build(k=0.2, alpha=20.0, omega0=500.0, n_coeffs=16)
    for n_coeffs in (15, 17):
        with pytest.raises(ContractViolationError,
                           match=rf"ES iteration s=0: .*\({n_coeffs},\), expected \(16,\)") as err:
            run_scenario_es(feedback, cfg, 3, initial_coeffs=np.zeros(n_coeffs))
        assert err.value.iteration == 0



@pytest.mark.parametrize("coeffs", [np.zeros(10), np.zeros((1, 10)), [0.0] * 10, None],
                         ids=["flat_array", "row_array", "list", "none"])
def test_episodes_refuse_what_is_no_controller(coeffs):
    scenario = load_scenario(SHIPPED["example2_scalar"])
    for episodes in (run_episode, run_multi_episode):
        with pytest.raises(ContractViolationError,
                           match="ControllerCoefficients or a GainField, got"):
            episodes(scenario, coeffs)


def test_initial_condition_dimensions_checked():
    with pytest.raises(Exception, match="initial condition"):
        scalar_scenario().__class__(
            name="bad",
            dynamics=LinearDynamics.constant(1.0, 1.0),
            cost=QuadraticCost(c_matrix=1.0, p_matrix=2.0, q_matrix=2.0, r_matrix=2.0),
            grid=TimeGrid(0.0, 1.0, 100),
            basis=FourierPairsBasis(m=1, horizon=1.0),
            initial_conditions=[np.array([1.0, 2.0])],
        )
