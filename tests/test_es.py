import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (OracleDivergedError, cumulative_trapezoid, example2_scenario,
                     finite_diff_gradient, gradient_flow_reference, scalar_scenario,
                     simulated_episode)
from escontrol.basis import ControllerCoefficients, CustomSampledBasis
from escontrol.errors import (ContractViolationError, IntegrationDivergedError,
                              MeasurementInvalidError, RiccatiInstabilityError,
                              ScheduleCollisionError)
from escontrol.es import (_ROW_BLOCK, EsConfig, assemble_quadratic_cost, default_phases, es_step,
                          make_frequency_schedule, restricted_optimum, run_es)
from escontrol.ode import TimeGrid, quadrature_trapezoid
from escontrol.scenario import (LinearDynamics, NoiseModel, QuadraticCost, Scenario,
                                episode_cost_fn, episode_model)


# --- frequency schedules ----------------------------------------------------


def test_schedule_matches_published_band():
    # omega_0 = 3197, 20 frequencies evenly distributed up to 1.35 omega_0
    freqs = make_frequency_schedule(3197.0, 20, [(1.0, 1.35, 20)])
    assert freqs.shape == (20,)
    assert freqs[0] == pytest.approx(3197.0)
    assert freqs[-1] == pytest.approx(1.35 * 3197.0)
    assert np.allclose(np.diff(freqs), np.diff(freqs)[0])
    assert len(set(freqs.tolist())) == 20


def test_schedule_singleton():
    assert np.array_equal(make_frequency_schedule(100.0, 1, [(1.0, 1.0, 1)]),
                          [100.0])


def test_schedule_shared_edge_opens_at_next_subdivision():
    freqs = make_frequency_schedule(1000.0, 40, [(1.0, 1.35, 20), (1.35, 1.75, 20)])
    assert freqs.shape == (40,)
    assert len(set(freqs.tolist())) == 40
    # second band dropped its duplicated low endpoint
    assert freqs[20] == pytest.approx(1000.0 * (1.35 + 0.4 / 20))
    assert freqs[-1] == pytest.approx(1750.0)


def test_schedule_collision_without_room_to_shift():
    with pytest.raises(ScheduleCollisionError):
        make_frequency_schedule(100.0, 2, [(1.0, 1.0, 1), (1.0, 1.0, 1)])


def test_schedule_count_mismatch():
    with pytest.raises(ContractViolationError):
        make_frequency_schedule(100.0, 3, [(1.0, 1.5, 2)])


# --- EsConfig ----------------------------------------------------------------


def test_config_defaults_and_sampling_bound():
    cfg = EsConfig.build(k=0.1, alpha=320.0, omega0=3197.0, n_coeffs=4)
    assert cfg.delta == pytest.approx(2 * np.pi / (10 * cfg.frequencies.max()))
    assert cfg.slowest_period_steps() >= 10
    cfg.validate_sampling()  # the default delta is admissible
    coarse = EsConfig(k=0.1, alpha=1.0, omega0=100.0, frequencies=np.array([100.0]),
                      delta=2 * np.pi / 500.0, phases=("cos",))
    with pytest.raises(ContractViolationError):
        coarse.validate_sampling()
    with pytest.raises(ContractViolationError):
        run_es(lambda c: 0.0, coarse, 5)


def test_config_rejects_duplicate_frequency_same_phase():
    with pytest.raises(ScheduleCollisionError):
        EsConfig(k=0.1, alpha=1.0, omega0=100.0,
                 frequencies=np.array([100.0, 100.0]),
                 delta=1e-3, phases=("cos", "cos"))


def test_config_allows_quadrature_reuse():
    cfg = EsConfig(k=0.1, alpha=1.0, omega0=100.0,
                   frequencies=np.array([100.0, 100.0]),
                   delta=1e-3, phases=("cos", "sin"))
    assert cfg.n_coeffs == 2


def test_default_phases_alternate():
    assert default_phases(4) == ("cos", "sin", "cos", "sin")


# --- es_step -----------------------------------------------------------------


def test_es_step_zero_delta_freezes_coefficients():
    cfg = EsConfig(k=1.0, alpha=1.0, omega0=100.0, frequencies=np.array([100.0]),
                   delta=0.0, phases=("cos",))
    out = es_step(np.array([0.7]), j_hat=3.0, s=5, config=cfg)
    assert np.array_equal(out, [0.7])


def test_es_step_worked_example():
    # a(1) = 0.01 * sqrt(1 * 100) * cos(0) = 0.1
    cfg = EsConfig(k=1.0, alpha=1.0, omega0=100.0, frequencies=np.array([100.0]),
                   delta=0.01, phases=("cos",))
    out = es_step(np.array([0.0]), j_hat=0.0, s=0, config=cfg)
    assert out[0] == pytest.approx(0.1, abs=1e-15)


def test_es_step_rejects_nonfinite_measurement():
    cfg = EsConfig.build(k=0.1, alpha=1.0, omega0=100.0, n_coeffs=2)
    coeffs = np.array([1.0, 2.0])
    with pytest.raises(MeasurementInvalidError):
        es_step(coeffs, float("nan"), 0, cfg)
    assert np.array_equal(coeffs, [1.0, 2.0])


def test_es_step_wraps_controller_coefficients():
    cfg = EsConfig.build(k=0.1, alpha=1.0, omega0=100.0, n_coeffs=4)
    coeffs = ControllerCoefficients(np.zeros((2, 2)))
    out = es_step(coeffs, 1.0, 0, cfg)
    assert isinstance(out, ControllerCoefficients)
    assert out.values.shape == (2, 2)


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    j_hat=st.floats(-50.0, 50.0),
    s=st.integers(0, 10_000),
)
def test_es_step_matches_update_law_exactly(a, j_hat, s):
    # independent re-implementation of the update law
    k, alpha, omega0, delta = 0.3, 17.0, 250.0, 1e-3
    freqs = np.array([250.0, 300.0, 412.5])
    phases = ("cos", "sin", "cos")
    cfg = EsConfig(k=k, alpha=alpha, omega0=omega0, frequencies=freqs,
                   delta=delta, phases=phases)
    out = es_step(np.array(a), j_hat, s, cfg)
    for j in range(3):
        angle = freqs[j] * s * delta + k * j_hat
        osc = math.cos(angle) if phases[j] == "cos" else math.sin(angle)
        expected = a[j] + delta * math.sqrt(alpha * freqs[j]) * osc
        assert out[j] == pytest.approx(expected, abs=1e-12)
        assert abs(out[j] - a[j]) <= delta * math.sqrt(alpha * freqs[j]) + 1e-15


def test_filled_config_caches_are_not_part_of_the_value():
    cfg = EsConfig.build(k=0.3, alpha=17.0, omega0=250.0, n_coeffs=6)
    fresh = dataclasses.replace(cfg)
    flat = np.linspace(-1.0, 1.0, 6)
    stepped = es_step(flat, 0.7, 11, cfg)  # fills cfg's caches
    assert "step_gains" in vars(cfg) and "step_gains" not in vars(fresh)
    assert cfg.step_gains is cfg.step_gains
    assert cfg == fresh and repr(cfg) == repr(fresh)

    def hashed(config):  # the frequency array makes an EsConfig unhashable
        try:
            return hash(config)
        except TypeError as exc:
            return type(exc)

    assert hashed(cfg) == hashed(fresh)
    # the cached gains give the bits of the update law computed afresh
    theta = cfg.frequencies * (11 * cfg.delta) + cfg.k * 0.7
    osc = np.where([p == "cos" for p in cfg.phases], np.cos(theta), np.sin(theta))
    expected = flat + cfg.delta * np.sqrt(cfg.alpha * cfg.frequencies) * osc
    assert stepped.tobytes() == expected.tobytes()
    assert es_step(flat, 0.7, 11, cfg).tobytes() == expected.tobytes()


# --- run_es ------------------------------------------------------------------


def test_run_es_bookkeeping_single_iteration():
    cfg = EsConfig.build(k=1.0, alpha=1.0, omega0=50.0, n_coeffs=1)
    record = run_es(lambda c: float(c[0] ** 2), cfg, n_iterations=1,
                    initial_coeffs=np.array([1.0]))
    assert record.coefficients.shape == (2, 1)
    assert record.costs.shape == (2,)
    assert record.costs[0] == 1.0
    assert record.n_iterations == 1


def test_run_es_static_quadratic_converges_to_minimizer():
    cfg = EsConfig.build(k=0.1, alpha=20.0, omega0=1000.0, n_coeffs=1,
                         ranges=[(1.0, 1.0, 1)])
    n_iter = int(3.0 / cfg.delta)
    record = run_es(lambda c: float((c[0] - 1.0) ** 2), cfg, n_iter)
    window = record.final_window()
    a_mean = record.coefficients[-window:, 0].mean()
    assert abs(a_mean - 1.0) < 0.1


def test_run_es_scenario_smoke():
    scenario = example2_scenario(n_steps=128, m=1)
    cfg = EsConfig.build(k=0.2, alpha=20.0, omega0=500.0, n_coeffs=2)
    record = run_es(scenario, cfg, n_iterations=200)
    assert record.scenario_id == "example2"
    assert np.all(np.isfinite(record.costs))
    assert record.coefficients.shape == (201, 2)
    assert not np.array_equal(record.coefficients[-1], record.coefficients[0])


def test_run_es_propagates_iteration_index_on_error():
    cfg = EsConfig.build(k=1.0, alpha=1.0, omega0=50.0, n_coeffs=1)

    def cost(c):
        return float("nan")

    with pytest.raises(MeasurementInvalidError, match="s=0"):
        run_es(cost, cfg, 3)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_run_es_keeps_the_step_index_of_a_diverging_episode():
    scenario = scalar_scenario(a=10.0, n_steps=200, m=2)
    start = np.full(4, 1e306)
    coeffs = ControllerCoefficients.from_flat(start, 1)
    x0 = scenario.initial_conditions[0]
    with pytest.raises(IntegrationDivergedError) as bare:
        simulated_episode(scenario, coeffs, x0)
    assert bare.value.step_index > 0
    # the exact model gives no finite episode here, so run_episode falls
    # back to the simulation and fails as it does
    assert episode_model(scenario).episode(coeffs, x0) is None
    cfg = EsConfig.build(k=0.2, alpha=20.0, omega0=500.0, n_coeffs=4)
    with pytest.raises(IntegrationDivergedError, match="s=0") as wrapped:
        run_es(scenario, cfg, 3, initial_coeffs=start)
    assert wrapped.value.step_index == bare.value.step_index
    assert wrapped.value.iteration == 0


def test_run_es_keeps_the_riccati_node_index():
    cfg = EsConfig.build(k=1.0, alpha=1.0, omega0=50.0, n_coeffs=1)

    class Source:
        @staticmethod
        def measure(flat, s):
            if s == 2:
                raise RiccatiInstabilityError("S(tau) blew up", node_index=7)
            return 1.0, 1.0

    with pytest.raises(RiccatiInstabilityError, match="s=2") as wrapped:
        run_es(Source(), cfg, 5)
    assert wrapped.value.node_index == 7
    assert wrapped.value.iteration == 2


@pytest.mark.parametrize("n_iterations", [1, 17, 18, _ROW_BLOCK - 1, _ROW_BLOCK,
                                          _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 5])
def test_run_es_streams_every_row_and_keeps_row_0_and_the_final_window(n_iterations):
    scenario = example2_scenario(n_steps=128, m=1)
    cfg = EsConfig.build(k=0.2, alpha=20.0, omega0=500.0, n_coeffs=2)  # an 18-row window
    full = run_es(scenario, cfg, n_iterations)
    blocks = []

    def consume(config, row_blocks):
        assert config is cfg
        # a block is valid until the next one is asked for
        blocks.extend([start] + [a.copy() for a in arrays] for start, *arrays in row_blocks)

    kept = run_es(scenario, cfg, n_iterations, consume_rows=consume)
    assert [block[0] for block in blocks] == list(range(0, n_iterations + 1, _ROW_BLOCK))
    window = full.final_window()
    assert kept.n_iterations == n_iterations and kept.final_window() == window
    for i, name in enumerate(("coefficients", "costs", "measured_costs"), 1):
        rows = getattr(full, name)
        assert np.concatenate([block[i] for block in blocks]).tobytes() == rows.tobytes()
        expected = rows if window == n_iterations + 1 else np.concatenate([rows[:1],
                                                                            rows[-window:]])
        assert getattr(kept, name).tobytes() == expected.tobytes(), name
    assert kept.period_averaged_cost() == full.period_averaged_cost()
    assert kept.period_averaged_coefficients().tobytes() == \
        full.period_averaged_coefficients().tobytes()


def test_run_es_sizes_its_row_buffers_to_a_run_shorter_than_a_block():
    # 11 rows of 80 coefficients, where a block of _ROW_BLOCK rows is 0.66 MB
    cfg = EsConfig.build(k=1.0, alpha=1.0, omega0=50.0, n_coeffs=80)
    tracemalloc.start()
    try:
        run_es(lambda c: float(c @ c), cfg, 10,
               consume_rows=lambda config, blocks: list(blocks))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _ROW_BLOCK * 80 * 8 / 8


def test_run_es_refuses_a_row_consumer_that_stops_early():
    cfg = EsConfig.build(k=1.0, alpha=1.0, omega0=50.0, n_coeffs=1)
    with pytest.raises(ContractViolationError, match="before the run ended"):
        run_es(lambda c: 1.0, cfg, 100, consume_rows=lambda config, blocks: next(blocks))


def test_run_es_vector_valued_controller_converges():
    # two control channels, one frequency per scalar coefficient
    scenario = Scenario(
        name="mimo",
        dynamics=LinearDynamics.constant([[0.3, 0.2], [-0.1, 0.5]],
                                         [[1.0, 0.0], [0.1, 0.8]]),
        cost=QuadraticCost(c_matrix=np.eye(2), p_matrix=2.0 * np.eye(2),
                           q_matrix=2.0 * np.eye(2), r_matrix=np.eye(2)),
        grid=TimeGrid(0.0, 1.0, 150),
        basis=CustomSampledBasis(horizon=1.0, functions=(
            lambda t: 1.0, lambda t: t, lambda t: t * t,
        )),
        initial_conditions=[np.array([1.0, -0.8])],
    )
    c_star, j_restricted, _ = restricted_optimum(scenario)
    cfg = EsConfig.build(k=0.8, alpha=20.0, omega0=1500.0, n_coeffs=6)
    record = run_es(scenario, cfg, int(8.0 / cfg.delta))
    j_avg = record.period_averaged_cost()
    # the {1, t, t^2} channels are strongly coupled through B, so only the
    # cost (not every coefficient direction) converges at this time scale
    assert record.costs[0] > 2.0 * j_restricted
    assert (j_avg - j_restricted) / j_restricted < 0.06


# --- finite differences and the gradient-flow oracle -------------------------


def test_finite_diff_gradient_on_quadratic():
    grad = finite_diff_gradient(lambda c: float(c @ c), np.array([1.0, 2.0]), h=1e-5)
    assert np.allclose(grad, [2.0, 4.0], atol=1e-6)


def test_finite_diff_gradient_constant_cost():
    grad = finite_diff_gradient(lambda c: 5.0, np.array([1.0, -1.0, 0.3]), h=1e-4)
    assert np.allclose(grad, 0.0, atol=1e-9)


def test_gradient_identity_on_scalar_integrator():
    # dx/dtau = u = a psi(tau) with one custom basis function; the cost
    # gradient has the closed quadrature form
    #   dJ/da = 2 int( a Psi^2 + a psi^2 + x0 Psi ) dtau,  Psi = int_0^tau psi.
    t_eff = 1.1
    psi = lambda tau: math.cos(2.0 * math.pi * tau / t_eff)
    x0 = 1.0
    grid = TimeGrid(0.0, 1.0, 2000)
    scenario = Scenario(
        name="integrator",
        dynamics=LinearDynamics.constant(0.0, 1.0),
        cost=QuadraticCost(c_matrix=1.0, p_matrix=0.0, q_matrix=2.0, r_matrix=2.0),
        grid=grid,
        basis=CustomSampledBasis(horizon=1.0, functions=(psi,)),
        initial_conditions=[np.array([x0])],
    )
    cost_fn = episode_cost_fn(scenario)

    fine = TimeGrid(0.0, 1.0, 4000)
    taus = fine.nodes()
    psi_s = np.array([psi(t) for t in taus])
    big_psi = cumulative_trapezoid(psi_s, fine)

    rng = np.random.default_rng(11)
    for a in rng.uniform(-1.0, 1.0, size=10):
        oracle = 2.0 * quadrature_trapezoid(
            a * big_psi**2 + a * psi_s**2 + x0 * big_psi, fine
        )
        fd = finite_diff_gradient(cost_fn, np.array([a]), h=1e-5)[0]
        assert fd == pytest.approx(oracle, abs=1e-5)


def test_gradient_flow_matches_exponential_decay():
    times, path = gradient_flow_reference(lambda a: float(a @ a), np.array([1.0]),
                                          kalpha=2.0, duration=1.0, step=0.01)
    assert path[-1, 0] == pytest.approx(math.exp(-2.0), abs=1e-3)


def test_gradient_flow_constant_cost_stays_put():
    _, path = gradient_flow_reference(lambda a: 3.0, np.array([0.5, -0.5]),
                                      kalpha=2.0, duration=1.0, step=0.05)
    assert np.allclose(path, path[0], atol=1e-9)


def test_gradient_flow_monotone_on_convex_quadratic():
    cost = lambda a: float((a - np.array([1.0, -2.0])) @ (a - np.array([1.0, -2.0])))
    _, path = gradient_flow_reference(cost, np.zeros(2), kalpha=1.0,
                                      duration=2.0, step=0.02)
    costs = [cost(a) for a in path]
    assert all(c2 <= c1 + 1e-12 for c1, c2 in zip(costs, costs[1:]))


def test_gradient_flow_divergence_detected():
    # concave cost: gradient ascent blows up
    with pytest.raises(OracleDivergedError), np.errstate(over="ignore", invalid="ignore"):
        gradient_flow_reference(lambda a: -float(np.exp(a[0])), np.array([1.0]),
                                kalpha=2e6, duration=50.0, step=0.5)


# --- the restricted-optimum oracle -------------------------------------------


def test_restricted_optimum_gradient_vanishes_at_minimizer():
    scenario = example2_scenario(n_steps=256, m=2)
    c_star, j_min, model = restricted_optimum(scenario)
    cost_fn = episode_cost_fn(scenario)
    grad = finite_diff_gradient(cost_fn, c_star, h=1e-5)
    assert np.abs(grad).max() < 1e-6
    assert cost_fn(c_star) == pytest.approx(j_min, rel=1e-10)
    e2 = math.e**2
    assert j_min < 4 * e2 + 2 * (e2 - 1)  # better than no control


def test_restricted_optimum_is_a_lower_envelope(rng):
    scenario = example2_scenario(n_steps=200, m=2)
    c_star, j_min, _ = restricted_optimum(scenario)
    cost_fn = episode_cost_fn(scenario)
    for _ in range(10):
        assert cost_fn(c_star + rng.standard_normal(4)) >= j_min - 1e-10


def test_assemble_quadratic_rejects_nonquadratic_cost():
    with pytest.raises(ContractViolationError):
        assemble_quadratic_cost(lambda c: float(c[0] ** 4 + 1.0), 2)


# --- averaging and noise robustness ------------------------------------------


def _static_quadratic_es_deviation(omega0: float, kalpha=2.0, k=0.2,
                                   duration=2.0, seed=None, std=0.0):
    """Max deviation between the period-averaged ES path and the gradient flow."""
    a_star = np.array([1.0, -0.5])
    cost = lambda c: float((c - a_star) @ (c - a_star))
    cfg = EsConfig.build(k=k, alpha=kalpha / k, omega0=omega0, n_coeffs=2,
                         ranges=[(1.0, 1.3, 2)])

    if std > 0.0:
        noise = NoiseModel(std, seed)

        class Source:
            @staticmethod
            def measure(flat, s):
                j = cost(flat)
                return j, j + noise.draw(s)

        source = Source()
    else:
        source = cost
    n_iter = int(round(duration / cfg.delta))
    record = run_es(source, cfg, n_iter)

    flow_times, flow_path = gradient_flow_reference(cost, np.zeros(2), kalpha,
                                                    duration, step=0.005)
    window = cfg.slowest_period_steps()
    half = window // 2
    deviations = []
    for t, target in zip(flow_times, flow_path):
        s = int(round(t / cfg.delta))
        if s - half < 0 or s + half + 1 > record.coefficients.shape[0]:
            continue
        averaged = record.coefficients[s - half:s + half + 1].mean(axis=0)
        deviations.append(float(np.linalg.norm(averaged - target)))
    return max(deviations), record


def test_averaged_es_path_approaches_gradient_flow():
    dev_low, _ = _static_quadratic_es_deviation(500.0)
    dev_high, _ = _static_quadratic_es_deviation(2000.0)
    assert dev_high < dev_low
    assert dev_high < 0.1


def test_noise_robustness_over_seeds():
    # smaller k keeps the measurement-noise phase jitter k*std small
    _, clean = _static_quadratic_es_deviation(2000.0, k=0.1)
    clean_j = clean.period_averaged_cost()
    noisy_js = []
    for seed in range(20):
        _, rec = _static_quadratic_es_deviation(2000.0, k=0.1, seed=seed, std=0.5)
        noisy_js.append(rec.period_averaged_cost())
    assert np.mean(noisy_js) <= 3.0 * clean_j
