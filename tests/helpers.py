"""Scenario factories and reference oracles shared across the test modules."""
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

from escontrol.basis import ControllerCoefficients, FourierPairsBasis
from escontrol.errors import (ContractViolationError, EsControlError,
                              MeasurementInvalidError, RiccatiInstabilityError)
from escontrol.feedback import GainField
from escontrol.harness import write_csv
from escontrol.lqr import RiccatiSolution, _pd_inverse_times
from escontrol.ode import TimeGrid
from escontrol.scenario import (LinearDynamics, NoiseModel, QuadraticCost, Scenario,
                                _integrate_open_loop, cost_of_trajectory)


class OracleDivergedError(EsControlError, RuntimeError):
    """The gradient-flow reference integration diverged."""


# 2x2 plant and weights of the feedback-synthesis example
A_2D = [[1.0, 0.25], [0.3, 0.7]]
B_2D = [[1.0, 0.1], [0.2, 0.5]]
P_2D = [[4.0, 3.0], [3.0, 1.0]]
Q_2D = [[2.0, 0.1], [0.1, 10.0]]
R_2D = [[0.5, 0.1], [0.1, 0.25]]
X0_2D = [1.3, -1.1]
Y0_2D = [-1.0, -0.5]
Z0_2D = [-2.0, 3.0]


def scalar_scenario(a=1.0, b=1.0, x0=2.0, p=2.0, q=2.0, r=2.0, reference=None,
                    n_steps=1000, m=5, extension=0.1, noise_std=0.0, seed=0,
                    name="scalar"):
    return Scenario(
        name=name,
        dynamics=LinearDynamics.constant(a, b),
        cost=QuadraticCost(c_matrix=1.0, p_matrix=p, q_matrix=q, r_matrix=r,
                           reference=reference),
        grid=TimeGrid(0.0, 1.0, n_steps),
        basis=FourierPairsBasis(m=m, horizon=1.0, extension=extension),
        initial_conditions=[np.array([x0])],
        noise=NoiseModel(noise_std, seed),
    )


def example2_scenario(**kw):
    kw.setdefault("name", "example2")
    return scalar_scenario(a=1.0, b=1.0, x0=2.0, p=2.0, q=2.0, r=2.0, **kw)


def feedback_2d_scenario(n_steps=500, m=10, extension=0.1, noise_std=0.0, seed=0,
                         initial_conditions=(X0_2D, Y0_2D), feedforward=False,
                         es_defaults=None):
    # the published P is indefinite (det -5); the flag reproduces it as-is
    return Scenario(
        name="feedback2d",
        dynamics=LinearDynamics.constant(A_2D, B_2D),
        cost=QuadraticCost(c_matrix=np.eye(2), p_matrix=P_2D, q_matrix=Q_2D,
                           r_matrix=R_2D, terminal_indefinite_ok=True),
        grid=TimeGrid(0.0, 1.0, n_steps),
        basis=FourierPairsBasis(m=m, horizon=1.0, extension=extension),
        initial_conditions=[np.array(ic, dtype=float) for ic in initial_conditions],
        noise=NoiseModel(noise_std, seed),
        feedback=True,
        feedforward=feedforward,
        es_defaults=es_defaults or {},
    )


def zero_coefficients(n_channels, basis):
    """All-zero open-loop coefficients: n_channels rows of the basis."""
    return ControllerCoefficients(np.zeros((n_channels, basis.n_functions)))


def zero_gain_field(basis, state_dim, control_dim, feedforward=False):
    """The all-zero gain field, with an all-zero feedforward if asked for."""
    ff = np.zeros((control_dim, basis.n_functions)) if feedforward else None
    return GainField(basis, state_dim, control_dim,
                     np.zeros((control_dim, state_dim, basis.n_functions)), ff)


def quadratic_cost_samples(cost, grid, states, controls):
    """Independent re-implementation of the episode cost for cross-checks."""
    taus = grid.nodes()
    if cost.reference is None:
        ref = np.zeros((taus.shape[0], cost.c_matrix.shape[0]))
    else:
        ref = np.stack([np.atleast_1d(cost.reference(float(t))) for t in taus])
    err = states @ cost.c_matrix.T - ref
    g = 0.5 * (np.einsum("ki,ij,kj->k", err, cost.q_matrix, err)
               + np.einsum("ki,ij,kj->k", controls, cost.r_matrix, controls))
    terminal = 0.5 * float(err[-1] @ cost.p_matrix @ err[-1])
    h = grid.h
    return terminal + float(h * (g.sum() - 0.5 * (g[0] + g[-1])))


def simulated_episode(scenario, coeffs, x0, slow_time=0.0):
    """(states, node controls, J) of one open-loop episode, simulated step by
    step: the reference for the exact quadratic episode model."""
    traj, u_nodes = _integrate_open_loop(scenario, coeffs.values, slow_time, x0)
    j = cost_of_trajectory(scenario.cost, scenario.grid, traj.states, u_nodes)
    return traj.states, u_nodes, j


def simulated_cost_fn(scenario, slow_time=0.0):
    """Noise-free simulated cost of a flat coefficient vector, summed over
    the initial conditions."""
    def cost_fn(flat):
        coeffs = ControllerCoefficients.from_flat(flat, scenario.control_dim)
        return sum(simulated_episode(scenario, coeffs, x0, slow_time)[2]
                   for x0 in scenario.initial_conditions)

    return cost_fn


def packed_riccati_reference(dynamics, cost, grid, slow_time=0.0):
    """Riccati + feedforward solve on the packed vector (S, v), stepped by a
    plain RK4 loop: the reference the dedicated sweep in solve_riccati must
    reproduce bit for bit. Returns a RiccatiSolution."""
    a = np.atleast_2d(np.asarray(dynamics.a_fn(slow_time), dtype=float))
    b = np.atleast_2d(np.asarray(dynamics.b_fn(slow_time), dtype=float))
    n = a.shape[0]
    c = cost.c_matrix
    rinv_bt = _pd_inverse_times(cost.r_matrix, b.T)
    m = b @ rinv_bt
    ctqc = c.T @ cost.q_matrix @ c
    has_reference = cost.reference is not None

    t_end = grid.t_end
    sigma_grid = TimeGrid(0.0, grid.span, 2 * grid.n_steps)
    s_terminal = c.T @ cost.p_matrix @ c
    if has_reference:
        r_end = np.atleast_1d(np.asarray(cost.reference(t_end), dtype=float))
        v_terminal = c.T @ cost.p_matrix @ r_end
    else:
        v_terminal = np.zeros(n)

    def derivative(sigma, y):
        s = y[: n * n].reshape(n, n)
        s = 0.5 * (s + s.T)
        ds = a.T @ s + s @ a - s @ m @ s + ctqc
        if has_reference:
            v = y[n * n:]
            r_tau = np.atleast_1d(np.asarray(cost.reference(t_end - sigma), dtype=float))
            dv = (a - m @ s).T @ v + c.T @ cost.q_matrix @ r_tau
        else:
            dv = np.zeros(n)
        return np.concatenate([ds.ravel(), dv])

    x = np.concatenate([s_terminal.ravel(), v_terminal])
    h = sigma_grid.h
    half = 0.5 * h
    states = np.empty((sigma_grid.n_steps + 1, x.shape[0]))
    states[0] = x
    t = sigma_grid.t_start
    for k in range(sigma_grid.n_steps):
        k1 = derivative(t, x)
        k2 = derivative(t + half, x + half * k1)
        k3 = derivative(t + half, x + half * k2)
        k4 = derivative(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            # step k ends at sigma = (k + 1) h: half-step node 2 n - k - 1 in
            # tau, on or above grid node (2 n - k - 1) // 2
            raise RiccatiInstabilityError(
                "backward Riccati integration failed: "
                f"state became non-finite at step {k} (t = {t})",
                node_index=(sigma_grid.n_steps - k - 1) // 2,
            )
        states[k + 1] = x
        t = sigma_grid.t_start + (k + 1) * h

    y_doubled = states[::-1]
    s_doubled = y_doubled[:, : n * n].reshape(-1, n, n)
    s_doubled = 0.5 * (s_doubled + np.transpose(s_doubled, (0, 2, 1)))
    v_doubled = y_doubled[:, n * n:] if has_reference else np.zeros((y_doubled.shape[0], n))
    k_doubled = np.einsum("ij,kjl->kil", rinv_bt, s_doubled)

    def stages(doubled):  # the grid nodes, then the midpoints
        return np.concatenate([doubled[0::2], doubled[1::2]])

    return RiccatiSolution(grid=grid, s_matrices=s_doubled[0::2], gains=k_doubled[0::2],
                           feedforward=v_doubled[0::2], rinv_bt=rinv_bt,
                           has_reference=has_reference, _s_stages=stages(s_doubled),
                           _k_stages=stages(k_doubled), _v_stages=stages(v_doubled))


def fresh_philox_draw(std_dev, seed, index):
    """Noise draw ``index`` from its own Philox generator, advanced by
    ``index`` counter blocks: the per-draw definition that NoiseModel's block
    generation must reproduce bit for bit."""
    bit_gen = np.random.Philox(key=seed)
    bit_gen.advance(index)
    u = np.random.Generator(bit_gen).random()
    return float(std_dev * ndtri(min(max(u, 5e-324), 1.0 - 1e-16)))


def reference_iterations_csv(path, record):
    """iterations.csv written from a whole in-memory EsRunRecord, in float
    blocks of 64 rows: the reference that the streaming
    harness.write_iterations_csv must match byte for byte."""
    assert record.dropped_rows == 0, "the reference writer needs every row"
    n_rows, n_coeffs = record.coefficients.shape
    header = ["s", "t", "J", "J_hat"] + [f"c_{i:03d}" for i in range(n_coeffs)]
    times = np.arange(n_rows) * record.config.delta

    def rows():
        for start in range(0, n_rows, 64):
            part = slice(start, start + 64)
            block = np.column_stack((times[part], record.costs[part],
                                     record.measured_costs[part], record.coefficients[part]))
            for s, values in enumerate(block, start):
                yield (s,), values

    write_csv(path, header, rows())


def matmul_step_matrices(a_start, a_mid, a_end, h):
    """RK4 step matrices through matrix products for every d, including 1x1:
    the reference the elementwise scalar branch of ode.rk4_step_matrices must
    reproduce bit for bit."""
    eye = np.eye(a_start.shape[-1])
    k1 = a_start
    k2 = a_mid @ (eye + (0.5 * h) * k1)
    k3 = a_mid @ (eye + (0.5 * h) * k2)
    k4 = a_end @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def matmul_step_forcing(a_mid, a_end, f_start, f_mid, f_end, h):
    """RK4 step forcing through matrix products, the reference for the scalar
    branch of ode.rk4_step_forcing (shapes as there)."""
    def apply(a, f):
        if f.ndim == 3:
            return a @ f
        return f @ a.T if a.ndim == 2 else np.einsum("kij,kj->ki", a, f)

    w1 = f_start
    w2 = f_mid + (0.5 * h) * apply(a_mid, w1)
    w3 = f_mid + (0.5 * h) * apply(a_mid, w2)
    w4 = f_end + h * apply(a_end, w3)
    return (h / 6.0) * (w1 + 2.0 * w2 + 2.0 * w3 + w4)


def homogeneous_prefix_transitions(phi, w=None):
    """Prefix scan of x[k+1] = phi[k] x[k] + w[k] by recursive doubling over
    homogeneous (d+1) x (d+1) matrices: ``[x[k+1]; 1] = P[k] [x[0]; 1]``
    (just ``x[k+1] = P[k] x[0]`` without forcing). The reference for the
    pair-form scan of ode.prefix_transitions, which must match it bit for
    bit when d = 1."""
    n, dim = phi.shape[0], phi.shape[-1]
    if w is None:
        prod = np.array(phi, dtype=float)
    else:
        prod = np.zeros((n, dim + 1, dim + 1))
        prod[:, :dim, :dim] = phi
        prod[:, :dim, dim] = w
        prod[:, dim, dim] = 1.0
    shift = 1
    while shift < n:
        prod[shift:] = prod[shift:] @ prod[:-shift]
        shift *= 2
    return prod


def finite_diff_gradient(cost_fn: Callable[[np.ndarray], float], point,
                         h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient, one coordinate at a time."""
    if h <= 0:
        raise ContractViolationError(f"finite-difference step must be positive, got {h}")
    point = np.asarray(point, dtype=float)
    grad = np.empty_like(point)
    for i in range(point.shape[0]):
        bump = np.zeros_like(point)
        bump[i] = h
        grad[i] = (float(cost_fn(point + bump)) - float(cost_fn(point - bump))) / (2.0 * h)
    if not np.all(np.isfinite(grad)):
        raise MeasurementInvalidError("finite-difference gradient is not finite")
    return grad


def gradient_flow_reference(cost_fn: Callable[[np.ndarray], float], a0,
                            kalpha: float, duration: float, step: float,
                            fd_h: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the averaged system da/dt = -(k alpha / 2) dJ/da (RK4).

    Test oracle only. ``step`` must be small against the cost curvature
    (step * ||Hessian|| < 0.1 keeps RK4 comfortably stable). Returns
    (times, path) with path[0] = a0.
    """
    a = np.atleast_1d(np.asarray(a0, dtype=float)).copy()
    n = max(1, int(round(duration / step)))
    times = np.arange(n + 1) * step
    path = np.empty((n + 1, a.shape[0]))
    path[0] = a
    scale = -0.5 * kalpha
    bound = 1e8 * (1.0 + float(np.linalg.norm(a)))

    def rate(v):
        try:
            return scale * finite_diff_gradient(cost_fn, v, h=fd_h)
        except MeasurementInvalidError as exc:
            raise OracleDivergedError(f"gradient flow diverged: {exc}") from exc

    for i in range(n):
        k1 = rate(a)
        k2 = rate(a + 0.5 * step * k1)
        k3 = rate(a + 0.5 * step * k2)
        k4 = rate(a + step * k3)
        a = a + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(a)) or np.linalg.norm(a) > bound:
            raise OracleDivergedError(f"gradient flow diverged at t={times[i + 1]}")
        path[i + 1] = a
    return times, path


def cumulative_trapezoid(samples: Sequence[float], grid: TimeGrid) -> np.ndarray:
    """Running trapezoid integral sampled at every node (starts at 0)."""
    s = np.asarray(samples, dtype=float)
    if s.shape[0] != grid.n_steps + 1:
        raise ContractViolationError(
            f"expected {grid.n_steps + 1} samples for the grid, got {s.shape[0]}"
        )
    out = np.empty_like(s)
    out[0] = 0.0
    np.cumsum(0.5 * grid.h * (s[1:] + s[:-1]), out=out[1:])
    return out


def refined(grid, factor=2):
    """The grid with ``factor`` times as many steps over the same span."""
    return TimeGrid(grid.t_start, grid.t_end, grid.n_steps * factor)
