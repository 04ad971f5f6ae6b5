"""Repeatable optimal-control problems (plant, cost, horizon, noise) and
their episodes, open loop and closed loop.

An episode integrates the plant over the fast horizon [0, T] under a
basis-parameterized controller, open-loop ControllerCoefficients or a
feedback GainField, and returns the cost J plus a noisy measurement
J_hat = J + n. Time-varying plants are frozen within an episode at the
episode's slow time (plants drift far slower than one horizon), which
keeps episodes pure functions of their inputs.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property
from statistics import NormalDist
from typing import Callable

import numpy as np

from .basis import Basis, ControllerCoefficients, GainField
from .errors import (ContractViolationError, IntegrationDivergedError,
                     ScenarioValidationError)
from .ode import (TimeGrid, integrate_rk4, integrate_rk4_linear, propagate_linear,
                  rk4_frozen_forcing, rk4_frozen_step, scalar_scan)


@dataclass(frozen=True)
class LinearDynamics:
    """dx/dtau = A(t) x + B(t) u with A, B functions of slow time t.

    ``time_invariant`` marks a plant whose A and B do not depend on t; it is
    set by :meth:`constant`, and such a plant's open-loop costs are
    evaluated from an exact quadratic model instead of being simulated.
    """

    a_fn: Callable[[float], np.ndarray]
    b_fn: Callable[[float], np.ndarray]
    state_dim: int
    control_dim: int
    time_invariant: bool = False

    @classmethod
    def constant(cls, a, b) -> "LinearDynamics":
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ScenarioValidationError(f"A must be square, got {a.shape}")
        if b.shape[0] != a.shape[0]:
            raise ScenarioValidationError(
                f"B rows ({b.shape[0]}) must match the state dimension ({a.shape[0]})"
            )
        return cls(a_fn=lambda t: a, b_fn=lambda t: b,
                   state_dim=a.shape[0], control_dim=b.shape[1], time_invariant=True)

    def frozen_at(self, slow_time: float) -> tuple[np.ndarray, np.ndarray]:
        """(A, B) of the plant frozen at ``slow_time``, as 2-D float arrays."""
        return (np.array(self.a_fn(slow_time), dtype=float, ndmin=2, copy=None),
                np.array(self.b_fn(slow_time), dtype=float, ndmin=2, copy=None))


@dataclass(frozen=True)
class GeneralDynamics:
    """dx/dtau = f(tau, x, u) for arbitrary (possibly nonlinear) plants."""

    f: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    state_dim: int
    control_dim: int


Dynamics = LinearDynamics | GeneralDynamics

_EIG_TOL_PSD = -1e-10
_EIG_TOL_PD = 1e-10


def _check_symmetric(name: str, mat: np.ndarray):
    if not np.allclose(mat, mat.T, atol=1e-12, rtol=1e-12):
        raise ScenarioValidationError(f"{name} not symmetric (cost.{name.lower()})")


@dataclass(frozen=True)
class QuadraticCost:
    """Half-weighted quadratic tracking cost.

    J = 1/2 (C x(T) - r(T))' P (C x(T) - r(T))
      + 1/2 int (C x - r)' Q (C x - r) dtau + 1/2 int u' R u dtau

    Note the 1/2 convention: a plain cost like x(T)^2 + int(x^2 + u^2)
    is declared here as C=1, P=2, Q=2, R=2.
    """

    c_matrix: np.ndarray
    p_matrix: np.ndarray
    q_matrix: np.ndarray
    r_matrix: np.ndarray
    reference: Callable[[float], np.ndarray] | None = None
    # Escape hatch for reproducing published examples whose terminal weight
    # is not PSD (the 2x2 feedback example ships one); J may then be
    # indefinite in some directions and S(tau) is monitored for blow-up only.
    terminal_indefinite_ok: bool = False
    # reference samples on the nodes of each grid costed so far; not part of the value
    _nodes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("c_matrix", "p_matrix", "q_matrix", "r_matrix"):
            object.__setattr__(self, name,
                               np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        q_dim = self.c_matrix.shape[0]
        if self.p_matrix.shape != (q_dim, q_dim) or self.q_matrix.shape != (q_dim, q_dim):
            raise ScenarioValidationError("P and Q must be square with the output dimension")
        _check_symmetric("P", self.p_matrix)
        _check_symmetric("Q", self.q_matrix)
        _check_symmetric("R", self.r_matrix)
        if not self.terminal_indefinite_ok and \
                np.linalg.eigvalsh(self.p_matrix).min() < _EIG_TOL_PSD:
            raise ScenarioValidationError("P not positive semidefinite (cost.p)")
        if np.linalg.eigvalsh(self.q_matrix).min() < _EIG_TOL_PSD:
            raise ScenarioValidationError("Q not positive semidefinite (cost.q)")
        if np.linalg.eigvalsh(self.r_matrix).min() < _EIG_TOL_PD:
            raise ScenarioValidationError("R not positive definite (cost.r)")

    @property
    def output_dim(self) -> int:
        return self.c_matrix.shape[0]

    def reference_at(self, tau: float) -> np.ndarray:
        """r(tau) as (output_dim,) floats; any other shape is a ContractViolationError."""
        r = np.atleast_1d(np.asarray(self.reference(tau), dtype=float))
        if r.shape != (self.output_dim,):
            raise ContractViolationError(
                f"reference r({tau}) shaped {r.shape}, expected ({self.output_dim},)")
        return r

    def reference_samples(self, taus: np.ndarray) -> np.ndarray:
        """Reference sampled at taus, shape (len(taus), output_dim), by
        :meth:`reference_at` at each tau."""
        taus = np.atleast_1d(taus)
        if self.reference is None:
            return np.zeros((taus.shape[0], self.output_dim))
        return np.stack([self.reference_at(t) for t in taus.tolist()])

    def reference_nodes(self, grid: TimeGrid) -> np.ndarray:
        """Reference sampled on the grid nodes, kept per grid."""
        vals = self._nodes.get(grid)
        if vals is None:
            vals = self._nodes[grid] = self.reference_samples(grid.nodes())
        return vals


@dataclass(frozen=True)
class GeneralCost:
    """J = terminal(x(T)) + int running(x, u) dtau."""

    terminal: Callable[[np.ndarray], float]
    running: Callable[[np.ndarray, np.ndarray], float]


CostSpec = QuadraticCost | GeneralCost


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian measurement noise from a counter-based Philox stream.

    Draw i is std_dev * NormalDist().inv_cdf(u) (inverse-CDF sampling), where
    u is the (4 i)-th uniform of the Philox4x64-10 stream keyed by ``seed``:
    ``Philox.advance(i)`` skips i whole counter blocks of four 64-bit words,
    one word per uniform. Any position in the stream is reproducible on any
    platform without generating its predecessors; the quantile is the
    standard library's (Wichura's AS241), whose bits depend only on the C
    library's ``log``.

    Draws are generated in blocks of ``_BLOCK`` consecutive indices, at the
    first draw that needs the block, and the latest block is kept. A draw
    is still a pure function of (seed, std_dev, i). A noisy model refuses an
    index that is negative or not an integer with a ContractViolationError.
    """

    std_dev: float
    seed: int
    # (block number, draws) of the latest block; not part of the value
    _block: tuple = field(default=(None, ()), init=False, repr=False, compare=False)

    _BLOCK = 512

    def __post_init__(self):
        if not np.isfinite(self.std_dev) or self.std_dev < 0:
            raise ScenarioValidationError(f"noise.std_dev must be finite and >= 0, "
                                          f"got {self.std_dev}")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**128):
            raise ScenarioValidationError(f"noise.seed must be an integer in Philox's key "
                                          f"range [0, 2**128), got {self.seed!r}")

    def draw(self, index: int) -> float:
        if self.std_dev == 0.0:
            return 0.0
        try:
            number, offset = divmod(operator.index(index), self._BLOCK)
        except TypeError:
            number = -1  # not an integer: refused below
        if self._block[0] != number:
            if number < 0:
                raise ContractViolationError(f"noise index must be an integer >= 0, got {index!r}")
            bit_gen = np.random.Philox(key=self.seed)
            bit_gen.advance(number * self._BLOCK)
            u = np.random.Generator(bit_gen).random(4 * self._BLOCK)[0::4]
            quantiles = map(NormalDist().inv_cdf, np.clip(u, 5e-324, 1.0 - 1e-16).tolist())
            object.__setattr__(self, "_block", (number, [self.std_dev * q for q in quantiles]))
        return self._block[1][offset]


@dataclass(frozen=True)
class Scenario:
    """One repeatable optimal-control problem plus its measurement channel.

    A value: vary it with ``dataclasses.replace``, whose copy derives its
    cached data (stage basis rows, episode model) afresh.
    """

    name: str
    dynamics: Dynamics
    cost: CostSpec
    grid: TimeGrid
    basis: Basis
    initial_conditions: list[np.ndarray]
    noise: NoiseModel = field(default_factory=lambda: NoiseModel(0.0, 0))
    batch_period: float | None = None
    feedback: bool = False
    feedforward: bool = False
    es_defaults: dict = field(default_factory=dict)
    # the resolved scenario-file mapping it was built from (see harness.SCHEMA)
    raw_config: dict | None = None

    def __post_init__(self):
        ics = [np.atleast_1d(np.asarray(x0, dtype=float)) for x0 in self.initial_conditions]
        if not ics:
            raise ScenarioValidationError("at least one initial condition is required")
        dims = {x0.shape[0] for x0 in ics}
        if len(dims) != 1 or dims.pop() != self.dynamics.state_dim:
            raise ScenarioValidationError(
                "all initial conditions must match the state dimension "
                f"{self.dynamics.state_dim}"
            )
        object.__setattr__(self, "initial_conditions", ics)

    @property
    def state_dim(self) -> int:
        return self.dynamics.state_dim

    @property
    def control_dim(self) -> int:
        return self.dynamics.control_dim

    @cached_property
    def basis_matrix_stages(self) -> np.ndarray:
        """Basis rows at the RK4 stage times: the n_steps + 1 nodes, then the
        n_steps midpoints."""
        return self.basis.eval_matrix(np.concatenate([self.grid.nodes(), self.grid.midpoints()]))

    @cached_property
    def _episode_model(self) -> QuadraticEpisodeModel | None:
        """:func:`episode_model` of a time-invariant plant, built on first use."""
        return _quadratic_model(self, 0.0)

    def slow_time_for(self, step: int, delta: float) -> float:
        """Slow time of episode ``step``: the batch clock when one exists,
        otherwise the optimizer clock step * delta."""
        if self.batch_period is not None:
            return step * self.batch_period
        return step * delta


@dataclass(frozen=True)
class EpisodeResult:
    """States and controls at the grid nodes, J, and J plus its noise draw."""

    states: np.ndarray
    controls: np.ndarray
    cost: float
    measured_cost: float


@dataclass(frozen=True)
class MultiEpisodeResult:
    episodes: tuple[EpisodeResult, ...]
    total_cost: float
    measured_total_cost: float


def cost_of_trajectories(cost: CostSpec, grid: TimeGrid, states: np.ndarray,
                         controls: np.ndarray) -> np.ndarray:
    """Episode costs J: the terminal term plus the trapezoid rule of the
    running term on the grid nodes, for m episodes in one pass.

    ``states`` is (n_steps + 1, m, d) and ``controls`` (n_steps + 1, m, p):
    node-major, one row of the middle axis per episode. One episode may also
    come as (n_steps + 1, d) and (n_steps + 1, p). Returns the m costs.

    A 1x1 C multiplies elementwise, and so do Q, R and P when all three are
    1x1: a 1x1 matrix product is one multiply, so the bits are those of the
    product. An episode's node terms do not depend on the batch it comes in;
    its sum over the nodes may, in the last bits, because numpy sums one
    column pairwise and m > 1 columns node by node.
    """
    n_nodes, m = states.shape[0], 1 if states.ndim == 2 else states.shape[1]
    x = states.reshape(n_nodes * m, -1)
    u = controls.reshape(n_nodes * m, -1)
    if isinstance(cost, QuadraticCost):
        c, q, r, p = cost.c_matrix, cost.q_matrix, cost.r_matrix, cost.p_matrix
        err = x * c if c.shape == (1, 1) else x @ c.T
        if cost.reference is not None:
            err = (err.reshape(n_nodes, m, -1)
                   - cost.reference_nodes(grid)[:, None]).reshape(n_nodes * m, -1)
        e_t = err[-m:]
        if q.shape == r.shape == (1, 1):  # P has the shape of Q
            running = 0.5 * (err * q * err + u * r * u)
            terminal = 0.5 * (e_t * p * e_t)[:, 0]
        else:
            running = 0.5 * (np.einsum("ki,ki->k", err @ q, err)
                             + np.einsum("ki,ki->k", u @ r, u))
            terminal = 0.5 * np.einsum("ki,ki->k", e_t @ p, e_t)
    else:
        running = np.array([cost.running(xk, uk) for xk, uk in zip(x, u)], dtype=float)
        terminal = np.array([float(cost.terminal(xk)) for xk in x[-m:]])
    running = running.reshape(n_nodes, m)
    return terminal + grid.h * (running.sum(axis=0) - 0.5 * (running[0] + running[-1]))


def cost_of_trajectory(cost: CostSpec, grid: TimeGrid, states: np.ndarray,
                       controls: np.ndarray) -> float:
    """J of one episode, states (n_steps + 1, d) and node controls
    (n_steps + 1, p): :func:`cost_of_trajectories` of that one episode, with
    the same bits."""
    return float(cost_of_trajectories(cost, grid, states, controls)[0])


class QuadraticEpisodeModel:
    """Exact open-loop episode costs of a linear plant, frozen at one slow
    time, under a quadratic cost.

    RK4 on dx/dtau = A x + B u is linear in the forcing, so the states are
    affine in the flat coefficient vector a (channel-major, as in
    ``ControllerCoefficients.flat``): x = x_unforced(x0) + G a, where column
    i = c * n_functions + j of G is the response from rest to basis function
    j on control channel c. The trapezoid cost of those states is then
    exactly J(a) = 1/2 a'Ha + g(x0)'a + j0(x0). The RK4 steps are those of
    :func:`~escontrol.ode.rk4_frozen_step`. G comes from one scan of all its
    columns and H is built with it; ``frees`` holds (x_unforced, g, j0) of
    every initial condition, None where x_unforced diverges. Costs agree
    with the step-by-step simulation to rounding, not bitwise; trajectories
    are always simulated.

    The model serves coefficients with max|a| below ``max_abs``, which keeps
    every state x_unforced + G a and every product of J far from overflow for
    all the initial conditions; 0.0 when a free response diverges.
    """

    def __init__(self, scenario: Scenario, slow_time: float):
        cost, grid = scenario.cost, scenario.grid
        a, b = scenario.dynamics.frozen_at(slow_time)
        phi, *gains = rk4_frozen_step(a, b, grid.h)
        phi = np.atleast_2d(phi)  # a float Phi would only scan a (1,) state
        stages = scenario.basis_matrix_stages
        eye = np.eye(b.shape[1])
        # control of column c * n_functions + j: phi_j(tau) on channel c
        u = (stages[:, None, :, None] * eye[:, None, :]).reshape(len(stages), -1, len(eye))
        forcing = rk4_frozen_forcing(*gains, u).swapaxes(1, 2)  # (n_steps, d, columns)
        gain = propagate_linear(phi, forcing, np.zeros(forcing.shape[1:]), grid)  # from rest
        phi_nodes = stages[:grid.n_steps + 1]
        weights = np.full(grid.n_steps + 1, grid.h)
        weights[[0, -1]] *= 0.5
        # x'Mx sees only the symmetric part of M, which also keeps H symmetric
        p, q, r = (0.5 * (m + m.T) for m in (cost.p_matrix, cost.q_matrix, cost.r_matrix))
        out = np.einsum("ij,kjn->kin", cost.c_matrix, gain)  # C G at every node
        out_end, out_weighted = out[-1], out * weights[:, None, None]
        hessian = (np.tensordot(out_weighted, np.einsum("ij,kjn->kin", q, out),
                                axes=([0, 1], [0, 1]))
                   + out_end.T @ p @ out_end
                   + np.kron(r, phi_nodes.T @ (weights[:, None] * phi_nodes)))
        self.hessian = 0.5 * (hessian + hessian.T)
        self.frees = []
        for x0 in scenario.initial_conditions:
            try:
                x_unforced = propagate_linear(phi, None, x0, grid)
            except IntegrationDivergedError:
                self.frees.append(None)
                continue
            err = x_unforced @ cost.c_matrix.T
            if cost.reference is not None:
                err = err - cost.reference_nodes(grid)
            q_err = err @ q
            g = (np.tensordot(out_weighted, q_err, axes=([0, 1], [0, 1]))
                 + out_end.T @ (p @ err[-1]))
            j0 = 0.5 * (weights @ np.einsum("ki,ki->k", q_err, err) + err[-1] @ p @ err[-1])
            self.frees.append((x_unforced, g, float(j0)))
        # row sums bound every product: |a_i| < 1e100 / scale
        with np.errstate(over="ignore", invalid="ignore"):
            scale = math.inf if None in self.frees else np.max([
                len(self.hessian), np.abs(gain.reshape(-1, gain.shape[-1])).sum(axis=1).max(),
                np.abs(self.hessian).sum(axis=1).max(),
                *(np.abs(np.r_[x.ravel(), g, j0]).max() for x, g, j0 in self.frees)])
        self.max_abs = 1e100 / scale if scale < math.inf else 0.0


def _quadratic_model(scenario: Scenario, slow_time: float) -> QuadraticEpisodeModel | None:
    try:
        return QuadraticEpisodeModel(scenario, slow_time)
    except IntegrationDivergedError:
        return None


def episode_model(scenario: Scenario, slow_time: float = 0.0) -> QuadraticEpisodeModel | None:
    """The exact quadratic model of the scenario's open-loop episodes at ``slow_time``.

    None unless the plant is LinearDynamics and the cost a QuadraticCost, or
    when a response to a basis function diverges. A time-invariant plant's
    model is built on first use and kept by the scenario; any other plant's
    is built for the call.
    """
    dyn = scenario.dynamics
    if not isinstance(dyn, LinearDynamics) or not isinstance(scenario.cost, QuadraticCost):
        return None
    if dyn.time_invariant:
        return scenario._episode_model
    return _quadratic_model(scenario, slow_time)


def _integrate_open_loop(scenario: Scenario, values: np.ndarray, slow_time: float,
                         x0: np.ndarray):
    """(states, node controls) of one open-loop episode from x0, simulated
    step by step under the coefficient rows ``values`` (n_channels, n_functions).

    A linear plant, frozen at ``slow_time``, takes the closed-form RK4 step
    of :func:`~escontrol.ode.rk4_frozen_step`, with every control sample from
    one product with the stage rows (nodes, then midpoints).
    """
    dyn, grid = scenario.dynamics, scenario.grid
    n = grid.n_steps
    if isinstance(dyn, LinearDynamics):
        u = scenario.basis_matrix_stages @ values.T
        phi, *gains = rk4_frozen_step(*dyn.frozen_at(slow_time), grid.h)
        return propagate_linear(phi, rk4_frozen_forcing(*gains, u), x0, grid), u[:n + 1]
    basis = scenario.basis

    def derivative(tau, x):
        return dyn.f(tau, x, basis.eval_matrix(tau)[0] @ values.T)

    return integrate_rk4(derivative, x0, grid), scenario.basis_matrix_stages[:n + 1] @ values.T


def _check_coefficients(scenario: Scenario, coeffs: ControllerCoefficients):
    if coeffs.n_channels != scenario.control_dim or \
            coeffs.n_functions != scenario.basis.n_functions:
        raise ContractViolationError(
            f"coefficients shaped {coeffs.values.shape} do not fit "
            f"{scenario.control_dim} channels x {scenario.basis.n_functions} functions"
        )


def _scalar_episode_costs(scenario: Scenario,
                          n_starts: int) -> Callable[[np.ndarray, float], list] | None:
    """J(flat, slow_time) of the open-loop episode from each of the first
    ``n_starts`` initial conditions, for a scalar linear plant (1x1 A and B)
    under a quadratic cost with 1x1 weights; None for any other plant or cost.

    The episode is simulated on flat float arrays: the same control product
    with the stage rows, the closed-form RK4 step of
    :func:`~escontrol.ode.rk4_frozen_step` on Python floats and the same
    float scan, then the 1x1 operations of :func:`cost_of_trajectories` in
    the same order. So each J has the bits of :func:`cost_of_trajectory` on
    :func:`_integrate_open_loop`'s states.
    """
    dyn, cost, grid = scenario.dynamics, scenario.cost, scenario.grid
    if not (isinstance(dyn, LinearDynamics) and dyn.state_dim == dyn.control_dim == 1
            and isinstance(cost, QuadraticCost)
            and cost.c_matrix.shape == cost.r_matrix.shape == (1, 1)):
        return None
    n, h = grid.n_steps, grid.h
    stages = scenario.basis_matrix_stages
    # P and Q are square with C's rows, so 1x1 too
    c, q, r, p = (m.item() for m in (cost.c_matrix, cost.q_matrix, cost.r_matrix,
                                     cost.p_matrix))
    reference = None if cost.reference is None else cost.reference_nodes(grid)[:, 0]
    starts = [x0.item() for x0 in scenario.initial_conditions[:n_starts]]

    def episode_costs(flat, slow_time):
        u = (stages @ flat.reshape(1, -1).T).ravel()
        a, b = dyn.frozen_at(slow_time)
        phi, *gains = rk4_frozen_step(a.item(), b.item(), h)
        w = rk4_frozen_forcing(*gains, u).tolist()
        u = u[:n + 1]
        costs = []
        for x0 in starts:
            err = np.fromiter(scalar_scan(phi, w, x0, n), float, n + 1) * c
            if reference is not None:
                err = err - reference
            running = 0.5 * (err * q * err + u * r * u)
            costs.append(float(0.5 * (err[-1] * p * err[-1])
                               + h * (running.sum() - 0.5 * (running[0] + running[-1]))))
        return costs

    return episode_costs


def _model_costs(scenario: Scenario, n_starts: int) -> Callable[[np.ndarray], list | None] | None:
    """J(flat) of the open-loop episode from each of the first ``n_starts``
    initial conditions by the episode model, or None where max|a| reaches its
    ``max_abs``; None if no model serves."""
    model = getattr(scenario.dynamics, "time_invariant", False) and episode_model(scenario)
    if not model:
        return None
    hessian, max_abs, frees = model.hessian, model.max_abs, model.frees[:n_starts]

    def costs(flat):
        if not np.abs(flat).max() < max_abs:
            return None
        h_a = hessian @ flat
        return [float(flat @ (0.5 * h_a + g)) + j0 for _, g, j0 in frees]

    return costs


def _open_loop_costs(scenario: Scenario, n_starts: int) -> Callable[[np.ndarray, float], list]:
    """Noise-free J(flat, slow_time) of the open-loop episode from each of the
    first ``n_starts`` initial conditions: the one place that picks how an
    open-loop J is computed.

    A time-invariant linear plant under a quadratic cost is served by its
    episode model (:func:`_model_costs`) while max|a| < ``max_abs``; larger
    coefficients are simulated and fail with the simulation's error and step
    index. Other plants and costs are simulated: a scalar plant under 1x1
    weights by :func:`_scalar_episode_costs`, with the bits of
    :func:`cost_of_trajectory` on :func:`_integrate_open_loop`'s states,
    which every other one takes.
    """
    simulated = _scalar_episode_costs(scenario, n_starts)
    if simulated is None:
        def simulated(flat, slow_time):
            values = flat.reshape(scenario.control_dim, -1)
            return [cost_of_trajectory(scenario.cost, scenario.grid, *_integrate_open_loop(
                scenario, values, slow_time, x0))
                for x0 in scenario.initial_conditions[:n_starts]]

    modelled = _model_costs(scenario, n_starts)
    if modelled is None:
        return simulated
    return lambda flat, slow_time: modelled(flat) or simulated(flat, slow_time)


def open_loop_cost(scenario: Scenario) -> Callable[[np.ndarray, float], float]:
    """Noise-free J(flat, slow_time) of the open-loop episodes from every
    initial condition, summed: to the bit run_multi_episode's total_cost
    (see :func:`_open_loop_costs`)."""
    costs = _open_loop_costs(scenario, len(scenario.initial_conditions))
    return lambda flat, slow_time: float(sum(costs(flat, slow_time)))


def _closed_loops(scenario: Scenario, flat: np.ndarray, feedforward: bool, x0s,
                  slow_time: float):
    """States (n_steps + 1, m, d), node controls (n_steps + 1, m, p) and the
    m costs of the closed loops from the starts x0s under the gain field with
    flat coefficients (the layout of :meth:`GainField.flat`)."""
    if not isinstance(scenario.dynamics, LinearDynamics):
        raise ContractViolationError("feedback episodes require linear dynamics")
    a, b = scenario.dynamics.frozen_at(slow_time)
    grid = scenario.grid
    n, dim, p, n_f = grid.n_steps, a.shape[0], b.shape[1], scenario.basis.n_functions
    n_gain = p * dim * n_f
    gain = flat[:n_gain].reshape(p, dim, n_f)  # K(tau)[l, q] = gain[l, q] . phi(tau)
    phi_nm = scenario.basis_matrix_stages  # nodes 0..n, then midpoints of steps 0..n-1
    b_gain = (b @ gain.reshape(p, -1)).reshape(dim * dim, n_f)  # B K(tau) = b_gain . phi(tau)
    a_cl = (a.ravel() - phi_nm @ b_gain.T).reshape(-1, dim, dim)
    starts = np.array(x0s, dtype=float).T  # one (d,) start per column
    v = phi_nm @ flat[n_gain:].reshape(p, n_f).T if feedforward else None  # V(tau)
    # node-major with one row per episode: states[k, i] is x_i(tau_k)
    states = integrate_rk4_linear(a_cl, None if v is None else v @ b.T, starts,
                                  grid).transpose(0, 2, 1)

    gain_t = gain.transpose(1, 0, 2).reshape(dim * p, n_f)  # K' at the nodes, contiguous
    k_t = (phi_nm[:n + 1] @ gain_t.T).reshape(n + 1, dim, p)
    controls = -(states * k_t if dim == 1 else states @ k_t)
    if feedforward:
        controls += v[:n + 1, None, :]
    return states, controls, cost_of_trajectories(scenario.cost, grid, states, controls)


def _check_fits(scenario: Scenario, field_: GainField, x0s) -> None:
    """The closed loop reads a field on the scenario's basis rows and starts
    as (d,) rows: refuse what it would misread."""
    if field_.basis != scenario.basis:
        raise ContractViolationError(
            f"the gain field is on another basis than scenario {scenario.name!r}")
    if (field_.control_dim, field_.state_dim) != (scenario.control_dim, scenario.state_dim):
        raise ContractViolationError(
            f"a {field_.control_dim}x{field_.state_dim} gain field does not fit the "
            f"{scenario.control_dim}x{scenario.state_dim} gains of scenario {scenario.name!r}")
    for x0 in x0s:
        if np.shape(x0) != (scenario.state_dim,):
            raise ContractViolationError(
                f"initial condition shaped {np.shape(x0)} does not fit state dimension "
                f"{scenario.state_dim}")


def run_feedback_episodes(scenario: Scenario, field_: GainField, x0s,
                          slow_time: float = 0.0) -> list[EpisodeResult]:
    """Closed-loop episodes under u = -K(tau) x (+ V(tau)) for several
    initial conditions at once.

    The field must be on the scenario's basis, with its state and control
    dimensions, and every start a (d,) vector; anything else raises
    ContractViolationError. All episodes of a batch share one pass:
    :func:`~escontrol.ode.integrate_rk4_linear` scans the closed loop with
    every initial condition as a column of one block, and the costs are
    taken in one batched quadrature.
    """
    _check_fits(scenario, field_, x0s)
    states, controls, costs = _closed_loops(scenario, field_.flat(), field_.has_feedforward,
                                            x0s, slow_time)
    return [EpisodeResult(states=states[:, i], controls=controls[:, i], cost=float(costs[i]),
                          measured_cost=float(costs[i]))
            for i in range(costs.shape[0])]


def closed_loop_cost(scenario: Scenario) -> Callable[[np.ndarray, float], float]:
    """Noise-free J(flat, slow_time) of the closed loops from every initial
    condition under the gain field of the flat coefficients: to the bit the
    total_cost of run_multi_episode on that GainField."""
    def cost(flat: np.ndarray, slow_time: float) -> float:
        costs = _closed_loops(scenario, flat, scenario.feedforward,
                              scenario.initial_conditions, slow_time)[2]
        return float(sum(costs.tolist()))

    return cost


def _episodes(scenario: Scenario, coeffs, n_starts: int,
              slow_time: float) -> list[EpisodeResult]:
    """Noise-free episodes from the first ``n_starts`` initial conditions:
    closed loops under a feedback GainField (:func:`run_feedback_episodes`),
    or open loop under ControllerCoefficients, each simulated once by
    :func:`_integrate_open_loop` and costed by :func:`_model_costs` or else by
    :func:`cost_of_trajectory` of that run: the bits of :func:`_open_loop_costs`."""
    x0s = scenario.initial_conditions[:n_starts]
    if isinstance(coeffs, GainField):
        return run_feedback_episodes(scenario, coeffs, x0s, slow_time)
    if not isinstance(coeffs, ControllerCoefficients):
        raise ContractViolationError("an episode takes ControllerCoefficients or a GainField, "
                                     f"got {type(coeffs).__name__}")
    _check_coefficients(scenario, coeffs)
    runs = [_integrate_open_loop(scenario, coeffs.values, slow_time, x0) for x0 in x0s]
    modelled = _model_costs(scenario, n_starts)
    costs = (modelled and modelled(coeffs.values.ravel())) or [
        cost_of_trajectory(scenario.cost, scenario.grid, *run) for run in runs]
    return [EpisodeResult(states, u_nodes, j, j) for (states, u_nodes), j in zip(runs, costs)]


def run_episode(scenario: Scenario, coeffs, slow_time: float = 0.0,
                noise_index: int = 0) -> EpisodeResult:
    """The episode from the first initial condition, with noise draw
    ``noise_index`` on its J. ``coeffs`` is a ControllerCoefficients (open
    loop) or a feedback GainField (closed loop)."""
    episode = _episodes(scenario, coeffs, 1, slow_time)[0]
    return replace(episode, measured_cost=episode.cost + scenario.noise.draw(noise_index))


def run_multi_episode(scenario: Scenario, coeffs, slow_time: float = 0.0,
                      noise_index: int = 0) -> MultiEpisodeResult:
    """One episode per initial condition; a single noise draw on the summed cost.

    ``coeffs`` is a ControllerCoefficients (open loop, the same control replayed
    from every initial condition) or a feedback GainField.
    """
    episodes = _episodes(scenario, coeffs, len(scenario.initial_conditions), slow_time)
    total = float(sum(ep.cost for ep in episodes))
    return MultiEpisodeResult(episodes=tuple(episodes), total_cost=total,
                              measured_total_cost=total + scenario.noise.draw(noise_index))


def coefficients_of(scenario: Scenario, flat: np.ndarray):
    """The controller of flat coefficients: the scenario's gain field when
    ``scenario.feedback`` is set, else open-loop ControllerCoefficients."""
    if scenario.feedback:
        return GainField.from_flat(flat, scenario.basis, scenario.state_dim,
                                   scenario.control_dim, feedforward=scenario.feedforward)
    return ControllerCoefficients.from_flat(flat, scenario.control_dim)


def episode_measurement(scenario: Scenario,
                        delta: float) -> Callable[[np.ndarray, int], tuple[float, float]]:
    """run_es's ``measure(flat, s) -> (J, J_hat)``: the scenario's episodes at
    the slow time of step s, under the flat coefficients, plus noise draw s.
    The flat vector holds open-loop basis coefficients, or the gain field's
    when ``scenario.feedback`` is set.

    The first measurement goes through run_multi_episode, which validates
    the coefficients and builds what the scenario caches, such as its
    episode model. Every later J comes, with the same bits, from
    :func:`open_loop_cost` or :func:`closed_loop_cost`.
    """
    cost_fn = closed_loop_cost if scenario.feedback else open_loop_cost
    cost = None

    def measure(flat: np.ndarray, s: int) -> tuple[float, float]:
        nonlocal cost
        t = scenario.slow_time_for(s, delta)
        if cost is None:
            res = run_multi_episode(scenario, coefficients_of(scenario, flat), slow_time=t,
                                    noise_index=s)
            cost = cost_fn(scenario)
            return res.total_cost, res.measured_total_cost
        j = cost(flat, t)
        return j, j + scenario.noise.draw(s)

    return measure
