"""Repeatable optimal-control problems: plant, cost, horizon, noise.

An episode integrates the plant over the fast horizon [0, T] under a
basis-parameterized controller and returns the cost J plus a noisy
measurement J_hat = J + n. Time-varying plants are frozen within an
episode at the episode's slow time (plants drift far slower than one
horizon), which keeps episodes pure functions of their inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .basis import Basis, ControllerCoefficients, controller_samples
from .errors import (ContractViolationError, IntegrationDivergedError,
                     ScenarioValidationError)
from .ode import (StateTrajectory, TimeGrid, integrate_rk4,
                  integrate_rk4_linear, quadrature_trapezoid)


@dataclass(frozen=True)
class LinearDynamics:
    """dx/dtau = A(t) x + B(t) u with A, B functions of slow time t.

    ``time_invariant`` marks a plant whose A and B do not depend on t; it is
    set by :meth:`constant`, and such a plant's open-loop episodes are
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
        raise ScenarioValidationError(f"{name} not symmetric")


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

    def __post_init__(self):
        for name in ("c_matrix", "p_matrix", "q_matrix", "r_matrix"):
            object.__setattr__(self, name,
                               np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "_ref_cache", {})
        q_dim = self.c_matrix.shape[0]
        if self.p_matrix.shape != (q_dim, q_dim) or self.q_matrix.shape != (q_dim, q_dim):
            raise ScenarioValidationError("P and Q must be square with the output dimension")
        _check_symmetric("P", self.p_matrix)
        _check_symmetric("Q", self.q_matrix)
        _check_symmetric("R", self.r_matrix)
        if not self.terminal_indefinite_ok and \
                np.linalg.eigvalsh(self.p_matrix).min() < _EIG_TOL_PSD:
            raise ScenarioValidationError("P not positive semidefinite")
        if np.linalg.eigvalsh(self.q_matrix).min() < _EIG_TOL_PSD:
            raise ScenarioValidationError("Q not positive semidefinite")
        if np.linalg.eigvalsh(self.r_matrix).min() < _EIG_TOL_PD:
            raise ScenarioValidationError("R not positive definite")

    @property
    def output_dim(self) -> int:
        return self.c_matrix.shape[0]

    def reference_samples(self, taus: np.ndarray) -> np.ndarray:
        """Reference sampled at taus, shape (len(taus), output_dim).

        Samples for a given grid are cached; expression-based references are
        evaluated vectorized when they support it.
        """
        taus = np.atleast_1d(taus)
        if self.reference is None:
            return np.zeros((taus.shape[0], self.output_dim))
        key = (taus.shape[0], float(taus[0]), float(taus[-1]))
        cached = self._ref_cache.get(key)
        if cached is not None:
            return cached
        vals = None
        try:
            arr = np.asarray(self.reference(taus), dtype=float)
            if arr.shape == (self.output_dim, taus.shape[0]):
                vals = arr.T.copy()
            elif arr.shape == (taus.shape[0], self.output_dim):
                vals = arr
        except Exception:
            vals = None
        if vals is None:
            rows = [np.atleast_1d(np.asarray(self.reference(float(t)), dtype=float))
                    for t in taus]
            vals = np.stack(rows, axis=0)
        self._ref_cache[key] = vals
        return vals

    def reference_nodes(self, grid: TimeGrid) -> np.ndarray:
        """Reference sampled on the grid nodes; a cache hit builds no node grid."""
        cached = self._ref_cache.get((grid.n_steps + 1, grid.t_start, grid.t_end))
        if cached is not None:
            return cached
        return self.reference_samples(grid.nodes())


@dataclass(frozen=True)
class GeneralCost:
    """J = terminal(x(T)) + int running(x, u) dtau."""

    terminal: Callable[[np.ndarray], float]
    running: Callable[[np.ndarray, np.ndarray], float]


CostSpec = QuadraticCost | GeneralCost


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian measurement noise from a counter-based Philox stream.

    Draw i is ndtri(u) * std_dev (inverse-CDF sampling), where u is the
    (4 i)-th uniform of the Philox4x64-10 stream keyed by ``seed``:
    ``Philox.advance(i)`` skips i whole counter blocks of four 64-bit words,
    one word per uniform. Any position in the stream is reproducible on any
    platform without generating its predecessors.

    Draws are generated in blocks of ``_BLOCK`` consecutive indices, at the
    first draw that needs the block, and the latest block is kept. A draw
    is still a pure function of (seed, std_dev, i).
    """

    std_dev: float
    seed: int
    # (block number, draws) of the latest block; not part of the value
    _block: tuple = field(default=(-1, ()), init=False, repr=False, compare=False)

    _BLOCK = 512

    def __post_init__(self):
        if not np.isfinite(self.std_dev) or self.std_dev < 0:
            raise ScenarioValidationError(f"noise std_dev must be finite and >= 0, "
                                          f"got {self.std_dev}")

    def draw(self, index: int) -> float:
        if self.std_dev == 0.0:
            return 0.0
        number, offset = divmod(int(index), self._BLOCK)
        if self._block[0] != number:
            bit_gen = np.random.Philox(key=self.seed)
            bit_gen.advance(number * self._BLOCK)
            u = np.random.Generator(bit_gen).random(4 * self._BLOCK)[0::4]
            u = np.clip(u, 5e-324, 1.0 - 1e-16)
            object.__setattr__(self, "_block", (number, (self.std_dev * ndtri(u)).tolist()))
        return self._block[1][offset]


@dataclass
class Scenario:
    """One repeatable optimal-control problem plus its measurement channel."""

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
    raw_config: dict | None = None
    # init=False: dataclasses.replace() builds a copy with a cache of its own
    _cache: dict = field(default_factory=dict, init=False, repr=False)

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
        self.initial_conditions = ics

    @property
    def state_dim(self) -> int:
        return self.dynamics.state_dim

    @property
    def control_dim(self) -> int:
        return self.dynamics.control_dim

    def doubled_taus(self) -> np.ndarray:
        """Grid nodes interleaved with midpoints (RK4 stage times)."""
        if "taus_d" not in self._cache:
            taus = np.empty(2 * self.grid.n_steps + 1)
            taus[0::2] = self.grid.nodes()
            taus[1::2] = self.grid.midpoints()
            self._cache["taus_d"] = taus
        return self._cache["taus_d"]

    def basis_matrix_doubled(self) -> np.ndarray:
        if "phi_d" not in self._cache:
            self._cache["phi_d"] = self.basis.eval_matrix(self.doubled_taus())
        return self._cache["phi_d"]

    def basis_matrix_nodes(self) -> np.ndarray:
        return self.basis_matrix_doubled()[0::2]

    def slow_time_for(self, step: int, delta: float) -> float:
        """Slow time of episode ``step``: the batch clock when one exists,
        otherwise the optimizer clock step * delta."""
        if self.batch_period is not None:
            return step * self.batch_period
        return step * delta

    def zero_coefficients(self) -> ControllerCoefficients:
        return ControllerCoefficients.zeros(self.control_dim, self.basis)


@dataclass(frozen=True)
class EpisodeResult:
    trajectory: StateTrajectory
    controls: np.ndarray
    cost: float
    measured_cost: float


@dataclass(frozen=True)
class MultiEpisodeResult:
    episodes: tuple[EpisodeResult, ...]
    total_cost: float
    measured_total_cost: float


def cost_of_trajectory(cost: CostSpec, grid: TimeGrid, states: np.ndarray,
                       controls: np.ndarray) -> float:
    """Terminal term plus trapezoid quadrature of the running term."""
    if isinstance(cost, QuadraticCost):
        err = states @ cost.c_matrix.T
        if cost.reference is not None:
            err = err - cost.reference_nodes(grid)
        running = 0.5 * (np.einsum("ki,ij,kj->k", err, cost.q_matrix, err)
                         + np.einsum("ki,ij,kj->k", controls, cost.r_matrix, controls))
        e_t = err[-1]
        terminal = 0.5 * float(e_t @ cost.p_matrix @ e_t)
    else:
        running = np.array([cost.running(states[k], controls[k])
                            for k in range(states.shape[0])], dtype=float)
        terminal = float(cost.terminal(states[-1]))
    return terminal + quadrature_trapezoid(running, grid)


def cost_of_trajectories(cost: CostSpec, grid: TimeGrid, states: np.ndarray,
                         controls: np.ndarray) -> np.ndarray:
    """Costs of a batch of episodes in one pass; same rule as cost_of_trajectory.

    ``states`` is (n_steps + 1, m, d) and ``controls`` (n_steps + 1, m, p):
    node-major, one row of the middle axis per episode. Returns the m costs.
    """
    n_nodes, m = states.shape[:2]
    if not isinstance(cost, QuadraticCost):
        return np.array([cost_of_trajectory(cost, grid, states[:, i], controls[:, i])
                         for i in range(m)])
    err = states.reshape(n_nodes * m, -1) @ cost.c_matrix.T
    if cost.reference is not None:
        ref = cost.reference_nodes(grid)
        err = (err.reshape(n_nodes, m, -1) - ref[:, None, :]).reshape(n_nodes * m, -1)
    u = controls.reshape(n_nodes * m, -1)
    running = 0.5 * (np.einsum("ki,ki->k", err @ cost.q_matrix, err)
                     + np.einsum("ki,ki->k", u @ cost.r_matrix, u)).reshape(n_nodes, m)
    e_t = err[-m:]
    terminal = 0.5 * np.einsum("ki,ki->k", e_t @ cost.p_matrix, e_t)
    return terminal + grid.h * (running.sum(axis=0) - 0.5 * (running[0] + running[-1]))


class QuadraticEpisodeModel:
    """Exact open-loop episodes of a linear plant, frozen at one slow time,
    under a quadratic cost.

    RK4 on dx/dtau = A x + B u is linear in the forcing, so the states are
    affine in the flat coefficient vector a (channel-major, as in
    ``ControllerCoefficients.flat``): x = x_free(x0) + G a, where column
    i = c * n_functions + j of G is the response from rest to basis function
    j on control channel c. The trapezoid cost of those states is then
    exactly J(a) = 1/2 a'Ha + g(x0)'a + j0(x0). G and H are built once;
    x_free, g and j0 once per initial condition. Results agree with the
    step-by-step simulation to rounding, not bitwise.
    """

    def __init__(self, scenario: Scenario, slow_time: float):
        dyn, cost, grid = scenario.dynamics, scenario.cost, scenario.grid
        self.grid = grid
        self._cost = cost
        self._a = np.atleast_2d(np.asarray(dyn.a_fn(slow_time), dtype=float))
        b = np.atleast_2d(np.asarray(dyn.b_fn(slow_time), dtype=float))
        phi_d = scenario.basis_matrix_doubled()
        rest = np.zeros(scenario.state_dim)
        columns = [integrate_rk4_linear(self._a, np.outer(phi_d[:, j], b[:, c]), rest,
                                        grid).states
                   for c in range(scenario.control_dim) for j in range(phi_d.shape[1])]
        gain = np.stack(columns, axis=-1)  # (n_steps + 1, state_dim, n_coeffs)
        self._gain = gain.reshape(-1, gain.shape[-1])
        self._phi_nodes = np.ascontiguousarray(phi_d[0::2])
        weights = np.full(grid.n_steps + 1, grid.h)
        weights[[0, -1]] *= 0.5
        # x'Mx sees only the symmetric part of M, which also keeps H symmetric
        self._p, self._q, r = (0.5 * (m + m.T)
                               for m in (cost.p_matrix, cost.q_matrix, cost.r_matrix))
        out = np.einsum("ij,kjn->kin", cost.c_matrix, gain)  # C G at every node
        self._out_end = out[-1]
        self._out_weighted = out * weights[:, None, None]
        self._weights = weights
        hessian = (np.tensordot(self._out_weighted, np.einsum("ij,kjn->kin", self._q, out),
                                axes=([0, 1], [0, 1]))
                   + self._out_end.T @ self._p @ self._out_end
                   + np.kron(r, self._phi_nodes.T @ (weights[:, None] * self._phi_nodes)))
        self.hessian = 0.5 * (hessian + hessian.T)
        self._free: dict[bytes, tuple | None] = {}

    def free_response(self, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray, float] | None:
        """(x_free, g, j0) of initial condition x0; None if x_free diverges."""
        key = x0.tobytes()
        if key not in self._free:
            try:
                x_free = integrate_rk4_linear(self._a, None, x0, self.grid).states
            except IntegrationDivergedError:
                self._free[key] = None
                return None
            err = x_free @ self._cost.c_matrix.T
            if self._cost.reference is not None:
                err = err - self._cost.reference_nodes(self.grid)
            q_err = err @ self._q
            g = (np.tensordot(self._out_weighted, q_err, axes=([0, 1], [0, 1]))
                 + self._out_end.T @ (self._p @ err[-1]))
            j0 = 0.5 * (self._weights @ np.einsum("ki,ki->k", q_err, err)
                        + err[-1] @ self._p @ err[-1])
            self._free[key] = (x_free, g, float(j0))
        return self._free[key]

    def episode(self, coeffs: ControllerCoefficients, x0: np.ndarray):
        """(trajectory, node controls, J) of the episode from x0, or None when
        the model does not give finite states and cost."""
        free = self.free_response(x0)
        if free is None:
            return None
        x_free, g, j0 = free
        a = coeffs.values.ravel()
        # an overflow is caught by the finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            states = x_free + (self._gain @ a).reshape(x_free.shape)
            j = float(a @ (0.5 * (self.hessian @ a) + g)) + j0
        if not (math.isfinite(j) and np.isfinite(states).all()):
            return None
        return (StateTrajectory(self.grid, states, states.shape[1]),
                controller_samples(coeffs, self._phi_nodes), j)

    def quadratic_form(self, initial_conditions) -> tuple[np.ndarray, np.ndarray, float] | None:
        """(H, g, j0) of the cost summed over the initial conditions; None if
        a free response diverges."""
        frees = [self.free_response(x0) for x0 in initial_conditions]
        if any(free is None for free in frees):
            return None
        return (len(frees) * self.hessian, sum(free[1] for free in frees),
                sum(free[2] for free in frees))


def episode_model(scenario: Scenario, slow_time: float = 0.0) -> QuadraticEpisodeModel | None:
    """The exact quadratic model of the scenario's open-loop episodes at ``slow_time``.

    None unless the plant is LinearDynamics and the cost a QuadraticCost, or
    when a response to a basis function diverges. A time-invariant plant's
    model is built on first use and kept in the scenario's cache; any other
    plant's is built for the call.
    """
    dyn = scenario.dynamics
    if not isinstance(dyn, LinearDynamics) or not isinstance(scenario.cost, QuadraticCost):
        return None
    if dyn.time_invariant and "episode_model" in scenario._cache:
        return scenario._cache["episode_model"]
    try:
        model = QuadraticEpisodeModel(scenario, slow_time)
    except IntegrationDivergedError:
        model = None
    if dyn.time_invariant:
        scenario._cache["episode_model"] = model
    return model


def _integrate_open_loop(scenario: Scenario, values: np.ndarray, slow_time: float,
                         x0: np.ndarray):
    """(trajectory, node controls) of one open-loop episode from x0, simulated
    step by step under the coefficient rows ``values`` (n_channels, n_functions)."""
    dyn = scenario.dynamics
    if isinstance(dyn, LinearDynamics):
        a = np.atleast_2d(np.asarray(dyn.a_fn(slow_time), dtype=float))
        b = np.atleast_2d(np.asarray(dyn.b_fn(slow_time), dtype=float))
        u_d = scenario.basis_matrix_doubled() @ values.T
        traj = integrate_rk4_linear(a, u_d @ b.T, x0, scenario.grid)
        return traj, u_d[0::2]
    basis = scenario.basis

    def derivative(tau, x):
        u = basis.eval_matrix(tau)[0] @ values.T
        return dyn.f(tau, x, u)

    traj = integrate_rk4(derivative, x0, scenario.grid)
    return traj, scenario.basis_matrix_nodes() @ values.T


def _open_loop_episode(scenario: Scenario, coeffs: ControllerCoefficients,
                       slow_time: float, x0: np.ndarray):
    """(trajectory, node controls, J) of one open-loop episode from x0.

    A time-invariant linear plant under a quadratic cost is served by its
    exact quadratic model. Every other plant and cost is simulated step by
    step, and so is any episode whose model result is not finite, so that
    it fails as the simulation does, with the same step index.
    """
    dyn = scenario.dynamics
    if isinstance(dyn, LinearDynamics) and dyn.time_invariant:
        model = episode_model(scenario)
        if model is not None:
            result = model.episode(coeffs, x0)
            if result is not None:
                return result
    traj, u_nodes = _integrate_open_loop(scenario, coeffs.values, slow_time, x0)
    return traj, u_nodes, cost_of_trajectory(scenario.cost, scenario.grid, traj.states, u_nodes)


def run_episode(scenario: Scenario, coeffs: ControllerCoefficients,
                slow_time: float = 0.0, noise_index: int = 0) -> EpisodeResult:
    """Integrate one episode from the first initial condition and measure J."""
    if coeffs.n_channels != scenario.control_dim or \
            coeffs.n_functions != scenario.basis.n_functions:
        raise ContractViolationError(
            f"coefficients shaped {coeffs.values.shape} do not fit "
            f"{scenario.control_dim} channels x {scenario.basis.n_functions} functions"
        )
    traj, u_nodes, j = _open_loop_episode(scenario, coeffs, slow_time,
                                          scenario.initial_conditions[0])
    return EpisodeResult(trajectory=traj, controls=u_nodes, cost=j,
                         measured_cost=j + scenario.noise.draw(noise_index))


def run_multi_episode(scenario: Scenario, coeffs, slow_time: float = 0.0,
                      noise_index: int = 0) -> MultiEpisodeResult:
    """One episode per initial condition; a single noise draw on the summed cost.

    ``coeffs`` is a ControllerCoefficients (open loop, the same control replayed
    from every initial condition) or a feedback GainField.
    """
    from .feedback import GainField, run_feedback_episodes  # avoids a module cycle

    if isinstance(coeffs, GainField):
        episodes = run_feedback_episodes(scenario, coeffs,
                                         scenario.initial_conditions, slow_time)
    else:
        episodes = []
        for x0 in scenario.initial_conditions:
            traj, u_nodes, j = _open_loop_episode(scenario, coeffs, slow_time, x0)
            episodes.append(EpisodeResult(traj, u_nodes, j, j))
    total = float(sum(ep.cost for ep in episodes))
    return MultiEpisodeResult(episodes=tuple(episodes), total_cost=total,
                              measured_total_cost=total + scenario.noise.draw(noise_index))


def open_loop_cost(scenario: Scenario) -> Callable[[np.ndarray, float], float]:
    """Noise-free J(flat, slow_time) of the open-loop episodes, to the bit
    run_episode's cost (one initial condition) or run_multi_episode's total.

    A frozen linear plant under a quadratic cost is served by its episode
    model's 1/2 a'Ha + g'a + j0 per initial condition while neither J nor a
    state x_free + G a can overflow; larger coefficients are rerun as
    run_episode runs them, and fail with the simulation's error and step
    index. Other plants and costs are simulated.
    """
    ics, n_ch = scenario.initial_conditions, scenario.control_dim

    def total(costs):
        return costs[0] if len(ics) == 1 else float(sum(costs))

    def simulated(flat, slow_time):
        runs = (_integrate_open_loop(scenario, flat.reshape(n_ch, -1), slow_time, x0)
                for x0 in ics)
        return total([cost_of_trajectory(scenario.cost, scenario.grid, traj.states, u_nodes)
                      for traj, u_nodes in runs])

    def episodes(flat, slow_time):
        coeffs = ControllerCoefficients.from_flat(flat, n_ch)
        return total([_open_loop_episode(scenario, coeffs, slow_time, x0)[2] for x0 in ics])

    dyn = scenario.dynamics
    model = episode_model(scenario) if getattr(dyn, "time_invariant", False) else None
    frees = [] if model is None else [model.free_response(x0) for x0 in ics]
    if model is None or any(free is None for free in frees):
        return simulated if model is None else episodes
    hessian = model.hessian
    # row sums bound every product: |a_i| < 1e100 / scale keeps all far from overflow
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.max([len(hessian), np.abs(model._gain).sum(axis=1).max(),
                        np.abs(hessian).sum(axis=1).max(),
                        *(np.abs(np.r_[x.ravel(), g, j0]).max() for x, g, j0 in frees)])
    max_abs = 1e100 / scale if scale < math.inf else 0.0

    def modelled(flat, slow_time):
        if np.abs(flat).max() < max_abs:
            h_a = hessian @ flat
            return total([float(flat @ (0.5 * h_a + g)) + j0 for _, g, j0 in frees])
        return episodes(flat, slow_time)

    return modelled


def episode_cost_fn(scenario: Scenario, slow_time: float = 0.0) -> Callable[[np.ndarray], float]:
    """Noise-free cost of a flat coefficient vector; used by the oracles."""
    cost = open_loop_cost(scenario)
    return lambda flat: cost(np.asarray(flat, dtype=float), slow_time)


class EpisodeMeasurement:
    """run_es's ``measure(flat, s) -> (J, J_hat)``: episode s at its slow
    time, plus noise draw s. The first goes through run_episode (one open
    loop) or run_multi_episode on ``coefficients(flat)``, which validate it
    and build what the scenario caches, such as its episode model. Every
    later J comes, with the same bits, from ``cost_fn(scenario)(flat, t)``.
    """

    def __init__(self, scenario: Scenario, delta: float, coefficients, cost_fn):
        self.scenario, self.delta = scenario, delta
        self._coefficients, self._cost_fn, self._cost = coefficients, cost_fn, None

    def measure(self, flat: np.ndarray, s: int) -> tuple[float, float]:
        scenario = self.scenario
        t = scenario.slow_time_for(s, self.delta)
        if self._cost is not None:
            j = self._cost(flat, t)
            return j, j + scenario.noise.draw(s)
        coeffs = self._coefficients(flat)
        if isinstance(coeffs, ControllerCoefficients) and len(scenario.initial_conditions) == 1:
            res = run_episode(scenario, coeffs, slow_time=t, noise_index=s)
            measured = res.cost, res.measured_cost
        else:
            res = run_multi_episode(scenario, coeffs, slow_time=t, noise_index=s)
            measured = res.total_cost, res.measured_total_cost
        self._cost = self._cost_fn(scenario)
        return measured


def open_loop_measurement(scenario: Scenario, delta: float) -> EpisodeMeasurement:
    """run_es's measurement of open-loop episodes under basis coefficients."""
    return EpisodeMeasurement(
        scenario, delta, lambda flat: ControllerCoefficients.from_flat(flat, scenario.control_dim),
        open_loop_cost)
