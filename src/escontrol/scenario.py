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
from functools import cached_property
from typing import Callable

import numpy as np

from .basis import Basis, ControllerCoefficients, controller_samples
from .errors import (ContractViolationError, IntegrationDivergedError,
                     ScenarioValidationError)
from .ode import (StateTrajectory, TimeGrid, integrate_rk4, integrate_rk4_linear,
                  propagate_linear, rk4_frozen_step, scalar_scan)


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
            raise ScenarioValidationError("P not positive semidefinite")
        if np.linalg.eigvalsh(self.q_matrix).min() < _EIG_TOL_PSD:
            raise ScenarioValidationError("Q not positive semidefinite")
        if np.linalg.eigvalsh(self.r_matrix).min() < _EIG_TOL_PD:
            raise ScenarioValidationError("R not positive definite")

    @property
    def output_dim(self) -> int:
        return self.c_matrix.shape[0]

    def reference_samples(self, taus: np.ndarray) -> np.ndarray:
        """Reference sampled at taus, shape (len(taus), output_dim): one call on
        all of taus when its result's shape is unambiguous, else one per tau."""
        taus = np.atleast_1d(taus)
        n = taus.shape[0]
        if self.reference is None:
            return np.zeros((n, self.output_dim))
        if n != self.output_dim:  # a square result would not tell nodes from outputs
            try:
                arr = np.asarray(self.reference(taus), dtype=float)
                if arr.shape == (self.output_dim, n):
                    return arr.T.copy()
                if arr.shape == (n, self.output_dim):
                    return arr
            except Exception:
                pass
        rows = [np.atleast_1d(np.asarray(self.reference(float(t)), dtype=float))
                for t in taus]
        return np.stack(rows, axis=0)

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


# Cephes ndtri (the one scipy.special.ndtri runs): rational approximations
# on exp(-2) < y < 1 - exp(-2) and, in the nearer tail's z = sqrt(-2 log y),
# on 2 <= z < 8 and on z >= 8.
_NDTRI_EXP_M2 = 0.13533528323661269189  # exp(-2), where the tail starts
_NDTRI_S2PI = 2.50662827463100050242    # sqrt(2 pi)
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: np.ndarray, coefs: tuple, monic: bool = False) -> np.ndarray:
    """Horner's rule, leading coefficient first (Cephes polevl); with
    ``monic`` an implicit leading 1 precedes ``coefs`` (Cephes p1evl)."""
    ans = x + coefs[0] if monic else coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of each 0 < y0 < 1: Cephes ndtri, with the
    same operations in the same order, so the bits of scipy.special.ndtri.

    The tail takes its logarithms from ``math.log`` (the C library's), because
    NumPy's own ``np.log`` differs from it in the last bit on some inputs.
    """
    upper = y0 > 1.0 - _NDTRI_EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    out = np.empty_like(y)
    central = y > _NDTRI_EXP_M2
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _NDTRI_P0)
                               / _polevl(y2, _NDTRI_Q0, monic=True))) * _NDTRI_S2PI
    tail = ~central
    x = np.sqrt(-2.0 * np.array([math.log(v) for v in y[tail].tolist()]))
    x0 = x - np.array([math.log(v) for v in x.tolist()]) / x
    z = 1.0 / x
    x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1, monic=True)
    far = x >= 8.0  # y <= exp(-32)
    if far.any():
        zf = z[far]
        x1[far] = zf * _polevl(zf, _NDTRI_P2) / _polevl(zf, _NDTRI_Q2, monic=True)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian measurement noise from a counter-based Philox stream.

    Draw i is ndtri(u) * std_dev (inverse-CDF sampling), where u is the
    (4 i)-th uniform of the Philox4x64-10 stream keyed by ``seed``:
    ``Philox.advance(i)`` skips i whole counter blocks of four 64-bit words,
    one word per uniform. Any position in the stream is reproducible on any
    platform without generating its predecessors. ndtri is a NumPy port of
    the Cephes ``ndtri`` (:func:`_ndtri`), with the same bits as
    ``scipy.special.ndtri``.

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
            raise ScenarioValidationError(f"noise.std_dev must be finite and >= 0, "
                                          f"got {self.std_dev}")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**128):
            raise ScenarioValidationError(f"noise.seed must be an integer in Philox's key "
                                          f"range [0, 2**128), got {self.seed!r}")

    def draw(self, index: int) -> float:
        if self.std_dev == 0.0:
            return 0.0
        number, offset = divmod(int(index), self._BLOCK)
        if self._block[0] != number:
            bit_gen = np.random.Philox(key=self.seed)
            bit_gen.advance(number * self._BLOCK)
            u = np.random.Generator(bit_gen).random(4 * self._BLOCK)[0::4]
            u = np.clip(u, 5e-324, 1.0 - 1e-16)
            object.__setattr__(self, "_block", (number, (self.std_dev * _ndtri(u)).tolist()))
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

    def basis_matrix_stages(self) -> np.ndarray:
        """Basis rows at the RK4 stage times: the n_steps + 1 nodes, then the
        n_steps midpoints."""
        if "phi_nm" not in self._cache:
            grid = self.grid
            self._cache["phi_nm"] = self.basis.eval_matrix(
                np.concatenate([grid.nodes(), grid.midpoints()]))
        return self._cache["phi_nm"]

    def slow_time_for(self, step: int, delta: float) -> float:
        """Slow time of episode ``step``: the batch clock when one exists,
        otherwise the optimizer clock step * delta."""
        if self.batch_period is not None:
            return step * self.batch_period
        return step * delta


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
    """Exact open-loop episodes of a linear plant, frozen at one slow time,
    under a quadratic cost.

    RK4 on dx/dtau = A x + B u is linear in the forcing, so the states are
    affine in the flat coefficient vector a (channel-major, as in
    ``ControllerCoefficients.flat``): x = x_free(x0) + G a, where column
    i = c * n_functions + j of G is the response from rest to basis function
    j on control channel c. The trapezoid cost of those states is then
    exactly J(a) = 1/2 a'Ha + g(x0)'a + j0(x0). G comes from one scan of all
    its columns and H is built with it; x_free, g and j0 once per initial
    condition. Results agree with the step-by-step simulation to rounding,
    not bitwise.
    """

    def __init__(self, scenario: Scenario, slow_time: float):
        dyn, cost, grid = scenario.dynamics, scenario.cost, scenario.grid
        self.grid = grid
        self._cost = cost
        self._initial_conditions = scenario.initial_conditions
        self._a = np.atleast_2d(np.asarray(dyn.a_fn(slow_time), dtype=float))
        b = np.atleast_2d(np.asarray(dyn.b_fn(slow_time), dtype=float))
        stages = scenario.basis_matrix_stages()
        # forcing of column c * n_functions + j: phi_j(tau) B[:, c]
        forcing = (stages[:, None, None, :] * b[None, :, :, None]).reshape(
            stages.shape[0], b.shape[0], -1)
        rest = np.zeros(forcing.shape[1:])
        gain = integrate_rk4_linear(self._a, forcing, rest, grid).states
        self._gain = gain.reshape(-1, gain.shape[-1])  # (n_steps + 1) * state_dim rows
        self._phi_nodes = stages[:grid.n_steps + 1]
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

    @cached_property
    def max_abs(self) -> float:
        """The model serves coefficients with max|a| below this bound, which
        keeps every state x_free + G a and every product of J far from
        overflow for all the scenario's initial conditions; 0.0 when one of
        their free responses diverges."""
        frees = [self.free_response(x0) for x0 in self._initial_conditions]
        if any(free is None for free in frees):
            return 0.0
        # row sums bound every product: |a_i| < 1e100 / scale
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.max([len(self.hessian), np.abs(self._gain).sum(axis=1).max(),
                            np.abs(self.hessian).sum(axis=1).max(),
                            *(np.abs(np.r_[x.ravel(), g, j0]).max() for x, g, j0 in frees)])
        return 1e100 / scale if scale < math.inf else 0.0

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
        """(trajectory, node controls, J) of the episode from x0, one of the
        scenario's initial conditions, or None when max|a| reaches
        :attr:`max_abs`."""
        a = coeffs.values.ravel()
        if not np.abs(a).max() < self.max_abs:
            return None
        x_free, g, j0 = self.free_response(x0)
        states = x_free + (self._gain @ a).reshape(x_free.shape)
        j = float(a @ (0.5 * (self.hessian @ a) + g)) + j0
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
    step by step under the coefficient rows ``values`` (n_channels, n_functions).

    A linear plant, frozen at ``slow_time``, takes the closed-form RK4 step
    of :func:`~escontrol.ode.rk4_frozen_step`, with every control sample from
    one product with the stage rows (nodes, then midpoints).
    """
    dyn, grid = scenario.dynamics, scenario.grid
    n = grid.n_steps
    if isinstance(dyn, LinearDynamics):
        u = scenario.basis_matrix_stages() @ values.T
        a = np.atleast_2d(np.asarray(dyn.a_fn(slow_time), dtype=float))
        b = np.atleast_2d(np.asarray(dyn.b_fn(slow_time), dtype=float))
        phi, g_start, g_mid, g_end = rk4_frozen_step(a, b, grid.h)
        u_start, u_end, u_mid = u[:n], u[1:n + 1], u[n + 1:]
        if isinstance(phi, float):
            w = g_start * u_start + g_mid * u_mid + g_end * u_end
        else:
            w = u_start @ g_start.T + u_mid @ g_mid.T + u_end @ g_end.T
        return propagate_linear(phi, w, x0, grid), u[:n + 1]
    basis = scenario.basis

    def derivative(tau, x):
        u = basis.eval_matrix(tau)[0] @ values.T
        return dyn.f(tau, x, u)

    traj = integrate_rk4(derivative, x0, grid)
    return traj, scenario.basis_matrix_stages()[:n + 1] @ values.T


def _open_loop_episode(scenario: Scenario, coeffs: ControllerCoefficients,
                       slow_time: float, x0: np.ndarray):
    """(trajectory, node controls, J) of one open-loop episode from x0.

    A time-invariant linear plant under a quadratic cost is served by its
    exact quadratic model. Every other plant and cost is simulated step by
    step, and so is any episode whose coefficients reach the model's
    ``max_abs``, so that it fails as the simulation does, with the same
    step index.
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


def _scalar_episode_costs(scenario: Scenario) -> Callable[[np.ndarray, float], list] | None:
    """J(flat, slow_time) of each initial condition's open-loop episode, for
    a scalar linear plant (1x1 A and B) under a quadratic cost with 1x1
    weights; None for any other plant or cost.

    The episode is simulated on flat float arrays: the same control product
    with the stage rows, the closed-form RK4 step of
    :func:`~escontrol.ode.rk4_frozen_step` on Python floats and the same
    float scan, then the 1x1 operations of :func:`cost_of_trajectories` in
    the same order. So each J has the bits of :func:`cost_of_trajectory` on
    :func:`_integrate_open_loop`'s trajectory, without the 2-D wrappers
    around them.
    """
    dyn, cost, grid = scenario.dynamics, scenario.cost, scenario.grid
    if not (isinstance(dyn, LinearDynamics) and dyn.state_dim == dyn.control_dim == 1
            and isinstance(cost, QuadraticCost)
            and cost.c_matrix.shape == cost.r_matrix.shape == (1, 1)):
        return None
    n, h = grid.n_steps, grid.h
    stages = scenario.basis_matrix_stages()
    # P and Q are square with C's rows, so 1x1 too
    c, q, r, p = (m.item() for m in (cost.c_matrix, cost.q_matrix, cost.r_matrix,
                                     cost.p_matrix))
    reference = None if cost.reference is None else cost.reference_nodes(grid)[:, 0]
    starts = [x0.item() for x0 in scenario.initial_conditions]

    def episode_costs(flat, slow_time):
        u = (stages @ flat.reshape(1, -1).T).ravel()
        phi, g_start, g_mid, g_end = rk4_frozen_step(
            np.asarray(dyn.a_fn(slow_time), dtype=float).item(),
            np.asarray(dyn.b_fn(slow_time), dtype=float).item(), h)
        w = (g_start * u[:n] + g_mid * u[n + 1:] + g_end * u[1:n + 1]).tolist()
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


def open_loop_cost(scenario: Scenario) -> Callable[[np.ndarray, float], float]:
    """Noise-free J(flat, slow_time) of the open-loop episodes, to the bit
    run_episode's cost (one initial condition) or run_multi_episode's total.

    A frozen linear plant under a quadratic cost is served by its episode
    model's 1/2 a'Ha + g'a + j0 per initial condition while max|a| stays
    below the model's ``max_abs``; larger coefficients are simulated, as
    run_episode simulates them, and fail with the simulation's error and
    step index. Other plants and costs are simulated; a scalar plant under
    1x1 weights by :func:`_scalar_episode_costs`, with the same bits.
    """
    ics, n_ch = scenario.initial_conditions, scenario.control_dim

    def total(costs):
        return costs[0] if len(ics) == 1 else float(sum(costs))

    scalar_costs = _scalar_episode_costs(scenario)

    def simulated(flat, slow_time):
        if scalar_costs is not None:
            return total(scalar_costs(flat, slow_time))
        runs = (_integrate_open_loop(scenario, flat.reshape(n_ch, -1), slow_time, x0)
                for x0 in ics)
        return total([cost_of_trajectory(scenario.cost, scenario.grid, traj.states, u_nodes)
                      for traj, u_nodes in runs])

    dyn = scenario.dynamics
    model = episode_model(scenario) if getattr(dyn, "time_invariant", False) else None
    if model is None:
        return simulated
    hessian, max_abs = model.hessian, model.max_abs
    frees = [model.free_response(x0) for x0 in ics]

    def modelled(flat, slow_time):
        if np.abs(flat).max() < max_abs:
            h_a = hessian @ flat
            return total([float(flat @ (0.5 * h_a + g)) + j0 for _, g, j0 in frees])
        return simulated(flat, slow_time)

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
