"""Learning a time-varying feedback gain field by extremum seeking.

Instead of open-loop controls, the decision variables here are basis
coefficients of every entry of a p x n gain matrix K(tau) (plus optional
feedforward V(tau)); each batch plays u = -K(tau) x from n linearly
independent initial conditions and measures the summed cost. Once
converged the field is a feedback law valid for any initial condition.

Dither assignment follows the two-dimensional recipe exactly: gain rows
own disjoint frequency bands (row 1 gets [w0, 1.35 w0], row 2 gets
[1.35 w0, 1.75 w0] in the 2x2 case), and within a row the odd columns
dither with cos while even columns reuse the same frequencies with sin.
Wider matrices subdivide each row band per pair of columns; feedforward
rows get fresh bands appended above the gain bands.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import Basis
from .errors import ContractViolationError, IllPosedSynthesisError
from .es import EsConfig, EsRunRecord, PHASE_COS, PHASE_SIN, make_frequency_schedule, run_es
from .ode import StateTrajectory, integrate_rk4_linear
from .scenario import (EpisodeResult, LinearDynamics, QuadraticCost, Scenario,
                       cost_of_trajectories, episode_measurement)


@dataclass(frozen=True)
class GainField:
    """Basis-expanded feedback gain K(tau) and optional feedforward V(tau)."""

    basis: Basis
    state_dim: int
    control_dim: int
    gain_coeffs: np.ndarray              # (p, n, n_functions)
    ff_coeffs: np.ndarray | None = None  # (p, n_functions)

    def __post_init__(self):
        gain = np.asarray(self.gain_coeffs, dtype=float)
        object.__setattr__(self, "gain_coeffs", gain)
        expected = (self.control_dim, self.state_dim, self.basis.n_functions)
        if gain.shape != expected:
            raise ContractViolationError(
                f"gain coefficients shaped {gain.shape}, expected {expected}"
            )
        if self.ff_coeffs is not None:
            ff = np.asarray(self.ff_coeffs, dtype=float)
            object.__setattr__(self, "ff_coeffs", ff)
            if ff.shape != (self.control_dim, self.basis.n_functions):
                raise ContractViolationError(
                    f"feedforward coefficients shaped {ff.shape}, expected "
                    f"{(self.control_dim, self.basis.n_functions)}"
                )
        if not np.all(np.isfinite(gain)):
            raise ContractViolationError("gain coefficients must be finite")

    @classmethod
    def from_flat(cls, flat, basis: Basis, state_dim: int, control_dim: int,
                  feedforward: bool = False) -> "GainField":
        flat = np.asarray(flat, dtype=float)
        n_gain = control_dim * state_dim * basis.n_functions
        expected = n_gain + (control_dim * basis.n_functions if feedforward else 0)
        if flat.shape != (expected,):
            raise ContractViolationError(
                f"flat gain-field coefficients shaped {flat.shape}, expected ({expected},)")
        gain = flat[:n_gain].reshape(control_dim, state_dim, basis.n_functions)
        ff = None
        if feedforward:
            ff = flat[n_gain:].reshape(control_dim, basis.n_functions)
        return cls(basis, state_dim, control_dim, gain, ff)

    @property
    def has_feedforward(self) -> bool:
        return self.ff_coeffs is not None

    def flat(self) -> np.ndarray:
        """Entries row-major (each interleaved per basis order), then V rows."""
        parts = [self.gain_coeffs.ravel()]
        if self.ff_coeffs is not None:
            parts.append(self.ff_coeffs.ravel())
        return np.concatenate(parts)

    def gain_samples(self, phi_matrix: np.ndarray) -> np.ndarray:
        """K at pre-evaluated basis rows; shape (len(taus), p, n)."""
        p, n, n_functions = self.gain_coeffs.shape
        return (phi_matrix @ self.gain_coeffs.reshape(p * n, n_functions).T).reshape(-1, p, n)

    def feedforward_samples(self, phi_matrix: np.ndarray) -> np.ndarray:
        return phi_matrix @ self.ff_coeffs.T


def _closed_loops(scenario: Scenario, flat: np.ndarray, feedforward: bool, x0s,
                  slow_time: float):
    """States (n_steps + 1, m, d), node controls (n_steps + 1, m, p) and the
    m costs of the closed loops from the starts x0s under the gain field with
    flat coefficients (the layout of :meth:`GainField.flat`)."""
    if not isinstance(scenario.dynamics, LinearDynamics):
        raise ContractViolationError("feedback episodes require linear dynamics")
    a = np.array(scenario.dynamics.a_fn(slow_time), dtype=float, ndmin=2, copy=None)
    b = np.array(scenario.dynamics.b_fn(slow_time), dtype=float, ndmin=2, copy=None)
    grid = scenario.grid
    n, dim, p, n_f = grid.n_steps, a.shape[0], b.shape[1], scenario.basis.n_functions
    n_gain = p * dim * n_f
    gain = flat[:n_gain].reshape(p, dim, n_f)  # K(tau)[l, q] = gain[l, q] . phi(tau)
    phi_nm = scenario.basis_matrix_stages()  # nodes 0..n, then midpoints of steps 0..n-1
    b_gain = (b @ gain.reshape(p, -1)).reshape(dim * dim, n_f)  # B K(tau) = b_gain . phi(tau)
    a_cl = (a.ravel() - phi_nm @ b_gain.T).reshape(-1, dim, dim)
    starts = np.array(x0s, dtype=float).T  # one (d,) start per column
    v = phi_nm @ flat[n_gain:].reshape(p, n_f).T if feedforward else None  # V(tau)
    # node-major with one row per episode: states[k, i] is x_i(tau_k)
    states = integrate_rk4_linear(a_cl, None if v is None else v @ b.T, starts,
                                  grid).states.transpose(0, 2, 1)

    gain_t = gain.transpose(1, 0, 2).reshape(dim * p, n_f)  # K' at the nodes, contiguous
    k_t = (phi_nm[:n + 1] @ gain_t.T).reshape(n + 1, dim, p)
    controls = -(states * k_t if dim == 1 else states @ k_t)
    if feedforward:
        controls += v[:n + 1, None, :]
    return states, controls, cost_of_trajectories(scenario.cost, grid, states, controls)


def _check_fits(scenario: Scenario, field: GainField, x0s) -> None:
    """The closed loop reads a field on the scenario's basis rows and starts
    as (d,) rows: refuse what it would misread."""
    if field.basis != scenario.basis:
        raise ContractViolationError(
            f"the gain field is on another basis than scenario {scenario.name!r}")
    if (field.control_dim, field.state_dim) != (scenario.control_dim, scenario.state_dim):
        raise ContractViolationError(
            f"a {field.control_dim}x{field.state_dim} gain field does not fit the "
            f"{scenario.control_dim}x{scenario.state_dim} gains of scenario {scenario.name!r}")
    for x0 in x0s:
        if np.shape(x0) != (scenario.state_dim,):
            raise ContractViolationError(
                f"initial condition shaped {np.shape(x0)} does not fit state dimension "
                f"{scenario.state_dim}")


def run_feedback_episodes(scenario: Scenario, field: GainField, x0s,
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
    _check_fits(scenario, field, x0s)
    states, controls, costs = _closed_loops(scenario, field.flat(), field.has_feedforward,
                                            x0s, slow_time)
    return [EpisodeResult(trajectory=StateTrajectory(grid=scenario.grid, states=states[:, i],
                                                     dimension=states.shape[2]),
                          controls=controls[:, i], cost=float(costs[i]),
                          measured_cost=float(costs[i]))
            for i in range(costs.shape[0])]


def run_feedback_episode(scenario: Scenario, field: GainField, x0,
                         slow_time: float = 0.0) -> EpisodeResult:
    """Closed-loop episode under u = -K(tau) x (+ V(tau)); noise-free cost."""
    return run_feedback_episodes(scenario, field, [x0], slow_time)[0]


def gain_field(scenario: Scenario, flat) -> GainField:
    """The scenario's gain field with flat coefficients."""
    return GainField.from_flat(flat, scenario.basis, scenario.state_dim,
                               scenario.control_dim, feedforward=scenario.feedforward)


def closed_loop_cost(scenario: Scenario) -> Callable[[np.ndarray, float], float]:
    """Noise-free J(flat, slow_time) of the closed loops from every initial
    condition under the gain field of the flat coefficients: to the bit the
    total_cost of run_multi_episode on that GainField."""
    def cost(flat: np.ndarray, slow_time: float) -> float:
        costs = _closed_loops(scenario, flat, scenario.feedforward,
                              scenario.initial_conditions, slow_time)[2]
        return float(sum(costs.tolist()))

    return cost


def gain_dither_assignment(omega0: float, m: int, state_dim: int, control_dim: int,
                           feedforward: bool = False):
    """(frequencies, phases) for the flat gain-field coefficient vector.

    Returns one (frequency, phase) per scalar coefficient, in the flat
    layout of :meth:`GainField.flat`.
    """
    p, n = control_dim, state_dim
    n_groups = (n + 1) // 2          # column pairs sharing a band via cos/sin
    # row bands in multiples of omega0: the published 2x2 split, else even
    band_edges = [1.0, 1.35, 1.75] if p == 2 else np.linspace(1.0, 1.75, p + 1).tolist()

    ranges = []
    for l in range(p):
        lo, hi = band_edges[l], band_edges[l + 1]
        sub = np.linspace(lo, hi, n_groups + 1)
        for g in range(n_groups):
            ranges.append((float(sub[g]), float(sub[g + 1]), 2 * m))
    n_ff_rows = p if feedforward else 0
    ff_width = band_edges[-1] - band_edges[-2]
    for l in range(n_ff_rows):
        lo = band_edges[-1] + l * ff_width
        ranges.append((lo, lo + ff_width, 2 * m))

    scheduled = make_frequency_schedule(omega0, 2 * m * (p * n_groups + n_ff_rows), ranges)
    bands = scheduled.reshape(p * n_groups + n_ff_rows, 2 * m)

    # one (band, phase) row per gain entry, then per feedforward row; a row's
    # cos/sin coefficients interleave its band as band[[0, m, 1, m + 1, ...]]
    rows = [(bands[l * n_groups + q // 2], PHASE_SIN if q % 2 else PHASE_COS)
            for l in range(p) for q in range(n)]
    rows += [(bands[p * n_groups + l], PHASE_COS) for l in range(n_ff_rows)]
    order = np.arange(2 * m).reshape(2, m).T.ravel()
    freqs = np.empty(2 * m * len(rows))
    phases: list[str] = []
    for i, (band, phase) in enumerate(rows):
        freqs[2 * m * i:2 * m * (i + 1)] = band[order]
        phases += [phase] * (2 * m)
    return freqs, tuple(phases)


def _check_initial_conditions(scenario: Scenario):
    n = scenario.state_dim
    stacked = np.stack(scenario.initial_conditions) \
        if scenario.initial_conditions else np.zeros((0, n))
    if scenario.feedforward:
        # -K x + V is only separable when the [x0; 1] vectors span R^(n+1):
        # with fewer starts a continuum of (K, V) pairs matches the training
        # trajectories and the learned field cannot generalize
        needed = n + 1
        stacked = np.hstack([stacked, np.ones((stacked.shape[0], 1))]) \
            if stacked.size else stacked
    else:
        needed = n
    if len(scenario.initial_conditions) != needed:
        raise IllPosedSynthesisError(
            f"gain synthesis needs exactly {needed} initial conditions "
            f"({'state dimension + 1 for the feedforward term' if scenario.feedforward else 'one per state dimension'}), "
            f"got {len(scenario.initial_conditions)}"
        )
    smallest = np.linalg.svd(stacked, compute_uv=False).min()
    if smallest <= 1e-8:
        raise IllPosedSynthesisError(
            f"initial conditions are {'affinely' if scenario.feedforward else 'linearly'} "
            f"dependent (smallest singular value {smallest:.3e})"
        )


def synthesize_gain(scenario: Scenario, config: EsConfig, n_iterations: int,
                    consume_rows: Callable | None = None) -> tuple[GainField, EsRunRecord]:
    """ES over all gain-field coefficients against the summed multi-episode
    cost, with the dither of ``config`` (as ``harness.es_config_for`` builds
    it from the scenario).

    Returns the converged field (coefficients averaged over the last
    slowest-dither period, removing the residual dither ripple) and the run
    record: the full one, or row 0 and the final window when the rows
    stream to ``consume_rows`` (see :func:`~escontrol.es.run_es`).
    """
    if not scenario.feedback:
        raise ContractViolationError("gain synthesis needs a feedback scenario; "
                                     f"{scenario.name!r} has feedback: false")
    if not isinstance(scenario.dynamics, LinearDynamics) or \
            not isinstance(scenario.cost, QuadraticCost):
        raise ContractViolationError("gain synthesis requires linear dynamics "
                                     "and a quadratic cost")
    _check_initial_conditions(scenario)
    record = run_es(episode_measurement(scenario, config.delta), config, n_iterations,
                    consume_rows=consume_rows)
    return gain_field(scenario, record.period_averaged_coefficients()), record

