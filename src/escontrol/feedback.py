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
from typing import Callable, Sequence

import numpy as np

from .basis import Basis
from .errors import (ContractViolationError, IllPosedSynthesisError,
                     IntegrationDivergedError)
from .es import (EsConfig, EsRunRecord, PHASE_COS, PHASE_SIN, default_delta,
                 make_frequency_schedule, run_es)
from .lqr import RiccatiSolution
from .ode import (StateTrajectory, TimeGrid, first_nonfinite_step, prefix_transitions,
                  rk4_linear_steps)
from .scenario import (EpisodeMeasurement, EpisodeResult, LinearDynamics, QuadraticCost,
                       Scenario, cost_of_trajectories)


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


def eval_gain(field: GainField, tau: float) -> np.ndarray:
    """The p x n gain matrix at tau, linear in the coefficients."""
    if tau < -1e-9 or tau > field.basis.horizon + 1e-9:
        raise ContractViolationError(
            f"tau={tau} outside the horizon [0, {field.basis.horizon}]"
        )
    return field.gain_samples(field.basis.eval_matrix(tau))[0]


def _closed_loops(scenario: Scenario, flat: np.ndarray, feedforward: bool, x0s,
                  slow_time: float):
    """States (n_steps + 1, m, d), node controls (n_steps + 1, m, p) and the
    m costs of the closed loops from the starts x0s under the gain field with
    flat coefficients (the layout of :meth:`GainField.flat`)."""
    if not isinstance(scenario.dynamics, LinearDynamics):
        raise ContractViolationError("feedback episodes require linear dynamics")
    a = np.atleast_2d(np.asarray(scenario.dynamics.a_fn(slow_time), dtype=float))
    b = np.atleast_2d(np.asarray(scenario.dynamics.b_fn(slow_time), dtype=float))
    grid = scenario.grid
    n, dim, p, n_f = grid.n_steps, a.shape[0], b.shape[1], scenario.basis.n_functions
    n_gain = p * dim * n_f
    gain = flat[:n_gain].reshape(p, dim, n_f)  # K(tau)[l, q] = gain[l, q] . phi(tau)
    phi_nm = scenario.basis_matrix_stages()  # nodes 0..n, then midpoints of steps 0..n-1
    b_gain = (b @ gain.reshape(p, -1)).reshape(dim * dim, n_f)  # B K(tau) = b_gain . phi(tau)
    a_cl = (a.ravel() - phi_nm @ b_gain.T).reshape(-1, dim, dim)
    starts = np.array(x0s, dtype=float).reshape(len(x0s), dim).T
    v = phi_nm @ flat[n_gain:].reshape(p, n_f).T if feedforward else None  # V(tau)
    # a blow-up is reported by its step below, as the open-loop scan does
    with np.errstate(over="ignore", invalid="ignore"):
        phi_step, w = rk4_linear_steps(a_cl, None if v is None else v @ b.T, grid)
        if w is None:
            moved = prefix_transitions(phi_step).reshape(n * dim, dim) @ starts
        else:
            maps, offsets = prefix_transitions(phi_step, w)
            moved = maps.reshape(n * dim, dim) @ starts + offsets.reshape(n * dim, 1)

    # node-major with one row per episode: states[k, i] is x_i(tau_k)
    n_ep = starts.shape[1]
    states = np.empty((n + 1, n_ep, dim))
    states[0] = starts.T
    states[1:] = moved.reshape(n, dim, n_ep).transpose(0, 2, 1)
    if not np.isfinite(states).all():
        bad = first_nonfinite_step(states)
        raise IntegrationDivergedError(f"closed loop became non-finite at step {bad}",
                                       step_index=bad)

    gain_t = gain.transpose(1, 0, 2).reshape(dim * p, n_f)  # K' at the nodes, contiguous
    k_t = (phi_nm[:n + 1] @ gain_t.T).reshape(n + 1, dim, p)
    controls = -(states * k_t if dim == 1 else states @ k_t)
    if feedforward:
        controls += v[:n + 1, None, :]
    return states, controls, cost_of_trajectories(scenario.cost, grid, states, controls)


def run_feedback_episodes(scenario: Scenario, field: GainField, x0s,
                          slow_time: float = 0.0) -> list[EpisodeResult]:
    """Closed-loop episodes under u = -K(tau) x (+ V(tau)) for several
    initial conditions at once.

    The transition matrices depend only on the field, so all episodes of a
    batch share one pass: the cumulative closed-loop maps come from a
    prefix scan over the RK4 steps, every initial condition rides along as
    a column, and the costs are taken in one batched quadrature. This is
    the hot path of gain synthesis.
    """
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


def closed_loop_measurement(scenario: Scenario, delta: float) -> EpisodeMeasurement:
    """run_es's measurement of the closed loops from every initial condition
    under the gain field of the flat coefficients. Its cost-only J is the
    total_cost of run_multi_episode on that GainField, to the bit."""
    def cost(flat: np.ndarray, slow_time: float) -> float:
        costs = _closed_loops(scenario, flat, scenario.feedforward,
                              scenario.initial_conditions, slow_time)[2]
        return float(sum(costs.tolist()))

    return EpisodeMeasurement(scenario, delta, lambda flat: gain_field(scenario, flat),
                              lambda _: cost)


def gain_dither_assignment(omega0: float, m: int, state_dim: int, control_dim: int,
                           feedforward: bool = False,
                           band_edges: Sequence[float] | None = None):
    """(frequencies, phases) for the flat gain-field coefficient vector.

    Returns one (frequency, phase) per scalar coefficient, in the flat
    layout of :meth:`GainField.flat`.
    """
    p, n = control_dim, state_dim
    n_groups = (n + 1) // 2          # column pairs sharing a band via cos/sin
    if band_edges is None:
        if p == 2:
            band_edges = [1.0, 1.35, 1.75]
        else:
            band_edges = np.linspace(1.0, 1.75, p + 1).tolist()
    if len(band_edges) != p + 1:
        raise ContractViolationError(f"need {p + 1} band edges, got {len(band_edges)}")

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


def synthesize_gain(scenario: Scenario, config: EsConfig | None = None,
                    n_iterations: int | None = None,
                    consume_rows: Callable | None = None) -> tuple[GainField, EsRunRecord]:
    """ES over all gain-field coefficients against the summed multi-episode cost.

    Returns the converged field (coefficients averaged over the last
    slowest-dither period, removing the residual dither ripple) and the run
    record: the full one, or row 0 and the final window when the rows
    stream to ``consume_rows`` (see :func:`~escontrol.es.run_es`).
    """
    if not isinstance(scenario.dynamics, LinearDynamics) or \
            not isinstance(scenario.cost, QuadraticCost):
        raise ContractViolationError("gain synthesis requires linear dynamics "
                                     "and a quadratic cost")
    _check_initial_conditions(scenario)
    m = getattr(scenario.basis, "m", None)
    if m is None:
        raise ContractViolationError("gain synthesis requires a fourier-pairs basis")

    es = scenario.es_defaults
    if config is None:
        freqs, phases = gain_dither_assignment(
            es["omega0"], m, scenario.state_dim, scenario.control_dim,
            feedforward=scenario.feedforward)
        delta = es.get("delta")
        config = EsConfig(k=es["k"], alpha=es["alpha"], omega0=es["omega0"],
                          frequencies=freqs, phases=phases,
                          delta=default_delta(freqs) if delta is None else delta)
    if n_iterations is None:
        n_iterations = int(es.get("n_iterations", 1000))

    record = run_es(closed_loop_measurement(scenario, config.delta), config, n_iterations,
                    scenario_id=scenario.name, consume_rows=consume_rows)
    return gain_field(scenario, record.period_averaged_coefficients()), record


def project_gains(riccati: RiccatiSolution, basis: Basis, grid: TimeGrid,
                  include_feedforward: bool = False) -> GainField:
    """Least-squares fit of the oracle K(tau) (and feedforward) onto the basis.

    The fit is over the grid nodes; its closed-loop cost lower-bounds what
    any ES run in the same basis can reach, up to the dither residual.
    """
    phi = basis.eval_matrix(grid.nodes())
    p, n = riccati.gains.shape[1], riccati.gains.shape[2]
    gain_coeffs = np.empty((p, n, basis.n_functions))
    for l in range(p):
        for q in range(n):
            coeffs, *_ = np.linalg.lstsq(phi, riccati.gains[:, l, q], rcond=None)
            gain_coeffs[l, q] = coeffs
    ff = None
    if include_feedforward:
        feed = np.einsum("ij,kj->ki", riccati.rinv_bt, riccati.feedforward)
        ff = np.empty((p, basis.n_functions))
        for l in range(p):
            coeffs, *_ = np.linalg.lstsq(phi, feed[:, l], rcond=None)
            ff[l] = coeffs
    return GainField(basis, n, p, gain_coeffs, ff)
