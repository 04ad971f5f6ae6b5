"""Analytic ground truth: finite-horizon Riccati solve, tracking feedforward,
optimal-feedback simulation and the optimal cost.

This is everything one could compute had the plant and cost been known, and
it is the reference every learned controller is judged against. The matrix
Riccati equation

    -dS/dtau = A'S + SA - S B R^-1 B' S + C'QC,   S(T) = C'PC

is integrated backward by reusing the forward RK4 integrator in reversed
time sigma = T - tau, on a half-step grid so the forward pass later has
exact gain samples at its RK4 stage midpoints (kept as the grid nodes,
then the midpoints: the stage layout). The tracking feedforward solves

    -dv/dtau = (A - B K)' v + C'Q r(tau),   v(T) = C'P r(T)

and the optimal control is u = -K(tau) x + R^-1 B' v(tau), K = R^-1 B' S.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (ContractViolationError, IntegrationDivergedError,
                     RiccatiInstabilityError)
from .ode import StateTrajectory, TimeGrid, integrate_rk4_linear, rk4_steps
from .scenario import LinearDynamics, QuadraticCost, Scenario, cost_of_trajectory

_PSD_TOL = -1e-8


@dataclass(frozen=True)
class RiccatiSolution:
    """S, K and v sampled on the grid nodes; the private fields hold them at
    the RK4 stage times, the nodes and then the midpoints."""

    grid: TimeGrid
    s_matrices: np.ndarray     # (n_steps + 1, n, n)
    gains: np.ndarray          # (n_steps + 1, p, n)
    feedforward: np.ndarray    # (n_steps + 1, n)
    rinv_bt: np.ndarray        # R^-1 B'
    has_reference: bool
    _s_stages: np.ndarray
    _k_stages: np.ndarray
    _v_stages: np.ndarray


def _pd_inverse_times(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """mat^-1 rhs for a symmetric positive definite ``mat``, after a check
    that it is safely positive definite and well conditioned."""
    eigs = np.linalg.eigvalsh(mat)
    if eigs.min() <= 0 or eigs.max() / eigs.min() > 1e12:
        raise ContractViolationError(
            f"matrix is not safely positive definite (eigenvalues {eigs})"
        )
    return np.linalg.solve(mat, rhs)


def _first_indefinite(mats: np.ndarray, tol: float) -> int | None:
    """Index of the first symmetric matrix in the stack with an eigenvalue
    below ``tol``, else None."""
    low = np.linalg.eigvalsh(mats).min(axis=1) < tol
    return int(np.argmax(low)) if low.any() else None


def _riccati_sweep(a, m, ctqc, cost: QuadraticCost, grid: TimeGrid, s_end, v_end):
    """S (and v, unless ``v_end`` is None) on the half-step grid, ascending in tau.

    RK4 runs in reversed time sigma = T - tau: first S, then v along the
    closed loop (A - M S)' recorded at every stage of the S sweep. Taken
    apart, S and v go through exactly the elementwise arithmetic of one RK4
    on the packed vector (S, v), so the results are the same bits. For a
    scalar plant the operands are Python floats rather than 1x1 arrays.
    Raises IntegrationDivergedError at the first step where S or v is not
    finite.
    """
    n = a.shape[0]
    sigma_grid = TimeGrid(0.0, grid.span, 2 * grid.n_steps)
    if n == 1:
        mul, transpose, finite = operator.mul, operator.pos, math.isfinite
        operand = np.ndarray.item
    else:
        mul, transpose = operator.matmul, np.transpose

        def finite(x):
            return bool(np.isfinite(x).all())

        def operand(x):
            return x
    a, m, ctqc = operand(a), operand(m), operand(ctqc)
    a_t = transpose(a)
    closed = []  # (A - M S)' at every stage of the S sweep, in call order

    def s_rate(sigma, s):
        s = 0.5 * (s + transpose(s))  # keep the symmetric part only
        if v_end is not None:
            closed.append(transpose(a - mul(m, s)))
        return mul(a_t, s) + mul(s, a) - mul(mul(s, m), s) + ctqc

    def sweep(rate, x, n_steps):
        """States up to the first non-finite one, and that step's index."""
        xs = [x]
        for k, x in enumerate(islice(rk4_steps(rate, x, sigma_grid), n_steps)):
            if not finite(x):
                return xs, k
            xs.append(x)
        return xs, None

    s_list, bad = sweep(s_rate, operand(s_end), sigma_grid.n_steps)
    v_list = None
    if v_end is not None:
        stages = iter(closed)
        ctq = cost.c_matrix.T @ cost.q_matrix
        forcing = (None, None)  # (stage time, C'Q r): times repeat only back to back

        def v_rate(sigma, v):
            nonlocal forcing
            if forcing[0] != sigma:
                r_tau = np.atleast_1d(np.asarray(cost.reference(grid.t_end - sigma),
                                                 dtype=float))
                forcing = (sigma, operand(ctq @ r_tau))
            return mul(next(stages), v) + forcing[1]

        # v can only be stepped as far as the S stages reach
        v_list, v_bad = sweep(v_rate, operand(v_end), len(closed) // 4)
        if v_bad is not None:
            bad = v_bad
    if bad is not None:
        raise IntegrationDivergedError(
            f"state became non-finite at step {bad} (t = {bad * sigma_grid.h})",
            step_index=bad,
        )
    return (np.array(s_list).reshape(-1, n, n)[::-1],
            None if v_list is None else np.array(v_list).reshape(-1, n)[::-1])


def solve_riccati(dynamics: LinearDynamics, cost: QuadraticCost, grid: TimeGrid,
                  slow_time: float = 0.0) -> RiccatiSolution:
    """Backward Riccati + feedforward solve with the plant frozen at slow_time."""
    a = np.atleast_2d(np.asarray(dynamics.a_fn(slow_time), dtype=float))
    b = np.atleast_2d(np.asarray(dynamics.b_fn(slow_time), dtype=float))
    n = a.shape[0]
    c = cost.c_matrix
    rinv_bt = _pd_inverse_times(cost.r_matrix, b.T)
    m = b @ rinv_bt                      # B R^-1 B'
    ctqc = c.T @ cost.q_matrix @ c
    has_reference = cost.reference is not None

    s_terminal = c.T @ cost.p_matrix @ c
    v_terminal = None
    if has_reference:
        r_end = np.atleast_1d(np.asarray(cost.reference(grid.t_end), dtype=float))
        v_terminal = c.T @ cost.p_matrix @ r_end
    try:
        # a blow-up is reported by the step it happens at, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            s_half, v_half = _riccati_sweep(a, m, ctqc, cost, grid, s_terminal, v_terminal)
    except Exception as exc:
        # sweep step k lands on half-step node 2 n - 1 - k, counted in tau; the
        # grid node at or below it is the first one the sweep did not reach
        step = getattr(exc, "step_index", None)
        raise RiccatiInstabilityError(
            f"backward Riccati integration failed: {exc}",
            node_index=None if step is None else (2 * grid.n_steps - 1 - step) // 2,
        ) from exc
    # half-step node 2 k is grid node k, 2 k + 1 the midpoint of step k
    stages = np.r_[0:2 * grid.n_steps + 1:2, 1:2 * grid.n_steps:2]
    s_stages = (0.5 * (s_half + np.transpose(s_half, (0, 2, 1))))[stages]
    v_stages = np.zeros((stages.size, n)) if v_half is None else v_half[stages]
    k_stages = np.einsum("ij,kjl->kil", rinv_bt, s_stages)

    nodes = slice(grid.n_steps + 1)
    s_nodes = s_stages[nodes]
    if not np.all(np.isfinite(s_nodes)):
        bad = int(np.argmax(~np.isfinite(s_nodes).reshape(s_nodes.shape[0], -1).all(axis=1)))
        raise RiccatiInstabilityError(f"S blew up at node {bad}", node_index=bad)
    if not cost.terminal_indefinite_ok:
        bad = _first_indefinite(s_nodes, _PSD_TOL)
        if bad is not None:
            raise RiccatiInstabilityError(
                f"S lost positive semidefiniteness at node {bad}", node_index=bad
            )
    return RiccatiSolution(
        grid=grid,
        s_matrices=s_nodes,
        gains=k_stages[nodes],
        feedforward=v_stages[nodes],
        rinv_bt=rinv_bt,
        has_reference=has_reference,
        _s_stages=s_stages,
        _k_stages=k_stages,
        _v_stages=v_stages,
    )


def simulate_optimal(dynamics: LinearDynamics, cost: QuadraticCost, grid: TimeGrid,
                     x0, riccati: RiccatiSolution,
                     slow_time: float = 0.0) -> tuple[StateTrajectory, np.ndarray, float]:
    """Forward simulation under u = -K(tau) x + R^-1 B' v(tau); returns J*."""
    if riccati.grid != grid:
        raise ContractViolationError("riccati solution was computed on a different grid")
    a = np.atleast_2d(np.asarray(dynamics.a_fn(slow_time), dtype=float))
    b = np.atleast_2d(np.asarray(dynamics.b_fn(slow_time), dtype=float))
    a_cl = a - np.einsum("ij,kjl->kil", b, riccati._k_stages)
    forcing = None
    if riccati.has_reference:
        feed = np.einsum("ij,kj->ki", riccati.rinv_bt, riccati._v_stages)
        forcing = feed @ b.T
    traj = integrate_rk4_linear(a_cl, forcing, x0, grid)
    u_nodes = -np.einsum("kij,kj->ki", riccati.gains, traj.states)
    if riccati.has_reference:
        u_nodes = u_nodes + np.einsum("ij,kj->ki", riccati.rinv_bt, riccati.feedforward)
    j_star = cost_of_trajectory(cost, grid, traj.states, u_nodes)
    return traj, u_nodes, j_star


def optimal_cost_quadratic_form(riccati: RiccatiSolution, x0) -> float:
    """J* = 1/2 x0' S(0) x0, the standard identity for the regulating case."""
    if riccati.has_reference:
        raise ContractViolationError(
            "the quadratic-form cost identity only holds with a zero reference"
        )
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    return float(0.5 * x0 @ riccati.s_matrices[0] @ x0)


def scenario_oracle(scenario: Scenario, slow_time: float = 0.0) -> RiccatiSolution:
    """Riccati solution for a scenario (linear dynamics + quadratic cost only)."""
    if not isinstance(scenario.dynamics, LinearDynamics) or \
            not isinstance(scenario.cost, QuadraticCost):
        raise ContractViolationError(
            "the analytic oracle requires linear dynamics and a quadratic cost"
        )
    return solve_riccati(scenario.dynamics, scenario.cost, scenario.grid, slow_time)


def oracle_costs(scenario: Scenario, slow_time: float = 0.0,
                 riccati: RiccatiSolution | None = None) -> list[float]:
    """Optimal cost J* for each of the scenario's initial conditions."""
    if riccati is None:
        riccati = scenario_oracle(scenario, slow_time)
    out = []
    for x0 in scenario.initial_conditions:
        if riccati.has_reference:
            _, _, j_star = simulate_optimal(scenario.dynamics, scenario.cost,
                                            scenario.grid, x0, riccati, slow_time)
        else:
            j_star = optimal_cost_quadratic_form(riccati, x0)
        out.append(float(j_star))
    return out
