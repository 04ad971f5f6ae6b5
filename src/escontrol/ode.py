"""Fixed-step integration and quadrature on the fast time axis.

Everything here is deterministic: the same inputs always produce
bit-identical outputs, so repeated episodes cost identical work and
experiments reproduce exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractViolationError, IntegrationDivergedError

Derivative = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``n_steps`` intervals covering [t_start, t_end]."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ContractViolationError(
                f"grid requires t_end > t_start, got [{self.t_start}, {self.t_end}]"
            )
        if self.n_steps < 2:
            raise ContractViolationError(f"grid requires n_steps >= 2, got {self.n_steps}")

    @property
    def h(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    @property
    def span(self) -> float:
        return self.t_end - self.t_start

    def nodes(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_steps + 1)

    def midpoints(self) -> np.ndarray:
        return self.nodes()[:-1] + 0.5 * self.h


@dataclass(frozen=True)
class StateTrajectory:
    """States sampled at every grid node (n_steps + 1 rows)."""

    grid: TimeGrid
    states: np.ndarray
    dimension: int

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        object.__setattr__(self, "states", states)
        if states.shape != (self.grid.n_steps + 1, self.dimension):
            raise ContractViolationError(
                f"expected states of shape {(self.grid.n_steps + 1, self.dimension)}, "
                f"got {states.shape}"
            )


def rk4_steps(derivative: Callable, x, grid: TimeGrid) -> Iterator:
    """Classical fixed-step 4th-order Runge-Kutta for dx/dt = derivative(t, x).

    Yields the state after each step of the grid. ``x`` and the derivative's
    values may be floats or arrays: anything closed under ``+`` and scalar
    ``*``. The caller decides when to stop, e.g. at a non-finite state.
    """
    h = grid.h
    half = 0.5 * h
    for k in range(grid.n_steps):
        t = grid.t_start + k * h
        k1 = derivative(t, x)
        k2 = derivative(t + half, x + half * k1)
        k3 = derivative(t + half, x + half * k2)
        k4 = derivative(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield x


def integrate_rk4(derivative: Derivative, x0, grid: TimeGrid) -> StateTrajectory:
    """RK4 (:func:`rk4_steps`) for a vector state, sampled on every grid node.

    Raises :class:`IntegrationDivergedError` carrying the failing step index
    if any state component becomes NaN or infinite.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    dim = x.shape[0]
    states = np.empty((grid.n_steps + 1, dim))
    states[0] = x

    def rate(t, x):
        return np.asarray(derivative(t, x), dtype=float)

    for k, x in enumerate(rk4_steps(rate, x, grid)):
        if not np.all(np.isfinite(x)):
            raise IntegrationDivergedError(
                f"state became non-finite at step {k} (t = {grid.t_start + k * grid.h})",
                step_index=k,
            )
        states[k + 1] = x
    return StateTrajectory(grid=grid, states=states, dimension=dim)


def quadrature_trapezoid(samples: Sequence[float], grid: TimeGrid) -> float:
    """Composite trapezoid rule over the uniform grid (exact for affine data)."""
    s = np.asarray(samples, dtype=float)
    if s.shape[0] != grid.n_steps + 1:
        raise ContractViolationError(
            f"expected {grid.n_steps + 1} samples for the grid, got {s.shape[0]}"
        )
    return float(grid.h * (s.sum() - 0.5 * (s[0] + s[-1])))


# --- fast paths for linear(-affine) dynamics -------------------------------
#
# For dx/dt = A(t) x + f(t) one classical RK4 step with stage samples at the
# step start, midpoint and end collapses to x+ = Phi x + w with
#   K1 = A0, K2 = Am (I + h/2 K1), K3 = Am (I + h/2 K2), K4 = Ae (I + h K3)
#   Phi = I + h/6 (K1 + 2 K2 + 2 K3 + K4)
#   w1 = f0, w2 = fm + h/2 Am w1, w3 = fm + h/2 Am w2, w4 = fe + h Ae w3
#   w = h/6 (w1 + 2 w2 + 2 w3 + w4)
# which is bitwise-deterministic and mathematically identical to feeding the
# same stage samples through integrate_rk4.


def rk4_step_matrices(a_start: np.ndarray, a_mid: np.ndarray, a_end: np.ndarray,
                      h: float) -> np.ndarray:
    """RK4 transition matrices for dx/dt = A(t) x.

    Inputs are (n_steps, d, d) stacks of A sampled at step starts, midpoints
    and ends, giving one matrix per step; a constant A is passed as one
    (d, d) matrix three times and gives the single matrix every step shares.
    """
    dim = a_start.shape[-1]
    eye = np.eye(dim)
    k1 = a_start
    k2 = a_mid @ (eye + (0.5 * h) * k1)
    k3 = a_mid @ (eye + (0.5 * h) * k2)
    k4 = a_end @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _apply(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """A f[k] for every row k of f; A is one (d, d) matrix or a stack of them."""
    return f @ a.T if a.ndim == 2 else np.einsum("kij,kj->ki", a, f)


def rk4_step_forcing(a_mid: np.ndarray, a_end: np.ndarray,
                     f_start: np.ndarray, f_mid: np.ndarray, f_end: np.ndarray,
                     h: float) -> np.ndarray:
    """Per-step RK4 forcing contributions for dx/dt = A(t) x + f(t).

    The f are (n_steps, d); A is an (n_steps, d, d) stack or one constant
    (d, d) matrix, as in :func:`rk4_step_matrices`.
    """
    w1 = f_start
    w2 = f_mid + (0.5 * h) * _apply(a_mid, w1)
    w3 = f_mid + (0.5 * h) * _apply(a_mid, w2)
    w4 = f_end + h * _apply(a_end, w3)
    return (h / 6.0) * (w1 + 2.0 * w2 + 2.0 * w3 + w4)


def prefix_transitions(phi: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Cumulative maps of the scan x[k+1] = phi[k] x[k] + w[k], for all k at once.

    Without forcing, returns ``P`` of shape (n_steps, d, d) with
    ``x[k+1] = P[k] x[0]``. With forcing the maps are affine and come back
    as homogeneous (d+1) x (d+1) matrices: ``[x[k+1]; 1] = P[k] [x[0]; 1]``. The prefix
    products come from recursive doubling (Hillis & Steele 1986):
    ceil(log2 n_steps) batched matrix products instead of n_steps dependent
    ones. The products associate differently from a step-by-step loop, so
    results agree with it to rounding, not bitwise.
    """
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


def first_nonfinite_step(states: np.ndarray) -> int | None:
    """Index of the step that first produced a non-finite state, else None.

    ``states`` holds one row per grid node (any trailing shape); row k + 1
    is the result of step k.
    """
    finite = np.isfinite(states.reshape(states.shape[0], -1)).all(axis=1)
    if finite.all():
        return None
    return max(int(np.argmin(finite)) - 1, 0)


def propagate_linear(phi: np.ndarray, w: np.ndarray | None, x0: np.ndarray,
                     grid: TimeGrid) -> StateTrajectory:
    """Scan x[k+1] = phi[k] x[k] + w[k] over the grid.

    ``phi`` is an (n_steps, d, d) stack or one (d, d) matrix shared by every
    step; ``w`` is (n_steps, d) or None for no forcing.
    """
    n = grid.n_steps
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dim = x0.shape[0]
    if dim == 1:
        # plain-float scan is several times faster than numpy here
        phis = [float(phi.flat[0])] * n if phi.ndim == 2 else phi.reshape(n).tolist()
        x = float(x0[0])
        xs = [x]
        append = xs.append
        if w is None:
            for p in phis:
                x = p * x
                append(x)
        else:
            for p, wk in zip(phis, w.reshape(n).tolist()):
                x = p * x + wk
                append(x)
        states = np.array(xs).reshape(n + 1, 1)
    else:
        phis = [phi] * n if phi.ndim == 2 else phi
        x = x0
        xs = [x]
        append = xs.append
        if w is None:
            for p in phis:
                x = p @ x
                append(x)
        else:
            for p, wk in zip(phis, w):
                x = p @ x + wk
                append(x)
        states = np.array(xs)
    bad = first_nonfinite_step(states)
    if bad is not None:
        raise IntegrationDivergedError(
            f"state became non-finite at step {bad}", step_index=bad
        )
    return StateTrajectory(grid=grid, states=states, dimension=dim)


def integrate_rk4_linear(a_samples: np.ndarray, f_samples: np.ndarray | None,
                         x0, grid: TimeGrid) -> StateTrajectory:
    """RK4 for dx/dt = A(t) x + f(t) with A, f pre-sampled on the doubled grid.

    ``a_samples`` has shape (2 n_steps + 1, d, d) (nodes interleaved with
    midpoints); a constant A is given as (d, d) and builds one step matrix
    for all steps. ``f_samples`` is (2 n_steps + 1, d) or None.
    """
    h = grid.h
    a_samples = np.asarray(a_samples, dtype=float)
    if a_samples.ndim == 2:
        a_start = a_mid = a_end = a_samples
    else:
        a_start, a_mid, a_end = a_samples[0:-1:2], a_samples[1::2], a_samples[2::2]
    phi = rk4_step_matrices(a_start, a_mid, a_end, h)
    w = None
    if f_samples is not None:
        f_samples = np.asarray(f_samples, dtype=float)
        w = rk4_step_forcing(a_mid, a_end, f_samples[0:-1:2], f_samples[1::2],
                             f_samples[2::2], h)
    return propagate_linear(phi, w, x0, grid)
