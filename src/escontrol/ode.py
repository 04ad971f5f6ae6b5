"""Fixed-step integration and quadrature on the fast time axis.

Everything here is deterministic: the same inputs always produce
bit-identical outputs, so repeated episodes cost identical work and
experiments reproduce exactly.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import ContractViolationError, IntegrationDivergedError


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


def integrate_rk4(derivative: Callable, x0, grid: TimeGrid) -> np.ndarray:
    """RK4 (:func:`rk4_steps`) for a vector state: the (n_steps + 1, d)
    states at every grid node.

    Raises :class:`IntegrationDivergedError` carrying the failing step index
    if any state component becomes NaN or infinite.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    states = np.empty((grid.n_steps + 1, x.shape[0]))
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
    return states


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
#
# A plant frozen within an episode has one A and one B at every stage, and
# f = B u. Substituting K1 = A into K2..K4 and w1..w3 into w4 gives
#   K2 = A + h/2 A^2, K3 = A + h/2 A^2 + h^2/4 A^3,
#   K4 = A + h A^2 + h^2/2 A^3 + h^3/4 A^4,
#   Phi = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24
# and, since w2 = fm + h/2 A f0, w3 = fm + h/2 A fm + h^2/4 A^2 f0 and
# w4 = fe + hA fm + h^2/2 A^2 fm + h^3/4 A^3 f0,
#   w = h/6 (c0 B u_start + c1 B u_mid + B u_end),
#   c0 = I + hA + (hA)^2/2 + (hA)^3/4,  c1 = 4I + 2hA + (hA)^2/2.
# The c act on B from the left: B c0 u would be right only for d = 1.
# rk4_frozen_step returns Phi and the three gains (h/6) c0 B, (h/6) c1 B and
# (h/6) B, and rk4_frozen_forcing forms w from them, so a step costs no
# per-step matrix work at all. The sums associate differently from the stage
# recursion, so results agree with it to rounding, not bitwise.
#
# The frozen step serves every plant frozen within an episode: the open-loop
# episodes and the quadratic episode model. The stage recursion
# (rk4_step_matrices, rk4_step_forcing) serves a stack of A samples that vary
# within the episode: the closed loops A - B K(tau) of the gain synthesis and
# of simulate_optimal, both through integrate_rk4_linear. Either way the
# steps end in propagate_linear, the one scan, which picks the float loop or
# recursive doubling from the shape of the state.


def rk4_step_matrices(a_start: np.ndarray, a_mid: np.ndarray, a_end: np.ndarray,
                      h: float) -> np.ndarray:
    """RK4 transition matrices for dx/dt = A(t) x: one per step, from
    (n_steps, d, d) stacks of A sampled at the step starts, midpoints and ends."""
    dim = a_start.shape[-1]
    eye = np.eye(dim)
    mul = np.multiply if dim == 1 else np.matmul  # a 1x1 product is one multiply
    k1 = a_start
    k2 = mul(a_mid, eye + (0.5 * h) * k1)
    k3 = mul(a_mid, eye + (0.5 * h) * k2)
    k4 = mul(a_end, eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_frozen_step(a: np.ndarray | float, b: np.ndarray | float, h: float) -> tuple:
    """(Phi, G_start, G_mid, G_end) of RK4 on dx/dt = A x + B u(t) with A
    (d, d) and B (d, p) constant: x+ = Phi x + G_start u_start + G_mid u_mid
    + G_end u_end, u sampled at the step's start, midpoint and end (see the
    derivation above). A scalar plant's A and B may come as Python floats;
    for those, and for 1x1 A and B, all four are Python floats.
    """
    if not isinstance(a, float) and a.shape == b.shape == (1, 1):
        a, b = float(a[0, 0]), float(b[0, 0])
    if isinstance(a, float):
        ha, gain, eye, mul = h * a, (h / 6.0) * b, 1.0, operator.mul
    else:
        ha, gain, eye, mul = h * a, (h / 6.0) * b, np.eye(a.shape[0]), np.matmul
    ha2 = mul(ha, ha)
    ha3 = mul(ha2, ha)
    phi = eye + ha + 0.5 * ha2 + ha3 / 6.0 + mul(ha2, ha2) / 24.0
    return (phi, mul(eye + ha + 0.5 * ha2 + 0.25 * ha3, gain),
            mul(4.0 * eye + 2.0 * ha + 0.5 * ha2, gain), gain)


def _apply(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """A[k] f[k] for every row k of the (n_steps, d) f and the stack A."""
    if a.shape[-1] == 1:  # 1x1: one multiply per entry, as the matrix product
        return a[..., 0] * f
    return np.einsum("kij,kj->ki", a, f)


def rk4_step_forcing(a_mid: np.ndarray, a_end: np.ndarray,
                     f_start: np.ndarray, f_mid: np.ndarray, f_end: np.ndarray,
                     h: float) -> np.ndarray:
    """Per-step RK4 forcing contributions for dx/dt = A(t) x + f(t), from
    (n_steps, d) samples of f and (n_steps, d, d) stacks of A, as in
    :func:`rk4_step_matrices`."""
    w1 = f_start
    w2 = f_mid + (0.5 * h) * _apply(a_mid, w1)
    w3 = f_mid + (0.5 * h) * _apply(a_mid, w2)
    w4 = f_end + h * _apply(a_end, w3)
    return (h / 6.0) * (w1 + 2.0 * w2 + 2.0 * w3 + w4)


def prefix_transitions(phi: np.ndarray, w: np.ndarray | None = None) -> np.ndarray | tuple:
    """Cumulative maps of the scan x[k+1] = phi[k] x[k] + w[k], for all k at once.

    Without forcing, returns ``P`` of shape (n_steps, d, d) with
    ``x[k+1] = P[k] x[0]``. With forcing the maps are affine and come back as
    the pair ``(P, c)`` with ``x[k+1] = P[k] x[0] + c[k]``; c has the shape of
    ``w``: (n_steps, d), or (n_steps, d, cols) for one forcing per column of a
    block. Two such maps compose as (M2 M1, M2 c1 + c2). The prefix products
    come from recursive doubling (Hillis & Steele 1986): ceil(log2 n_steps)
    batched matrix products instead of n_steps dependent ones. The products
    associate differently from a step-by-step loop, so results agree with it
    to rounding, not bitwise. For d = 1 every product is one multiply.
    """
    n, dim = phi.shape[0], phi.shape[-1]
    mul = np.multiply if dim == 1 else np.matmul
    prod = np.array(phi, dtype=float)
    offset = None if w is None else np.array(w, dtype=float).reshape(n, dim, -1)
    shift = 1
    while shift < n:
        if offset is not None:
            offset[shift:] += mul(prod[shift:], offset[:-shift])  # a + b is b + a, bitwise
        prod[shift:] = mul(prod[shift:], prod[:-shift])
        shift *= 2
    return prod if offset is None else (prod, offset.reshape(w.shape))


def _raise_if_diverged(states: np.ndarray) -> None:
    """Raise IntegrationDivergedError at the step that first produced a
    non-finite state. ``states`` holds one row per grid node (any trailing
    shape); row k + 1 is the result of step k."""
    finite = np.isfinite(states.reshape(states.shape[0], -1)).all(axis=1)
    if not finite.all():
        bad = max(int(np.argmin(finite)) - 1, 0)
        raise IntegrationDivergedError(f"state became non-finite at step {bad}",
                                       step_index=bad)


def scalar_scan(phi, w: list | None, x: float, n: int) -> list:
    """States x[0..n] of the scalar scan x[k+1] = phi[k] x[k] + w[k], as
    Python floats, which is several times faster than NumPy on this loop.

    ``phi`` is one float shared by every step or a list of n floats; ``w``
    is a list of n floats, or None for no forcing. A non-finite state raises
    IntegrationDivergedError at its step.
    """
    xs = [x]
    append = xs.append
    if w is None:
        for p in [phi] * n if isinstance(phi, float) else phi:
            x = p * x
            append(x)
    elif isinstance(phi, float):
        for wk in w:
            x = phi * x + wk
            append(x)
    else:
        for p, wk in zip(phi, w):
            x = p * x + wk
            append(x)
    # a non-finite float stays non-finite through p * x + wk, so a finite
    # last state means a finite scan
    if not math.isfinite(x):
        _raise_if_diverged(np.array(xs))
    return xs


@np.errstate(over="ignore", invalid="ignore")  # a blow-up is reported by its step
def propagate_linear(phi: np.ndarray, w: np.ndarray | None, x0: np.ndarray,
                     grid: TimeGrid) -> np.ndarray:
    """Scan x[k+1] = phi[k] x[k] + w[k] over the grid: the package's one
    linear scan. Returns the states at every grid node, (n_steps + 1, d), or
    (n_steps + 1, d, cols) for a block.

    ``phi`` is an (n_steps, d, d) stack or one (d, d) matrix shared by every
    step, which may be a Python float when d = 1. The state is (d,) or a
    (d, cols) block of columns; ``w`` is (n_steps, d), shared by every
    column, or (n_steps,) plus the state's shape, or None for no forcing.

    A single (1,) state runs the float loop of :func:`scalar_scan` (54 against
    83 us for doubling at 250 steps). Any other state takes the maps
    x[k+1] = P[k] x[0] + c[k] of :func:`prefix_transitions`, every column in
    one product (33-47 against 82-85 us for a step loop on the 2-column
    scalar closed loop, 666-674 against 848-963 us on a 40-column gain scan).
    A non-finite state raises at the earliest failing step of any column.
    The limit of doubling: a product P[k] that overflows reports divergence
    even where exact zeros, such as a zero start, keep the step-by-step
    state finite.
    """
    n = grid.n_steps
    x0 = np.array(x0, dtype=float, ndmin=1, copy=None)
    dim = x0.shape[0]
    stacked = np.ndim(phi) == 3
    if x0.shape == (1,):
        xs = scalar_scan(phi.reshape(n).tolist() if stacked else float(np.asarray(phi).flat[0]),
                         None if w is None else w.reshape(n).tolist(), float(x0[0]), n)
        return np.fromiter(xs, float, n + 1).reshape(n + 1, 1)
    starts = x0[:, None] if x0.ndim == 1 else x0
    if not stacked:
        phi = np.broadcast_to(phi, (n, dim, dim))
    if w is None:
        moved = prefix_transitions(phi).reshape(n * dim, dim) @ starts
    else:
        maps, offsets = prefix_transitions(phi, w)
        moved = maps.reshape(n * dim, dim) @ starts + offsets.reshape(n * dim, -1)
    # stored node-major with one row per column, (n_steps + 1, cols, d): the
    # layout batched costs take; a block comes back as its (.., d, cols) view
    states = np.empty((n + 1, starts.shape[1], dim))
    states[0] = starts.T
    states[1:] = moved.reshape(n, dim, -1).transpose(0, 2, 1)
    if not np.isfinite(states).all():
        _raise_if_diverged(states)
    return states.transpose(0, 2, 1) if x0.ndim == 2 else states[:, 0]


def _stage_rows(samples: np.ndarray) -> tuple:
    """(start, midpoint, end) rows of every step from samples at the RK4 stage
    times, which are the n_steps + 1 nodes, then the n_steps midpoints (as
    ``Scenario.basis_matrix_stages``): the one place that slices them."""
    n = samples.shape[0] // 2
    return samples[:n], samples[n + 1:], samples[1:n + 1]


def rk4_frozen_forcing(g_start, g_mid, g_end, u: np.ndarray) -> np.ndarray:
    """w[k] = G_start u_start[k] + G_mid u_mid[k] + G_end u_end[k] of every
    step, from :func:`rk4_frozen_step`'s gains and u at the RK4 stage times.
    Matrix gains (d, p) act on u's last axis; float gains scale u."""
    u_start, u_mid, u_end = _stage_rows(u)
    if isinstance(g_start, float):
        return g_start * u_start + g_mid * u_mid + g_end * u_end
    return u_start @ g_start.T + u_mid @ g_mid.T + u_end @ g_end.T


@np.errstate(over="ignore", invalid="ignore")  # the scan reports a blow-up by its step
def integrate_rk4_linear(a_samples: np.ndarray, f_samples: np.ndarray | None,
                         x0, grid: TimeGrid) -> np.ndarray:
    """RK4 for dx/dt = A(t) x + f(t), from ``a_samples`` (2 n_steps + 1, d, d)
    and ``f_samples`` (2 n_steps + 1, d) or None at the RK4 stage times (see
    :func:`_stage_rows`): the steps of the stage recursion scanned by
    :func:`propagate_linear` from ``x0``, (d,), or a (d, cols) block of
    columns that share the forcing f."""
    a_start, a_mid, a_end = _stage_rows(a_samples)
    w = None if f_samples is None else rk4_step_forcing(
        a_mid, a_end, *_stage_rows(f_samples), grid.h)
    return propagate_linear(rk4_step_matrices(a_start, a_mid, a_end, grid.h), w, x0, grid)
