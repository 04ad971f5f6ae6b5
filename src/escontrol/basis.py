"""Controller parameterization as linear combinations of basis functions.

Controllers live on the horizon [0, T] but the basis may be built on a
longer interval [0, T + extension]; with a Fourier basis the extension
frees the controller from being T-periodic, which otherwise pins
u(0) = u(T) regardless of the coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractViolationError
from .ode import TimeGrid, quadrature_trapezoid

_TAU_SLACK = 1e-9


@dataclass(frozen=True)
class FourierPairsBasis:
    """m cos/sin pairs on [0, horizon + extension], evaluated on [0, horizon].

    Functions are ordered interleaved: cos(w1 t), sin(w1 t), cos(w2 t), ...
    with w_j = 2 pi j / (horizon + extension). ``m`` counts pairs, so the
    basis has 2 m functions (and a controller channel has 2 m coefficients).
    """

    m: int
    horizon: float
    extension: float = 0.0
    kind: str = field(default="fourier-pairs", init=False)

    def __post_init__(self):
        if self.m < 1:
            raise ContractViolationError(f"need at least one pair, got m={self.m}")
        if self.horizon <= 0:
            raise ContractViolationError(f"horizon must be positive, got {self.horizon}")
        if self.extension < 0:
            raise ContractViolationError(f"extension must be >= 0, got {self.extension}")

    @property
    def t_eff(self) -> float:
        return self.horizon + self.extension

    @property
    def n_functions(self) -> int:
        return 2 * self.m

    def eval_matrix(self, taus) -> np.ndarray:
        """Matrix of basis values, shape (len(taus), 2m)."""
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        j = np.arange(1, self.m + 1)
        ang = (2.0 * np.pi / self.t_eff) * taus[:, None] * j[None, :]
        out = np.empty((taus.shape[0], 2 * self.m))
        out[:, 0::2] = np.cos(ang)
        out[:, 1::2] = np.sin(ang)
        return out


@dataclass(frozen=True)
class CustomSampledBasis:
    """Arbitrary basis given as callables of tau or as columns sampled on a grid.

    Sampled columns are interpolated linearly between their grid nodes; use
    callables when exact values at integrator stage points matter.
    """

    horizon: float
    functions: tuple[Callable[[float], float], ...] | None = None
    sample_grid: TimeGrid | None = None
    samples: np.ndarray | None = None
    kind: str = field(default="custom-sampled", init=False)

    def __post_init__(self):
        if self.functions is None and (self.samples is None or self.sample_grid is None):
            raise ContractViolationError(
                "custom basis needs either callables or (sample_grid, samples)"
            )
        if self.samples is not None:
            samples = np.asarray(self.samples, dtype=float)
            object.__setattr__(self, "samples", samples)
            if samples.shape[0] != self.sample_grid.n_steps + 1:
                raise ContractViolationError("sampled columns do not match the grid")

    @property
    def t_eff(self) -> float:
        return self.horizon

    @property
    def n_functions(self) -> int:
        if self.functions is not None:
            return len(self.functions)
        return self.samples.shape[1]

    def eval_matrix(self, taus) -> np.ndarray:
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        if self.functions is not None:
            cols = [np.array([float(f(t)) for t in taus]) for f in self.functions]
            return np.stack(cols, axis=1)
        nodes = self.sample_grid.nodes()
        return np.stack(
            [np.interp(taus, nodes, self.samples[:, i]) for i in range(self.n_functions)],
            axis=1,
        )


Basis = FourierPairsBasis | CustomSampledBasis


@dataclass(frozen=True)
class ControllerCoefficients:
    """Per-channel coefficient rows, shape (n_channels, n_functions)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", values)
        if not np.all(np.isfinite(values)):
            raise ContractViolationError("controller coefficients must be finite")

    @classmethod
    def from_flat(cls, flat, n_channels: int) -> "ControllerCoefficients":
        flat = np.asarray(flat, dtype=float)
        return cls(flat.reshape(n_channels, -1))

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def n_functions(self) -> int:
        return self.values.shape[1]

    def flat(self) -> np.ndarray:
        """Channel-major flattening; the serialization order everywhere."""
        return self.values.ravel().copy()


def _check_tau(tau: float, horizon: float):
    slack = _TAU_SLACK * max(1.0, horizon)
    if tau < -slack or tau > horizon + slack:
        raise ContractViolationError(
            f"tau={tau} outside the controller horizon [0, {horizon}]"
        )


def eval_controller(coeffs: ControllerCoefficients, basis: Basis, tau: float) -> np.ndarray:
    """Control vector u(tau) = sum_j coeffs[i, j] phi_j(tau), per channel i."""
    _check_tau(tau, basis.horizon)
    if coeffs.n_functions != basis.n_functions:
        raise ContractViolationError(
            f"coefficients have {coeffs.n_functions} columns, basis has "
            f"{basis.n_functions} functions"
        )
    phi = basis.eval_matrix(tau)[0]
    return coeffs.values @ phi


def controller_samples(coeffs: ControllerCoefficients, phi_matrix: np.ndarray) -> np.ndarray:
    """Controls at pre-evaluated basis rows; shape (len(taus), n_channels)."""
    return phi_matrix @ coeffs.values.T


def controller_l2_norm(coeffs: ControllerCoefficients, basis: Basis, grid: TimeGrid) -> float:
    """sqrt( integral over [0, T] of ||u(tau)||^2 ) by trapezoid on the grid."""
    if abs(grid.t_start) > _TAU_SLACK or abs(grid.t_end - basis.horizon) > _TAU_SLACK:
        raise ContractViolationError(
            f"grid [{grid.t_start}, {grid.t_end}] must span [0, {basis.horizon}]"
        )
    u = controller_samples(coeffs, basis.eval_matrix(grid.nodes()))
    return float(np.sqrt(quadrature_trapezoid((u * u).sum(axis=1), grid)))
