"""Controller parameterization as linear combinations of basis functions:
open-loop controls u(tau) (:class:`ControllerCoefficients`) and feedback
gain fields K(tau), with optional feedforward V(tau) (:class:`GainField`).

Controllers live on the horizon [0, T] but the basis may be built on a
longer interval [0, T + extension]; with a Fourier basis the extension
frees the controller from being T-periodic, which otherwise pins
u(0) = u(T) regardless of the coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractViolationError
from .ode import TimeGrid


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


@dataclass(frozen=True, eq=False)
class CustomSampledBasis:
    """Arbitrary basis given as callables of tau or as columns sampled on a grid.

    Sampled columns are interpolated linearly between their grid nodes; use
    callables when exact values at integrator stage points matter. A basis
    equals only itself: callables and sampled arrays have no value equality.
    """

    horizon: float
    functions: tuple[Callable[[float], float], ...] | None = None
    sample_grid: TimeGrid | None = None
    samples: np.ndarray | None = None

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
        if not np.all(np.isfinite(gain)):
            raise ContractViolationError("gain coefficients must be finite")
        if self.ff_coeffs is not None:
            ff = np.asarray(self.ff_coeffs, dtype=float)
            object.__setattr__(self, "ff_coeffs", ff)
            if ff.shape != (self.control_dim, self.basis.n_functions):
                raise ContractViolationError(
                    f"feedforward coefficients shaped {ff.shape}, expected "
                    f"{(self.control_dim, self.basis.n_functions)}"
                )
            if not np.all(np.isfinite(ff)):
                raise ContractViolationError("feedforward coefficients must be finite")

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


def controller_samples(coeffs: ControllerCoefficients, phi_matrix: np.ndarray) -> np.ndarray:
    """Controls at pre-evaluated basis rows; shape (len(taus), n_channels)."""
    return phi_matrix @ coeffs.values.T

