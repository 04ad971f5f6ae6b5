import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import zero_coefficients
from escontrol.basis import (ControllerCoefficients, CustomSampledBasis,
                             FourierPairsBasis, controller_l2_norm, eval_controller)
from escontrol.errors import ContractViolationError
from escontrol.ode import TimeGrid

coeff_floats = st.floats(-5.0, 5.0)


def test_zero_coefficients_give_zero_control():
    basis = FourierPairsBasis(m=3, horizon=1.0, extension=0.1)
    coeffs = zero_coefficients(2, basis)
    for tau in (0.0, 0.37, 1.0):
        assert np.all(eval_controller(coeffs, basis, tau) == 0.0)


def test_first_cosine_at_origin():
    basis = FourierPairsBasis(m=1, horizon=1.0, extension=0.0)
    coeffs = ControllerCoefficients(np.array([[1.0, 0.0]]))
    assert eval_controller(coeffs, basis, 0.0)[0] == pytest.approx(1.0, abs=1e-15)


def test_four_term_sum_matches_direct_substitution():
    # independent oracle: write the 4-term sum out by hand
    basis = FourierPairsBasis(m=2, horizon=1.0, extension=0.1)
    a1, b1, a2, b2 = 0.5, -0.2, 0.1, 0.3
    coeffs = ControllerCoefficients(np.array([[a1, b1, a2, b2]]))
    tau = 0.4
    t_eff = 1.1
    expected = (a1 * math.cos(2 * math.pi * 1 * tau / t_eff)
                + b1 * math.sin(2 * math.pi * 1 * tau / t_eff)
                + a2 * math.cos(2 * math.pi * 2 * tau / t_eff)
                + b2 * math.sin(2 * math.pi * 2 * tau / t_eff))
    assert eval_controller(coeffs, basis, tau)[0] == pytest.approx(expected, abs=1e-14)


def test_tau_outside_horizon_rejected():
    basis = FourierPairsBasis(m=1, horizon=1.0, extension=0.1)
    coeffs = zero_coefficients(1, basis)
    with pytest.raises(ContractViolationError):
        eval_controller(coeffs, basis, -0.2)
    with pytest.raises(ContractViolationError):
        eval_controller(coeffs, basis, 1.05)  # inside t_eff but past the horizon


@settings(max_examples=30, deadline=None)
@given(
    c1=st.lists(coeff_floats, min_size=4, max_size=4),
    c2=st.lists(coeff_floats, min_size=4, max_size=4),
    tau=st.floats(0.0, 1.0),
)
def test_eval_is_linear_in_coefficients(c1, c2, tau):
    basis = FourierPairsBasis(m=2, horizon=1.0, extension=0.1)
    u1 = eval_controller(ControllerCoefficients(np.array([c1])), basis, tau)
    u2 = eval_controller(ControllerCoefficients(np.array([c2])), basis, tau)
    u_sum = eval_controller(
        ControllerCoefficients(np.array([c1]) + np.array([c2])), basis, tau
    )
    assert np.allclose(u_sum, u1 + u2, atol=1e-12)


def test_periodicity_forced_when_not_extended():
    basis = FourierPairsBasis(m=5, horizon=1.0, extension=0.0)
    rng = np.random.default_rng(3)
    coeffs = ControllerCoefficients(rng.standard_normal((1, 10)))
    u0 = eval_controller(coeffs, basis, 0.0)
    u1 = eval_controller(coeffs, basis, 1.0)
    assert abs(u1[0] - u0[0]) < 1e-12


def test_extension_breaks_periodicity():
    basis = FourierPairsBasis(m=5, horizon=1.0, extension=0.1)
    rng = np.random.default_rng(4)
    found_unequal = 0
    for _ in range(5):
        coeffs = ControllerCoefficients(rng.standard_normal((1, 10)))
        u0 = eval_controller(coeffs, basis, 0.0)
        u1 = eval_controller(coeffs, basis, 1.0)
        if abs(u1[0] - u0[0]) > 1e-6:
            found_unequal += 1
    assert found_unequal == 5


def test_l2_norm_zero_and_cosine():
    grid = TimeGrid(0.0, 1.0, 1000)
    basis = FourierPairsBasis(m=1, horizon=1.0, extension=0.0)
    zero = zero_coefficients(1, basis)
    assert controller_l2_norm(zero, basis, grid) == 0.0
    # u(tau) = cos(2 pi tau): integral of cos^2 over one period is 1/2
    coeffs = ControllerCoefficients(np.array([[1.0, 0.0]]))
    assert controller_l2_norm(coeffs, basis, grid) == pytest.approx(
        math.sqrt(0.5), abs=1e-6
    )


@settings(max_examples=30, deadline=None)
@given(c=st.lists(coeff_floats, min_size=4, max_size=4))
def test_l2_norm_homogeneous(c):
    grid = TimeGrid(0.0, 1.0, 128)
    basis = FourierPairsBasis(m=2, horizon=1.0, extension=0.1)
    base = controller_l2_norm(ControllerCoefficients(np.array([c])), basis, grid)
    doubled = controller_l2_norm(ControllerCoefficients(2.0 * np.array([c])), basis, grid)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12, abs=1e-12)


def test_l2_norm_requires_matching_grid():
    basis = FourierPairsBasis(m=1, horizon=1.0, extension=0.0)
    coeffs = zero_coefficients(1, basis)
    with pytest.raises(ContractViolationError):
        controller_l2_norm(coeffs, basis, TimeGrid(0.0, 2.0, 100))


def test_interleaved_ordering_is_cos_then_sin():
    basis = FourierPairsBasis(m=2, horizon=1.0, extension=0.0)
    phi = basis.eval_matrix(np.array([0.0]))[0]
    # at tau=0 every cos column is 1, every sin column is 0
    assert np.allclose(phi, [1.0, 0.0, 1.0, 0.0])


def test_custom_basis_from_callables():
    basis = CustomSampledBasis(horizon=1.0, functions=(lambda t: t, lambda t: t * t))
    assert basis.n_functions == 2
    coeffs = ControllerCoefficients(np.array([[2.0, -1.0]]))
    assert eval_controller(coeffs, basis, 0.5)[0] == pytest.approx(2 * 0.5 - 0.25)


def test_custom_basis_from_samples_interpolates():
    grid = TimeGrid(0.0, 1.0, 10)
    samples = grid.nodes()[:, None]  # single column: phi(tau) = tau
    basis = CustomSampledBasis(horizon=1.0, sample_grid=grid, samples=samples)
    coeffs = ControllerCoefficients(np.array([[3.0]]))
    assert eval_controller(coeffs, basis, 0.55)[0] == pytest.approx(3 * 0.55, abs=1e-12)


def test_coefficients_must_be_finite():
    with pytest.raises(ContractViolationError):
        ControllerCoefficients(np.array([[np.nan, 0.0]]))


def test_flat_round_trip_is_channel_major():
    values = np.arange(8.0).reshape(2, 4)
    coeffs = ControllerCoefficients(values)
    flat = coeffs.flat()
    assert np.array_equal(flat, np.arange(8.0))
    back = ControllerCoefficients.from_flat(flat, 2)
    assert np.array_equal(back.values, values)
