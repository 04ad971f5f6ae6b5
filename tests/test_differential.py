"""Differential tests: fast paths against step-by-step references on small
generated linear-quadratic problems.

The shipped scenarios cover only d <= 2 and p <= 2 with one reference
shape; these draws reach d, p and the output dimension up to 3, stable and
unstable plants, with and without feedforward and reference. Hypothesis
runs derandomized, so every run checks the same draws.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escontrol.basis import FourierPairsBasis
from escontrol.errors import IntegrationDivergedError
from escontrol.feedback import GainField, run_feedback_episodes
from escontrol.ode import TimeGrid, integrate_rk4
from escontrol.scenario import LinearDynamics, QuadraticCost, Scenario, cost_of_trajectory

DIFFERENTIAL = settings(derandomize=True, max_examples=150, deadline=None,
                        database=None)

# a diverging draw scales every gain coefficient by this: each RK4 step then
# amplifies by about (h |K|)^4 > 1e150, so the overflow lands at the same
# step on both sides instead of one step apart near the threshold
DIVERGING_SCALE = 1e45


def _psd(rng, n, floor=0.0):
    half = rng.standard_normal((n, n))
    return half @ half.T + floor * np.eye(n)


@st.composite
def closed_loop_problems(draw):
    """(scenario, gain field, initial conditions, diverging) of one draw."""
    d = draw(st.integers(1, 3), label="d")
    p = draw(st.integers(1, 3), label="p")
    n_out = draw(st.integers(1, 3), label="outputs")
    stable = draw(st.booleans(), label="stable A")
    feedforward = draw(st.booleans(), label="feedforward")
    tracking = draw(st.booleans(), label="reference")
    diverging = draw(st.booleans(), label="diverging gains")
    n_steps = draw(st.integers(2, 64), label="n_steps")
    m = draw(st.integers(1, 3), label="m")
    extension = draw(st.sampled_from([0.1, 0.5, 1.0]), label="extension")
    horizon = draw(st.sampled_from([0.5, 1.0, 2.0]), label="horizon")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))

    a = 0.8 * rng.standard_normal((d, d))
    # shift the spectrum so that its rightmost real part is -0.5 or +0.5
    a += ((-0.5 if stable else 0.5) - np.linalg.eigvals(a).real.max()) * np.eye(d)
    amp, freq, phase = rng.standard_normal((3, n_out))
    reference = (lambda t: amp * np.sin(4.0 * freq * np.asarray(t)[..., None] + phase)) \
        if tracking else None
    scenario = Scenario(
        name="generated",
        dynamics=LinearDynamics.constant(a, rng.standard_normal((d, p))),
        cost=QuadraticCost(c_matrix=rng.standard_normal((n_out, d)),
                           p_matrix=_psd(rng, n_out), q_matrix=_psd(rng, n_out),
                           r_matrix=_psd(rng, p, floor=0.5), reference=reference),
        grid=TimeGrid(0.0, horizon, n_steps),
        basis=FourierPairsBasis(m=m, horizon=horizon, extension=extension),
        initial_conditions=[np.ones(d)],
        feedback=True,
        feedforward=feedforward,
    )
    n_f = scenario.basis.n_functions
    scale = DIVERGING_SCALE if diverging else 0.5
    field = GainField(scenario.basis, d, p, scale * rng.standard_normal((p, d, n_f)),
                      rng.standard_normal((p, n_f)) if feedforward else None)
    x0s = list(rng.standard_normal((draw(st.integers(1, 3), label="starts"), d)))
    return scenario, field, x0s, diverging


def _fourier_rows(basis, tau):
    """Basis functions at tau by direct summation: cos(w_j tau), sin(w_j tau)."""
    return np.array([f(2.0 * math.pi * j * tau / basis.t_eff)
                     for j in range(1, basis.m + 1) for f in (math.cos, math.sin)])


def _stepwise_episode(scenario, field, x0):
    """(states, node controls, J) under u = -K(tau) x + V(tau), integrated
    step by step by generic RK4 with the field summed at every stage time."""
    a = scenario.dynamics.a_fn(0.0)
    b = scenario.dynamics.b_fn(0.0)

    def control(tau, x):
        rows = _fourier_rows(scenario.basis, tau)
        u = -(field.gain_coeffs @ rows) @ x
        return u + field.ff_coeffs @ rows if field.has_feedforward else u

    states = integrate_rk4(lambda tau, x: a @ x + b @ control(tau, x), x0,
                           scenario.grid).states
    controls = np.stack([control(tau, x) for tau, x in zip(scenario.grid.nodes(), states)])
    return states, controls, cost_of_trajectory(scenario.cost, scenario.grid, states, controls)


def _close(got, want, rel=1e-12):
    return np.abs(got - want).max() <= rel * np.abs(want).max()


@DIFFERENTIAL
@given(closed_loop_problems())
def test_batched_closed_loop_matches_stepwise_rk4(problem):
    scenario, field, x0s, diverging = problem
    expected, failed_steps = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for x0 in x0s:
            try:
                expected.append(_stepwise_episode(scenario, field, x0))
            except IntegrationDivergedError as exc:
                failed_steps.append(exc.step_index)
        if failed_steps:
            # the batch fails at the earliest failing step of its episodes
            with pytest.raises(IntegrationDivergedError) as batched:
                run_feedback_episodes(scenario, field, x0s)
            assert batched.value.step_index == min(failed_steps)
            return
    assert not diverging, "a diverging draw stayed finite"
    for episode, (states, controls, cost) in zip(
            run_feedback_episodes(scenario, field, x0s), expected):
        assert _close(episode.trajectory.states, states)
        assert _close(episode.controls, controls)
        assert math.isclose(episode.cost, cost, rel_tol=1e-12)
