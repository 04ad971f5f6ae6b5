"""Learning a time-varying feedback gain field by extremum seeking.

Instead of open-loop controls, the decision variables here are basis
coefficients of every entry of a p x n gain matrix K(tau) (plus optional
feedforward V(tau)); each batch plays u = -K(tau) x from n linearly
independent initial conditions and measures the summed cost. Once
converged the field is a feedback law valid for any initial condition.

This module holds the synthesis only. The field (``basis.GainField``) and
its closed loops (``scenario.run_feedback_episodes``, ``closed_loop_cost``)
live beside their open-loop counterparts and are re-exported here.

Dither assignment follows the two-dimensional recipe exactly: gain rows
own disjoint frequency bands (row 1 gets [w0, 1.35 w0], row 2 gets
[1.35 w0, 1.75 w0] in the 2x2 case), and within a row the odd columns
dither with cos while even columns reuse the same frequencies with sin.
Wider matrices subdivide each row band per pair of columns; feedforward
rows get fresh bands appended above the gain bands.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .basis import GainField
from .errors import ContractViolationError, IllPosedSynthesisError
from .es import EsConfig, EsRunRecord, PHASE_COS, PHASE_SIN, make_frequency_schedule, run_es
from .scenario import (LinearDynamics, QuadraticCost, Scenario, closed_loop_cost,  # noqa: F401
                       coefficients_of, episode_measurement, run_feedback_episodes)


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
    stacked = np.stack(scenario.initial_conditions)
    needed = scenario.state_dim
    if scenario.feedforward:
        # -K x + V is only separable when the [x0; 1] vectors span R^(n+1):
        # with fewer starts a continuum of (K, V) pairs matches the training
        # trajectories and the learned field cannot generalize
        stacked = np.hstack([stacked, np.ones((stacked.shape[0], 1))])
        needed += 1
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
    return coefficients_of(scenario, record.period_averaged_coefficients()), record

