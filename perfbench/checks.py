"""Correctness checks on one `run_experiment` output directory.

Each check returns a list of problems (empty when the output passes). The
references come from ``reference.py``, which does not import escontrol.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

# Relative agreement required between J* and summary.json's oracle_cost.
ORACLE_RTOL = 1e-8
# Relative agreement required between a recomputed J and iterations.csv.
RECOMPUTE_RTOL = 1e-9
# Allowed deviation of a row from the replayed ES update law, relative to
# max(1, |coefficient|).
UPDATE_RTOL = 1e-9
# A grid cost (RK4 + trapezoid) may sit below the exact J* by discretization
# error. The largest gap between the two for the optimal law on the
# workloads' scenarios is 8.5e-4 (feedback_tracking_demo, second start), so
# J may read up to twice that below J*.
OPTIMALITY_RTOL = 2e-3
# z-score bound for the noise mean and standard deviation.
NOISE_Z = 5.0
# Rows of iterations.csv recomputed from their coefficients: first, middle, last.
RECOMPUTED_ROWS = (0.0, 0.5, 1.0)


@dataclass
class RunOutput:
    """The parts of a run's artifacts the checks read."""

    summary: dict
    steps: np.ndarray
    times: np.ndarray
    costs: np.ndarray
    measured: np.ndarray
    coefficients: np.ndarray

    @classmethod
    def load(cls, out_dir) -> "RunOutput":
        out_dir = Path(out_dir)
        summary = json.loads((out_dir / "summary.json").read_text())
        data = np.loadtxt(out_dir / "iterations.csv", delimiter=",", skiprows=1, ndmin=2)
        return cls(summary, data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 4:])

    @property
    def es_config(self) -> dict:
        return self.summary["es_config"]

    @property
    def n_iterations(self) -> int:
        return self.coefficients.shape[0] - 1

    def slow_times(self, prob: reference.Problem) -> np.ndarray:
        return prob.slow_time(self.steps, float(self.es_config["delta"]))


def optimum_per_step(prob: reference.Problem, out: RunOutput) -> np.ndarray:
    """Total J* at every recorded step's slow time."""
    times = out.slow_times(prob)
    if prob.scalar and prob.reference is None:
        return reference.scalar_regulator_optimum(prob, times)
    for t in (times[0], times[-1]):
        if not (np.array_equal(prob.a_fn(t), prob.a_fn(0.0))
                and np.array_equal(prob.b_fn(t), prob.b_fn(0.0))):
            raise ValueError("per-step optimum of a drifting plant needs a scalar regulator")
    return np.full(times.shape, reference.riccati(prob, 0.0)[0].sum())


def check_oracle(prob: reference.Problem, out: RunOutput) -> list[str]:
    """summary.json's J* against the reference Riccati solution.

    escontrol reports 1/2 x0'S x0 for regulators and, with a reference, the
    grid cost of the optimal law; the reference is taken the same way.
    """
    t_final = float(out.slow_times(prob)[-1])
    j_star, law = reference.riccati(prob, t_final)
    if prob.reference is not None:
        j_star = reference.grid_cost(prob, law, t_final)
    reported = np.asarray(out.summary["oracle_costs_per_initial_condition"], dtype=float)
    problems = []
    if reported.shape != j_star.shape or not np.allclose(reported, j_star,
                                                         rtol=ORACLE_RTOL, atol=0.0):
        problems.append(f"oracle J* per start {reported.tolist()} != reference "
                        f"{j_star.tolist()}")
    total = out.summary["oracle_cost"]
    if not math.isclose(total, float(j_star.sum()), rel_tol=ORACLE_RTOL):
        problems.append(f"oracle_cost {total} != reference {float(j_star.sum())}")
    return problems


def check_optimality(out: RunOutput, optimum: np.ndarray) -> list[str]:
    """No recorded J lies below J* at its slow time."""
    below = np.nonzero(out.costs < optimum * (1.0 - OPTIMALITY_RTOL))[0]
    if below.size:
        s = int(below[0])
        return [f"{below.size} rows have J below J*; first s={s}: "
                f"J={out.costs[s]!r} < J*={optimum[s]!r}"]
    return []


def check_recomputed_costs(prob: reference.Problem, out: RunOutput) -> list[str]:
    """J of a few rows, recomputed from their coefficients."""
    problems = []
    times = out.slow_times(prob)
    for frac in RECOMPUTED_ROWS:
        s = int(round(frac * out.n_iterations))
        j = reference.episode_cost(prob, out.coefficients[s], float(times[s]))
        if not math.isclose(j, out.costs[s], rel_tol=RECOMPUTE_RTOL):
            problems.append(f"s={s}: recorded J={out.costs[s]!r}, recomputed {j!r}")
    return problems


def check_update_law(out: RunOutput) -> list[str]:
    """Every row follows the ES update law from the row before it."""
    problems = []
    if not np.array_equal(out.steps, np.arange(out.steps.shape[0])):
        problems.append("column s is not 0, 1, 2, ...")
    if not np.allclose(out.times, out.steps * float(out.es_config["delta"]),
                       rtol=1e-12, atol=0.0):
        problems.append("column t is not s * delta")
    if np.any(out.coefficients[0] != 0.0):
        problems.append("coefficients do not start at zero")
    predicted = reference.es_replay(out.coefficients, out.measured, out.es_config)
    actual = out.coefficients[1:]
    err = np.abs(predicted - actual) / np.maximum(1.0, np.abs(actual))
    if err.size and err.max() > UPDATE_RTOL:
        s, j = np.unravel_index(int(np.argmax(err)), err.shape)
        problems.append(f"row s={s + 1} coefficient {j} breaks the update law: "
                        f"{actual[s, j]!r} vs replayed {predicted[s, j]!r}")
    return problems


def check_noise(out: RunOutput, std_dev: float) -> list[str]:
    """J_hat - J is exactly 0 without noise, and fits N(0, std_dev^2) with it."""
    diff = out.measured - out.costs
    if std_dev == 0.0:
        if np.any(diff != 0.0):
            return [f"J_hat != J on {int(np.count_nonzero(diff))} rows without noise"]
        return []
    n = diff.shape[0]
    problems = []
    z_mean = diff.mean() / (std_dev / math.sqrt(n))
    if abs(z_mean) > NOISE_Z:
        problems.append(f"noise mean {diff.mean()!r} is {z_mean:.1f} standard errors from 0")
    # sample standard deviation of n normals: standard error sigma / sqrt(2 (n - 1))
    z_std = (diff.std(ddof=1) - std_dev) / (std_dev / math.sqrt(2.0 * (n - 1)))
    if abs(z_std) > NOISE_Z:
        problems.append(f"noise std {diff.std(ddof=1)!r} is {z_std:.1f} standard errors "
                        f"from {std_dev}")
    return problems


def check_run(prob: reference.Problem, out: RunOutput, gap: float) -> tuple[int | None, list[str]]:
    """Every check on one run; returns (episodes to target, problems).

    Episodes to target: until the slowest-dither-period mean of J first
    comes within ``gap`` (relative) of J* at its slow time.
    """
    optimum = optimum_per_step(prob, out)
    problems = (check_oracle(prob, out) + check_optimality(out, optimum)
                + check_recomputed_costs(prob, out) + check_update_law(out)
                + check_noise(out, prob.noise_std))
    episodes = reference.first_within_gap(out.costs, optimum,
                                          reference.slowest_period(out.es_config), gap)
    if episodes is None:
        problems.append(f"never came within a relative gap of {gap} of J*")
    return episodes, problems
