"""The extremum-seeking optimizer.

Each scalar coefficient a_j carries its own dither frequency w_j and is
updated from nothing but the latest scalar cost measurement:

    a_j(s+1) = a_j(s) + delta * sqrt(alpha * w_j) * phase(w_j * s * delta + k * J_hat(s))

with phase either cos or sin per coefficient. For fast dithers the
iteration averages to a gradient flow da/dt = -(k alpha / 2) dJ/da, which
is what the tests' gradient-flow reference integrates for validation.

Note the sqrt(alpha * w_j) factor makes the dither amplitude grow with
frequency, so coefficients high in a wide schedule oscillate visibly more
than low ones; that disparity is inherent to the update law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .basis import ControllerCoefficients
from .errors import (ContractViolationError, EsControlError,
                     MeasurementInvalidError, ScheduleCollisionError)
from .scenario import Scenario, episode_cost_fn, episode_model, open_loop_measurement

PHASE_COS = "cos"
PHASE_SIN = "sin"

_MIN_SAMPLES_PER_PERIOD = 10


def make_frequency_schedule(omega0: float, n_coeffs: int,
                            ranges: Sequence[tuple[float, float, int]]) -> np.ndarray:
    """Distinct dither frequencies omega0 * multiple, evenly spaced per range.

    Each range (low_multiple, high_multiple, count) contributes ``count``
    evenly spaced frequencies inclusive of its endpoints. When a range's
    low endpoint collides with an already generated frequency (adjacent
    bands sharing an edge), that range instead opens at the next even
    subdivision: count+1 points with the first dropped.
    """
    if omega0 <= 0:
        raise ContractViolationError(f"omega0 must be positive, got {omega0}")
    total = sum(count for _, _, count in ranges)
    if total != n_coeffs:
        raise ContractViolationError(
            f"range counts sum to {total}, expected n_coeffs={n_coeffs}"
        )
    freqs: list[float] = []
    for low, high, count in ranges:
        if low <= 0 or high < low or count < 1:
            raise ContractViolationError(f"bad schedule range ({low}, {high}, {count})")
        vals = omega0 * np.linspace(low, high, count)
        if any(v in freqs for v in vals):
            if count == 1 or high == low:
                raise ScheduleCollisionError(
                    f"range ({low}, {high}, {count}) collides with an existing frequency "
                    "and has no room to shift"
                )
            vals = omega0 * np.linspace(low, high, count + 1)[1:]
        freqs.extend(float(v) for v in vals)
    if len(set(freqs)) != len(freqs):
        raise ScheduleCollisionError(
            "generated frequencies are not pairwise distinct; adjust the ranges"
        )
    return np.array(freqs)


def default_phases(n_coeffs: int) -> tuple[str, ...]:
    """Alternating cos/sin, pairing even-index (a) coefficients with cos."""
    return tuple(PHASE_COS if i % 2 == 0 else PHASE_SIN for i in range(n_coeffs))


def default_delta(frequencies: np.ndarray) -> float:
    """The step size that samples the fastest dither exactly
    ``_MIN_SAMPLES_PER_PERIOD`` times per period."""
    return 2.0 * np.pi / (_MIN_SAMPLES_PER_PERIOD * float(frequencies.max()))


@dataclass(frozen=True)
class EsConfig:
    """Gains, dither schedule and step size of one ES run.

    Distinctness is enforced on (frequency, phase) pairs: two coefficients
    may share a frequency only through a cos/sin quadrature pair, which is
    how the feedback synthesis reuses each band across gain columns.
    """

    k: float
    alpha: float
    omega0: float
    frequencies: np.ndarray
    delta: float
    phases: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "frequencies",
                           np.asarray(self.frequencies, dtype=float))
        if self.k <= 0 or self.alpha <= 0 or self.omega0 <= 0:
            raise ContractViolationError("k, alpha and omega0 must all be positive")
        if self.delta < 0:
            raise ContractViolationError(f"delta must be >= 0, got {self.delta}")
        if len(self.phases) != self.frequencies.shape[0]:
            raise ContractViolationError("one phase per frequency is required")
        if any(p not in (PHASE_COS, PHASE_SIN) for p in self.phases):
            raise ContractViolationError(f"phases must be '{PHASE_COS}' or '{PHASE_SIN}'")
        pairs = list(zip(self.frequencies.tolist(), self.phases))
        if len(set(pairs)) != len(pairs):
            raise ScheduleCollisionError("(frequency, phase) pairs must be distinct")

    def validate_sampling(self):
        """Check the fastest dither is sampled densely enough for averaging.

        Inclusive bound: the default delta sits exactly on 10 samples per
        period. Enforced when a run starts; a bare es_step is fine at any
        delta (the update law itself has no sampling requirement).
        """
        if self.delta * float(self.frequencies.max()) > \
                (2.0 * np.pi / _MIN_SAMPLES_PER_PERIOD) * (1.0 + 1e-9):
            raise ContractViolationError(
                "delta too large: need at least "
                f"{_MIN_SAMPLES_PER_PERIOD} samples of the fastest dither per period"
            )

    @classmethod
    def build(cls, k: float, alpha: float, omega0: float, n_coeffs: int,
              ranges: Sequence[tuple[float, float, int]] | None = None,
              delta: float | None = None,
              phases: Sequence[str] | None = None) -> "EsConfig":
        """Assemble a config with one frequency per coefficient.

        Defaults: a single band of even spacing over [omega0, 1.75 omega0],
        delta = 2 pi / (10 max w), and alternating cos/sin phases.
        """
        if ranges is None:
            ranges = [(1.0, 1.75, n_coeffs)] if n_coeffs > 1 else [(1.0, 1.0, 1)]
        freqs = make_frequency_schedule(omega0, n_coeffs, ranges)
        if delta is None:
            delta = default_delta(freqs)
        if phases is None:
            phases = default_phases(n_coeffs)
        return cls(k=k, alpha=alpha, omega0=omega0, frequencies=freqs,
                   delta=delta, phases=tuple(phases))

    @property
    def n_coeffs(self) -> int:
        return self.frequencies.shape[0]

    def slowest_period_steps(self) -> int:
        """Iterations spanning one period of the slowest dither."""
        if self.delta == 0.0:
            return 1
        return int(math.ceil(2.0 * np.pi / (self.delta * float(self.frequencies.min()))))

    # cached_property stores in the instance dict, outside the declared
    # fields, so equality and repr see the fields alone
    @cached_property
    def step_gains(self) -> np.ndarray:
        """delta * sqrt(alpha * w_j) of every coefficient."""
        return self.delta * np.sqrt(self.alpha * self.frequencies)

    @cached_property
    def cos_mask(self) -> np.ndarray:
        """True where a coefficient dithers with cos."""
        return np.array([p == PHASE_COS for p in self.phases])

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "alpha": self.alpha,
            "omega0": self.omega0,
            "delta": self.delta,
            "frequencies": [float(f) for f in self.frequencies],
            "phases": list(self.phases),
        }


def es_step(coeffs, j_hat: float, s: int, config: EsConfig):
    """One update of every coefficient from the measured cost j_hat.

    ``coeffs`` may be a flat array or ControllerCoefficients; the result has
    the same type. A non-finite measurement raises MeasurementInvalidError
    and the step is not applied (skipping silently would desynchronize the
    step index from the dither phases).
    """
    if not math.isfinite(j_hat):
        raise MeasurementInvalidError(f"measured cost at step {s} is {j_hat}")
    wrap = None
    if isinstance(coeffs, ControllerCoefficients):
        wrap = coeffs.n_channels
        coeffs = coeffs.flat()
    flat = np.asarray(coeffs, dtype=float)
    if flat.shape[0] != config.n_coeffs:
        raise ContractViolationError(
            f"{flat.shape[0]} coefficients but {config.n_coeffs} scheduled frequencies"
        )
    theta = config.frequencies * (s * config.delta) + config.k * j_hat
    osc = np.where(config.cos_mask, np.cos(theta), np.sin(theta))
    new_flat = flat + config.step_gains * osc
    if wrap is not None:
        return ControllerCoefficients.from_flat(new_flat, wrap)
    return new_flat


@dataclass(frozen=True)
class EsRunRecord:
    """The iterates one ES run kept: row 0, then every row after the first
    ``dropped_rows``. A run keeps all of s = 0 .. n_iterations unless it
    streamed its rows out (see :func:`run_es`)."""

    scenario_id: str
    config: EsConfig
    coefficients: np.ndarray   # (kept rows, n_coeffs)
    costs: np.ndarray          # J(s), the cost measured under coefficients(s)
    measured_costs: np.ndarray
    dropped_rows: int = 0      # rows 1 .. dropped_rows were not kept

    def __post_init__(self):
        if not (self.coefficients.shape[0] == self.costs.shape[0]
                == self.measured_costs.shape[0]):
            raise ContractViolationError("record arrays must have matching lengths")

    @property
    def n_iterations(self) -> int:
        return self.coefficients.shape[0] - 1 + self.dropped_rows

    def final_window(self) -> int:
        """Rows in the convergence-statistic window (one slowest-dither period)."""
        return min(self.config.slowest_period_steps(), self.n_iterations + 1)

    def period_averaged_cost(self) -> float:
        """Mean J over the last slowest-dither period; raw J oscillates
        persistently, so this is the convergence statistic."""
        return float(self.costs[-self.final_window():].mean())

    def period_averaged_coefficients(self) -> np.ndarray:
        """Mean coefficients over the last slowest-dither period (the
        converged controller, with the dither ripple averaged out)."""
        return self.coefficients[-self.final_window():].mean(axis=0)


# a streaming run hands its rows on in blocks of this many rows. Each block
# switches between the ES loop and the writer, and the switches cost cache
# refills: on 20 000-iteration example3_tracking runs (2-core x86-64 host),
# 64-row blocks took about 7% longer than writing after the loop, 1 024-row
# blocks as long. A block of 1 024 rows of 84 floats is 0.7 MB.
_ROW_BLOCK = 1024


def _row_blocks(measure, config: EsConfig, flat: np.ndarray, n_iterations: int,
                block_rows: int):
    """The ES loop. Yields its rows as blocks ``(start, coefficients, costs,
    measured_costs)`` of ``block_rows`` rows from iteration ``start`` on (the
    last block may be shorter): views of one buffer, valid until the next
    block is asked for. When iteration s raises an EsControlError, the block
    of the rows before s comes first, then the error, with ``iteration`` = s."""
    coeffs = np.empty((block_rows, flat.shape[0]))
    costs = np.empty(block_rows)
    measured = np.empty(block_rows)
    start = i = 0
    failure = None
    for s in range(n_iterations + 1):
        if i == block_rows:
            yield start, coeffs, costs, measured
            start, i = s, 0
        coeffs[i] = flat
        try:
            j, j_hat = measure(flat, s)
            costs[i] = j
            measured[i] = j_hat
            if s < n_iterations:
                flat = es_step(flat, j_hat, s, config)
        except EsControlError as exc:  # raised below, once the rows before s are out
            failure = exc
            break
        i += 1
    if i:
        yield start, coeffs[:i], costs[:i], measured[:i]
    if failure is not None:
        wrapped = type(failure)(f"ES iteration s={start + i}: {failure}")
        # keep the error's context (step_index, node_index) and add the iteration
        wrapped.__dict__.update(vars(failure))
        wrapped.iteration = start + i
        raise wrapped from failure


def run_es(cost_source, config: EsConfig, n_iterations: int,
           initial_coeffs=None, scenario_id: str = "",
           consume_rows: Callable | None = None) -> EsRunRecord:
    """Alternate cost measurement and es_step, recording every iterate.

    An iteration needs only (J, J_hat), from one ``measure(flat, s)`` chosen
    once by the type of ``cost_source``: a Scenario's open-loop episodes
    (:func:`~escontrol.scenario.open_loop_measurement`: costed without
    coefficient or result objects after the first), the ``measure`` method
    of an object (such as :func:`~escontrol.feedback.closed_loop_measurement`),
    or a plain noise-free callable of the flat coefficients. Coefficients
    start at zero unless given.

    With ``consume_rows``, the rows stream out instead: the loop runs inside
    ``consume_rows(config, blocks)``, which must exhaust the iterator
    ``blocks`` of row blocks (see :func:`_row_blocks`; a failing iteration
    raises from it once the rows before it are out). The record then keeps
    only row 0 and the final window, which is all that its period averages
    and the last iterate need.
    """
    if n_iterations < 1:
        raise ContractViolationError(f"n_iterations must be >= 1, got {n_iterations}")
    config.validate_sampling()
    if isinstance(cost_source, Scenario):
        measure = open_loop_measurement(cost_source, config.delta).measure
        scenario_id = scenario_id or cost_source.name
    elif hasattr(cost_source, "measure"):
        measure = cost_source.measure
    else:
        def measure(flat, s):
            j = float(cost_source(flat))
            return j, j

    if initial_coeffs is None:
        flat = np.zeros(config.n_coeffs)
    elif isinstance(initial_coeffs, ControllerCoefficients):
        flat = initial_coeffs.flat()
    else:
        flat = np.asarray(initial_coeffs, dtype=float).copy()

    if consume_rows is None:  # every row, in one block
        [(_, *rows)] = _row_blocks(measure, config, flat, n_iterations, n_iterations + 1)
        return EsRunRecord(scenario_id, config, *rows)

    window = min(config.slowest_period_steps(), n_iterations)
    first: list = []
    tail = [np.empty((window, flat.shape[0])), np.empty(window), np.empty(window)]
    finished = False

    def blocks():
        nonlocal finished
        for block in _row_blocks(measure, config, flat, n_iterations,
                                 min(_ROW_BLOCK, n_iterations + 1)):
            start, *arrays = block
            if start == 0:
                first.extend(a[:1].copy() for a in arrays)
            for kept, rows in zip(tail, arrays):
                n = min(rows.shape[0], window)
                kept[:window - n] = kept[n:]
                kept[window - n:] = rows[rows.shape[0] - n:]
            yield block
        finished = True

    consume_rows(config, blocks())
    if not finished:
        raise ContractViolationError("consume_rows returned before the run ended")
    return EsRunRecord(scenario_id, config,
                       *(np.concatenate(pair) for pair in zip(first, tail)),
                       dropped_rows=n_iterations - window)


@dataclass(frozen=True)
class QuadraticCostModel:
    """Exact quadratic model J(c) = 1/2 c' H c + g' c + j0."""

    hessian: np.ndarray
    gradient0: np.ndarray
    j0: float

    def __call__(self, c: np.ndarray) -> float:
        c = np.asarray(c, dtype=float)
        return float(0.5 * c @ self.hessian @ c + self.gradient0 @ c + self.j0)

    def minimizer(self) -> np.ndarray:
        return np.linalg.solve(self.hessian, -self.gradient0)


def assemble_quadratic_cost(cost_fn: Callable[[np.ndarray], float],
                            dim: int) -> QuadraticCostModel:
    """Recover the exact quadratic form of a cost by probing it.

    Probes J at 0, +-e_i and e_i + e_j (1 + 2 dim + dim (dim - 1) / 2
    evaluations). A final random probe verifies the model reproduces the
    cost, which guards against calling this on a non-quadratic cost.
    """
    e = np.eye(dim)
    j0 = float(cost_fn(np.zeros(dim)))
    j_plus = np.array([float(cost_fn(e[i])) for i in range(dim)])
    j_minus = np.array([float(cost_fn(-e[i])) for i in range(dim)])
    g = 0.5 * (j_plus - j_minus)
    h = np.empty((dim, dim))
    np.fill_diagonal(h, j_plus + j_minus - 2.0 * j0)
    for i in range(dim):
        for j in range(i + 1, dim):
            jij = float(cost_fn(e[i] + e[j]))
            h[i, j] = h[j, i] = jij - j_plus[i] - j_plus[j] + j0
    model = QuadraticCostModel(hessian=h, gradient0=g, j0=j0)
    rng = np.random.default_rng(12345)
    probe = rng.standard_normal(dim)
    actual = float(cost_fn(probe))
    if abs(actual - model(probe)) > 1e-7 * max(1.0, abs(actual), abs(j0)):
        raise ContractViolationError(
            "cost is not quadratic in the coefficients; the quadratic-form "
            "oracle only applies to linear dynamics with quadratic cost"
        )
    return model


def restricted_optimum(scenario: Scenario, slow_time: float = 0.0):
    """Best achievable (coefficients, cost) inside the scenario's basis.

    Exact for linear dynamics with quadratic cost, where the episode cost is
    an explicit convex quadratic in the coefficient vector: H, g and j0 come
    from the scenario's episode model at ``slow_time``. Costs the model does
    not cover are probed instead (``assemble_quadratic_cost``). This is the
    reference for every ES convergence test.
    """
    episodes = episode_model(scenario, slow_time)
    form = None if episodes is None else episodes.quadratic_form(scenario.initial_conditions)
    if form is None:
        dim = scenario.control_dim * scenario.basis.n_functions
        model = assemble_quadratic_cost(episode_cost_fn(scenario, slow_time), dim)
    else:
        model = QuadraticCostModel(*form)
    c_star = model.minimizer()
    return c_star, model(c_star), model
