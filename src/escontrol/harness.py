"""Scenario loading, experiment orchestration and artifact emission.

Scenario files are YAML with a fixed schema (see the shipped ``*.scn``
files). Matrices are numbers or nested lists; time-varying entries and
references are expression strings in ``t`` (slow time) or ``tau`` (fast
time) over a small whitelisted namespace (sin, cos, exp, sqrt, pi, ...).

All artifacts are CSV plus one summary.json; float cells are written with
``repr`` (shortest round-trip), so identical runs produce byte-identical
files.
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import yaml

from .basis import ControllerCoefficients, FourierPairsBasis
from .errors import (ContractViolationError, EsControlError, ScenarioParseError,
                     ScenarioValidationError)
from .es import PHASE_COS, PHASE_SIN, EsConfig, EsRunRecord, default_delta, run_es
from .feedback import GainField, gain_dither_assignment, synthesize_gain
from .lqr import oracle_costs, scenario_oracle
from .ode import TimeGrid
from .scenario import (LinearDynamics, NoiseModel, QuadraticCost, Scenario,
                       run_episode)

OUTPUT_DIR_ENV = "ESCONTROL_OUTPUT_DIR"

MODES = ("open-loop-es", "feedback-es", "oracle-only", "compare")

_EXPR_NAMESPACE = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "sqrt": np.sqrt, "log": np.log, "tanh": np.tanh, "abs": np.abs,
    "pi": np.pi, "e": np.e,
}


def compile_expression(expr: str, var: str, key: str) -> Callable[[float], float]:
    """Compile a whitelisted arithmetic expression of one variable, the
    scenario entry at dotted path ``key``."""
    try:
        code = compile(expr, f"<{var}-expression>", "eval")
    except SyntaxError as exc:
        raise ScenarioParseError(f"{key}: bad expression {expr!r}: {exc}") from exc
    unknown = set(code.co_names) - set(_EXPR_NAMESPACE) - {var}
    if unknown:
        raise ScenarioParseError(
            f"{key}: expression {expr!r} uses unknown names {sorted(unknown)}"
        )

    def fn(value):
        return eval(code, {"__builtins__": {}}, {**_EXPR_NAMESPACE, var: value})

    return fn


def _matrix_fn(value, var: str, key: str):
    """The scenario matrix at dotted path ``key``: number, expression string,
    or nested lists."""
    if isinstance(value, (int, float)):
        const = np.array([[_number(value, key)]])
        return (lambda t: const), const.shape, True
    if isinstance(value, str):
        f = compile_expression(value, var, key)
        return (lambda t: np.array([[float(f(t))]])), (1, 1), False
    rows = value
    if not isinstance(rows, list) or not rows or not isinstance(rows[0], list) or not rows[0]:
        raise ScenarioParseError(f"{key} must be a number, string, or nested list, "
                                 f"got {value!r}")
    shape = (len(rows), len(rows[0]))
    if any(not isinstance(r, list) or len(r) != shape[1] for r in rows):
        raise ScenarioParseError(f"{key} rows have inconsistent lengths")
    if not any(isinstance(x, str) for r in rows for x in r):
        const = _float_array(rows, key)
        return (lambda t: const), shape, True
    fns = [[compile_expression(x, var, f"{key}[{i}][{j}]") if isinstance(x, str)
            else (lambda t, v=_number(x, f"{key}[{i}][{j}]"): v)
            for j, x in enumerate(r)] for i, r in enumerate(rows)]

    def fn(t):
        return np.array([[float(f(t)) for f in row] for row in fns])

    return fn, shape, False


def _reference_fn(value):
    """Reference r(tau): expression string or list of strings/numbers."""
    if value is None:
        return None
    entries = value if isinstance(value, list) else [value]
    fns = [compile_expression(x, "tau", "cost.reference") if isinstance(x, str)
           else (lambda tau, v=_number(x, "cost.reference"): v) for x in entries]

    def fn(tau):
        return np.array([f(tau) for f in fns], dtype=float)

    return fn


def _require(config: dict, key: str, context: str):
    if key not in config:
        raise ScenarioValidationError(f"{context} is missing required key {key!r}")
    return config[key]


def _integer(value, key: str, low: int | None = None) -> int:
    """The integral scenario value at dotted path ``key``, at least ``low``
    if given: an int, or a float without a fractional part."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioValidationError(f"{key} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ScenarioValidationError(f"{key} must be at least {low}, got {value}")
    return value


def _number(value, key: str) -> float:
    """The finite scenario number at dotted path ``key``, as a float: an int,
    a float, or a string in float syntax (YAML 1.1 reads ``1e3`` as one)."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if math.isfinite(number):
            return number
    raise ScenarioValidationError(f"{key} must be a finite number, got {value!r}")


def _float_array(value, key: str) -> np.ndarray:
    """The scenario number or nested list of numbers at dotted path ``key``,
    as a float array; every entry is read as :func:`_number` reads it."""
    def numbers(item, path):
        if isinstance(item, list):
            return [numbers(x, f"{path}[{i}]") for i, x in enumerate(item)]
        return _number(item, path)

    nested = numbers(value, key)
    try:
        array = np.array(nested, dtype=float)
    except ValueError as exc:  # ragged nesting
        raise ScenarioValidationError(f"{key} rows have inconsistent lengths") from exc
    if array.size == 0:
        raise ScenarioValidationError(f"{key} must not be empty")
    return array


def _section(config: dict, key: str, required: bool = True) -> dict:
    """The mapping at top-level ``key`` of a scenario ({} if optional and absent)."""
    value = _require(config, key, "scenario") if required else config.get(key, {})
    if not isinstance(value, dict):
        raise ScenarioValidationError(f"{key} must be a mapping, got {value!r}")
    return value


def _es_section(config: dict) -> dict:
    """The es section with its typed entries converted and checked."""
    es = dict(_section(config, "es", required=False))
    for key in ("k", "alpha", "omega0", "delta"):
        if key in es:
            es[key] = _number(es[key], f"es.{key}")
            if es[key] < 0 or es[key] == 0 and key != "delta":  # only delta may be 0
                raise ScenarioValidationError(
                    f"es.{key} must be {'>= 0' if key == 'delta' else 'positive'}, got {es[key]}")
    if "n_iterations" in es:
        es["n_iterations"] = _integer(es["n_iterations"], "es.n_iterations", low=1)
    if "ranges" in es:
        rows = _float_array(es["ranges"], "es.ranges")
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ScenarioValidationError(
                f"es.ranges must be a list of [low, high, count] triples, got {es['ranges']!r}")
        for i, (low, high, _) in enumerate(rows.tolist()):
            if not 0 < low <= high:
                raise ScenarioValidationError(
                    f"es.ranges[{i}] must have 0 < low <= high, got low {low}, high {high}")
        es["ranges"] = [(low, high, _integer(count, f"es.ranges[{i}][2]", low=1))
                        for i, (low, high, count) in enumerate(rows.tolist())]
    return es


def _flag(section: dict, path: str) -> bool:
    """The boolean at dotted path ``path``, whose last key is in ``section``; false if absent."""
    value = section.get(path.rsplit(".", 1)[-1], False)
    if not isinstance(value, bool):
        raise ScenarioValidationError(f"{path} must be true or false, got {value!r}")
    return value


def build_scenario(config: dict, name: str | None = None) -> Scenario:
    """Validated Scenario from a parsed scenario-file dictionary."""
    name = name or config.get("name", "scenario")
    dyn_cfg = _section(config, "dynamics")
    kind = dyn_cfg.get("kind", "linear")
    if kind != "linear":
        raise ScenarioValidationError(
            f"dynamics.kind must be 'linear' in a scenario file, got {kind!r}; "
            "general dynamics are constructed through the API"
        )
    a_fn, a_shape, a_const = _matrix_fn(_require(dyn_cfg, "a", "dynamics"), "t", "dynamics.a")
    b_fn, b_shape, b_const = _matrix_fn(_require(dyn_cfg, "b", "dynamics"), "t", "dynamics.b")
    if a_shape[0] != a_shape[1]:
        raise ScenarioValidationError(f"A (dynamics.a) must be square, got {a_shape}")
    if b_shape[0] != a_shape[0]:
        raise ScenarioValidationError(
            f"B rows ({b_shape[0]}, dynamics.b) must match the state dimension "
            f"({a_shape[0]}, dynamics.a)"
        )
    if a_const and b_const:
        dynamics = LinearDynamics.constant(a_fn(0.0), b_fn(0.0))
    else:
        dynamics = LinearDynamics(a_fn=a_fn, b_fn=b_fn,
                                  state_dim=a_shape[0], control_dim=b_shape[1])

    cost_cfg = _section(config, "cost")
    c = np.atleast_2d(_float_array(cost_cfg.get("c", np.eye(a_shape[0]).tolist()), "cost.c"))
    p, q, r = (np.atleast_2d(_float_array(_require(cost_cfg, key, "cost"), f"cost.{key}"))
               for key in "pqr")
    n_out = c.shape[0]
    for key, matrix, shape in (("c", c, (n_out, a_shape[0])), ("p", p, (n_out, n_out)),
                               ("q", q, (n_out, n_out)), ("r", r, (b_shape[1],) * 2)):
        if matrix.shape != shape:  # one column of C per state, R per control
            raise ScenarioValidationError(f"cost.{key} must be {shape[0]}x{shape[1]} to fit "
                                          f"A, B and C, got shape {matrix.shape}")
    cost = QuadraticCost(
        c_matrix=c, p_matrix=p, q_matrix=q, r_matrix=r,
        reference=_reference_fn(cost_cfg.get("reference")),
        terminal_indefinite_ok=_flag(cost_cfg, "cost.allow_indefinite_terminal"),
    )

    grid_cfg = _section(config, "grid")
    t_start = _number(grid_cfg.get("t_start", 0.0), "grid.t_start")
    t_end = _number(_require(grid_cfg, "t_end", "grid"), "grid.t_end")
    if not t_end > t_start:
        raise ScenarioValidationError(
            f"grid.t_end must exceed grid.t_start, got [{t_start}, {t_end}]")
    grid = TimeGrid(t_start=t_start, t_end=t_end,
                    n_steps=_integer(grid_cfg.get("n_steps", 1000), "grid.n_steps", low=2))

    basis_cfg = _section(config, "basis")
    extension = _number(basis_cfg.get("extension", 0.1 * grid.span), "basis.extension")
    if extension < 0:
        raise ScenarioValidationError(f"basis.extension must be >= 0, got {extension}")
    basis = FourierPairsBasis(m=_integer(_require(basis_cfg, "m", "basis"), "basis.m", low=1),
                              horizon=grid.span, extension=extension)

    ics_raw = _require(config, "initial_conditions", "scenario")
    if not isinstance(ics_raw, list) or not ics_raw:
        raise ScenarioValidationError(
            f"initial_conditions must be a non-empty list of states, got {ics_raw!r}")
    ics = [np.atleast_1d(_float_array(x, f"initial_conditions[{i}]"))
           for i, x in enumerate(ics_raw)]

    noise_cfg = _section(config, "noise", required=False)
    noise = NoiseModel(std_dev=_number(noise_cfg.get("std_dev", 0.0), "noise.std_dev"),
                       seed=_integer(noise_cfg.get("seed", 0), "noise.seed"))

    es = _es_section(config)
    batch_period = config.get("batch_period")

    return Scenario(
        name=name,
        dynamics=dynamics,
        cost=cost,
        grid=grid,
        basis=basis,
        initial_conditions=ics,
        noise=noise,
        batch_period=None if batch_period is None else _number(batch_period, "batch_period"),
        feedback=_flag(config, "feedback"),
        feedforward=_flag(config, "feedforward"),
        es_defaults=es,
        raw_config=normalize_config(config, name),
    )


def normalize_config(config: dict, name: str | None = None) -> dict:
    """Canonical plain-data form of a scenario config (round-trip stable)."""
    out = json.loads(json.dumps(config))  # deep copy, YAML scalars only
    out["name"] = name or config.get("name", "scenario")
    out.setdefault("noise", {"std_dev": 0.0, "seed": 0})
    out["noise"].setdefault("std_dev", 0.0)
    out["noise"].setdefault("seed", 0)
    out.setdefault("feedback", False)
    out.setdefault("feedforward", False)
    out.setdefault("batch_period", None)
    out["grid"].setdefault("t_start", 0.0)
    out["grid"].setdefault("n_steps", 1000)
    return out


# libyaml's scanner and parser, with PyYAML's own resolvers and safe
# constructors: the same values as yaml.safe_load, about 8x faster
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def parse_yaml(text: str):
    """The plain data of a YAML document, as yaml.safe_load reads it."""
    return yaml.load(text, Loader=_YAML_LOADER)


def read_scenario_config(path) -> dict:
    """The parsed mapping of a scenario file, before overrides and
    validation; ScenarioParseError if it cannot be read or parsed, or is
    not a mapping."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        config = parse_yaml(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = f" (line {mark.line + 1})" if mark is not None else ""
        raise ScenarioParseError(f"{path}{line}: {exc}") from exc
    if not isinstance(config, dict):
        raise ScenarioParseError(f"{path}: scenario file must be a mapping")
    return config


def load_scenario(path, overrides: dict[str, str] | None = None,
                  seed: int | None = None) -> Scenario:
    """Parse and validate a scenario file, after the dotted-path
    ``overrides`` (see apply_overrides) and a replacement noise ``seed``."""
    path = Path(path)
    config = read_scenario_config(path)
    if overrides:
        config = apply_overrides(config, overrides)
    if seed is not None:
        config.setdefault("noise", {})
        _section(config, "noise")["seed"] = int(seed)
    try:
        return build_scenario(config, name=config.get("name", path.stem))
    except ScenarioValidationError as exc:
        raise ScenarioValidationError(f"{path}: {exc}") from exc


def save_scenario(scenario: Scenario, path) -> None:
    if scenario.raw_config is None:
        raise ContractViolationError("scenario was not built from a config; "
                                     "nothing to serialize")
    Path(path).write_text(yaml.safe_dump(scenario.raw_config, sort_keys=True))


def scenarios_dir() -> Path:
    return Path(__file__).parent / "scenarios"


def shipped_scenarios() -> list[Path]:
    return sorted(scenarios_dir().glob("*.scn"))


def apply_overrides(config: dict, overrides: dict[str, str]) -> dict:
    """Apply dotted-path overrides with YAML-parsed values."""
    for dotted, raw_value in overrides.items():
        try:
            value = parse_yaml(raw_value) if isinstance(raw_value, str) else raw_value
        except yaml.YAMLError as exc:
            raise ScenarioParseError(f"override {dotted}: {exc}") from exc
        target = config
        parts = dotted.split(".")
        for part in parts[:-1]:
            if part not in target or not isinstance(target[part], dict):
                target[part] = {}
            target = target[part]
        target[parts[-1]] = value
    return config


# --- experiment orchestration ----------------------------------------------


@dataclass
class ExperimentSpec:
    scenario_path: str
    mode: str | None = None
    n_iterations: int | None = None
    seed: int | None = None
    out_dir: str | None = None
    overrides: dict[str, str] = field(default_factory=dict)


@dataclass
class RunSummary:
    scenario: str
    mode: str
    final_period_averaged_cost: float | None
    oracle_cost: float | None
    relative_gap: float | None
    iterations: int | None
    wall_time_s: float
    seed: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def es_config_for(scenario: Scenario) -> EsConfig:
    """EsConfig of the scenario's ES run from its tuned es section: in open
    loop with ``es.ranges`` and ``es.phases``; a feedback scenario takes
    neither and gets :func:`~escontrol.feedback.gain_dither_assignment`."""
    es = scenario.es_defaults
    missing = [f"es.{key}" for key in ("k", "alpha", "omega0") if key not in es]
    if missing:
        raise ScenarioValidationError(
            f"scenario {scenario.name!r} has no tuned {', '.join(missing)}")
    k, alpha, omega0 = float(es["k"]), float(es["alpha"]), float(es["omega0"])
    if scenario.feedback:
        for key in ("ranges", "phases"):
            if key in es:
                raise ScenarioValidationError(f"es.{key} does not apply to a feedback "
                                              "scenario, whose dither the synthesis assigns")
        if not isinstance(scenario.basis, FourierPairsBasis):
            raise ContractViolationError("gain synthesis requires a fourier-pairs basis")
        freqs, phases = gain_dither_assignment(omega0, scenario.basis.m, scenario.state_dim,
                                               scenario.control_dim, scenario.feedforward)
        delta = es.get("delta")
        return EsConfig(k=k, alpha=alpha, omega0=omega0, frequencies=freqs, phases=phases,
                        delta=default_delta(freqs) if delta is None else delta)
    n_coeffs = scenario.control_dim * scenario.basis.n_functions
    phases, ranges = es.get("phases"), es.get("ranges")
    if phases is not None and not (isinstance(phases, list) and len(phases) == n_coeffs
                                   and all(p in (PHASE_COS, PHASE_SIN) for p in phases)):
        raise ScenarioValidationError(f"es.phases must list one {PHASE_COS!r} or {PHASE_SIN!r} "
                                      f"per coefficient ({n_coeffs}), got {phases!r}")
    if ranges is not None and sum(count for _, _, count in ranges) != n_coeffs:
        raise ScenarioValidationError(f"es.ranges counts must sum to the {n_coeffs} "
                                      f"coefficients, got {ranges!r}")
    return EsConfig.build(k=k, alpha=alpha, omega0=omega0, n_coeffs=n_coeffs,
                          ranges=ranges, delta=es.get("delta"), phases=phases)


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    """Write a CSV file whose rows are pairs (lead, values): a tuple of
    leading int or str cells, then a 1-D float array, every value written
    with ``repr``."""
    float_repr = float.__repr__
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lead, values in rows:
            line = ",".join(map(float_repr, values.tolist()))
            if lead:
                line = ",".join(map(str, lead)) + "," + line
            fh.write(line + "\n")


def write_iterations_csv(path: Path, config: EsConfig, blocks) -> None:
    """Write an ES run's row blocks (see :func:`~escontrol.es.run_es`) as
    they come, one row per iteration: s, t = s*delta, J, J_hat, then the
    coefficients (channel-major, interleaved cos/sin per pair)."""
    header = ["s", "t", "J", "J_hat"] + [f"c_{i:03d}" for i in range(config.n_coeffs)]

    def rows():
        for start, coeffs, costs, measured in blocks:
            times = np.arange(start, start + costs.shape[0]) * config.delta
            block = np.column_stack((times, costs, measured, coeffs))
            for s, values in enumerate(block, start):
                yield (s,), values

    write_csv(path, header, rows())


def _write_trajectories_csv(path: Path, scenario: Scenario, record: EsRunRecord) -> None:
    """First/last-iteration episodes (closed loop from the first initial
    condition when the record is a gain-synthesis run)."""
    from .feedback import gain_field, run_feedback_episode

    taus = scenario.grid.nodes()
    header = (["phase", "s", "tau"]
              + [f"x_{i}" for i in range(scenario.state_dim)]
              + [f"u_{i}" for i in range(scenario.control_dim)])

    def episode_rows(phase: str, s: int, flat: np.ndarray):
        t = scenario.slow_time_for(s, record.config.delta)
        if scenario.feedback:
            res = run_feedback_episode(scenario, gain_field(scenario, flat),
                                       scenario.initial_conditions[0], slow_time=t)
        else:
            coeffs = ControllerCoefficients.from_flat(flat, scenario.control_dim)
            res = run_episode(scenario, coeffs, slow_time=t, noise_index=s)
        for values in np.column_stack((taus, res.trajectory.states, res.controls)):
            yield (phase, s), values

    def rows():
        yield from episode_rows("first", 0, record.coefficients[0])
        yield from episode_rows("last", record.n_iterations, record.coefficients[-1])

    write_csv(path, header, rows())


def _write_oracle_csv(path: Path, scenario: Scenario, riccati) -> None:
    taus = scenario.grid.nodes()
    p, n = riccati.gains.shape[1], riccati.gains.shape[2]
    header = (["tau"]
              + [f"k_{l + 1}_{q + 1}" for l in range(p) for q in range(n)]
              + [f"v_{i + 1}" for i in range(n)])

    data = np.column_stack((taus, riccati.gains.reshape(taus.shape[0], -1),
                            riccati.feedforward))
    write_csv(path, header, (((), row) for row in data))


def _write_gains_csv(path: Path, scenario: Scenario, field_: GainField,
                     riccati) -> None:
    taus = scenario.grid.nodes()
    phi = scenario.basis_matrix_stages()[:scenario.grid.n_steps + 1]
    k_samples = field_.gain_samples(phi)
    p, n = field_.control_dim, field_.state_dim
    header = ["tau"] + [f"k_{l + 1}_{q + 1}" for l in range(p) for q in range(n)]
    blocks = [k_samples.reshape(taus.shape[0], -1)]
    if field_.has_feedforward:
        header += [f"v_{l + 1}" for l in range(p)]
        blocks.append(field_.feedforward_samples(phi))
    if riccati is not None:
        header += [f"oracle_k_{l + 1}_{q + 1}" for l in range(p) for q in range(n)]
        blocks.append(riccati.gains.reshape(taus.shape[0], -1))
        if field_.has_feedforward:
            header += [f"oracle_v_{l + 1}" for l in range(p)]
            blocks.append(np.einsum("ij,kj->ki", riccati.rinv_bt, riccati.feedforward))
    data = np.hstack([taus[:, None]] + blocks)
    write_csv(path, header, (((), row) for row in data))


def output_dir(spec: ExperimentSpec, scenario_name: str, mode: str) -> Path:
    """The spec's out_dir, else $ESCONTROL_OUTPUT_DIR/<scenario>-<mode>
    (./runs/<scenario>-<mode> without the variable)."""
    if spec.out_dir:
        return Path(spec.out_dir)
    return Path(os.environ.get(OUTPUT_DIR_ENV, "runs")) / f"{scenario_name}-{mode}"


def _oracle_info(scenario: Scenario, slow_time: float):
    """(riccati, total J*, per-IC J*) or (None, None, None) when no oracle applies."""
    if not isinstance(scenario.dynamics, LinearDynamics) or \
            not isinstance(scenario.cost, QuadraticCost):
        return None, None, None
    riccati = scenario_oracle(scenario, slow_time)
    per_ic = oracle_costs(scenario, slow_time, riccati)
    return riccati, float(sum(per_ic)), per_ic


def run_experiment(spec: ExperimentSpec) -> RunSummary:
    """Dispatch one experiment and write its artifact files.

    Artifacts: iterations.csv (ES modes; written while the run goes, so a
    failing run leaves the rows before the failing iteration),
    trajectory.csv (open-loop modes), gains.csv (feedback mode), oracle.csv
    (oracle/compare modes) and summary.json always. An EsControlError raised once the scenario is
    built carries ``out_dir``, the experiment's resolved output directory.
    """
    started = time.perf_counter()
    path = Path(spec.scenario_path)
    scenario = load_scenario(path, spec.overrides, spec.seed)
    mode = spec.mode or ("feedback-es" if scenario.feedback else "open-loop-es")
    try:
        return _run_mode(spec, path, scenario, mode, started)
    except EsControlError as exc:
        exc.out_dir = str(output_dir(spec, scenario.name, mode))
        raise


def _run_mode(spec: ExperimentSpec, path: Path, scenario: Scenario, mode: str,
              started: float) -> RunSummary:
    """run_experiment once the scenario is built and the mode resolved."""
    if mode not in MODES:
        raise ContractViolationError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode != "oracle-only" and (mode == "feedback-es") != scenario.feedback:
        raise ContractViolationError(
            f"{mode} mode does not fit {scenario.name!r}: a feedback scenario runs its "
            "gain synthesis (`esctl run`), any other scenario open-loop ES")
    out_dir = output_dir(spec, scenario.name, mode)
    out_dir.mkdir(parents=True, exist_ok=True)

    extras: dict = {}
    j_avg = None
    oracle_total = None

    if mode == "oracle-only":
        riccati, oracle_total, per_ic = _oracle_info(scenario, 0.0)
        if riccati is None:
            raise ContractViolationError(
                "oracle-only mode requires linear dynamics and a quadratic cost"
            )
        _write_oracle_csv(out_dir / "oracle.csv", scenario, riccati)
        extras["oracle_costs_per_initial_condition"] = per_ic
        iterations = None
    else:  # feedback-es / open-loop-es / compare
        stream = partial(write_iterations_csv, out_dir / "iterations.csv")
        config = es_config_for(scenario)
        n_iterations = spec.n_iterations or scenario.es_defaults.get("n_iterations", 1000)
        if mode == "feedback-es":
            field_, record = synthesize_gain(scenario, config, n_iterations,
                                             consume_rows=stream)
        else:
            record = run_es(scenario, config, n_iterations, consume_rows=stream)
        iterations = record.n_iterations
        j_avg = record.period_averaged_cost()
        slow_final = scenario.slow_time_for(iterations, record.config.delta)
        riccati, oracle_total, per_ic = _oracle_info(scenario, slow_final)
        _write_trajectories_csv(out_dir / "trajectory.csv", scenario, record)
        if mode == "feedback-es":
            _write_gains_csv(out_dir / "gains.csv", scenario, field_, riccati)
        elif mode == "compare" and riccati is not None:
            _write_oracle_csv(out_dir / "oracle.csv", scenario, riccati)
        extras["oracle_costs_per_initial_condition"] = per_ic
        extras["es_config"] = record.config.to_dict()

    gap = None
    if j_avg is not None and oracle_total is not None and oracle_total > 0:
        gap = (j_avg - oracle_total) / oracle_total

    summary = RunSummary(
        scenario=scenario.name,
        mode=mode,
        final_period_averaged_cost=j_avg,
        oracle_cost=oracle_total,
        relative_gap=gap,
        iterations=iterations,
        wall_time_s=time.perf_counter() - started,
        seed=scenario.noise.seed,
    )
    payload = summary.to_dict()
    payload["scenario_path"] = str(path)
    payload["coefficient_order"] = (
        "channel-major; within a channel interleaved per pair: "
        "cos_1, sin_1, cos_2, sin_2, ...; feedback mode flattens gain entries "
        "row-major (k_1_1, k_1_2, ..., then feedforward rows)"
    )
    payload.update(extras)
    payload["resolved_scenario"] = scenario.raw_config
    (out_dir / "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    return summary
