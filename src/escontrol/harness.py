"""Scenario loading, experiment orchestration and artifact emission.

Scenario files are YAML; :data:`SCHEMA` lists every key they may hold,
with its converter and default, and README's table mirrors it. Expression
strings are in ``t`` (slow time) or ``tau`` (fast time) over a small
whitelisted namespace (sin, cos, exp, sqrt, pi, ...).

All artifacts are CSV plus one summary.json, whose ``resolved_scenario`` is
the converted mapping the run was built from; float cells are written with
``repr`` (shortest round-trip), so identical runs produce byte-identical
files.
"""
from __future__ import annotations

import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import yaml

from . import es as es_module
from .basis import ControllerCoefficients, FourierPairsBasis
from .errors import (ArtifactWriteError, ContractViolationError, EsControlError,
                     ScenarioError, ScenarioParseError, ScenarioValidationError)
from .es import PHASE_COS, PHASE_SIN, EsConfig, EsRunRecord, default_delta, run_es
from .feedback import GainField, gain_dither_assignment, synthesize_gain
from .lqr import oracle_costs, scenario_oracle
from .ode import TimeGrid
from .scenario import (LinearDynamics, NoiseModel, QuadraticCost, Scenario,
                       episode_measurement, run_episode)

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


def _matrix_fn(value, key: str):
    """(function of slow time, shape, constant?) of the resolved dynamics
    matrix at dotted path ``key`` (see :func:`_matrix`)."""
    if isinstance(value, str):
        f = compile_expression(value, "t", key)
        return (lambda t: np.array([[float(f(t))]])), (1, 1), False
    rows = value if isinstance(value, list) else [[value]]
    shape = (len(rows), len(rows[0]))
    if not any(isinstance(x, str) for r in rows for x in r):
        const = np.array(rows, dtype=float)
        return (lambda t: const), shape, True
    fns = [[compile_expression(x, "t", f"{key}[{i}][{j}]") if isinstance(x, str)
            else (lambda t, v=x: v) for j, x in enumerate(r)] for i, r in enumerate(rows)]

    def fn(t):
        return np.array([[float(f(t)) for f in row] for row in fns])

    return fn, shape, False


def _reference_fn(value):
    """Reference r(tau) of a resolved cost.reference (see :func:`_reference`)."""
    if value is None:
        return None
    entries = value if isinstance(value, list) else [value]
    fns = [compile_expression(x, "tau", "cost.reference") if isinstance(x, str)
           else (lambda tau, v=x: v) for x in entries]

    def fn(tau):
        return np.array([f(tau) for f in fns], dtype=float)

    return fn


# --- scenario schema: a converter takes (value, dotted key) and returns the
# value the run uses, as plain data, or raises ScenarioValidationError naming the key


def _checked(accept: Callable[[object], bool], what: str):
    """The converter that keeps a value ``accept`` takes."""
    def convert(value, key: str):
        if not accept(value):
            raise ScenarioValidationError(f"{key} must be {what}, got {value!r}")
        return value

    return convert


_text = _checked(lambda v: isinstance(v, str) and v != "", "a non-empty string")
# a name is one component of the default output directory's path
_name = _checked(lambda v: isinstance(v, str) and v not in ("", ".", "..")
                 and not any(sep in v for sep in "/\\"),
                 "one path component: a non-empty string without '/' or '\\', "
                 "other than '.' and '..'")
_boolean = _checked(lambda v: isinstance(v, bool), "true or false")
_states = _checked(lambda v: isinstance(v, list), "a list of states")


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


def _number(value, key: str, low: float = -math.inf, strict: bool = False) -> float:
    """The finite scenario number at dotted path ``key``, as a float: an int,
    a float, or a string in float syntax (YAML 1.1 reads ``1e3`` as one);
    at least ``low``, and above it if ``strict``."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if math.isfinite(number) and (number > low or number == low and not strict):
            return number
    bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"
    raise ScenarioValidationError(f"{key} must be a finite number{bound}, got {value!r}")


def _numbers(value, key: str):
    """A number or a rectangular nested list of numbers, each read as
    :func:`_number` reads it, as floats of the same shape."""
    def numbers(item, path):
        if isinstance(item, list):
            return [numbers(x, f"{path}[{i}]") for i, x in enumerate(item)]
        return _number(item, path)

    nested = numbers(value, key)
    try:
        size = np.array(nested, dtype=float).size
    except ValueError as exc:  # ragged nesting
        raise ScenarioValidationError(f"{key} rows have inconsistent lengths") from exc
    if size == 0:
        raise ScenarioValidationError(f"{key} must not be empty")
    return nested


def _matrix(value, key: str):
    """A dynamics matrix: a number, an expression string in ``t`` (compiled
    when the scenario is built) or a rectangular nested list of both."""
    if not isinstance(value, list):
        return value if isinstance(value, str) else _number(value, key)
    if not (value and all(isinstance(r, list) and r and len(r) == len(value[0])
                          for r in value)):
        raise ScenarioValidationError(f"{key} must be a number, an expression string or a "
                                      f"rectangular nested list, got {value!r}")
    return [[x if isinstance(x, str) else _number(x, f"{key}[{i}][{j}]")
             for j, x in enumerate(r)] for i, r in enumerate(value)]


def _reference(value, key: str):
    """An expression string in ``tau`` or a number, or a list of them (one per output)."""
    if not isinstance(value, list):
        return value if isinstance(value, str) else _number(value, key)
    return [x if isinstance(x, str) else _number(x, f"{key}[{i}]") for i, x in enumerate(value)]


def _ranges(value, key: str) -> list:
    """Schedule bands: [low, high, count] triples, 0 < low <= high, count >= 1."""
    rows = _numbers(value, key)
    if not (isinstance(rows, list) and all(isinstance(r, list) and len(r) == 3 for r in rows)):
        raise ScenarioValidationError(
            f"{key} must be a list of [low, high, count] triples, got {value!r}")
    for i, row in enumerate(rows):
        if not 0 < row[0] <= row[1]:
            raise ScenarioValidationError(
                f"{key}[{i}] must have 0 < low <= high, got low {row[0]}, high {row[1]}")
        row[2] = _integer(row[2], f"{key}[{i}][2]", low=1)
    return rows


REQUIRED = "required"
_POSITIVE = partial(_number, low=0.0, strict=True)
_NON_NEGATIVE = partial(_number, low=0.0)

# Every key a scenario may hold, in resolution order: (dotted key,
# converter, default). A default is a value, REQUIRED, or a function of the
# mapping resolved so far; a key given as null takes its default. Checks
# across keys (shapes, the grid's order, the ES set-up) follow in
# build_scenario and es_config_for.
SCHEMA = (
    ("name", _name, REQUIRED),  # load_scenario gives it the file stem
    ("description", _text, None),
    ("dynamics.kind", _checked(lambda v: v == "linear", "'linear' in a scenario file "
                               "(general dynamics are built through the API)"), "linear"),
    ("dynamics.a", _matrix, REQUIRED),
    ("dynamics.b", _matrix, REQUIRED),
    ("cost.c", _numbers,  # C = I: every state is an output
     lambda done: np.eye(len(np.atleast_2d(done["dynamics"]["a"]))).tolist()),
    ("cost.p", _numbers, REQUIRED),
    ("cost.q", _numbers, REQUIRED),
    ("cost.r", _numbers, REQUIRED),
    ("cost.reference", _reference, None),
    ("cost.allow_indefinite_terminal", _boolean, False),
    ("grid.t_start", _number, 0.0),
    ("grid.t_end", _number, REQUIRED),
    ("grid.n_steps", partial(_integer, low=2), 1000),
    ("basis.m", partial(_integer, low=1), REQUIRED),
    ("basis.extension", _NON_NEGATIVE,
     lambda done: 0.1 * (done["grid"]["t_end"] - done["grid"]["t_start"])),
    ("initial_conditions", lambda v, key: _numbers(_states(v, key), key), REQUIRED),
    ("noise.std_dev", _number, 0.0),
    ("noise.seed", _integer, 0),
    ("batch_period", _number, None),
    ("feedback", _boolean, False),
    ("feedforward", _boolean, False),
    ("es.k", _POSITIVE, None),  # the ES modes need k, alpha and omega0
    ("es.alpha", _POSITIVE, None),
    ("es.omega0", _POSITIVE, None),
    ("es.delta", _NON_NEGATIVE, None),
    ("es.n_iterations", partial(_integer, low=1), 1000),
    ("es.ranges", _ranges, None),
    ("es.phases", _checked(lambda v: isinstance(v, list) and all(
        p in (PHASE_COS, PHASE_SIN) for p in v), f"a list of {PHASE_COS!r} and {PHASE_SIN!r}"),
     None),
)


def resolve_scenario_config(config: dict) -> dict:
    """The mapping a scenario is built from: every key of :data:`SCHEMA`,
    converted, or given its default when absent. ScenarioValidationError
    names a key that is malformed, missing or not in the schema."""
    resolved: dict = {}
    for path, convert, default in SCHEMA:
        section, _, key = path.rpartition(".")
        source, target = config, resolved
        if section:
            source = config.get(section)
            if source is None:  # a null section is an empty one
                source = {}
            elif not isinstance(source, dict):
                raise ScenarioValidationError(f"{section} must be a mapping, got {source!r}")
            target = resolved.setdefault(section, {})
        value = source.get(key)
        if value is not None:
            value = convert(value, path)
        elif default is REQUIRED:
            raise ScenarioValidationError(f"{path} is required")
        else:
            value = default(resolved) if callable(default) else default
        target[key] = value
    unknown = [name for name in config if name not in resolved] + [
        f"{name}.{key}" for name, keys in config.items() if isinstance(resolved.get(name), dict)
        for key in keys or () if key not in resolved[name]]
    if unknown:
        raise ScenarioValidationError(f"not a scenario key: {', '.join(map(str, unknown))}")
    return resolved


def build_scenario(config: dict) -> Scenario:
    """Validated Scenario from a parsed scenario-file mapping, built from
    its resolved form (see :func:`resolve_scenario_config`), which becomes
    the scenario's ``raw_config``."""
    config = resolve_scenario_config(config)
    a_fn, a_shape, a_const = _matrix_fn(config["dynamics"]["a"], "dynamics.a")
    b_fn, b_shape, b_const = _matrix_fn(config["dynamics"]["b"], "dynamics.b")
    if a_shape[0] != a_shape[1]:
        raise ScenarioValidationError(f"A (dynamics.a) must be square, got {a_shape}")
    if b_shape[0] != a_shape[0]:
        raise ScenarioValidationError(f"B rows ({b_shape[0]}, dynamics.b) must match the state "
                                      f"dimension ({a_shape[0]}, dynamics.a)")
    if a_const and b_const:
        dynamics = LinearDynamics.constant(a_fn(0.0), b_fn(0.0))
    else:
        dynamics = LinearDynamics(a_fn=a_fn, b_fn=b_fn,
                                  state_dim=a_shape[0], control_dim=b_shape[1])

    c, p, q, r = (np.atleast_2d(np.array(config["cost"][key], dtype=float)) for key in "cpqr")
    n_out = c.shape[0]
    for key, matrix, shape in (("c", c, (n_out, a_shape[0])), ("p", p, (n_out, n_out)),
                               ("q", q, (n_out, n_out)), ("r", r, (b_shape[1],) * 2)):
        if matrix.shape != shape:  # one column of C per state, R per control
            raise ScenarioValidationError(f"cost.{key} must be {shape[0]}x{shape[1]} to fit "
                                          f"A, B and C, got shape {matrix.shape}")
    reference = config["cost"]["reference"]
    if reference is not None and len(np.atleast_1d(reference)) != n_out:
        raise ScenarioValidationError(f"cost.reference must list one entry per output "
                                      f"({n_out}), got {reference!r}")
    cost = QuadraticCost(c_matrix=c, p_matrix=p, q_matrix=q, r_matrix=r,
                         reference=_reference_fn(reference),
                         terminal_indefinite_ok=config["cost"]["allow_indefinite_terminal"])
    grid_cfg = config["grid"]
    if not grid_cfg["t_end"] > grid_cfg["t_start"]:
        raise ScenarioValidationError("grid.t_end must exceed grid.t_start, got "
                                      f"[{grid_cfg['t_start']}, {grid_cfg['t_end']}]")
    grid = TimeGrid(**grid_cfg)
    return Scenario(
        name=config["name"], dynamics=dynamics, cost=cost, grid=grid,
        basis=FourierPairsBasis(horizon=grid.span, **config["basis"]),
        initial_conditions=[np.atleast_1d(np.array(x, dtype=float))
                            for x in config["initial_conditions"]],
        noise=NoiseModel(**config["noise"]), batch_period=config["batch_period"],
        feedback=config["feedback"], feedforward=config["feedforward"],
        es_defaults=config["es"], raw_config=config)


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
    ``overrides`` (see apply_overrides) and a replacement noise ``seed``.
    Its name defaults to the file stem. A ScenarioError names the file."""
    path = Path(path)
    config = read_scenario_config(path)
    try:
        apply_overrides(config, overrides or {})
        if seed is not None:
            apply_overrides(config, {"noise.seed": int(seed)})
        if config.get("name") is None:
            config["name"] = path.stem
        return build_scenario(config)
    except ScenarioError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def scenarios_dir() -> Path:
    return Path(__file__).parent / "scenarios"


def shipped_scenarios() -> list[Path]:
    return sorted(scenarios_dir().glob("*.scn"))


def apply_overrides(config: dict, overrides: dict) -> dict:
    """Apply dotted-path overrides; a string value is parsed as YAML."""
    for dotted, raw_value in overrides.items():
        try:
            value = parse_yaml(raw_value) if isinstance(raw_value, str) else raw_value
        except yaml.YAMLError as exc:
            raise ScenarioParseError(f"override {dotted}: {exc}") from exc
        *sections, key = dotted.split(".")
        target = config
        for depth, section in enumerate(sections, 1):
            if target.get(section) is None:
                target[section] = {}
            target = target[section]
            if not isinstance(target, dict):
                raise ScenarioValidationError(
                    f"{'.'.join(sections[:depth])} must be a mapping, got {target!r}")
        target[key] = value
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
    missing = [f"es.{key}" for key in ("k", "alpha", "omega0") if es.get(key) is None]
    if missing:
        raise ScenarioValidationError(
            f"scenario {scenario.name!r} has no tuned {', '.join(missing)}")
    k, alpha, omega0 = es["k"], es["alpha"], es["omega0"]
    if scenario.feedback:
        for key in ("ranges", "phases"):
            if es.get(key) is not None:
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
    if phases is not None and len(phases) != n_coeffs:
        raise ScenarioValidationError(f"es.phases must list one phase per coefficient "
                                      f"({n_coeffs}), got {phases!r}")
    if ranges is not None and sum(count for _, _, count in ranges) != n_coeffs:
        raise ScenarioValidationError(f"es.ranges counts must sum to the {n_coeffs} "
                                      f"coefficients, got {ranges!r}")
    return EsConfig.build(k=k, alpha=alpha, omega0=omega0, n_coeffs=n_coeffs,
                          ranges=ranges, delta=es.get("delta"), phases=phases)


@contextmanager
def _open_artifact(path: Path):
    """The artifact file at ``path``, open for writing; an OSError while it
    is open becomes an ArtifactWriteError that names the file."""
    try:
        with open(path, "w", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise ArtifactWriteError(f"cannot write {path}: {exc}") from exc


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    """Write a CSV file whose rows are pairs (lead, values): a tuple of
    leading int or str cells, then a 1-D float array, every value written
    with ``repr``."""
    float_repr = float.__repr__
    with _open_artifact(path) as fh:
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


def _write_iterations_csv_beside(path: Path, config: EsConfig, blocks) -> None:
    """:func:`write_iterations_csv` in one writer process beside the ES loop,
    which goes on measuring while the writer formats the rows on another core.

    The writer is forked (the ``fork`` start method, so Linux only) when
    the first block arrives, and each block goes to it over a one-way pipe
    as its raw float64 buffers. A ``spawn`` writer would import numpy again
    while the loop waits; the fork happens between episodes, with no BLAS
    call in flight, and the writer makes none. It is joined before this returns or raises,
    so a run that fails at iteration s leaves rows 0 .. s-1 on disk. If the
    writer fails, ArtifactWriteError carries its exception text.
    """
    writer = None
    try:
        for start, coeffs, costs, measured in blocks:
            if writer is None:
                # imported once the loop runs: multiprocessing.connection takes
                # about 12 ms to import, a run's set-up would pay it
                import multiprocessing

                context = multiprocessing.get_context("fork")
                rows_in, rows_out = context.Pipe(duplex=False)
                failure_in, failure_out = context.Pipe(duplex=False)
                process = context.Process(
                    target=_write_received_rows, daemon=True,
                    args=(path, config, rows_in, rows_out, failure_out))
                process.start()
                writer = process
                rows_in.close()
                failure_out.close()
            rows_out.send(start)
            for array in (coeffs, costs, measured):
                rows_out.send_bytes(array)
    except BrokenPipeError:
        pass  # the writer has stopped: its failure is raised below
    finally:
        if writer is None:  # the run stopped before its first block: the header, as inline
            write_iterations_csv(path, config, ())
        else:
            rows_out.close()
            writer.join()
    if writer is not None and writer.exitcode != 0:
        try:
            text = failure_in.recv()
        except EOFError:
            text = f"cannot write {path}: the writer process exited with code {writer.exitcode}"
        raise ArtifactWriteError(text)


def _write_received_rows(path: Path, config: EsConfig, rows_in, rows_out, failure_out) -> None:
    """The writer process of :func:`_write_iterations_csv_beside`: writes the
    blocks it receives until the parent closes its end of the pipe."""
    rows_out.close()  # this inherited copy of the parent's end would keep the pipe from EOF

    def blocks():
        while True:
            try:
                start = rows_in.recv()
            except EOFError:
                return
            coeffs, costs, measured = (np.frombuffer(rows_in.recv_bytes()) for _ in range(3))
            yield start, coeffs.reshape(-1, config.n_coeffs), costs, measured

    try:
        write_iterations_csv(path, config, blocks())
    except Exception as exc:
        failure_out.send(str(exc) if isinstance(exc, ArtifactWriteError)
                         else f"cannot write {path}: {exc!r}")
        sys.exit(1)


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


def run_experiment(spec: ExperimentSpec) -> RunSummary:
    """Dispatch one experiment and write its artifact files.

    Artifacts: iterations.csv (ES modes; written while the run goes, by a
    writer process beside the loop when the rows span more than one block
    of ``es._ROW_BLOCK``, so a failing run leaves the rows before the
    failing iteration),
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

    record = None
    if mode != "oracle-only":
        try:
            config = es_config_for(scenario)
        except ScenarioError as exc:  # named by its file, as load_scenario names its errors
            raise type(exc)(f"{path}: {exc}") from exc
        n_iterations = (scenario.es_defaults["n_iterations"] if spec.n_iterations is None
                        else spec.n_iterations)
        # rows that fit one block arrive only once the loop has ended, so a
        # writer process beside the loop would overlap nothing
        write = (_write_iterations_csv_beside if n_iterations + 1 > es_module._ROW_BLOCK
                 else write_iterations_csv)
        stream = partial(write, out_dir / "iterations.csv")
        if mode == "feedback-es":
            field_, record = synthesize_gain(scenario, config, n_iterations,
                                             consume_rows=stream)
        else:
            record = run_es(episode_measurement(scenario, config.delta), config, n_iterations,
                            consume_rows=stream)
    # the oracle at the slow time the run ended
    slow_time = 0.0 if record is None else scenario.slow_time_for(record.n_iterations,
                                                                  record.config.delta)
    riccati = scenario_oracle(scenario, slow_time)
    per_ic = oracle_costs(scenario, slow_time, riccati)
    oracle_total = float(sum(per_ic))
    if record is not None:
        _write_trajectories_csv(out_dir / "trajectory.csv", scenario, record)
    if mode == "feedback-es":
        _write_gains_csv(out_dir / "gains.csv", scenario, field_, riccati)
    elif mode != "open-loop-es":
        _write_oracle_csv(out_dir / "oracle.csv", scenario, riccati)

    j_avg = None if record is None else record.period_averaged_cost()
    summary = RunSummary(
        scenario=scenario.name,
        mode=mode,
        final_period_averaged_cost=j_avg,
        oracle_cost=oracle_total,
        relative_gap=(None if j_avg is None or oracle_total <= 0
                      else (j_avg - oracle_total) / oracle_total),
        iterations=None if record is None else record.n_iterations,
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
    payload["oracle_costs_per_initial_condition"] = per_ic
    if record is not None:
        payload["es_config"] = record.config.to_dict()
    payload["resolved_scenario"] = scenario.raw_config
    with _open_artifact(out_dir / "summary.json") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
    return summary
