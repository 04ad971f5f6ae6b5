"""Independent references for checking escontrol's outputs.

Nothing here imports escontrol. The scenario file is read with PyYAML and
its expressions are evaluated over numpy; the Riccati optimum comes from a
closed form (scalar plants) or scipy's general-purpose ODE solver (matrix
plants, tracking feedforward); episode costs come from a step-by-step RK4
loop and the trapezoid rule written out here.

Conventions follow the scenario-file format documented in the project
README: the half-quadratic cost
``1/2 e(T)'P e(T) + 1/2 int e'Qe + 1/2 int u'Ru`` with ``e = Cx - r``, the
interleaved Fourier-pairs basis ``cos(w_j tau), sin(w_j tau)`` with
``w_j = 2 pi j / (T + extension)``, feedback controls ``u = -K(tau) x + V(tau)``
and the ES update law
``a(s+1) = a(s) + delta sqrt(alpha w) cos|sin(w s delta + k J_hat(s))``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml
from scipy.integrate import solve_ivp

_NAMESPACE = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "sqrt": np.sqrt, "log": np.log, "tanh": np.tanh, "abs": np.abs,
    "pi": np.pi, "e": np.e,
}


def _expression(value, var: str):
    """Function of one variable for a number or an expression string."""
    if isinstance(value, str):
        code = compile(value, f"<{var}>", "eval")
        return lambda x: eval(code, {"__builtins__": {}}, {**_NAMESPACE, var: x})
    const = float(value)
    return lambda x: const + 0.0 * np.asarray(x, dtype=float)


def _matrix(value, var: str):
    """Function of one variable returning a 2-D array, for a scenario matrix entry."""
    rows = value if isinstance(value, list) else [[value]]
    if rows and not isinstance(rows[0], list):
        rows = [rows]
    fns = [[_expression(x, var) for x in row] for row in rows]

    def fn(x):
        return np.array([[float(f(x)) for f in row] for row in fns])

    return fn


@dataclass(frozen=True)
class Problem:
    """A scenario file as the reference code reads it."""

    name: str
    a_fn: object            # slow time -> (n, n)
    b_fn: object            # slow time -> (n, p)
    a_expr: object          # scalar plants: vectorized a(t); else None
    b_expr: object
    c: np.ndarray
    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    reference: object       # tau -> (output_dim,) array, or None
    t_start: float
    t_end: float
    n_steps: int
    m: int
    extension: float
    initial_conditions: np.ndarray   # (n_ic, n)
    noise_std: float
    batch_period: float | None
    feedback: bool
    feedforward: bool

    @property
    def state_dim(self) -> int:
        return self.initial_conditions.shape[1]

    @property
    def scalar(self) -> bool:
        return self.a_expr is not None

    def slow_time(self, steps: np.ndarray, delta: float) -> np.ndarray:
        steps = np.asarray(steps, dtype=float)
        return steps * (self.batch_period if self.batch_period is not None else delta)


def load_problem(path) -> Problem:
    cfg = yaml.safe_load(Path(path).read_text())
    dyn, cost, grid, basis = cfg["dynamics"], cfg["cost"], cfg["grid"], cfg["basis"]
    ics = np.array([np.atleast_1d(np.asarray(x, dtype=float)) for x in
                    cfg["initial_conditions"]])
    n = ics.shape[1]
    scalar_entry = n == 1 and not isinstance(dyn["a"], list) and \
        not isinstance(dyn["b"], list)
    ref = cost.get("reference")
    ref_fn = None
    if ref is not None:
        ref_fns = [_expression(x, "tau") for x in (ref if isinstance(ref, list) else [ref])]
        ref_fn = lambda tau: np.array([float(f(tau)) for f in ref_fns])  # noqa: E731
    t_start = float(grid.get("t_start", 0.0))
    t_end = float(grid["t_end"])
    noise = cfg.get("noise") or {}
    return Problem(
        name=cfg.get("name", Path(path).stem),
        a_fn=_matrix(dyn["a"], "t"),
        b_fn=_matrix(dyn["b"], "t"),
        a_expr=_expression(dyn["a"], "t") if scalar_entry else None,
        b_expr=_expression(dyn["b"], "t") if scalar_entry else None,
        c=np.atleast_2d(np.asarray(cost.get("c", np.eye(n).tolist()), dtype=float)),
        p=np.atleast_2d(np.asarray(cost["p"], dtype=float)),
        q=np.atleast_2d(np.asarray(cost["q"], dtype=float)),
        r=np.atleast_2d(np.asarray(cost["r"], dtype=float)),
        reference=ref_fn,
        t_start=t_start,
        t_end=t_end,
        n_steps=int(grid.get("n_steps", 1000)),
        m=int(basis["m"]),
        extension=float(basis.get("extension", 0.1 * (t_end - t_start))),
        initial_conditions=ics,
        noise_std=float(noise.get("std_dev", 0.0)),
        batch_period=(float(cfg["batch_period"])
                      if cfg.get("batch_period") is not None else None),
        feedback=bool(cfg.get("feedback", False)),
        feedforward=bool(cfg.get("feedforward", False)),
    )


# --- Riccati optimum ---------------------------------------------------------


def scalar_riccati(a, b, c, p, q, r, sigma):
    """Closed-form S at time-to-go ``sigma`` for a scalar plant; broadcasts.

    dS/dsigma = c^2 q + 2 a S - (b^2 / r) S^2, S(0) = c^2 p, written through
    the two roots S+ > 0 > S- of the right-hand side.
    """
    a, b, sigma = (np.asarray(x, dtype=float) for x in (a, b, sigma))
    m = b * b / r
    qt = c * c * q
    st = c * c * p
    beta = np.sqrt(a * a + m * qt)
    s_plus = (a + beta) / m
    s_minus = (a - beta) / m
    decay = np.exp(-2.0 * beta * sigma)
    return ((s_plus * (st - s_minus) - s_minus * (st - s_plus) * decay)
            / ((st - s_minus) - (st - s_plus) * decay))


def riccati(prob: Problem, slow_time: float):
    """Riccati solution with the plant frozen at ``slow_time``.

    Returns ``(j_star, law)``: J* per initial condition, and the optimal law
    as a function of tau giving ``(K, v)`` with ``u = -K x + v``. J* is
    ``1/2 x0'S x0 - p'x0 + w`` at the horizon start, where p is the tracking
    costate and w the reference's own cost to go (both zero without a
    reference). S is in closed form for scalar plants; everything else
    comes from the ODE solver, with dense output for the law.
    """
    x0s = prob.initial_conditions
    a, b = prob.a_fn(slow_time), prob.b_fn(slow_time)
    n = a.shape[0]
    c, q = prob.c, prob.q
    rinv_bt = np.linalg.solve(prob.r, b.T)
    m = b @ rinv_bt
    ctqc = c.T @ q @ c
    span = prob.t_end - prob.t_start
    if prob.scalar:
        args = (a[0, 0], b[0, 0], c[0, 0], prob.p[0, 0], q[0, 0], prob.r[0, 0])

        def s_of(tau):
            return np.array([[float(scalar_riccati(*args, prob.t_end - tau))]])

        if prob.reference is None:
            j_star = 0.5 * float(scalar_riccati(*args, span)) * x0s[:, 0] ** 2
            return j_star, lambda tau: (rinv_bt @ s_of(tau), np.zeros(b.shape[1]))
    else:
        s_of = None
    tracking = prob.reference is not None

    def rhs(tau, y):
        if s_of is None:
            s = y[:n * n].reshape(n, n)
            ds = -(a.T @ s + s @ a - s @ m @ s + ctqc).ravel()
        else:
            s = s_of(tau)
            ds = np.zeros(0)
        if not tracking:
            return ds
        costate = y[-n - 1:-1]
        r_tau = prob.reference(tau)
        dp = -((a - m @ s).T @ costate + c.T @ q @ r_tau)
        dw = -(0.5 * r_tau @ q @ r_tau - 0.5 * costate @ m @ costate)
        return np.concatenate([ds, dp, [dw]])

    y_end = [] if s_of else [(c.T @ prob.p @ c).ravel()]
    if tracking:
        r_end = prob.reference(prob.t_end)
        y_end += [c.T @ prob.p @ r_end, [0.5 * r_end @ prob.p @ r_end]]
    sol = solve_ivp(rhs, (prob.t_end, prob.t_start), np.concatenate(y_end),
                    method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"reference Riccati solve failed: {sol.message}")

    def law(tau):
        y = sol.sol(tau)
        s = s_of(tau) if s_of else y[:n * n].reshape(n, n)
        v = rinv_bt @ y[-n - 1:-1] if tracking else np.zeros(b.shape[1])
        return rinv_bt @ (0.5 * (s + s.T)), v

    y0 = sol.y[:, -1]
    s0 = s_of(prob.t_start) if s_of else y0[:n * n].reshape(n, n)
    j_star = 0.5 * np.einsum("ki,ij,kj->k", x0s, s0, x0s)
    if tracking:
        j_star = j_star - x0s @ y0[-n - 1:-1] + y0[-1]
    return j_star, law


def scalar_regulator_optimum(prob: Problem, slow_times: np.ndarray) -> np.ndarray:
    """Total J* at every slow time at once (scalar plant, no reference)."""
    if not prob.scalar or prob.reference is not None:
        raise ValueError("vectorized optimum needs a scalar regulating plant")
    s0 = scalar_riccati(prob.a_expr(slow_times), prob.b_expr(slow_times),
                        prob.c[0, 0], prob.p[0, 0], prob.q[0, 0], prob.r[0, 0],
                        prob.t_end - prob.t_start)
    return 0.5 * s0 * float(np.sum(prob.initial_conditions[:, 0] ** 2))


# --- episode cost by step-by-step RK4 and the trapezoid rule -----------------


def basis_row(prob: Problem, tau: float) -> np.ndarray:
    j = np.arange(1, prob.m + 1)
    ang = 2.0 * math.pi * j * tau / (prob.t_end - prob.t_start + prob.extension)
    out = np.empty(2 * prob.m)
    out[0::2] = np.cos(ang)
    out[1::2] = np.sin(ang)
    return out


def coefficient_law(prob: Problem, flat: np.ndarray):
    """Control law of one row of coefficients: tau -> (K, v), u = -K x + v."""
    nu = prob.b_fn(0.0).shape[1]
    n, nf = prob.state_dim, 2 * prob.m
    flat = np.asarray(flat, dtype=float)
    if prob.feedback:
        gains = flat[:nu * n * nf].reshape(nu, n, nf)
        ff = flat[nu * n * nf:].reshape(nu, nf) if prob.feedforward else np.zeros((nu, nf))
        return lambda tau: (gains @ basis_row(prob, tau), ff @ basis_row(prob, tau))
    coeffs = flat.reshape(nu, nf)
    return lambda tau: (np.zeros((nu, n)), coeffs @ basis_row(prob, tau))


def grid_cost(prob: Problem, law, slow_time: float) -> np.ndarray:
    """J per initial condition under ``law``, by step-by-step RK4 on the
    scenario grid and the trapezoid rule over its nodes."""
    a, b = prob.a_fn(slow_time), prob.b_fn(slow_time)

    def f(tau, x):
        k, v = law(tau)
        return a @ x + b @ (v - k @ x)

    h = (prob.t_end - prob.t_start) / prob.n_steps
    out = []
    for x0 in prob.initial_conditions:
        x = x0.copy()
        running = np.empty(prob.n_steps + 1)
        for step in range(prob.n_steps + 1):
            tau = prob.t_start + step * h
            k, v = law(tau)
            u = v - k @ x
            e = prob.c @ x - (prob.reference(tau) if prob.reference else 0.0)
            running[step] = 0.5 * (e @ prob.q @ e + u @ prob.r @ u)
            if step == prob.n_steps:
                break
            k1 = f(tau, x)
            k2 = f(tau + 0.5 * h, x + 0.5 * h * k1)
            k3 = f(tau + 0.5 * h, x + 0.5 * h * k2)
            k4 = f(tau + h, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        terminal = 0.5 * float(e @ prob.p @ e)
        out.append(terminal + h * (running.sum() - 0.5 * (running[0] + running[-1])))
    return np.array(out)


def episode_cost(prob: Problem, flat: np.ndarray, slow_time: float) -> float:
    """Noise-free J of one row of coefficients, summed over initial conditions."""
    return float(grid_cost(prob, coefficient_law(prob, flat), slow_time).sum())


# --- the ES update law --------------------------------------------------------


def es_replay(coefficients: np.ndarray, measured: np.ndarray, es_config: dict) -> np.ndarray:
    """Rows 1.. predicted from rows 0..-1 and J_hat by the update law."""
    freqs = np.asarray(es_config["frequencies"], dtype=float)
    cos = np.array([ph == "cos" for ph in es_config["phases"]])
    delta, k, alpha = (float(es_config[x]) for x in ("delta", "k", "alpha"))
    steps = np.arange(coefficients.shape[0] - 1, dtype=float)
    theta = freqs[None, :] * (steps[:, None] * delta) + k * measured[:-1, None]
    osc = np.where(cos[None, :], np.cos(theta), np.sin(theta))
    return coefficients[:-1] + (delta * np.sqrt(alpha * freqs))[None, :] * osc


def slowest_period(es_config: dict) -> int:
    freqs = np.asarray(es_config["frequencies"], dtype=float)
    return int(math.ceil(2.0 * math.pi / (float(es_config["delta"]) * float(freqs.min()))))


def first_within_gap(costs: np.ndarray, optimum: np.ndarray, period: int,
                     gap: float) -> int | None:
    """Episodes used when the trailing ``period``-episode mean of J first comes
    within ``gap`` (relative) of the optimum at that episode; None if never."""
    optimum = np.broadcast_to(np.asarray(optimum, dtype=float), costs.shape)
    if costs.shape[0] < period:
        return None
    csum = np.concatenate([[0.0], np.cumsum(costs)])
    mean = (csum[period:] - csum[:-period]) / period
    within = np.nonzero(mean - optimum[period - 1:] <= gap * optimum[period - 1:])[0]
    return int(within[0]) + period if within.size else None
