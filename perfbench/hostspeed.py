"""Host speed, sampled with a fixed kernel while escontrol runs.

The shared host this benchmark was built on changes speed by up to 2x
within seconds (presumably other tenants sharing its cores), which
swamps the differences a change to escontrol makes. So while a timed call
runs, an interval timer interrupts it every SAMPLE_INTERVAL_S and runs a
short fixed kernel in the signal handler; the kernel also runs once
before and once after the call. The call's time is then

    rescaled = (wall - time spent in the handler)
               * REFERENCE_KERNEL_S / mean(kernel times before, during, after)

which is its wall time on a host where the kernel takes REFERENCE_KERNEL_S.
The kernel is benchmark code on fixed data, so no change to escontrol can
move it.
README.md gives the spreads with and without rescaling.

Python runs signal handlers between bytecodes of the main thread, so a
sample never splits a numpy call and never changes what escontrol computes.
"""
from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

import reference

# The kernel's median time on the 2-core reference host (README.md).
REFERENCE_KERNEL_S = 0.005
SAMPLE_INTERVAL_S = 0.1

_PROBLEM = reference.Problem(
    name="kernel", a_fn=lambda t: np.array([[1.0]]), b_fn=lambda t: np.array([[1.0]]),
    a_expr=None, b_expr=None, c=np.eye(1), p=2.0 * np.eye(1), q=2.0 * np.eye(1),
    r=2.0 * np.eye(1), reference=None, t_start=0.0, t_end=1.0, n_steps=15, m=5,
    extension=1.0, initial_conditions=np.ones((1, 1)), noise_std=0.0, batch_period=None,
    feedback=False, feedforward=False)
_COEFFS = np.linspace(-1.0, 1.0, 10)
_STACK = np.random.default_rng(0).standard_normal((250, 2, 2))
_FORCING = np.random.default_rng(1).standard_normal((250, 2))
_FLOATS = np.random.default_rng(2).standard_normal(200).tolist()


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel: the kinds of work escontrol
    does per episode and per artifact row -- a plain float loop, an RK4
    episode of tiny numpy operations, batched 2x2 products over a grid, and
    repr-formatting floats into CSV cells."""
    started = perf_counter()
    x = 0.0
    for _ in range(20_000):
        x = 0.999 * x + 1.0
    reference.episode_cost(_PROBLEM, _COEFFS, 0.0)
    for _ in range(60):
        _STACK @ _STACK
        np.einsum("kij,kj->ki", _STACK, _FORCING)
    for _ in range(12):
        ",".join(repr(v) for v in _FLOATS)
    return perf_counter() - started


class Sampler:
    """Context manager that samples the kernel every SAMPLE_INTERVAL_S.

    ``on_sample(start, end)`` is called after each sample, e.g. to record
    it as a span so that it is not charged to the span it interrupted.
    """

    def __init__(self, on_sample=None):
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._on_sample = on_sample

    def _handler(self, _signum, _frame):
        entered = perf_counter()
        self.samples.append(kernel_seconds())
        left = perf_counter()
        self.busy_s += left - entered
        if self._on_sample is not None:
            self._on_sample(entered, left)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def rescale(wall_s: float, busy_s: float, kernels) -> float:
    """The call's time on the reference host (see the module docstring)."""
    return (wall_s - busy_s) * REFERENCE_KERNEL_S / (sum(kernels) / len(kernels))
