"""Reference routines that measure how fast the host runs right now.

The benchmark runs on shared virtual machines whose speed drifts by up to 2x,
in bursts under a second long and in phases of 20 s to a few minutes. A phase
slows the package and a reference routine made of the same kind of work
alike. The routines use no package code, so a change to the package never
moves them.

``harness.run_rounds`` runs the workload's reference before every op, and
end-to-end times are reported in seconds at a fixed nominal host speed: each
measured time times the reference's ``nominal_s`` over its mean time in the
same round. ``nominal_s`` is the routine's typical time on a 2-vCPU KVM guest
(Intel Xeon, 2.0 GHz); it only scales the numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_M = np.array([[2.0, 0.3, -0.1], [0.3, 1.5, 0.2], [-0.1, 0.2, 1.2]])
_V = np.array([1.0, -2.0, 0.5])


def lapack_calls() -> None:
    """100 rounds of a 3 x 3 Cholesky factorization, solve and log-determinant:
    call overhead, like the solver's and the sweeps' inner loops."""
    chol, solve, slogdet = np.linalg.cholesky, np.linalg.solve, np.linalg.slogdet
    for _ in range(100):
        chol(_M)
        solve(_M, _V)
        slogdet(_M)


def python_loop() -> None:
    """30,000 iterations of integer arithmetic in the interpreter."""
    x = 0
    for i in range(30_000):
        x += i * i


@dataclass(frozen=True)
class Reference:
    routines: tuple[Callable[[], None], ...]
    reps: int
    nominal_s: float

    def seconds(self) -> float:
        """Time of one sample: every routine, ``reps`` times."""
        t0 = time.perf_counter()
        for _ in range(self.reps):
            for routine in self.routines:
                routine()
        return time.perf_counter() - t0

    def mean_over(self, budget_s: float) -> float:
        """Mean sample time over samples taken until ``budget_s`` has passed."""
        samples = [self.seconds()]
        while sum(samples) < budget_s:
            samples.append(self.seconds())
        return sum(samples) / len(samples)


# Tiny LAPACK calls track the solver and sweep workloads best: over 10 to 20 s
# windows their times move with it at a log-log slope of 1.0 to 1.2
# (correlation 0.92 to 0.95). The quadrature and Monte Carlo ops move at
# slope 0.6 with it and 0.9 with the Python loop, so `functional` uses both,
# three times over, because its ops are long and few.
CALLS = Reference((lapack_calls,), reps=1, nominal_s=0.003)
CALLS_AND_LOOP = Reference((lapack_calls, python_loop), reps=3, nominal_s=0.016)
