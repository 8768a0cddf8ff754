"""Shared result record, default seed, element budget, and the seed and constant checks of the verification layers."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

# The seed of every sampler's default run, so a command line fixes its report.
DEFAULT_SEED = 1729

# The most floats one array may hold when its size follows from a command
# line's options (bd's draws and covariance, check-quadrature's grids, the
# Gaussian sweeps' ratios and drawn stacks, check-inf's kernel draws and
# decompositions): 800 MB, checked before anything that size is allocated.
MAX_ELEMENTS = 10**8


def check_seed(seed) -> None:
    """ValueError unless seed is a non-negative integer, the only seed every
    sampler here accepts; raised before anything is drawn."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def check_constant(constant) -> None:
    """ValueError unless the claimed constant is finite and positive, the
    first thing every sweep kernel and integral check runs: a NaN ratio is
    never counted as a violation, C = +inf makes every ratio 0, and C <= 0
    has no logarithm."""
    if not 0.0 < constant < math.inf:
        raise ValueError(f"constant must be finite and positive, got {constant}")


@dataclass
class VerificationReport:
    """Outcome of a randomized inequality check.

    samples       how many random instances were tested
    violations    how many samples, and a supplied extremizer, breached the
                  check's tolerance (the exact rule is documented by each
                  check: the Gaussian sweeps flag ratio > 1 + 1e-9, the
                  inf-decomposition check flags an objective below the
                  claimed infimum by more than 1e-10); ok when none did
    worst_ratio   largest observed ratio of claimed bound to sampled value;
                  anything at or below 1 means the claim held with room
    seed          RNG seed the sweep was run with
    equality_gap  |1 - ratio| at a supplied extremizer, when one was tested
    """

    samples: int
    violations: int
    worst_ratio: float
    seed: int
    equality_gap: float | None = None

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        doc = {
            "samples": self.samples,
            "violations": self.violations,
            "worst_ratio": self.worst_ratio,
        }
        if self.equality_gap is not None:
            doc["equality_gap"] = self.equality_gap
        doc["seed"] = self.seed
        return doc
