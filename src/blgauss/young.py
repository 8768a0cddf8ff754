"""Young's convolution inequality on the line as a closed-form test bed.

For exponents 1/p + 1/q = 1 + 1/r (all in (1, inf)) the convolution datum
on R^2 uses weights (1/p, 1/q, 1 - 1/r) with maps (1,1), (0,1), (1,0).
The fixed-point equation reduces to a quadratic system whose SPD root is
known in closed form, and the optimal constant has two independent closed
forms (one in the exponents, one in the weights). This module carries all
three so the solver can be checked against exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datum import BLDatum, LinearFactor

EXPONENT_TOL = 1e-12


@dataclass(frozen=True)
class YoungExponents:
    """Exponents p, q, r with 1/p + 1/q = 1 + 1/r, each in (1, inf)."""

    p: float
    q: float
    r: float

    def __post_init__(self):
        for name, s in (("p", self.p), ("q", self.q), ("r", self.r)):
            if not (math.isfinite(s) and s > 1.0):
                raise ValueError(f"{name} must lie in (1, inf), got {s}")
        defect = 1.0 / self.p + 1.0 / self.q - 1.0 - 1.0 / self.r
        if abs(defect) > EXPONENT_TOL:
            raise ValueError(
                f"exponents must satisfy 1/p + 1/q = 1 + 1/r; defect {defect:.3e}"
            )

    @property
    def weights(self) -> tuple[float, float, float]:
        return (1.0 / self.p, 1.0 / self.q, 1.0 - 1.0 / self.r)

    @classmethod
    def from_pq(cls, p: float, q: float) -> "YoungExponents":
        """Fill in r from the scaling relation."""
        inv_r = 1.0 / p + 1.0 / q - 1.0
        if not 0.0 < inv_r < 1.0:
            raise ValueError(f"1/p + 1/q = {1.0 / p + 1.0 / q} leaves no valid r")
        return cls(p, q, 1.0 / inv_r)


def conjugate(s: float) -> float:
    if abs(s - 1.0) <= 1e-12:
        raise ValueError("conjugate exponent blows up at s = 1")
    return s / (s - 1.0)


def datum_from_exponents(e: YoungExponents) -> BLDatum:
    """Convolution datum on R^2: weights (1/p, 1/q, 1 - 1/r), maps
    (x, y) -> x + y, y, x."""
    c1, c2, c3 = e.weights
    return BLDatum(
        2,
        (
            LinearFactor(c1, np.array([[1.0, 1.0]])),
            LinearFactor(c2, np.array([[0.0, 1.0]])),
            LinearFactor(c3, np.array([[1.0, 0.0]])),
        ),
    )


def closed_form_A(e: YoungExponents) -> np.ndarray:
    """The SPD root of the fixed-point system, det-normalized.

    The quadratic system has a second root proportional to [[1,-1],[-1,1]];
    it is singular, never positive definite, and plays no role in the
    constant."""
    _, c2, c3 = e.weights
    x = c3 * (1.0 - c3)
    y = c2 * (1.0 - c2)
    z = -(1.0 - c2) * (1.0 - c3)
    A = np.array([[x, z], [z, y]])
    det = x * y - z * z
    if det <= 0.0:
        raise AssertionError(f"closed-form root is not positive definite (det {det:.3e})")
    return A / math.sqrt(det)


def beckner_constant(e: YoungExponents) -> float:
    """Sharp constant from the exponents:
    C^2 = p^{1/p} q^{1/q} r'^{1/r'} / (p'^{1/p'} q'^{1/q'} r^{1/r})."""
    pp, qq, rr = conjugate(e.p), conjugate(e.q), conjugate(e.r)
    log_c2 = (
        math.log(e.p) / e.p
        + math.log(e.q) / e.q
        + math.log(rr) / rr
        - math.log(pp) / pp
        - math.log(qq) / qq
        - math.log(e.r) / e.r
    )
    return math.exp(0.5 * log_c2)


def constant_from_cs(c1: float, c2: float, c3: float) -> float:
    """Same constant written in the weights:
    C^2 = prod_i (1 - c_i)^{1 - c_i} / c_i^{c_i}, for weights summing to 2."""
    cs = (c1, c2, c3)
    for c in cs:
        if not 0.0 < c < 1.0:
            raise ValueError(f"weights must lie in (0, 1), got {c}")
    if abs(sum(cs) - 2.0) > 1e-9:
        raise ValueError(f"weights must sum to 2, got {sum(cs)}")
    log_c2 = sum((1.0 - c) * math.log(1.0 - c) - c * math.log(c) for c in cs)
    return math.exp(0.5 * log_c2)
