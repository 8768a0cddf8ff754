"""Gaussian fixed point for Brascamp-Lieb constants.

The best constant in both the direct and the reversed inequality is attained
on centered Gaussians, and the optimal covariance A solves

    inv(A) = sum_i c_i B_i^T inv(B_i A B_i^T) B_i.

That equation is the stationarity condition of the scale-invariant objective

    F(A) = logdet(A) - sum_i c_i logdet(B_i A B_i^T),

whose supremum over positive definite A equals twice the log of the shared
constant. The solver is one loop in three phases. It starts with a damped
fixed-point iteration, det-normalized as gauge fixing. When the residual
stalls it moves to backtracking gradient ascent through the parameterization
A = exp(S), and when the ascent stalls too, or its line search fails, it
polishes with fixed-point steps at the default damping. A polish stall ends
the run like an exhausted budget. A datum whose objective is unbounded above
has no finite constant; that is detected heuristically and reported as +inf
rather than raised.

Every iteration evaluates the fixed-point sum over the datum's factor groups
(datum.factor_groups, built once per solve): one stacked Cholesky and solve
per target dimension, not one per factor. The solver imports only _linalg
and datum, so the verification layers that re-check it share none of its
fixed-point logic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._linalg import (
    IllConditionedError,
    chol_logdet,
    check_spd,
    dexp_adjoint,
    expm_sym,
    spd_inverse,
    sym,
)
from .datum import BLDatum, DatumError, FactorGroup, factor_groups, validate

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
DEFAULT_DAMPING = 0.5

# Homogeneity defect beyond this means the objective cannot have a finite
# supremum with equality anywhere; refuse instead of iterating.
HOMOGENEITY_TOL = 1e-9

# Divergence heuristics on the det-normalized iterate.
OBJECTIVE_LIMIT = 1e3
MIN_EIGENVALUE = 1e-12

# Stationarity threshold past which bl_constant warns the caller.
STATIONARITY_WARN = 1e-6

_STALL_WINDOW = 50
_STALL_FACTOR = 0.99


class ConvergenceError(RuntimeError):
    """Raised by callers that need a converged solve and did not get one."""


def _john_sum(groups: list[FactorGroup], A: np.ndarray) -> tuple[np.ndarray, float]:
    """sum_i c_i B_i^T inv(B_i A B_i^T) B_i and sum_i c_i logdet(B_i A B_i^T),
    over the factor groups of a datum: one stacked Cholesky and solve per
    target dimension."""
    n = A.shape[0]
    M, logdets = np.zeros((n, n)), 0.0
    for g in groups:
        P = sym(g.B @ A @ g.B.swapaxes(1, 2))  # (m_k, k, k)
        L, ld = chol_logdet(P, name=f"B_i A B_i^T, i in {g.indices}")
        X = np.linalg.solve(L.swapaxes(1, 2), np.linalg.solve(L, g.B))  # inv(P_i) B_i
        M += (g.c[:, None, None] * (g.B.swapaxes(1, 2) @ X)).sum(axis=0)
        logdets += float(ld @ g.c)
    return sym(M), logdets


def fp_map(datum: BLDatum, A: np.ndarray) -> np.ndarray:
    """One application of A |-> inv(sum_i c_i B_i^T inv(B_i A B_i^T) B_i)."""
    A = check_spd(A, "A")
    M, _ = _john_sum(factor_groups(datum), A)
    return spd_inverse(M, name="fixed point sum")


def grad_logdet(datum: BLDatum, A: np.ndarray) -> np.ndarray:
    """Gradient of the log-det objective at A (zero exactly at a fixed point)."""
    A = check_spd(A, "A")
    M, _ = _john_sum(factor_groups(datum), A)
    return spd_inverse(A, name="A") - M


def logdet_objective(datum: BLDatum, A: np.ndarray) -> float:
    A = check_spd(A, "A")
    _, ld_A = chol_logdet(A, name="A")
    _, lds = _john_sum(factor_groups(datum), A)
    return float(ld_A) - lds


def bl_constant(datum: BLDatum, A: np.ndarray) -> float:
    """Constant exp(F(A)/2) read off a (supposed) fixed point A.

    The value is only the Brascamp-Lieb constant when A is stationary; the
    relative gradient norm is checked at 1e-6 and a warning is emitted when
    the caller hands in a point that is not."""
    A = check_spd(A, "A")
    w, U = np.linalg.eigh(A)
    inv_A = sym((U / w) @ U.T)
    M, lds = _john_sum(factor_groups(datum), A)
    grad = inv_A - M
    rel = np.linalg.norm(grad) / np.linalg.norm(inv_A)
    if rel > STATIONARITY_WARN:
        warnings.warn(
            f"bl_constant evaluated away from stationarity (relative gradient {rel:.2e})",
            stacklevel=2,
        )
    return math.exp(0.5 * (float(np.sum(np.log(w))) - lds))


def direct_extremizers(datum: BLDatum, A: np.ndarray) -> list[np.ndarray]:
    """Precision matrices of the optimal inputs for the direct inequality,
    one per non-zero factor: inv(B_i A B_i^T)."""
    A = check_spd(A, "A")
    out = []
    for i in datum.active_indices():
        f = datum.factors[i]
        out.append(spd_inverse(sym(f.B @ A @ f.B.T), name=f"B_{i} A B_{i}^T"))
    return out


def reverse_extremizers(datum: BLDatum, A: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Precisions for the reversed inequality: the factor inputs get
    B_i A B_i^T and the enveloping function gets A itself."""
    A = check_spd(A, "A")
    tuple_ = [sym(datum.factors[i].B @ A @ datum.factors[i].B.T) for i in datum.active_indices()]
    return tuple_, A


@dataclass
class SolveResult:
    A: np.ndarray
    constant: float
    residual: float
    iterations: int
    converged: bool
    trace: list[tuple[int, float, float]] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "A": self.A.tolist(),
            "constant": self.constant,
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
        }

    def write_trace_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("iteration,residual,objective\n")
            for k, res, obj in self.trace:
                fh.write(f"{k},{res!r},{obj!r}\n")


def _normalize_det(A: np.ndarray) -> np.ndarray:
    return A * math.exp(-float(np.sum(np.log(np.linalg.eigvalsh(A)))) / A.shape[0])


def _log_traceless(A: np.ndarray) -> np.ndarray:
    """S = log(A) shifted to trace zero, so that exp(S) has determinant 1."""
    w, U = np.linalg.eigh(sym(A))
    S = sym((U * np.log(w)) @ U.T)
    return S - np.trace(S) / A.shape[0] * np.eye(A.shape[0])


def _rising(trace: list[tuple[int, float, float]]) -> bool:
    """Whether the objective rose over the last _STALL_WINDOW trace rows."""
    return len(trace) >= 2 and trace[-1][2] > trace[max(0, len(trace) - _STALL_WINDOW)][2] + 1e-9


def solve(
    datum: BLDatum,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    damping: float = DEFAULT_DAMPING,
) -> SolveResult:
    """Find the optimal Gaussian covariance and the constant for a datum.

    Parameters
    ----------
    datum : BLDatum
        Must be non-degenerate with homogeneity defect at most 1e-9 in
        absolute value; anything else is refused with DatumError.
    tol : float
        Convergence threshold on the relative gradient norm
        ||inv(A) - sum_i c_i B_i^T inv(B_i A B_i^T) B_i||_F / ||inv(A)||_F.
    max_iter : int
        Total iteration budget shared by the three phases: fixed point,
        then ascent when the fixed point stalls, then polish when the
        ascent stalls or its line search fails. A polish stall ends the run
        as if the budget were spent.
    damping : float
        Weight of the fixed-point image in each update; 0.5 trades speed
        for robustness on poorly conditioned data.

    Returns
    -------
    SolveResult
        A is det-normalized. `constant` is +inf when the iteration
        diagnosed an unbounded objective (no finite constant); `converged`
        is False both then and on an inconclusive budget exhaustion.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    diag = validate(datum)
    if diag.degenerate:
        raise DatumError("degenerate datum: the factor maps do not jointly span; "
                         "both constants are +inf")
    if abs(diag.homogeneity_defect) > HOMOGENEITY_TOL:
        raise DatumError(
            f"homogeneity defect {diag.homogeneity_defect:.3e} exceeds {HOMOGENEITY_TOL:.0e}; "
            "the constant is degenerate (0 or +inf) unless sum c_i n_i = n"
        )

    return _iterate(datum, np.eye(datum.n), "fixed point", tol, max_iter, damping)


def _iterate(datum: BLDatum, A: np.ndarray, phase: str, tol: float, max_iter: int,
             damping: float) -> SolveResult:
    """The solver loop from A, starting in `phase`.

    Each iteration evaluates the iterate, appends its trace row and takes the
    exits every phase shares; only the evaluation and the step are per phase.
    "fixed point" and "polish" take damped fixed-point steps, "polish" at
    DEFAULT_DAMPING; "ascent" takes Armijo backtracking steps on F(exp(S)), S
    symmetric traceless, so the objective never decreases. A fixed-point stall
    moves to ascent at the same k, an ascent stall or a failed line search to
    polish at k + 1, and a polish stall or the end of the budget to the budget
    verdict."""
    n = datum.n
    groups = factor_groups(datum)
    trace: list[tuple[int, float, float]] = []
    k, entered = 0, None
    while k < max_iter:
        if phase != entered:
            entered, best_res, best_res_iter, rising = phase, math.inf, k, False
            if phase == "ascent":
                S, step = _log_traceless(A), 1.0
            elif phase == "polish":
                damping = DEFAULT_DAMPING

        if phase == "ascent":
            A, w, U = expm_sym(S)
            if w.min() < math.log(MIN_EIGENVALUE):
                return SolveResult(_normalize_det(A), math.inf, math.nan, k, False, trace)
            try:
                M, lds = _john_sum(groups, A)
            except IllConditionedError:
                return SolveResult(A, math.inf, math.nan, k, False, trace)
            inv_A = sym((U * np.exp(-w)) @ U.T)
            obj = float(np.sum(w)) - lds
        else:
            w, U = np.linalg.eigh(sym(A))
            try:
                if w.min() > 0.0:
                    M, lds = _john_sum(groups, A)
            except IllConditionedError:
                if rising:
                    return SolveResult(A, math.inf, math.nan, k, False, trace)
                raise
            if w.min() < MIN_EIGENVALUE:
                return SolveResult(A, math.inf, math.nan, k, False, trace)
            inv_A = sym((U / w) @ U.T)
            obj = float(np.sum(np.log(w))) - lds
        G = inv_A - M
        res = float(np.linalg.norm(G) / np.linalg.norm(inv_A))
        trace.append((k, res, obj))
        rising = _rising(trace)
        if res <= tol:
            return SolveResult(A, math.exp(0.5 * obj), res, k, True, trace)
        if obj > OBJECTIVE_LIMIT:
            return SolveResult(A, math.inf, res, k, False, trace)
        if res < best_res * _STALL_FACTOR:
            best_res, best_res_iter = res, k
        elif k - best_res_iter >= _STALL_WINDOW:
            if phase == "polish":
                break
            if phase == "fixed point":
                phase = "ascent"
                continue
            # Armijo steps keep being accepted without residual progress once
            # objective differences fall below float resolution; the fixed
            # point iteration needs no differencing, so let it polish
            phase = "polish"
            k += 1
            continue

        if phase == "ascent":
            GS = dexp_adjoint(w, U, G)
            g2 = float(np.sum(GS * GS))
            while step >= 1e-14:
                S_try = sym(S + step * GS)
                S_try -= np.trace(S_try) / n * np.eye(n)
                try:
                    A_try, w_try, _ = expm_sym(S_try)
                    _, lds_try = _john_sum(groups, A_try)
                except IllConditionedError:
                    step *= 0.5
                    continue
                if float(np.sum(w_try)) - lds_try >= obj + 1e-4 * step * g2:
                    S, A, step = S_try, A_try, min(step * 2.0, 1e2)
                    break
                step *= 0.5
            else:
                # no ascent direction left at line-search resolution
                phase, A = "polish", _normalize_det(A)
        else:
            try:
                F = spd_inverse(M, name="fixed point sum")
            except IllConditionedError:
                if rising:
                    return SolveResult(A, math.inf, res, k, False, trace)
                raise
            A = _normalize_det(sym((1.0 - damping) * A + damping * F))
        k += 1

    # Budget verdict. Divergence along a ray shows up as a rising objective
    # together with a stagnant residual; a residual that is still shrinking
    # means the run was merely slow, and the best estimate is returned as
    # inconclusive.
    if phase == "ascent":
        A = _normalize_det(A)
    k, res, obj = trace[-1]
    stagnant = len(trace) >= 10 and res > 0.5 * trace[len(trace) // 2][1]
    if (_rising(trace) and stagnant) or not math.isfinite(obj):
        return SolveResult(A, math.inf, res, k + 1, False, trace)
    return SolveResult(A, math.exp(0.5 * obj), res, k + 1, False, trace)
