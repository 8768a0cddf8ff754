"""Gaussian fixed point for Brascamp-Lieb constants.

The best constant in both the direct and the reversed inequality is attained
on centered Gaussians, and the optimal covariance A solves

    inv(A) = sum_i c_i B_i^T inv(B_i A B_i^T) B_i,

the stationarity condition of the scale-invariant objective

    F(A) = logdet(A) - sum_i c_i logdet(B_i A B_i^T),

whose supremum over positive definite A is twice the log of the shared
constant: every A certifies the lower bound exp(F(A)/2), and the verification
layer evaluates F at a caller's A as log dual_check(datum, 1, A). F is
geodesically concave. The solver carries a factor K of A = K K^T from K = I,
and any factor whitens: with Y_i = inv(L_i) B_i K, L_i L_i^T = B_i A B_i^T,
and Q_i = Y_i^T Y_i, H |-> F(K exp(H) K^T) has the
gradient I - Qbar, Qbar = sum_i c_i Q_i, and the positive semidefinite
negative Hessian -Hess[H] = sym(Qbar H) - sum_i c_i Q_i H Q_i. Truncated
conjugate gradients solve -Hess[H] = I - Qbar over symmetric traceless H,
an Armijo line search on F picks t, and K <- K exp(tH/2) keeps det(A) = 1.
The loop never forms or factors A: the line search hands back the accepted
K with its whitening, and one SVD of K gives logdet(A) and the residual.
+inf (no finite constant) is reported only on evidence: a kernel witness
(datum.kernel_witness, an exact count of dimensions, which ends the solve
before any whitening), a degenerating iterate, a failed line search while F
rises far from stationarity, or exp(F/2) <= C past the float range. Anything
else unconverged is inconclusive.

_whiten reads logdet(B_i A B_i^T) and Y_i off one stacked SVD of B_i K per
factor group (datum.groups), for the loop, its line search, fp_map and
grad_logdet. The solver imports only _linalg and datum, so the verification
layers that re-check it share none of its fixed-point logic.

One iteration costs one SVD of K, one eigh of the step H and, per line-search
trial, one stacked SVD per factor group of more than one row; a step without
curvature adds the SVD for ||G||_2. A capped first trial on which F is still
affine (a divergent ray) is extended by doubling t, one more trial each, so
that +inf data reach their verdict in a few iterations instead of creeping
along the ray at the cap. At n <= 3 the rest is call overhead, so the loop
keeps to array methods and cached constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import IllConditionedError, check_spd, spd_inverse, sym, whiten
from .datum import BLDatum, FactorGroup, check_count, check_solvable

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000

# An eigenvalue of the det-1 iterate below this is a degenerating A: +inf.
MIN_EIGENVALUE = 1e-12

# Relative gradient past which a failed line search while F rises is +inf.
STATIONARITY_WARN = 1e-6

_STALL_WINDOW = 50

# Line search: the Armijo fraction, the halvings allowed from the capped
# first trial, and a slack relative to 1 + |F| so that steps whose gain is
# below the float resolution of F still pass.
_ARMIJO = 1e-4
_HALVINGS = 34
_SLACK = 1e-13
# The farthest an extended step reaches, in t ||H||_2.
_REACH = -math.log(MIN_EIGENVALUE)
_EPS = np.finfo(float).eps


class ConvergenceError(RuntimeError):
    """Raised by callers that need a converged solve and did not get one."""


def _whiten(groups: tuple[FactorGroup, ...], K: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, float]:
    """Whitened factors at A = K K^T: per group the orthonormal rows Y of the
    SVD of B K, which give the same Q = Y^T Y as inv(L) B K for any
    L L^T = B A B^T; then Qbar = sum_i c_i Y_i^T Y_i and
    sum_i c_i logdet(B_i A B_i^T)."""
    n = K.shape[1]
    Ys, Qbar, lds = [], np.zeros((n, n)), 0.0
    for g in groups:
        Y, ld = whiten(g.B @ K, name=lambda g=g: f"B_i A B_i^T, i in {g.indices}")
        Ys.append(Y)
        Yc = (g.sqrt_cb * Y).reshape(-1, n)
        Qbar += Yc.T @ Yc
        lds += float(ld @ g.c)
    return Ys, sym(Qbar), lds


def _at(datum: BLDatum, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A caller's A = L L^T: its Cholesky factor L and Qbar at L."""
    L = np.linalg.cholesky(check_spd(A, "A"))
    return L, _whiten(datum.groups, L)[1]


def fp_map(datum: BLDatum, A: np.ndarray) -> np.ndarray:
    """One application of A |-> inv(sum_i c_i B_i^T inv(B_i A B_i^T) B_i)."""
    L, Qbar = _at(datum, A)
    return sym(L @ spd_inverse(Qbar, name="fixed point sum") @ L.T)


def grad_logdet(datum: BLDatum, A: np.ndarray) -> np.ndarray:
    """Gradient of F at A, inv(A) - sum_i c_i B_i^T inv(B_i A B_i^T) B_i =
    L^{-T} (I - Qbar) L^{-1}, zero exactly at a fixed point."""
    L, Qbar = _at(datum, A)
    L_inv = np.linalg.inv(L)
    return sym(L_inv.T @ (np.eye(Qbar.shape[0]) - Qbar) @ L_inv)


def direct_extremizers(datum: BLDatum, A: np.ndarray) -> list[np.ndarray]:
    """Precision matrices of the optimal inputs for the direct inequality,
    one per non-zero factor: the inverses of reverse_extremizers' tuple."""
    tuple_, _ = reverse_extremizers(datum, A)
    return [spd_inverse(M, name=f"B_{i} A B_{i}^T") for i, M in zip(datum.active, tuple_)]


def reverse_extremizers(datum: BLDatum, A: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Precisions for the reversed inequality: the factor inputs get
    B_i A B_i^T and the enveloping function gets A itself."""
    A = check_spd(A, "A")
    tuple_ = [sym(datum.factors[i].B @ A @ datum.factors[i].B.T) for i in datum.active]
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


@functools.cache
def _eye(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _traceless(X: np.ndarray) -> np.ndarray:
    """X minus its trace part, in place."""
    X -= X.trace() / X.shape[0] * _eye(X.shape[0])
    return X


def _rising(trace: list[tuple[int, float, float]]) -> bool:
    """Whether the objective rose over the last _STALL_WINDOW trace rows."""
    return len(trace) >= 2 and trace[-1][2] > trace[max(0, len(trace) - _STALL_WINDOW)][2] + 1e-9


def _neg_hess(groups: tuple[FactorGroup, ...], Ys: list[np.ndarray], Qbar: np.ndarray,
              H: np.ndarray) -> np.ndarray:
    """-Hess[H] = sym(Qbar H) - sum_i c_i Q_i H Q_i, projected to trace zero,
    with Q_i H Q_i = Y_i^T (Y_i H Y_i^T) Y_i stacked per factor group."""
    n = H.shape[0]
    out = sym(Qbar @ H)
    for g, Y in zip(groups, Ys):
        W = (g.cb * (Y @ H @ Y.swapaxes(1, 2))) @ Y
        out -= sym(Y.reshape(-1, n).T @ W.reshape(-1, n))
    return _traceless(out)


def _newton_direction(groups: tuple[FactorGroup, ...], Ys: list[np.ndarray], Qbar: np.ndarray,
                      G: np.ndarray) -> np.ndarray:
    """Truncated conjugate gradients for -Hess[H] = G over symmetric traceless
    H, from H = 0. CG stops at a relative residual of min(1/2, sqrt(||G||)),
    or on a direction without positive curvature; on the first one nothing
    bounds the step along G, and it goes to the line search's cap."""
    n = G.shape[0]
    H, r, p = np.zeros_like(G), G, G
    rr = float((G * G).sum())
    stop = min(0.25, math.sqrt(rr)) * rr
    for _ in range(n * (n + 1) // 2):
        Hp = _neg_hess(groups, Ys, Qbar, p)
        curvature = float((p * Hp).sum())
        if curvature <= _EPS * float((p * p).sum()):
            break
        a = rr / curvature
        H, r = H + a * p, r - a * Hp
        rr_next = float((r * r).sum())
        if rr_next <= stop:
            break
        p, rr = r + (rr_next / rr) * p, rr_next
    # ||G||_2 = np.linalg.norm(G, 2), the largest singular value, without its wrapper
    return H if H.any() or not G.any() else 2.0 * G / np.linalg.svd(G, compute_uv=False)[0]


def _line_search(groups: tuple[FactorGroup, ...], K: np.ndarray, H: np.ndarray, G: np.ndarray,
                 logdet_A: float, obj: float) -> tuple[np.ndarray, tuple] | None:
    """The first trial K exp(tH/2) that passes Armijo, with its whitening, or
    None. It starts at t = min(1, 2/||H||_2), which keeps exp(tH) within
    [e^-2, e^2], and halves t; tr H = 0 keeps logdet(A), so a trial costs one
    whitening. A trial with an ill-conditioned factor, or one that rounds to K,
    ends it. A capped first trial (||H||_2 >= 2) that also gains at least
    (1 - _ARMIJO) t slope, Goldstein's "too short", found F still affine
    along the ray: t doubles while each doubled trial raises F further,
    whitens, and keeps 2t ||H||_2 <= -log MIN_EIGENVALUE, so that no step
    moves an eigenvalue of A by more than a factor 1/MIN_EIGENVALUE."""
    lam, V = np.linalg.eigh(H)
    norm = float(max(-lam[0], lam[-1]))  # of the ascending eigenvalues
    if norm == 0.0:
        return None
    t, slope = min(1.0, 2.0 / norm), float((G * H).sum())
    floor = obj - _SLACK * (1.0 + abs(obj))
    for halvings in range(_HALVINGS + 1):
        K_t = K @ ((V * np.exp(0.5 * t * lam)) @ V.T)
        if (K_t == K).all():  # and so would every shorter trial
            return None
        try:
            whitened = _whiten(groups, K_t)
        except IllConditionedError:
            return None
        F_t = logdet_A - whitened[2]
        if F_t >= floor + _ARMIJO * t * slope:
            break
        t *= 0.5
    else:
        return None
    if halvings == 0 and norm >= 2.0 and F_t - obj >= (1.0 - _ARMIJO) * t * slope:
        while 2.0 * t * norm <= _REACH:
            t *= 2.0
            K_2t = K @ ((V * np.exp(0.5 * t * lam)) @ V.T)
            try:
                doubled = _whiten(groups, K_2t)
            except IllConditionedError:
                break
            F_2t = logdet_A - doubled[2]
            if F_2t <= F_t:
                break
            K_t, whitened, F_t = K_2t, doubled, F_2t
    return K_t, whitened


def solve(datum: BLDatum, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> SolveResult:
    """Find the optimal Gaussian covariance and the constant for a datum.

    Parameters
    ----------
    datum : BLDatum
        Must be non-degenerate with homogeneity defect at most 1e-9 in
        absolute value; datum.check_solvable refuses anything else with
        DatumError.
    tol : float
        Convergence threshold on the relative gradient norm
        ||inv(A) - sum_i c_i B_i^T inv(B_i A B_i^T) B_i||_F / ||inv(A)||_F;
        finite and non-negative, else ValueError.
    max_iter : int
        Budget of Newton iterations, an integer of at least 1.

    Returns
    -------
    SolveResult
        A has determinant 1. Converged: `constant` is the constant. Otherwise
        `converged` is False and `constant` is +inf when the datum carries a
        kernel witness or the run found the objective unbounded above (no
        finite constant), or else the best estimate exp(F/2) of an
        inconclusive run (NaN when an ill-conditioned factor stopped it at
        the start). A spent budget reports the iterate after max_iter steps,
        with that iterate's own constant and residual. Two exits come before
        the first trace row, with 0 iterations and a NaN residual: a kernel
        witness (A = I, +inf, before any whitening) and the start failure.
    """
    check_count("max_iter", max_iter, 1)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    check_solvable(datum)
    if datum.kernel_witness is not None:  # ker B_j breaks the dimension condition
        return SolveResult(np.eye(datum.n), math.inf, math.nan, 0, False, [])
    return _iterate(datum, np.eye(datum.n), tol, max_iter)


def _iterate(datum: BLDatum, K: np.ndarray, tol: float, max_iter: int) -> SolveResult:
    """Newton iterations on the factor K of a det-1 A = K K^T. An ill-conditioned
    B_i A B_i^T at the start is inconclusive with a NaN constant, and a singular
    value of K below sqrt(MIN_EIGENVALUE) is +inf, both before the row of k is
    written. After it, a residual at most tol converges, and row max_iter, a
    spent budget, ends the run inconclusive. A failed line search is +inf while
    the objective rises with a residual above STATIONARITY_WARN (below it,
    rounding stops the search), else inconclusive. Every exit reports row k."""
    groups = datum.groups
    trace: list[tuple[int, float, float]] = []

    def end(obj: float, res: float, k: int, converged: bool = False) -> SolveResult:
        try:
            constant = math.exp(0.5 * obj)
        except OverflowError:  # exp(F/2) <= C at every A, so C is past the float range too
            constant, converged = math.inf, False
        return SolveResult(sym(K @ K.T), constant, res, k, converged, trace)
    try:
        Ys, Qbar, lds = _whiten(groups, K)
    except IllConditionedError:
        return end(math.nan, math.nan, 0)
    for k in range(max_iter + 1):
        _, s, Vt = np.linalg.svd(K)
        if s[-1] ** 2 < MIN_EIGENVALUE:
            return end(math.inf, math.nan, k)
        logdet_A = 2.0 * float(np.log(s).sum())
        obj = logdet_A - lds
        # the gradient K^{-T} (I - Qbar) K^{-1} relative to inv(A), K = U S V^T
        E = _eye(datum.n) - Qbar
        X, w = ((Vt @ E @ Vt.T) / (s[:, None] * s)).ravel(), s ** -2.0
        res = math.sqrt(X.dot(X)) / math.sqrt(w.dot(w))  # np.linalg.norm's sqrt(x . x)
        trace.append((k, res, obj))
        if res <= tol:
            return end(obj, res, k, True)
        if k == max_iter:
            break
        G = _traceless(E)
        step = _line_search(groups, K, _newton_direction(groups, Ys, Qbar, G), G, logdet_A, obj)
        if step is None:
            if _rising(trace) and res > STATIONARITY_WARN:
                return end(math.inf, res, k)
            break
        K, (Ys, Qbar, lds) = step
    return end(obj, res, k)
