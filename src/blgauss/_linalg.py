"""Small shared helpers for symmetric positive definite matrices.

Everything here works in the log domain where determinants are involved:
constants are ratios of determinants that overflow long before the answer
does, so only Cholesky / eigenvalue log-determinants are ever formed.

chol_logdet is the one guarded Cholesky of the package. It takes a single
matrix or a (..., k, k) stack, so the solver's fixed-point sum and the
verification kernels factor a whole group of factors or samples per call
behind the same symmetry, positivity and conditioning guards.
"""

from __future__ import annotations

import numpy as np

COND_LIMIT = 1e14
# exp(710) overflows a float64
EXP_LIMIT = 700.0


class IllConditionedError(np.linalg.LinAlgError):
    """A quadratic form became too ill-conditioned to invert reliably."""


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetric part of M, or of each matrix in a (..., k, k) stack. Used
    after every update to kill drift."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def check_spd(M: np.ndarray, name: str = "matrix", sym_tol: float = 1e-12) -> np.ndarray:
    """Validate that M is symmetric positive definite and return it as float array.

    Symmetry is relative (1e-12 of the largest entry); positivity is checked
    by eigenvalue. Raises ValueError on failure.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    scale = np.abs(M).max()
    if scale == 0.0:
        raise ValueError(f"{name} is zero, not positive definite")
    if np.abs(M - M.T).max() > sym_tol * scale:
        raise ValueError(f"{name} is not symmetric to relative 1e-12")
    w = np.linalg.eigvalsh(sym(M))
    if w.min() <= 0.0:
        raise ValueError(f"{name} is not positive definite (min eigenvalue {w.min():.3e})")
    return sym(M)


def chol_logdet(M: np.ndarray, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors and log-determinants of an SPD matrix or of each
    matrix in a (..., k, k) stack; the log-determinants have shape
    M.shape[:-2].

    Every matrix must be symmetric to relative 1e-12 (ValueError) and
    positive definite with cond <= COND_LIMIT (IllConditionedError): a factor
    beyond that ceiling cannot be inverted at the tolerances this package
    promises, so it is reported instead of silently degrading.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"{name} must be a square matrix or a stack of them, got shape {M.shape}")

    def first(bad: np.ndarray) -> tuple:
        return np.unravel_index(bad.argmax(), bad.shape)

    def where(bad: np.ndarray) -> str:
        return "" if bad.ndim == 0 else f" {[int(j) for j in first(bad)]}"

    skew = M - M.swapaxes(-1, -2)
    # callers inside the package pass exactly symmetric sym() output, which
    # needs neither the relative check nor symmetrizing
    if skew.any():
        bad = np.abs(skew).max(axis=(-2, -1)) > 1e-12 * np.abs(M).max(axis=(-2, -1))
        if bad.any():
            raise ValueError(f"{name}{where(bad)} is not symmetric to relative 1e-12")
        M = sym(M)
    # a 1 x 1 matrix is its own eigenvalue and the square of its Cholesky
    # factor; skipping LAPACK there gives the same values with less overhead
    w = M[..., 0] if M.shape[-1] == 1 else np.linalg.eigvalsh(M)
    lo, hi = w[..., 0], w[..., -1]
    bad = (lo <= 0.0) | (hi > COND_LIMIT * lo)
    if bad.any():
        j = first(bad)
        raise IllConditionedError(
            f"{name}{where(bad)} is not positive definite with condition number <= "
            f"{COND_LIMIT:.0e} (eigenvalues {lo[j]:.3e} to {hi[j]:.3e})"
        )
    L = np.sqrt(M) if M.shape[-1] == 1 else np.linalg.cholesky(M)
    return L, 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)


def spd_solve(M: np.ndarray, B: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Solve M X = B for SPD M with the same conditioning guard as chol_logdet."""
    L, _ = chol_logdet(M, name=name)
    Y = np.linalg.solve(L, B)
    return np.linalg.solve(L.T, Y)


def spd_inverse(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    return sym(spd_solve(M, np.eye(M.shape[0]), name=name))


def numerical_rank(M: np.ndarray, tol: float = 1e-10) -> int:
    """Singular values above tol * largest count toward the rank."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def expm_sym(S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(S) for symmetric S, returning (exp(S), eigenvalues, eigenvectors).

    Raises IllConditionedError for an eigenvalue above EXP_LIMIT, whose
    exponential overflows, so a line search can reject the step."""
    w, U = np.linalg.eigh(sym(S))
    if w.max() > EXP_LIMIT:
        raise IllConditionedError(f"exp of eigenvalue {w.max():.3e} > {EXP_LIMIT:.0f} overflows")
    A = sym((U * np.exp(w)) @ U.T)
    return A, w, U


def dexp_adjoint(w: np.ndarray, U: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Pull an ambient gradient back through A = exp(S).

    For symmetric S = U diag(w) U^T the derivative of exp is, in the
    eigenbasis, entrywise multiplication by the divided differences
    phi_kl = (e^{w_k} - e^{w_l}) / (w_k - w_l); the map is self-adjoint, so
    the gradient in S of F(exp(S)) is U (phi * (U^T G U)) U^T where G is the
    gradient of F at A. The divided difference is evaluated in the stable
    form e^{(w_k+w_l)/2} sinh(d)/d, d = (w_k - w_l)/2.
    """
    d = 0.5 * (w[:, None] - w[None, :])
    mid = 0.5 * (w[:, None] + w[None, :])
    small = np.abs(d) < 1e-8
    ratio = np.where(small, 1.0 + d * d / 6.0, np.sinh(np.where(small, 1.0, d)) / np.where(small, 1.0, d))
    phi = np.exp(mid) * ratio
    return sym(U @ (phi * (U.T @ G @ U)) @ U.T)
