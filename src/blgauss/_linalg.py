"""Small shared helpers for symmetric positive definite matrices.

Everything here works in the log domain where determinants are involved:
constants are ratios of determinants that overflow long before the answer
does, so only log-determinants are ever formed.

Two guarded log-determinants share one conditioning guard and take a matrix
or a stack of them. chol_logdet factors a given SPD matrix. whiten and
gram_logdet read logdet(C C^T) off the singular values of C, so a Gram
matrix is never formed and loses eps cond(C), not eps cond(C)^2.
weighted_sum adds the per-factor log-determinants of a stack so that a
row's sum does not depend on the stack's size.
"""

from __future__ import annotations

import numpy as np

COND_LIMIT = 1e14
# Numerical rank cutoff shared across the package.
RANK_TOL = 1e-10


class IllConditionedError(np.linalg.LinAlgError):
    """A quadratic form became too ill-conditioned to invert reliably."""


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetric part of M, or of each matrix in a (..., k, k) stack. Used
    after every update to kill drift."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def check_spd(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that M is symmetric positive definite and return it as float array.

    Entries must be finite, symmetry is relative (1e-12 of the largest entry)
    and positivity is checked by eigenvalue. Raises ValueError on failure.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} has non-finite entries")
    scale = np.abs(M).max()
    if scale == 0.0:
        raise ValueError(f"{name} is zero, not positive definite")
    if np.abs(M - M.T).max() > 1e-12 * scale:
        raise ValueError(f"{name} is not symmetric to relative 1e-12")
    w = np.linalg.eigvalsh(sym(M))
    if w.min() <= 0.0:
        raise ValueError(f"{name} is not positive definite (min eigenvalue {w.min():.3e})")
    return sym(M)


def _where(bad: np.ndarray) -> str:
    return "" if bad.ndim == 0 else f" {[int(j) for j in np.unravel_index(bad.argmax(), bad.shape)]}"


def _guard(lo: np.ndarray, hi: np.ndarray, name) -> None:
    """IllConditionedError unless each matrix, with extreme eigenvalues lo and
    hi, is positive definite with cond <= COND_LIMIT: a factor beyond that
    ceiling cannot be inverted at the tolerances this package promises, so it
    is reported instead of silently degrading. `name` may be a function that
    returns it, called only on failure."""
    # hi / COND_LIMIT cannot overflow where COND_LIMIT * lo can; with lo <= hi,
    # a positive difference (its sign is exact) means lo > 0 as well
    if (lo - hi / COND_LIMIT).min(initial=np.inf) > 0.0:
        return
    bad = (lo <= 0.0) | (hi / COND_LIMIT > lo)
    if bad.any():
        j = np.unravel_index(bad.argmax(), bad.shape)
        raise IllConditionedError(
            f"{name() if callable(name) else name}{_where(bad)} is not positive definite "
            f"with condition number <= {COND_LIMIT:.0e} (eigenvalues {lo[j]:.3e} to {hi[j]:.3e})"
        )


def chol_logdet(M: np.ndarray, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors and log-determinants of an SPD matrix or of each
    matrix in a (..., k, k) stack; the log-determinants have shape
    M.shape[:-2].

    Every matrix must be symmetric to relative 1e-12 (ValueError) and pass
    the conditioning guard (IllConditionedError).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"{name} must be a square matrix or a stack of them, got shape {M.shape}")
    skew = M - M.swapaxes(-1, -2)
    # callers inside the package pass exactly symmetric sym() output, which
    # needs neither the relative check nor symmetrizing
    if skew.any():
        bad = np.abs(skew).max(axis=(-2, -1)) > 1e-12 * np.abs(M).max(axis=(-2, -1))
        if bad.any():
            raise ValueError(f"{name}{_where(bad)} is not symmetric to relative 1e-12")
        M = sym(M)
    # a 1 x 1 matrix is its own eigenvalue and the square of its Cholesky
    # factor; skipping LAPACK there gives the same values with less overhead
    w = M[..., 0] if M.shape[-1] == 1 else np.linalg.eigvalsh(M)
    _guard(w[..., 0], w[..., -1], name)
    L = np.sqrt(M) if M.shape[-1] == 1 else np.linalg.cholesky(M)
    return L, 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)


def whiten(C: np.ndarray, name="matrix", rows: bool = True):
    """Orthonormal rows V^T of the SVD C = U diag(s) V^T and logdet(C C^T) =
    2 sum log s, for a (k, n) matrix or each matrix of a (..., k, n) stack,
    guarded on s^2 (k > n rows make C C^T singular; `name` as in _guard). One
    row skips the SVD, which costs three times its norm, and rounds like a
    1 x 1 Cholesky whitening of it."""
    C = np.asarray(C, dtype=float)
    k, n = C.shape[-2:]
    if k == 1:  # cond(C C^T) = 1: its root is s, and V^T = C (1/s) below
        s = np.sqrt((C @ C.swapaxes(-1, -2))[..., 0])
    else:  # C^T = V diag(s) U^T: LAPACK takes the tall C^T faster than C
        svd = np.linalg.svd(C.swapaxes(-1, -2), full_matrices=False, compute_uv=rows)
        s = svd.S if rows else svd
    _guard(s[..., -1] ** 2 if k <= n else np.zeros(s.shape[:-1]), s[..., 0] ** 2, name)
    ld = 2.0 * np.log(s).sum(axis=-1)
    if not rows:
        return None, ld
    return (C * (1.0 / s)[..., None] if k == 1 else svd.U.swapaxes(-1, -2)), ld


def gram_logdet(C: np.ndarray, name: str = "matrix") -> np.ndarray:
    """logdet(C C^T) of whiten, without the rows."""
    return whiten(C, name, rows=False)[1]


def weighted_sum(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """x @ c over the last axis of a (..., m) stack, rounded the same way for
    every row however many rows share the call. OpenBLAS's gemv may round
    the rows of a full group of four and the remaining rows differently, and
    numpy hands a single row to ddot; padding to a multiple of four rows
    puts every row in a full group."""
    rows = x.reshape(-1, x.shape[-1])
    padded = np.zeros((-(-len(rows) // 4) * 4, rows.shape[1]))
    padded[: len(rows)] = rows
    return (padded @ c)[: len(rows)].reshape(x.shape[:-1])


def spd_solve(M: np.ndarray, B: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Solve M X = B for SPD M with the same conditioning guard as chol_logdet."""
    L, _ = chol_logdet(M, name=name)
    Y = np.linalg.solve(L, B)
    return np.linalg.solve(L.T, Y)


def spd_inverse(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    return sym(spd_solve(M, np.eye(M.shape[0]), name=name))


def rank_and_norm(M: np.ndarray, ref=None):
    """Numerical rank and largest singular value of a matrix, or of each
    matrix in a (..., k, n) stack (an int and a float array). Singular values
    above RANK_TOL * ref count toward the rank; ref, one scale or one per
    matrix, defaults to each matrix's own largest singular value."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    s = np.linalg.svd(M, compute_uv=False)
    ref = s[..., :1] if ref is None else np.asarray(ref, dtype=float)[..., None]
    ranks = (s > RANK_TOL * ref).sum(axis=-1)
    return (int(ranks), float(s[0])) if M.ndim == 2 else (ranks, s[..., 0])


def numerical_rank(M: np.ndarray, ref=None):
    """The rank of rank_and_norm."""
    return rank_and_norm(M, ref)[0]
