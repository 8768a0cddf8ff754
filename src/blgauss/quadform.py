"""Harmonic combination of quadratic forms and its variational identity.

For SPD matrices A_i on the factor spaces, the matrix

    A = inv(sum_i c_i B_i^T inv(A_i) B_i)

satisfies, for every x,

    <A x, x> = inf { sum_i c_i <A_i x_i, x_i> : sum_i c_i B_i^T x_i = x },

attained at x_i = inv(A_i) B_i A x. This is the quadratic-form engine behind
the reversed inequality: it is how Gaussian factor inputs combine into the
smallest admissible enveloping Gaussian.
"""

from __future__ import annotations

import numpy as np

from ._linalg import check_spd, chol_logdet, spd_inverse, spd_solve, sym
from .datum import BLDatum, DatumError, FactorGroup, factor_groups
from .report import VerificationReport

INF_SLACK = 1e-10


def check_tuple(datum: BLDatum, tuple_) -> list[np.ndarray]:
    """Validate one SPD matrix per non-zero factor, shapes matching."""
    active = datum.active_indices()
    mats = list(tuple_)
    if len(mats) != len(active):
        raise ValueError(
            f"expected {len(active)} matrices (one per non-zero factor), got {len(mats)}"
        )
    out = []
    for i, M in zip(active, mats):
        want = datum.factors[i].target_dim
        M = check_spd(M, name=f"tuple entry for factor {i}")
        if M.shape[0] != want:
            raise ValueError(
                f"tuple entry for factor {i} has shape {M.shape}, expected ({want}, {want})"
            )
        out.append(M)
    return out


def harmonic_sum(groups: list[FactorGroup], stacks) -> tuple[np.ndarray, np.ndarray]:
    """sum_i c_i B_i^T inv(A_i) B_i and sum_i c_i logdet(A_i) for a stack of
    tuples, one (count, n_i, n_i) stack of A_i per non-zero factor in tuple
    order; shapes (count, n, n) and (count,). One stacked Cholesky and solve
    per factor group."""
    S, log_det = 0.0, 0.0
    for g in groups:
        A = np.stack([stacks[p] for p in g.positions], axis=1)  # (count, m_k, k, k)
        L, ld = chol_logdet(A, name=f"tuple entries {g.indices}")
        log_det = log_det + ld @ g.c
        Y = np.linalg.solve(L, np.broadcast_to(g.B, A.shape[:2] + g.B.shape[1:]))
        S = S + (g.c[:, None, None] * Y.swapaxes(2, 3) @ Y).sum(axis=1)
    return sym(S), log_det


def harmonic_combine(datum: BLDatum, tuple_) -> np.ndarray:
    """inv(sum_i c_i B_i^T inv(A_i) B_i) over non-zero factors."""
    S, _ = harmonic_sum(factor_groups(datum), [M[None] for M in check_tuple(datum, tuple_)])
    try:
        return spd_inverse(S[0], name="harmonic sum")
    except np.linalg.LinAlgError as exc:
        raise DatumError(
            "harmonic combination is singular; the factor maps do not jointly span "
            "(degenerate datum)"
        ) from exc


def inf_decomposition(datum: BLDatum, tuple_, x: np.ndarray):
    """Value and minimizer of the constrained quadratic problem at x.

    Returns (value, parts) where value = <A x, x> for the harmonic
    combination A and parts[k] is the optimal x_i for the k-th non-zero
    factor. The parts always satisfy sum_i c_i B_i^T x_i = x.
    """
    mats = check_tuple(datum, tuple_)
    x = np.asarray(x, dtype=float)
    if x.shape != (datum.n,):
        raise ValueError(f"x must have shape ({datum.n},), got {x.shape}")
    A = harmonic_combine(datum, mats)
    Ax = A @ x
    value = float(x @ Ax)
    parts = []
    for i, Ai in zip(datum.active_indices(), mats):
        f = datum.factors[i]
        parts.append(spd_solve(Ai, f.B @ Ax, name=f"tuple entry {i}"))
    return value, parts


def _stacked_adjoint(datum: BLDatum) -> np.ndarray:
    """n x (sum n_i) matrix with blocks c_i B_i^T, non-zero factors only."""
    blocks = [datum.factors[i].c * datum.factors[i].B.T for i in datum.active_indices()]
    return np.hstack(blocks)


def check_inf(
    datum: BLDatum,
    tuple_,
    x: np.ndarray,
    samples: int = 1000,
    seed: int = 0,
    scale: float | None = None,
) -> VerificationReport:
    """Brute-force the variational identity: no feasible decomposition may
    beat the claimed infimum.

    Feasible competitors are the minimizer plus random elements of the
    kernel of (x_1, ..., x_m) |-> sum_i c_i B_i^T x_i, with standard normal
    coefficients scaled by the minimizer's norm (override with `scale`).
    A sample counts as a violation when its objective is below the claimed
    value by more than 1e-10.
    """
    mats = check_tuple(datum, tuple_)
    value, parts = inf_decomposition(datum, mats, x)
    L = _stacked_adjoint(datum)
    U, s, Vt = np.linalg.svd(L)
    rank = int(np.sum(s > 1e-12 * s[0])) if s.size and s[0] > 0 else 0
    if rank < datum.n:
        raise DatumError("degenerate datum: the constraint map is not onto")
    kernel = Vt[rank:].T  # (sum n_i, kernel dim), orthonormal columns
    y0 = np.concatenate(parts)
    if scale is None:
        scale = float(np.linalg.norm(y0))

    rng = np.random.default_rng(seed)
    kdim = kernel.shape[1]
    if kdim > 0 and scale > 0.0:
        ys = y0[None, :] + (scale * rng.standard_normal((samples, kdim))) @ kernel.T
    else:
        ys = np.broadcast_to(y0, (samples, y0.size)).copy()

    objective = np.zeros(samples)
    offset = 0
    for i, Ai in zip(datum.active_indices(), mats):
        f = datum.factors[i]
        block = ys[:, offset : offset + f.target_dim]
        objective += f.c * np.einsum("sj,jk,sk->s", block, Ai, block)
        offset += f.target_dim

    violations = int(np.sum(objective < value - INF_SLACK))
    positive = objective[objective > 0.0]
    worst = float(np.max(value / positive)) if positive.size and value > 0.0 else 1.0
    at_minimizer = float(
        sum(
            datum.factors[i].c * (p @ Ai @ p)
            for i, Ai, p in zip(datum.active_indices(), mats, parts)
        )
    )
    return VerificationReport(
        samples=samples,
        violations=violations,
        worst_ratio=worst,
        equality_gap=abs(at_minimizer - value),
        seed=seed,
    )
