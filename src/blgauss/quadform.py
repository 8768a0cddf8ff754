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

from ._linalg import check_spd, chol_logdet, spd_inverse, sym, weighted_sum
from .datum import BLDatum, FactorGroup, check_count, check_spans
from .report import DEFAULT_SEED, MAX_ELEMENTS, VerificationReport, check_seed

INF_SLACK = 1e-10


def check_tuple(datum: BLDatum, tuple_) -> list[np.ndarray]:
    """Validate one SPD matrix per non-zero factor, shapes matching, for a
    datum that check_spans admits."""
    check_spans(datum)
    mats = list(tuple_)
    if len(mats) != len(datum.active):
        raise ValueError(
            f"expected {len(datum.active)} matrices (one per non-zero factor), got {len(mats)}"
        )
    out = []
    for i, M in zip(datum.active, mats):
        want = datum.factors[i].target_dim
        M = check_spd(M, name=f"tuple entry for factor {i}")
        if M.shape[0] != want:
            raise ValueError(
                f"tuple entry for factor {i} has shape {M.shape}, expected ({want}, {want})"
            )
        out.append(M)
    return out


def harmonic_sum(groups: tuple[FactorGroup, ...], stacks):
    """The rows Z of sqrt(c_i) inv(L_i) B_i, A_i = L_i L_i^T, whose Gram matrix
    Z^T Z is the harmonic sum sum_i c_i B_i^T inv(A_i) B_i, and sum_i c_i
    logdet(A_i), for one (count, n_i, n_i) stack of A_i per non-zero factor in
    tuple order; shapes (count, sum_i n_i, n) and (count,); and the L_i, a
    (count, m_k, k, k) stack per factor group, from one Cholesky each."""
    rows, log_det, factors = [], 0.0, []
    for g in groups:
        A = np.stack([stacks[p] for p in g.positions], axis=1)  # (count, m_k, k, k)
        L, ld = chol_logdet(A, name=f"tuple entries {g.indices}")
        log_det = log_det + weighted_sum(ld, g.c)
        Y = np.linalg.solve(L, np.broadcast_to(g.B, A.shape[:2] + g.B.shape[1:]))
        rows.extend(g.sqrt_cb[:, None] * Y.swapaxes(0, 1))
        factors.append(L)
    return np.concatenate(rows, axis=1), log_det, factors


def harmonic_combine(datum: BLDatum, tuple_) -> np.ndarray:
    """inv(sum_i c_i B_i^T inv(A_i) B_i) over non-zero factors."""
    return _combine(datum, check_tuple(datum, tuple_))[0]


def _combine(datum: BLDatum, mats: list[np.ndarray]):
    """harmonic_combine of a tuple check_tuple returned, and the Cholesky
    factors of its entries (harmonic_sum)."""
    Z, _, factors = harmonic_sum(datum.groups, [M[None] for M in mats])
    return spd_inverse(sym(Z[0].T @ Z[0]), name="harmonic sum"), factors


def inf_decomposition(datum: BLDatum, tuple_, x: np.ndarray):
    """Value and minimizer of the constrained quadratic problem at x.

    Returns (value, parts) where value = <A x, x> for the harmonic
    combination A and parts[k] is the optimal x_i for the k-th non-zero
    factor. The parts always satisfy sum_i c_i B_i^T x_i = x.
    """
    return _decompose(datum, check_tuple(datum, tuple_), x)


def _decompose(datum: BLDatum, mats: list[np.ndarray], x: np.ndarray):
    """inf_decomposition of a tuple check_tuple returned."""
    x = np.asarray(x, dtype=float)
    if x.shape != (datum.n,):
        raise ValueError(f"x must have shape ({datum.n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x must be finite, got {x.tolist()}")
    A, factors = _combine(datum, mats)
    Ax = A @ x
    value = float(x @ Ax)
    # x_i = inv(L_i^T) inv(L_i) B_i A x, one stacked solve pair per group
    parts = [None] * len(mats)
    for g, (L,) in zip(datum.groups, factors):
        X = np.linalg.solve(L.swapaxes(1, 2), np.linalg.solve(L, (g.B @ Ax)[..., None]))
        for p, part in zip(g.positions, X[..., 0]):
            parts[p] = part
    return value, parts


def check_inf(
    datum: BLDatum,
    tuple_,
    x: np.ndarray,
    samples: int = 1000,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Brute-force the variational identity: no feasible decomposition may
    beat the claimed infimum.

    Feasible competitors are the minimizer plus random elements of the
    kernel of (x_1, ..., x_m) |-> sum_i c_i B_i^T x_i, with standard normal
    coefficients scaled by the minimizer's norm. A sample counts as a
    violation when its objective is below the claimed value by more than
    1e-10. ValueError, before any draw, when they exceed MAX_ELEMENTS.
    """
    check_count("samples", samples, 1)
    check_seed(seed)
    mats = check_tuple(datum, tuple_)
    value, parts = _decompose(datum, mats, x)
    _, kernel = datum.decomposition
    if (elements := samples * (kernel.shape[1] + kernel.shape[0])) > MAX_ELEMENTS:
        raise ValueError(f"samples * (kernel dim + sum n_i) = {elements} exceeds the budget {MAX_ELEMENTS}")
    y0 = np.concatenate(parts)
    scale = float(np.linalg.norm(y0))

    rng = np.random.default_rng(seed)
    ys = y0[None, :] + (scale * rng.standard_normal((samples, kernel.shape[1]))) @ kernel.T

    objective = np.zeros(samples)
    offset = 0
    for i, Ai in zip(datum.active, mats):
        f = datum.factors[i]
        block = ys[:, offset : offset + f.target_dim]
        objective += f.c * np.einsum("sj,jk,sk->s", block, Ai, block)
        offset += f.target_dim

    violations = int(np.sum(objective < value - INF_SLACK))
    positive = objective[objective > 0.0]
    worst = float(np.max(value / positive)) if positive.size and value > 0.0 else 1.0
    at_minimizer = float(sum(datum.factors[i].c * (p @ Ai @ p)
                             for i, Ai, p in zip(datum.active, mats, parts)))
    return VerificationReport(
        samples=samples,
        violations=violations,
        worst_ratio=worst,
        equality_gap=abs(at_minimizer - value),
        seed=seed,
    )
