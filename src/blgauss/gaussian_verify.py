"""Independent checks of the Gaussian forms of both inequalities.

Everything in this module treats the solver's output as a claim to be
falsified: random SPD inputs are thrown at the determinant inequalities
that the constant is supposed to dominate, and a random-restart ascent
recomputes a lower bound for the constant without ever touching the
fixed-point iteration.

Specialized to centered Gaussians, the two inequalities read

    direct    prod_i det(A_i)^{c_i}  <=  C^2 det(sum_i c_i B_i^T A_i B_i)
    reversed  det(harmonic_combine(A_1..A_m))  <=  C^2 prod_i det(A_i)^{c_i}

and the dual form bounds det(A) <= C^2 prod_i det(B_i A B_i^T)^{c_i} for
every SPD A on the ambient space. All ratios are formed in the log domain.
Each inequality has one kernel that evaluates a whole stack of samples; the
point checks call it on a stack of one.
"""

from __future__ import annotations

import math

import numpy as np

from ._linalg import check_spd, chol_logdet, dexp_adjoint, expm_sym, spd_inverse, sym
from .datum import BLDatum, DatumError, FactorGroup, factor_groups, validate
from .gaussian_solver import HOMOGENEITY_TOL, grad_logdet, logdet_objective
from .quadform import check_tuple, harmonic_sum
from .report import VerificationReport

DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 1000

# A sampled ratio above this counts as a violation; everything below is
# quadrature-free exact arithmetic, so the slack only absorbs roundoff.
VIOLATION_RTOL = 1e-9

# Sweeps draw their samples in this many blocks, block b from
# SeedSequence((seed, b)): a block is the unit one stacked kernel call
# evaluates, so memory stays at 1/_BLOCKS of the samples, and the layout
# fixes which sample every seed produces.
_BLOCKS = 16


def sample_spd_stack(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n, n) stack of random SPD matrices G G^T + 1e-6 I, each
    rescaled log-uniformly over [1e-2, 1e2] so sweeps exercise more than
    one scale."""
    G = rng.standard_normal((count, n, n))
    # math.exp keeps one-matrix draws bit-identical to the scalar draws of
    # earlier versions; np.exp differs in the last bit on a few inputs
    scale = np.fromiter(map(math.exp, rng.uniform(math.log(1e-2), math.log(1e2), size=count)),
                        float, count)
    M = (G @ G.swapaxes(1, 2) + 1e-6 * np.eye(n)) * scale[:, None, None]
    return sym(M)


def sample_spd(n: int, rng: np.random.Generator) -> np.ndarray:
    """One random SPD matrix from the distribution of sample_spd_stack."""
    return sample_spd_stack(n, 1, rng)[0]


def sample_tuple(datum: BLDatum, rng: np.random.Generator) -> list[np.ndarray]:
    """One random SPD matrix per non-zero factor."""
    return [sample_spd(datum.factors[i].target_dim, rng) for i in datum.active_indices()]


# -- stacked kernels: one formula per inequality, over a block of samples -----
# A tuple is one (count, n_i, n_i) stack per non-zero factor; see factor_groups.

def _direct_ratios(groups: list[FactorGroup], constant: float, stacks) -> np.ndarray:
    log_num, S = 0.0, 0.0
    for g in groups:
        A = np.stack([stacks[p] for p in g.positions], axis=1)  # (count, m_k, k, k)
        log_num = log_num + chol_logdet(A, name=f"tuple entries {g.indices}")[1] @ g.c
        S = S + (g.c[:, None, None] * g.B.swapaxes(1, 2) @ A @ g.B).sum(axis=1)
    _, log_den = chol_logdet(sym(S), name="combined precision")
    return np.exp(log_num - 2.0 * math.log(constant) - log_den)


def _reverse_ratios(groups: list[FactorGroup], constant: float, stacks) -> np.ndarray:
    S, log_den = harmonic_sum(groups, stacks)
    try:
        _, log_det_S = chol_logdet(S, name="harmonic sum")
    except np.linalg.LinAlgError as exc:
        raise DatumError("harmonic sum is singular; the factor maps do not jointly span") from exc
    # logdet(inv(S)) = -logdet(S); inv(S) has the reciprocal eigenvalues, so
    # the harmonic sum guard already bounds its condition number
    return np.exp(-log_det_S - 2.0 * math.log(constant) - log_den)


def _dual_ratios(groups: list[FactorGroup], constant: float, A: np.ndarray) -> np.ndarray:
    _, log_num = chol_logdet(A, name="A")
    log_den = 0.0
    for g in groups:
        P = sym(g.B @ A[:, None] @ g.B.swapaxes(1, 2))  # (count, m_k, k, k)
        log_den = log_den + chol_logdet(P, name=f"B_i A B_i^T, i in {g.indices}")[1] @ g.c
    return np.exp(log_num - 2.0 * math.log(constant) - log_den)


def direct_gaussian_check(datum: BLDatum, constant: float, tuple_) -> float:
    """Ratio of the Gaussian direct inequality; at most 1 when `constant`
    really dominates the datum, exactly 1 at the direct extremizers."""
    stacks = [M[None] for M in check_tuple(datum, tuple_)]
    return float(_direct_ratios(factor_groups(datum), constant, stacks)[0])


def reverse_gaussian_check(datum: BLDatum, constant: float, tuple_) -> float:
    """Ratio of the Gaussian reversed inequality; at most 1 when `constant`
    dominates, exactly 1 at the reversed extremizers."""
    stacks = [M[None] for M in check_tuple(datum, tuple_)]
    return float(_reverse_ratios(factor_groups(datum), constant, stacks)[0])


def dual_check(datum: BLDatum, constant: float, A: np.ndarray) -> float:
    """Ratio det(A) / (C^2 prod_i det(B_i A B_i^T)^{c_i}); at most 1 for every
    ambient SPD A, exactly 1 at the fixed point. Invariant under A -> t A."""
    return float(_dual_ratios(factor_groups(datum), constant, check_spd(A, "A")[None])[0])


def logdet_duality_check(A: np.ndarray, B: np.ndarray) -> float:
    """Gap of the concave-duality bound logdet(A) <= tr(A B) - n - logdet(inv(B)).

    Written with B as the dual variable: gap = tr(A B) - n - logdet(B) - logdet(A),
    nonnegative for all SPD pairs and zero exactly at B = inv(A)."""
    A = check_spd(A, "A")
    B = check_spd(B, "B")
    n = A.shape[0]
    _, ld_A = chol_logdet(A, "A")
    _, ld_B = chol_logdet(B, "B")
    return float(np.trace(A @ B)) - n - float(ld_B) - float(ld_A)


# -- randomized sweeps ---------------------------------------------------------

def _sweep(datum, constant, kernel, draw, samples, seed, at_extremizer):
    """Evaluate `kernel` on the samples `draw(rng, count)` of every RNG block."""
    base, extra = divmod(samples, _BLOCKS)
    groups = factor_groups(datum)
    ratios = np.concatenate([
        kernel(groups, constant, draw(np.random.default_rng(np.random.SeedSequence((seed, b))),
                                      base + (1 if b < extra else 0)))
        for b in range(_BLOCKS)
    ])
    return VerificationReport(
        samples=int(ratios.size),
        violations=int(np.sum(ratios > 1.0 + VIOLATION_RTOL)),
        worst_ratio=float(ratios.max()) if ratios.size else 1.0,
        equality_gap=None if at_extremizer is None else abs(1.0 - at_extremizer),
        seed=seed,
    ), ratios


def _draw_tuples(datum: BLDatum):
    dims = [datum.factors[i].target_dim for i in datum.active_indices()]
    return lambda rng, count: [sample_spd_stack(k, count, rng) for k in dims]


def sweep_direct(
    datum: BLDatum,
    constant: float,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    *,
    extremizer=None,
) -> tuple[VerificationReport, np.ndarray]:
    """Throw random SPD tuples at the direct Gaussian inequality."""
    at_ext = None if extremizer is None else direct_gaussian_check(datum, constant, extremizer)
    return _sweep(datum, constant, _direct_ratios, _draw_tuples(datum), samples, seed, at_ext)


def sweep_reverse(
    datum: BLDatum,
    constant: float,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    *,
    extremizer=None,
) -> tuple[VerificationReport, np.ndarray]:
    """Throw random SPD tuples at the reversed Gaussian inequality."""
    at_ext = None if extremizer is None else reverse_gaussian_check(datum, constant, extremizer)
    return _sweep(datum, constant, _reverse_ratios, _draw_tuples(datum), samples, seed, at_ext)


def sweep_dual(
    datum: BLDatum,
    constant: float,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    *,
    extremizer: np.ndarray | None = None,
) -> tuple[VerificationReport, np.ndarray]:
    """Throw random ambient SPD matrices at the dual determinant bound."""
    at_ext = None if extremizer is None else dual_check(datum, constant, extremizer)
    return _sweep(datum, constant, _dual_ratios,
                  lambda rng, count: sample_spd_stack(datum.n, count, rng), samples, seed, at_ext)


# -- independent lower bound for the constant ----------------------------------

def gaussian_constant_search(
    datum: BLDatum,
    iters: int = 400,
    seed: int = DEFAULT_SEED,
    restarts: int = 4,
) -> float:
    """Best constant found by plain gradient ascent of the log-det objective
    over SPD matrices, parameterized as A = exp(S) with S symmetric.

    Deliberately ignorant of the fixed-point iteration: this is the sanity
    bound the solver's constant is compared against. The first restart
    starts at the identity, the rest at random symmetric S.
    """
    diag = validate(datum)
    if diag.degenerate:
        raise DatumError("degenerate datum: constant is +inf")
    if abs(diag.homogeneity_defect) > HOMOGENEITY_TOL:
        raise DatumError("inhomogeneous datum: no finite positive constant")

    n = datum.n
    rng = np.random.default_rng(seed)
    best = -math.inf
    for r in range(restarts):
        if r == 0:
            S = np.zeros((n, n))
        else:
            S = 0.5 * sym(rng.standard_normal((n, n)))
            S -= np.trace(S) / n * np.eye(n)
        best = max(best, _ascend_once(datum, S, iters))
    return math.exp(0.5 * best)


def _ascend_once(datum: BLDatum, S: np.ndarray, iters: int, gtol: float = 1e-9) -> float:
    n = datum.n
    step = 1.0
    obj = -math.inf
    for _ in range(iters):
        A, w, U = expm_sym(S)
        try:
            obj = logdet_objective(datum, A)
            G = grad_logdet(datum, A)
        except np.linalg.LinAlgError:
            return obj
        if np.linalg.norm(G) <= gtol * np.linalg.norm(spd_inverse(A, "A")):
            return obj
        GS = dexp_adjoint(w, U, G)
        g2 = float(np.sum(GS * GS))
        while step >= 1e-14:
            S_try = sym(S + step * GS)
            S_try -= np.trace(S_try) / n * np.eye(n)
            try:
                obj_try = logdet_objective(datum, expm_sym(S_try)[0])
            except np.linalg.LinAlgError:
                step *= 0.5
                continue
            if obj_try >= obj + 1e-4 * step * g2:
                S = S_try
                step = min(2.0 * step, 1e2)
                break
            step *= 0.5
        else:
            return obj
    return obj
