"""Independent checks of the Gaussian forms of both inequalities.

Everything in this module treats the solver's output as a claim to be
falsified: random SPD inputs are thrown at the determinant inequalities
that the constant is supposed to dominate, and one gradient ascent along
SPD geodesics from A = I recomputes a lower bound for the constant without
ever touching the fixed-point iteration.

Specialized to centered Gaussians, the two inequalities read

    direct    prod_i det(A_i)^{c_i}  <=  C^2 det(sum_i c_i B_i^T A_i B_i)
    reversed  det(harmonic_combine(A_1..A_m))  <=  C^2 prod_i det(A_i)^{c_i}

and the dual form bounds det(A) <= C^2 prod_i det(B_i A B_i^T)^{c_i} for
every SPD A on the ambient space. All ratios are formed in the log domain.
Each inequality has one kernel that evaluates a whole stack of samples;
dual_check calls it on a stack of one. A sweep draws its samples in RNG
blocks but evaluates them in as few kernel calls as memory allows: one call
takes a run of consecutive blocks, with a supplied extremizer as one more
sample. The direct and reversed sweeps draw the same tuples, and
sweep_direct_and_reverse runs both kernels on one draw. Every kernel step
works matrix by matrix, element by element or, for the weighted sums over
factors, row by row (weighted_sum), so no ratio depends on which samples
share a call.
"""

from __future__ import annotations

import math

import numpy as np

from ._linalg import IllConditionedError, check_spd, chol_logdet, gram_logdet, sym, weighted_sum
from .datum import BLDatum, FactorGroup, check_count, check_solvable, check_spans
from .quadform import check_tuple, harmonic_sum
from .report import DEFAULT_SEED, MAX_ELEMENTS, VerificationReport, check_constant, check_seed

DEFAULT_SAMPLES = 1000

# A sampled ratio above this counts as a violation; everything below is
# quadrature-free exact arithmetic, so the slack only absorbs roundoff.
VIOLATION_RTOL = 1e-9

# Sweeps draw their samples in this many blocks, block b from
# SeedSequence((seed, b)); the layout fixes which sample every seed produces.
_BLOCKS = 16
# One kernel call evaluates a run of consecutive blocks of at most this many
# samples, or one larger block alone, so a call never holds more than a
# chunk or a block. A chunk of the n = 6, eight-factor reverse sweep peaks
# at about 7 MiB of arrays; 400,000 such samples in one call peaked at
# 784 MiB of RSS instead of 87 MiB, and ran no faster.
_CHUNK = 4096

# The iterations and the relative gradient that stop gaussian_constant_search.
_ASCENT_ITERS, _ASCENT_GTOL = 400, 1e-9


def sample_spd_stack(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n, n) stack of random SPD matrices G G^T + 1e-6 I, each
    rescaled log-uniformly over [1e-2, 1e2] so sweeps exercise more than
    one scale."""
    return _finish_spd([_draw_spd(n, count, rng)])


def _draw_spd(n: int, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The draws of sample_spd_stack: G and the scales."""
    G = rng.standard_normal((count, n, n))
    # math.exp keeps one-matrix draws bit-identical to the scalar draws of
    # earlier versions; np.exp differs in the last bit on a few inputs
    scale = np.fromiter(map(math.exp, rng.uniform(math.log(1e-2), math.log(1e2), size=count)),
                        float, count)
    return G, scale


def _finish_spd(draws: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The arithmetic of sample_spd_stack on the draws of one or more RNG
    blocks, one stack in block order. It works matrix by matrix, so a
    matrix does not depend on which blocks are finished together."""
    G, scale = (a[0] if len(a) == 1 else np.concatenate(a) for a in zip(*draws))
    M = G @ G.swapaxes(1, 2)
    M += 1e-6 * np.eye(G.shape[-1])
    M *= scale[:, None, None]
    return sym(M)


def _tuple_dims(datum: BLDatum) -> list[int]:
    return [datum.factors[i].target_dim for i in datum.active]


def sample_tuple(datum: BLDatum, rng: np.random.Generator) -> list[np.ndarray]:
    """One random SPD matrix per non-zero factor."""
    return [sample_spd_stack(k, 1, rng)[0] for k in _tuple_dims(datum)]


# -- stacked kernels: one formula per inequality, over a stack of samples -----
# A tuple is one (count, n_i, n_i) stack per non-zero factor; see BLDatum.groups.

def _direct_ratios(groups: tuple[FactorGroup, ...], constant: float, stacks) -> np.ndarray:
    check_constant(constant)
    # logdet of S = sum_i c_i B_i^T A_i B_i = Z^T Z off the rows sqrt(c_i) L_i^T B_i
    log_num, rows = 0.0, []
    for g in groups:
        A = np.stack([stacks[p] for p in g.positions], axis=1)  # (count, m_k, k, k)
        L, ld = chol_logdet(A, name=f"tuple entries {g.indices}")
        log_num = log_num + weighted_sum(ld, g.c)
        rows.extend(g.sqrt_cb[:, None] * (L.swapaxes(2, 3) @ g.B).swapaxes(0, 1))
    log_den = gram_logdet(np.concatenate(rows, axis=1).swapaxes(1, 2), name="combined precision")
    return _ratios(log_num, constant, log_den)


def _reverse_ratios(groups: tuple[FactorGroup, ...], constant: float, stacks) -> np.ndarray:
    check_constant(constant)
    Z, log_den, _ = harmonic_sum(groups, stacks)
    log_det_S = gram_logdet(Z.swapaxes(1, 2), name="harmonic sum")
    # logdet(inv(S)) = -logdet(S); inv(S) has the reciprocal eigenvalues, so
    # the harmonic sum guard already bounds its condition number
    return _ratios(-log_det_S, constant, log_den)


def _dual_ratios(groups: tuple[FactorGroup, ...], constant: float, A: np.ndarray) -> np.ndarray:
    check_constant(constant)
    # B_i A B_i^T = (B_i L)(B_i L)^T for A = L L^T
    L, log_num = chol_logdet(A, name="A")
    log_den = 0.0
    for g in groups:
        ld = gram_logdet(g.B @ L[:, None], name=f"B_i A B_i^T, i in {g.indices}")
        log_den = log_den + weighted_sum(ld, g.c)
    return _ratios(log_num, constant, log_den)


def _ratios(log_num, constant: float, log_den) -> np.ndarray:
    """exp(log_num - 2 log C - log_den), the tail of every kernel; inf past the float range."""
    with np.errstate(over="ignore"):
        return np.exp(log_num - 2.0 * math.log(constant) - log_den)


def _ambient(datum: BLDatum, A) -> np.ndarray:
    A = check_spd(A, "A")
    if A.shape[0] != datum.n:
        raise ValueError(f"A has shape {A.shape}, expected ({datum.n}, {datum.n})")
    return A


def dual_check(datum: BLDatum, constant: float, A: np.ndarray) -> float:
    """Ratio det(A) / (C^2 prod_i det(B_i A B_i^T)^{c_i}); at most 1 for every
    ambient SPD A, exactly 1 at the fixed point. Invariant under A -> t A.
    With constant 1 it is exp F(A), F(A) = logdet A - sum_i c_i
    logdet(B_i A B_i^T), and its square root is the lower bound on the
    constant that A certifies."""
    return float(_dual_ratios(datum.groups, constant, _ambient(datum, A)[None])[0])


# -- randomized sweeps ---------------------------------------------------------

def _runs(counts: list[int]):
    """Consecutive block indices whose counts add up to at most _CHUNK, or
    one larger block alone."""
    run, size = [], 0
    for b, count in enumerate(counts):
        if run and size + count > _CHUNK:
            yield run
            run, size = [], 0
        run.append(b)
        size += count
    yield run


def _draw_run(dims: list[int], counts: list[int], run: list[int], seed: int) -> list[np.ndarray]:
    """One (sum of counts, k, k) stack per k in dims: the samples of the
    blocks in `run`, in block order. Each block has its own generator, which
    draws its matrices in the order of dims, as sample_spd_stack would; the
    arithmetic of each stack is done once for all the blocks."""
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, b))) for b in run]
    return [_finish_spd([_draw_spd(k, counts[b], rng) for b, rng in zip(run, rngs)]) for k in dims]


def _sweep(datum, constant, kernels, dims, samples, seed):
    """Evaluate each (kernel, extremizer) of `kernels` on the samples of every
    RNG block, one draw and one call per kernel per run of blocks (see _runs),
    each sample one SPD matrix per entry of `dims`. A validated `extremizer`,
    one matrix per entry of `dims`, is sample 0 of its kernel's first call;
    its ratio gives the report's equality gap. One result per kernel.
    ValueError, before any draw, when all ratios or one stack exceed
    MAX_ELEMENTS. A sample past the conditioning guard raises its
    IllConditionedError, which names the sample (see _sample_name)."""
    check_count("samples", samples, 1)
    check_seed(seed)
    base, extra = divmod(samples, _BLOCKS)
    counts = [base + (1 if b < extra else 0) for b in range(_BLOCKS)]
    runs = list(_runs(counts))
    size, k = max(sum(counts[b] for b in run) for run in runs), max(dims)
    if (elements := max(samples, size * k * k)) > MAX_ELEMENTS:
        raise ValueError(f"max(samples, {size} * {k}^2) = {elements} exceeds the budget {MAX_ELEMENTS}")
    parts = [[] for _ in kernels]
    for run in runs:
        stacks = _draw_run(dims, counts, run, seed)
        for (kernel, extremizer), part in zip(kernels, parts):
            first = extremizer is not None and not part
            try:
                part.append(kernel(datum.groups, constant, stacks if not first else
                                   [np.concatenate([M[None], S]) for M, S in zip(extremizer, stacks)]))
            except IllConditionedError as err:
                raise err.of(_sample_name(counts, run, err.index[0] - first)) from err
        del stacks  # before the next run is drawn
    return [_report(np.concatenate(part), extremizer is not None, seed)
            for (_, extremizer), part in zip(kernels, parts)]


def _sample_name(counts: list[int], run: list[int], p: int) -> str:
    """The name of position p of a run's samples (-1: the extremizer before
    them): its number in the report's ratio order, its block and its draw."""
    if p < 0:
        return "the extremizer"
    for b in run:
        if p < counts[b]:
            return f"sample {sum(counts[:b]) + p} (block {b}, draw {p})"
        p -= counts[b]


def _report(ratios: np.ndarray, with_extremizer: bool, seed: int) -> tuple[VerificationReport, np.ndarray]:
    """The report and ratios of the random samples. With an extremizer,
    ratios[0] is its ratio: it is reported as the equality gap |1 - ratio|
    and counts as one more violation above 1 + VIOLATION_RTOL, so that a
    constant too small for its own extremizer fails the sweep."""
    violations, gap = int(np.sum(ratios > 1.0 + VIOLATION_RTOL)), None
    if with_extremizer:
        gap, ratios = abs(1.0 - float(ratios[0])), ratios[1:]
    return VerificationReport(
        samples=int(ratios.size),
        violations=violations,
        worst_ratio=float(ratios.max()),
        equality_gap=gap,
        seed=seed,
    ), ratios


def sweep_direct(
    datum: BLDatum,
    constant: float,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    *,
    extremizer=None,
) -> tuple[VerificationReport, np.ndarray]:
    """Throw random SPD tuples at the direct Gaussian inequality."""
    kernels = [(_direct_ratios, _checked(datum, extremizer))]
    return _sweep(datum, constant, kernels, _tuple_dims(datum), samples, seed)[0]


def sweep_reverse(
    datum: BLDatum,
    constant: float,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    *,
    extremizer=None,
) -> tuple[VerificationReport, np.ndarray]:
    """Throw random SPD tuples at the reversed Gaussian inequality."""
    kernels = [(_reverse_ratios, _checked(datum, extremizer))]
    return _sweep(datum, constant, kernels, _tuple_dims(datum), samples, seed)[0]


def sweep_direct_and_reverse(
    datum: BLDatum,
    constant: float,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    *,
    extremizers=(None, None),
) -> list[tuple[VerificationReport, np.ndarray]]:
    """sweep_direct and sweep_reverse with the same arguments, on one draw of
    the tuples that both would draw; extremizers is (direct, reverse)."""
    kernels = [(kernel, _checked(datum, ext))
               for kernel, ext in zip((_direct_ratios, _reverse_ratios), extremizers)]
    return _sweep(datum, constant, kernels, _tuple_dims(datum), samples, seed)


def _checked(datum: BLDatum, tuple_):
    check_spans(datum)  # before any draw, with or without an extremizer
    return None if tuple_ is None else check_tuple(datum, tuple_)


def sweep_dual(
    datum: BLDatum,
    constant: float,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    *,
    extremizer: np.ndarray | None = None,
) -> tuple[VerificationReport, np.ndarray]:
    """Throw random ambient SPD matrices at the dual determinant bound."""
    ext = None if extremizer is None else [_ambient(datum, extremizer)]
    kernels = [(lambda groups, c, stacks: _dual_ratios(groups, c, stacks[0]), ext)]
    return _sweep(datum, constant, kernels, [datum.n], samples, seed)[0]


# -- independent lower bound for the constant ----------------------------------

def gaussian_constant_search(datum: BLDatum) -> float:
    """Best constant found by plain gradient ascent of the log-det objective
    F(A) = logdet A - sum_i c_i logdet(B_i A B_i^T) along SPD geodesics.

    F is geodesically concave, so one ascent from A = I reaches its
    supremum: it carries a factor K of A = K K^T and climbs
    H -> F(K exp(H) K^T), whose gradient at H = 0 is I - K^T S K,
    S = sum_i c_i B_i^T inv(B_i A B_i^T) B_i; F is scale invariant, so the
    step is the traceless part of it, taken by an Armijo rule.

    Deliberately ignorant of the solver: F and S come from harmonic_sum, not
    the solver's whitening, so this is an independent bound the solver's
    constant is compared against. A datum that check_solvable refuses is
    refused here with the same error.
    """
    check_solvable(datum)
    n = datum.n
    K = np.eye(n)
    try:
        obj, S = _objective(datum, K)
    except np.linalg.LinAlgError:
        return 0.0
    step = 1.0
    for _ in range(_ASCENT_ITERS):
        H = sym(np.eye(n) - K.T @ S @ K)
        H -= np.trace(H) / n * np.eye(n)
        h2 = float(np.sum(H * H))
        if math.sqrt(h2) <= _ASCENT_GTOL * math.sqrt(n):
            break
        lam, V = np.linalg.eigh(H)
        # exp(step * lam / 2) stays within [e^-2, e^2], so no trial overflows
        step = min(step, 4.0 / np.abs(lam).max())
        while step >= 1e-14:
            K_try = K @ (V * np.exp(0.5 * step * lam)) @ V.T
            try:
                obj_try, S_try = _objective(datum, K_try)
            except np.linalg.LinAlgError:
                obj_try = -math.inf
            if obj_try >= obj + 1e-4 * step * h2:
                K, obj, S = K_try, obj_try, S_try
                step *= 2.0
                break
            step *= 0.5
        else:
            break
    return math.exp(0.5 * obj)


def _objective(datum: BLDatum, K: np.ndarray):
    """F(A) at A = K K^T and the sum S = sum_i c_i B_i^T inv(B_i A B_i^T) B_i;
    both sums come from the harmonic sum of the tuple (B_i A B_i^T)_i."""
    A = sym(K @ K.T)
    Z, log_det, _ = harmonic_sum(datum.groups, [sym(datum.factors[i].B @ A @ datum.factors[i].B.T)[None]
                                             for i in datum.active])
    return float(gram_logdet(K, "A") - log_det[0]), sym(Z[0].T @ Z[0])
