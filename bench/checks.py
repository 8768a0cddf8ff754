"""Correctness checks that share no code with the solver.

Each checker takes what a benchmark op returned and gives back ``None`` when
the output is right, or a :class:`Fail` naming what is wrong. Reference
values come from closed forms (``blgauss.young``), from exact identities
(frames have constant 1), or from plain numpy recomputation of the
Brascamp-Lieb objective at the returned covariance. Nothing here calls the
fixed-point iteration.

Solver results are read only through the ``SolveResult`` fields ``A``,
``constant``, ``residual``, ``iterations`` and ``converged``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

YOUNG_CONSTANT_RTOL = 1e-10
YOUNG_A_ATOL = 1e-8
FRAME_CONSTANT_ATOL = 1e-12
RESIDUAL_TOL = 1e-9
CONSTANT_RTOL = 1e-9
SWEEP_VIOLATION_RTOL = 1e-9
EXTREMIZER_GAP_TOL = 1e-10
QUAD_DIRECT_TOL = 1e-4
QUAD_REVERSE_TOL = 1e-3
Z_BAND = 3.0
# A Monte Carlo row beyond Z_BAND fails its op; only beyond Z_WRONG is it
# treated as a wrong answer rather than a rare draw (3 sigma happens).
Z_WRONG = 6.0
SPLIT_GAP_TOL = 1e-8
_RANK_TOL = 1e-9


@dataclass(frozen=True)
class Fail:
    """Why an op failed.

    ``incorrect`` marks a result the program presented as certified (a
    converged solve, a sweep report, a quadrature ratio, an exit code) that
    the check found wrong. A failure the program itself flagged, such as
    ``converged=False``, an exception or a leaked warning, is counted as a
    failed op but leaves ``incorrect`` False.
    """

    reason: str
    incorrect: bool = False


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


# -- the Brascamp-Lieb objective, recomputed with numpy ----------------------------

def objective_and_residual(datum, A: np.ndarray) -> tuple[float, float]:
    """F(A) = logdet A - sum c_i logdet(B_i A B_i^T) and the relative
    stationarity residual ||inv(A) - sum c_i B_i^T inv(B_i A B_i^T) B_i|| / ||inv(A)||."""
    A = np.asarray(A, dtype=float)
    sign, logdet_a = np.linalg.slogdet(A)
    if sign <= 0:
        return math.nan, math.inf
    inv_a = np.linalg.inv(A)
    M = np.zeros_like(A)
    logdets = 0.0
    for f in datum.factors:
        B = np.asarray(f.B, dtype=float)
        if not np.any(B):
            continue
        G = B @ A @ B.T
        sign_g, logdet_g = np.linalg.slogdet(G)
        if sign_g <= 0:
            return math.nan, math.inf
        M += f.c * (B.T @ np.linalg.solve(G, B))
        logdets += f.c * logdet_g
    residual = float(np.linalg.norm(inv_a - M) / np.linalg.norm(inv_a))
    return float(logdet_a - logdets), residual


def check_converged(datum, res) -> Fail | None:
    """A converged solve must be stationary and its constant must equal
    exp(F(A)/2), both recomputed here from ``res.A``."""
    if not res.converged:
        return Fail(f"not converged after {res.iterations} iterations")
    objective, residual = objective_and_residual(datum, res.A)
    if not residual <= RESIDUAL_TOL:
        return Fail(f"recomputed residual {residual:.2e} > {RESIDUAL_TOL:.0e}", incorrect=True)
    expect = math.exp(0.5 * objective)
    if not rel_err(res.constant, expect) <= CONSTANT_RTOL:
        return Fail(
            f"constant {res.constant!r} vs recomputed {expect!r} "
            f"(relative {rel_err(res.constant, expect):.1e})",
            incorrect=True,
        )
    return None


# -- finiteness by the dimension condition -----------------------------------------

def _orth(M: np.ndarray, n: int) -> np.ndarray:
    if M.size == 0:
        return np.zeros((n, 0))
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    k = int(np.sum(s > _RANK_TOL * max(1.0, s[0]))) if s.size else 0
    return U[:, :k]


def _null(M: np.ndarray, n: int) -> np.ndarray:
    _, s, Vt = np.linalg.svd(M, full_matrices=True)
    k = int(np.sum(s > _RANK_TOL * max(1.0, s[0]))) if s.size else 0
    return Vt[k:].T


def _meet(U: np.ndarray, W: np.ndarray, n: int) -> np.ndarray:
    if U.shape[1] == 0 or W.shape[1] == 0:
        return np.zeros((n, 0))
    eye = np.eye(n)
    return _null(np.vstack([eye - U @ U.T, eye - W @ W.T]), n)


def _key(U: np.ndarray) -> tuple:
    return (U.shape[1], tuple(np.round(U @ U.T, 7).ravel()))


def finite_by_dimension_condition(datum, max_lattice: int = 256) -> bool:
    """True when dim V <= sum_i c_i dim(B_i V) for every subspace V in the
    lattice generated by the kernels of the maps (Bennett-Carbery-Christ-Tao:
    for a homogeneous datum the constant is finite exactly then, and the
    kernel lattice holds every subspace that can break the condition).

    The lattice of at most three subspaces is finite; the closure is capped
    at ``max_lattice`` elements for safety and then raises.
    """
    n = datum.n
    maps = [np.asarray(f.B, dtype=float) for f in datum.factors if np.any(f.B)]
    lattice = {}
    for B in maps:
        K = _null(B, n)
        lattice.setdefault(_key(K), K)
    grew = True
    while grew:
        grew = False
        items = list(lattice.values())
        for a in items:
            for b in items:
                for c in (_meet(a, b, n), _orth(np.hstack([a, b]), n)):
                    k = _key(c)
                    if k not in lattice:
                        lattice[k] = c
                        grew = True
        if len(lattice) > max_lattice:
            raise RuntimeError("kernel lattice did not close; datum too large for this oracle")
    for V in lattice.values():
        k = V.shape[1]
        if 0 < k < n:
            spanned = sum(f.c * np.linalg.matrix_rank(np.asarray(f.B) @ V, tol=_RANK_TOL)
                          for f in datum.factors if np.any(f.B))
            if k > spanned + 1e-9:
                return False
    return True


def check_solve_verdict(datum, res, finite: bool) -> Fail | None:
    """Any solve: converged results are re-derived, a +inf verdict must agree
    with the dimension condition, anything else is inconclusive.

    A +inf verdict on a datum whose constant is finite fails the op but is not
    marked ``incorrect``. ``solve`` returns it with ``converged=False`` and
    documents it as a heuristic diagnosis, so the API does not present it as
    certified. The CLI does print it and exit 0; a CLI op that did so on a
    finite datum would be wrong output, and its exit-code check marks it so.
    No CLI op here runs such a datum."""
    if res.converged:
        if not finite:
            return Fail("converged on a datum whose constant is +inf", incorrect=True)
        return check_converged(datum, res)
    if res.constant == math.inf:
        if finite:
            return Fail(f"+inf after {res.iterations} iterations, but the dimension "
                        "condition holds, so the constant is finite")
        return None
    return Fail(f"inconclusive: constant {res.constant!r} not converged after "
                f"{res.iterations} iterations")


# -- closed-form references ---------------------------------------------------------

def check_young(res, constant_ref: float, A_ref: np.ndarray) -> Fail | None:
    if not res.converged:
        return Fail(f"not converged after {res.iterations} iterations")
    err = rel_err(res.constant, constant_ref)
    if not err <= YOUNG_CONSTANT_RTOL:
        return Fail(f"constant off Beckner's by {err:.1e} relative", incorrect=True)
    gap = float(np.abs(np.asarray(res.A) - A_ref).max())
    if not gap <= YOUNG_A_ATOL:
        return Fail(f"A off the closed form by {gap:.1e}", incorrect=True)
    return None


def check_constant_one(res) -> Fail | None:
    if not res.converged:
        return Fail(f"not converged after {res.iterations} iterations")
    if not abs(res.constant - 1.0) <= FRAME_CONSTANT_ATOL:
        return Fail(f"frame constant {res.constant!r} != 1", incorrect=True)
    return None


def check_value(value: float, reference: float, rtol: float, what: str) -> Fail | None:
    if not rel_err(value, reference) <= rtol:
        return Fail(f"{what} {value!r} vs reference {reference!r}", incorrect=True)
    return None


# -- verification layers ---------------------------------------------------------------

def check_sweep(report, ratios: np.ndarray, want_samples: int) -> Fail | None:
    ratios = np.asarray(ratios)
    if ratios.size != want_samples:
        return Fail(f"{ratios.size} ratios for {want_samples} samples", incorrect=True)
    over = int(np.sum(~(ratios <= 1.0 + SWEEP_VIOLATION_RTOL)))
    if over or report.violations:
        return Fail(f"{max(over, report.violations)} violations", incorrect=True)
    gap = report.equality_gap
    if gap is None or not gap <= EXTREMIZER_GAP_TOL:
        return Fail(f"extremizer gap {gap} > {EXTREMIZER_GAP_TOL:.0e}", incorrect=True)
    return None


def check_inf_report(report, want_samples: int) -> Fail | None:
    if report.samples != want_samples or report.violations != 0:
        return Fail(f"{report.violations} violations in {report.samples} samples", incorrect=True)
    return None


def check_ratio(ratio: float, tol: float, what: str) -> Fail | None:
    if not abs(ratio - 1.0) <= tol:
        return Fail(f"{what} ratio {ratio!r} not within {tol:.0e} of 1", incorrect=True)
    return None


def _z_fail(z: float, what: str) -> Fail:
    return Fail(f"{what} z = {z:+.2f} outside {Z_BAND:g}", incorrect=not abs(z) <= Z_WRONG)


def check_two_sided_z(estimate: float, stderr: float, exact: float, what: str) -> Fail | None:
    z = (estimate - exact) / stderr
    return None if abs(z) <= Z_BAND else _z_fail(z, what)


def closed_form_linear(A: np.ndarray, b: np.ndarray, horizon: float) -> float:
    return 0.5 * horizon * float(b @ A @ b)


def closed_form_quadratic(A: np.ndarray, Q: np.ndarray, horizon: float) -> float:
    sign, ld = np.linalg.slogdet(np.eye(A.shape[0]) + horizon * A @ Q)
    return -0.5 * float(ld) if sign > 0 else math.nan


def suite_closed_forms(A: np.ndarray, horizon: float) -> dict[str, float]:
    """Exact log-MGFs of the linear and quadratic g that ``builtin_suite`` uses."""
    n = A.shape[0]
    b = np.linspace(1.0, 0.5, n)
    Q = np.diag(np.linspace(0.5, 1.5, n)) + 0.1 * np.ones((n, n)) / n
    return {"linear": closed_form_linear(A, b, horizon),
            "quadratic": closed_form_quadratic(A, Q, horizon)}


def check_suite(rows, A: np.ndarray, horizon: float) -> Fail | None:
    """Closed rows are compared with closed forms computed here; bound rows
    (drift value below the log-MGF) are one-sided, as the estimator is a
    lower bound by construction."""
    exact = suite_closed_forms(A, horizon)
    closed = {r.label for r in rows if r.label.startswith("mc_log_mgf[")}
    if closed != {"mc_log_mgf[linear]", "mc_log_mgf[quadratic]"}:
        return Fail(f"suite closed-form rows are {sorted(closed)}", incorrect=True)
    for r in rows:
        if r.label.startswith("mc_log_mgf["):
            g = r.label[len("mc_log_mgf["):-1]
            fail = check_two_sided_z(r.estimate, r.stderr, exact[g], r.label)
        else:
            fail = None if r.z <= Z_BAND else _z_fail(r.z, r.label)
        if fail:
            return fail
    return None


def check_exit(code, expected: int, what: str) -> Fail | None:
    """A wrong exit code fails the op. It is a wrong answer when the program
    exited 0, claiming success; a non-zero exit is a failure it reported."""
    if code != expected:
        return Fail(f"{what} exited {code}, expected {expected}", incorrect=code == 0)
    return None
