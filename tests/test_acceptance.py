"""Acceptance gate: one check per shipped guarantee.

Every check prints a single `PASS`/`FAIL` line with the measured value and
enforces the stated tolerance, including the runtime budget where one is
part of the guarantee. Run `python3 tests/test_acceptance.py` for the
nine-line summary; pytest collects the same checks as individual tests.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from blgauss import (
    BrownianConfig,
    GridFunction,
    Subspace,
    YoungExponents,
    beckner_constant,
    builtin_suite,
    check_inf,
    closed_form_A,
    constant_from_cs,
    datum_from_exponents,
    direct_extremizers,
    direct_integral_check,
    direct_sum,
    dual_check,
    gaussian_function,
    grad_logdet,
    inf_decomposition,
    multiplicativity_check,
    reverse_extremizers,
    reverse_integral_check,
    sample_spd_stack,
    solve,
    sweep_direct,
    sweep_reverse,
)
from blgauss.quadform import check_tuple
from conftest import (
    coordinate_datum,
    mercedes_frame_datum,
    prekopa_leindler_datum,
    random_datum,
    random_spd_tuple,
    well_conditioned_spd,
    young_flagship,
)


def _objective(datum, A):
    """F(A) = logdet A - sum_i c_i logdet(B_i A B_i^T) through the dual form:
    dual_check with constant 1 is exp F(A)."""
    return math.log(dual_check(datum, 1.0, A))


def _fd_gradient(datum, A, h=1e-5):
    """Central finite differences of the log-det objective over the
    symmetric coordinate directions; off-diagonal entries halved because
    the direction matrix hits both (j,k) and (k,j)."""
    n = A.shape[0]
    G = np.zeros((n, n))
    for j in range(n):
        for k in range(j, n):
            D = np.zeros((n, n))
            D[j, k] = D[k, j] = 1.0
            g = (_objective(datum, A + h * D) - _objective(datum, A - h * D)) / (2.0 * h)
            G[j, k] = G[k, j] = g if j == k else 0.5 * g
    return G


# -- criteria ----------------------------------------------------------------------

def frame_recovery():
    t0 = time.perf_counter()
    worst_res = worst_err = 0.0
    converged = True
    for d in (prekopa_leindler_datum(), coordinate_datum(3), mercedes_frame_datum()):
        r = solve(d)
        converged &= r.converged
        worst_res = max(worst_res, r.residual)
        worst_err = max(worst_err, abs(r.constant - 1.0))
    dt = time.perf_counter() - t0
    ok = converged and worst_res < 1e-10 and worst_err <= 1e-12 and dt < 1.0
    return ok, f"max residual {worst_res:.1e}, max |C-1| {worst_err:.1e} [{dt:.2f} s < 1 s]"


def convolution_closed_forms():
    t0 = time.perf_counter()
    grid = [YoungExponents(4.0 / 3.0, 4.0 / 3.0, 2.0)]
    for p in np.linspace(1.1, 1.75, 10):
        for q in np.linspace(1.1, 1.75, 10):
            grid.append(YoungExponents.from_pq(p, q))
    worst_A = worst_c = 0.0
    converged = True
    for e in grid:
        d = datum_from_exponents(e)
        r = solve(d)
        converged &= r.converged
        worst_A = max(worst_A, float(np.abs(r.A - closed_form_A(e)).max()))
        cs = (math.sqrt(dual_check(d, 1.0, r.A)), beckner_constant(e), constant_from_cs(*e.weights))
        worst_c = max(worst_c, max(cs) - min(cs))
    dt = time.perf_counter() - t0
    ok = converged and worst_A <= 1e-8 and worst_c <= 1e-10 and dt < 10.0
    return ok, (
        f"{len(grid)} exponent triples, max |A - closed| {worst_A:.1e}, "
        f"constant spread {worst_c:.1e} [{dt:.2f} s < 10 s]"
    )


def gaussian_inequality_sweeps():
    data = {
        "convolution": young_flagship()[1],
        "two-identities": prekopa_leindler_datum(),
        "coordinates": coordinate_datum(3),
        "mercedes": mercedes_frame_datum(),
    }
    violations = 0
    worst_gap = worst_dt = 0.0
    for d in data.values():
        t0 = time.perf_counter()
        r = solve(d)
        rep_d, _ = sweep_direct(d, r.constant, 1000, 7, extremizer=direct_extremizers(d, r.A))
        rep_r, _ = sweep_reverse(d, r.constant, 1000, 7, extremizer=reverse_extremizers(d, r.A)[0])
        violations += rep_d.violations + rep_r.violations
        worst_gap = max(worst_gap, rep_d.equality_gap, rep_r.equality_gap)
        worst_dt = max(worst_dt, time.perf_counter() - t0)
    ok = violations == 0 and worst_gap <= 1e-10 and worst_dt < 10.0
    return ok, (
        f"{len(data)} data x 1000 tuples: {violations} violations, "
        f"extremizer gap {worst_gap:.1e} [{worst_dt:.2f} s/datum < 10 s]"
    )


def hadamard_diagonal_equality():
    d = coordinate_datum(3)
    rng = np.random.default_rng(4)
    ratios = [dual_check(d, 1.0, sample_spd_stack(3, 1, rng)[0]) for _ in range(1000)]
    violations = sum(r > 1.0 + 1e-12 for r in ratios)
    gap = max(
        abs(dual_check(d, 1.0, np.diag(rng.uniform(0.2, 5.0, 3))) - 1.0) for _ in range(20)
    )
    ok = violations == 0 and gap <= 1e-12
    return ok, f"1000 SPD samples: {violations} violations, diagonal gap {gap:.1e}"


def infimum_decomposition_oracle():
    rng = np.random.default_rng(20240817)
    violations = 0
    worst_feas = worst_gap = 0.0
    for k in range(100):
        d = random_datum(rng)
        tup = random_spd_tuple(d, rng)
        x = rng.standard_normal(d.n)
        _, parts = inf_decomposition(d, check_tuple(d, tup), x)
        recombined = np.zeros(d.n)
        for i, p in zip(d.active, parts):
            f = d.factors[i]
            recombined += f.c * (f.B.T @ p)
        worst_feas = max(worst_feas, float(np.abs(recombined - x).max()))
        rep = check_inf(d, tup, x, samples=1000, seed=500 + k)
        violations += rep.violations
        worst_gap = max(worst_gap, rep.equality_gap)
    ok = violations == 0 and worst_feas <= 1e-10 and worst_gap <= 1e-10
    return ok, (
        f"100 instances x 1000 perturbations: {violations} violations, "
        f"feasibility {worst_feas:.1e}, attainment gap {worst_gap:.1e}"
    )


def quadrature_equality_cases():
    t0 = time.perf_counter()
    d = young_flagship()[1]
    r = solve(d)
    fs = [
        GridFunction.from_callable(gaussian_function(P), -8.0, 8.0, 801)
        for P in direct_extremizers(d, r.A)
    ]
    direct = direct_integral_check(d, fs, r.constant, 801, 8.0)
    tuple_r, _ = reverse_extremizers(d, r.A)
    fs_r = [
        GridFunction.from_callable(gaussian_function(P), -8.0, 8.0, 401) for P in tuple_r
    ]
    reverse = reverse_integral_check(d, fs_r, r.constant, 401, 8.0)
    dt = time.perf_counter() - t0
    ok = abs(direct - 1.0) <= 1e-4 and abs(reverse - 1.0) <= 1e-3 and dt < 60.0
    return ok, (
        f"direct ratio 1{direct - 1.0:+.1e} (801 pts), "
        f"reverse ratio 1{reverse - 1.0:+.1e} (401 pts) [{dt:.2f} s < 60 s]"
    )


def brownian_lower_bounds():
    t0 = time.perf_counter()
    config = BrownianConfig(
        A=np.array([[1.0, 0.3], [0.3, 0.8]]), horizon=1.0, steps=128, paths=100_000, seed=1729
    )
    rows = builtin_suite(config)
    bound_z = max(r.z for r in rows if r.kind == "bound")
    closed_z = max(abs(r.z) for r in rows if r.kind == "closed")
    opt = next(r for r in rows if r.label == "drift_value[linear;constant-opt]")
    opt_z = abs(opt.estimate - opt.closed_form) / opt.stderr
    dt = time.perf_counter() - t0
    ok = bound_z <= 3.0 and closed_z <= 3.0 and opt_z <= 3.0 and dt < 30.0
    return ok, (
        f"{len(rows)} rows at 10^5 paths: worst bound z {bound_z:+.2f}, "
        f"worst closed-form |z| {closed_z:.2f}, optimal-drift |z| {opt_z:.2f} [{dt:.2f} s < 30 s]"
    )


def critical_subspace_multiplicativity():
    d = direct_sum(young_flagship()[1], young_flagship()[1])
    E = Subspace.from_rows(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))
    result = multiplicativity_check(d, E)
    ok = result.gap <= 1e-8
    return ok, (
        f"C {result.constant:.9f} vs product {result.restricted_constant * result.quotient_constant:.9f}, "
        f"relative gap {result.gap:.1e}"
    )


def gradient_vs_finite_differences():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        d = random_datum(rng)
        A = well_conditioned_spd(d.n, rng)
        worst = max(worst, float(np.abs(grad_logdet(d, A) - _fd_gradient(d, A)).max()))
    ok = worst <= 1e-6
    return ok, f"20 instances, max |grad - fd| {worst:.1e}"


CRITERIA = [
    ("criterion 1 (frame recovery)", frame_recovery),
    ("criterion 2 (convolution closed forms)", convolution_closed_forms),
    ("criterion 3 (gaussian inequality sweeps)", gaussian_inequality_sweeps),
    ("criterion 4 (hadamard diagonal equality)", hadamard_diagonal_equality),
    ("criterion 5 (infimum decomposition oracle)", infimum_decomposition_oracle),
    ("criterion 6 (quadrature equality cases)", quadrature_equality_cases),
    ("criterion 7 (brownian lower bounds)", brownian_lower_bounds),
    ("criterion 8 (critical-subspace multiplicativity)", critical_subspace_multiplicativity),
    ("criterion 9 (gradient vs finite differences)", gradient_vs_finite_differences),
]


@pytest.mark.parametrize(
    "label,check", CRITERIA, ids=[label for label, _ in CRITERIA]
)
def test_criterion(label, check):
    ok, detail = check()
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def main() -> int:
    failures = 0
    for label, check in CRITERIA:
        ok, detail = check()
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}", flush=True)
        failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
