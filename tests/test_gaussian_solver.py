import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import blgauss.gaussian_solver
from blgauss import (
    DatumError,
    load_datum,
    direct_extremizers,
    direct_sum,
    dual_check,
    fp_map,
    grad_logdet,
    make_datum,
    reverse_extremizers,
    solve,
)
from blgauss.gaussian_solver import (
    MIN_EIGENVALUE, STATIONARITY_WARN, _iterate, _line_search, _neg_hess, _newton_direction, _whiten,
)
from blgauss.young import YoungExponents, beckner_constant, closed_form_A, datum_from_exponents
from conftest import (
    GL_FAMILIES,
    coordinate_datum,
    exact_abs_det,
    gl_family,
    dimension_condition_holds,
    gl_map,
    mercedes_frame_datum,
    prekopa_leindler_datum,
    random_datum,
    random_gl,
    well_conditioned_spd,
    young_flagship,
)

# Flagship two-dimensional datum: closed-form optimum known exactly.
YOUNG_CONSTANT = 0.8773826753016616
YOUNG_A = np.array(
    [
        [math.sqrt(2.0), -math.sqrt(2.0) / 2.0],
        [-math.sqrt(2.0) / 2.0, 3.0 / (2.0 * math.sqrt(2.0))],
    ]
)


def _objective(datum, A):
    """F(A) through the dual form, outside the solver: dual_check with
    constant 1 is exp F(A)."""
    return math.log(dual_check(datum, 1.0, A))


def finite_diff_gradient(datum, A, h=1e-5):
    """Central differences of the objective along symmetric coordinate directions."""
    n = A.shape[0]
    G = np.zeros((n, n))
    for j in range(n):
        for k in range(j, n):
            D = np.zeros((n, n))
            if j == k:
                D[j, j] = 1.0
            else:
                D[j, k] = D[k, j] = 1.0
            val = (_objective(datum, A + h * D) - _objective(datum, A - h * D)) / (2 * h)
            if j == k:
                G[j, j] = val
            else:
                G[j, k] = G[k, j] = val / 2.0
    return G


class TestObjectiveAndGradient:
    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(10):
            d = random_datum(rng)
            A = well_conditioned_spd(d.n, rng)
            G = grad_logdet(d, A)
            np.testing.assert_allclose(G, finite_diff_gradient(d, A), atol=1e-6)

    def test_gradient_zero_at_young_optimum(self):
        _, d = young_flagship()
        G = grad_logdet(d, YOUNG_A)
        assert np.abs(G).max() <= 1e-12

    def test_objective_scale_invariant_when_homogeneous(self, rng):
        d = random_datum(rng, homogeneous=True)
        A = well_conditioned_spd(d.n, rng)
        f0 = _objective(d, A)
        for lam in (0.1, 3.0, 17.0):
            assert abs(_objective(d, lam * A) - f0) <= 1e-10 * max(1.0, abs(f0))

    def test_objective_zero_at_identity_for_frames(self):
        for d in (prekopa_leindler_datum(), coordinate_datum(3), mercedes_frame_datum()):
            assert abs(_objective(d, np.eye(d.n))) <= 1e-14

    def test_fp_map_fixes_optimum(self):
        _, d = young_flagship()
        np.testing.assert_allclose(fp_map(d, YOUNG_A), YOUNG_A, atol=1e-12)

    def test_rejects_non_spd(self):
        d = prekopa_leindler_datum()
        with pytest.raises(ValueError):
            _objective(d, np.array([[-1.0]]))

    def test_grouped_sum_matches_per_factor_formula(self, rng):
        # target dimensions 2, 1, 2 interleave, so factor groups reorder the
        # sum; the zero map contributes nothing
        maps = [rng.standard_normal((2, 3)), rng.standard_normal((1, 3)), np.zeros((1, 3)),
                rng.standard_normal((2, 3))]
        d = make_datum(3, [0.7, 0.4, 1.3, 0.6], maps)
        active = [(c, B) for c, B in zip(d.weights, maps) if B.any()]
        for _ in range(5):
            A = well_conditioned_spd(3, rng)
            M = sum(c * B.T @ np.linalg.inv(B @ A @ B.T) @ B for c, B in active)
            objective = np.linalg.slogdet(A)[1] - sum(c * np.linalg.slogdet(B @ A @ B.T)[1]
                                                      for c, B in active)
            for got, want in ((fp_map(d, A), np.linalg.inv(M)),
                              (grad_logdet(d, A), np.linalg.inv(A) - M)):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            assert _objective(d, A) == pytest.approx(objective, rel=1e-12)


class TestBlConstant:
    """The constant exp(F(A)/2) = sqrt(dual_check(datum, 1, A)) at the optimum."""

    def test_value_at_optimum(self):
        _, d = young_flagship()
        assert math.sqrt(dual_check(d, 1.0, YOUNG_A)) == pytest.approx(YOUNG_CONSTANT, abs=1e-12)

    def test_scale_invariance_at_optimum(self):
        _, d = young_flagship()
        a = math.sqrt(dual_check(d, 1.0, YOUNG_A))
        b = math.sqrt(dual_check(d, 1.0, 7.0 * YOUNG_A))
        assert abs(a - b) <= 1e-12


class TestSolve:
    def test_frame_recovery(self):
        for d in (prekopa_leindler_datum(), coordinate_datum(4), mercedes_frame_datum()):
            r = solve(d)
            assert r.converged
            assert r.residual <= 1e-10
            np.testing.assert_allclose(r.A, np.eye(d.n), atol=1e-10)
            assert r.constant == pytest.approx(1.0, abs=1e-12)

    def test_young_matches_closed_form(self):
        e, d = young_flagship()
        r = solve(d)
        assert r.converged
        np.testing.assert_allclose(r.A, closed_form_A(e), atol=1e-8)
        np.testing.assert_allclose(r.A, YOUNG_A, atol=1e-8)
        assert r.constant == pytest.approx(beckner_constant(e), abs=1e-10)

    def test_solution_is_det_normalized(self):
        _, d = young_flagship()
        r = solve(d)
        assert np.linalg.det(r.A) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_equivariance(self, rng):
        _, d = young_flagship()
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        rotated = make_datum(d.n, d.weights, [f.B @ Q for f in d.factors])
        a, b = solve(d), solve(rotated)
        assert a.constant == pytest.approx(b.constant, abs=1e-10)
        np.testing.assert_allclose(b.A, Q.T @ a.A @ Q, atol=1e-8)

    def test_zero_map_factor_changes_nothing(self):
        _, d = young_flagship()
        padded = make_datum(
            d.n, list(d.weights) + [0.3], [f.B for f in d.factors] + [np.zeros((1, 2))]
        )
        a, b = solve(d), solve(padded)
        assert a.constant == pytest.approx(b.constant, abs=1e-12)
        np.testing.assert_allclose(a.A, b.A, atol=1e-10)

    def test_direct_sum_multiplies_constants(self):
        _, d = young_flagship()
        pair = direct_sum(d, d)
        r = solve(pair)
        assert r.converged
        assert r.constant == pytest.approx(YOUNG_CONSTANT**2, abs=1e-9)

    def test_infeasible_homogeneous_reports_inf(self):
        # weights (3/2, 1/2) on the two coordinate projections of the plane:
        # homogeneous, but no positive definite fixed point exists.
        d = make_datum(2, [1.5, 0.5], [np.eye(2)[:1], np.eye(2)[1:]])
        r = solve(d)
        assert not r.converged
        assert r.constant == math.inf

    def test_overflowing_trial_step_is_rejected_not_leaked(self):
        # n = 3, dims (3, 2): the kernel of B_2 breaks the dimension condition.
        # Trial steps there make factors ill-conditioned; they must be
        # rejected, not leak a warning or a LinAlgError.
        rng = np.random.default_rng(2)
        d = [random_datum(rng, homogeneous=True) for _ in range(5)][-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = solve(d)
        assert r.constant == math.inf
        assert r.converged is False

    def test_refuses_degenerate(self):
        d = make_datum(2, [1.0, 1.0], [np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])])
        with pytest.raises(DatumError):
            solve(d)

    def test_refuses_inhomogeneous(self):
        d = make_datum(2, [1.0, 1.0, 1.0], [np.eye(2)[:1], np.eye(2)[1:], np.eye(2)[:1]])
        with pytest.raises(DatumError):
            solve(d)

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, 1.0])
    def test_rejects_empty_budget(self, max_iter):
        # a float budget is refused like an empty one, not a TypeError
        with pytest.raises(ValueError, match=f"max_iter must be an integer of at least 1, got {max_iter}"):
            solve(prekopa_leindler_datum(), max_iter=max_iter)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, -math.inf])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            solve(prekopa_leindler_datum(), tol=tol)

    def test_budget_exhaustion_is_inconclusive_not_inf(self):
        # a crawl toward a finite supremum must not be misread as divergence
        _, d = young_flagship()
        r = solve(d, max_iter=3)
        assert not r.converged
        assert math.isfinite(r.constant)
        assert r.constant == pytest.approx(YOUNG_CONSTANT, abs=1e-3)

    def test_ascent_fallback_reaches_tolerance(self):
        e, d = young_flagship()
        r = _iterate(d, np.diag([2.0, 0.5]), 1e-10, 10_000)
        assert r.converged
        assert r.residual <= 1e-10
        assert r.constant == pytest.approx(beckner_constant(e), abs=1e-12)

    def test_ascent_trace_objective_is_monotone(self):
        _, d = young_flagship()
        r = _iterate(d, np.diag([2.0, 0.5]), 1e-10, 10_000)
        objs = [obj for _, _, obj in r.trace]
        assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))

    def test_random_homogeneous_data_get_a_verdict(self, rng):
        # random data are usually infeasible (some subspace violates the
        # dimension conditions); either way solve must not raise and must
        # label its result honestly
        for _ in range(40):
            d = random_datum(rng, homogeneous=True)
            r = solve(d)
            if r.converged:
                assert r.residual <= 1e-10
                assert np.isfinite(r.constant)
                assert np.abs(grad_logdet(d, r.A)).max() <= 1e-8
            else:
                assert r.constant == math.inf


def _verdict_data():
    rngs = [np.random.default_rng(seed) for seed in range(3, 40)]
    draws = [(f"random[{seed}:{k}]", random_datum(rng, homogeneous=True))
             for seed, rng in zip(range(3, 40), rngs) for k in range(5)]
    demos = sorted((Path(__file__).parent.parent / "demos" / "data").glob("*.json"))
    return draws + [(path.name, load_datum(path)) for path in demos]


def test_verdicts_agree_with_the_dimension_condition():
    # A finite constant is never reported +inf, and +inf is never converged
    # on: on 185 random homogeneous draws and on demos/data, each solve ends
    # converged or +inf, and the kernel-lattice dimension condition, which
    # shares no code with the solver, says which.
    verdicts = {True: 0, False: 0}
    for label, d in _verdict_data():
        r = solve(d)
        assert r.converged or r.constant == math.inf, (label, r.constant, r.iterations)
        assert dimension_condition_holds(d) == r.converged, (label, r.converged, r.iterations)
        verdicts[r.converged] += 1
    assert verdicts == {True: 23, False: 167}


def test_kernel_witness_fires_only_on_infinite_data():
    # The witness is an exact count, so it fires only where the kernel-lattice
    # dimension condition fails: on 159 of the 185 random draws and on
    # infeasible.json. The other +inf draws reach their verdict in the loop.
    witnessed = [(label, d) for label, d in _verdict_data() if d.kernel_witness is not None]
    assert sum(label.startswith("random") for label, _ in witnessed) == 159
    assert [label for label, _ in witnessed if not label.startswith("random")] == ["infeasible.json"]
    assert not any(dimension_condition_holds(d) for _, d in witnessed)


@pytest.mark.parametrize("max_iter", [1, 10_000])
def test_kernel_witness_ends_solve_before_the_loop(monkeypatch, max_iter):
    # +inf from the counts alone: A = I, no iteration, no trace row, and not
    # one whitening or numpy.linalg call, whatever the budget
    data, calls = [_infeasible_datum(), _overflow_datum()], []
    for name in ("svd", "eigh", "norm", "cholesky", "inv"):
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    monkeypatch.setattr(blgauss.gaussian_solver, "_whiten", lambda g, K: calls.append("whiten"))
    for d in data:
        r = solve(d, max_iter=max_iter)
        assert (r.constant, r.iterations, r.converged, r.trace) == (math.inf, 0, False, [])
        assert math.isnan(r.residual) and np.array_equal(r.A, np.eye(d.n))
    assert calls == []


def _unattained_datum():
    # E = span(e1) is critical and C = 1, but no Gaussian attains it
    return make_datum(2, [0.5, 1.0, 0.5], [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]),
                                           np.array([[1.0, 1.0]])])


def _infeasible_datum():
    return make_datum(2, [1.5, 0.5], [np.eye(2)[:1], np.eye(2)[1:]])


def _overflow_datum():
    rng = np.random.default_rng(2)
    return [random_datum(rng, homogeneous=True) for _ in range(5)][-1]


# How each kind of run ends: iterations, constant, trace rows and the exit.
# These pins change only when the algorithm changes on purpose (ROADMAP item
# 2), and CHANGES.md must record it when they do.
@pytest.mark.parametrize("make, iterations, constant, rows, exit_", [
    # A degenerates toward the critical e1 (cond(A) about 3e9), yet the
    # residual reaches tol with C within 1e-9 of 1
    pytest.param(_unattained_datum, 22, 1.0, 23, "converged", id="unattained"),
    # no curvature along the divergent ray: each capped step doubles to the
    # MIN_EIGENVALUE reach, until an eigenvalue of A falls below it
    pytest.param(_infeasible_datum, 2, math.inf, 2, "min eigenvalue", id="infeasible"),
    # a line search trial makes a factor B_i A B_i^T ill-conditioned while
    # the objective rises
    pytest.param(_overflow_datum, 2, math.inf, 3, "ill-conditioned trial",
                 id="random-overflow"),
])
def test_how_runs_end_is_pinned(make, iterations, constant, rows, exit_):
    # the loop itself: the infeasible and random-overflow data carry a kernel
    # witness, on which solve returns before the loop
    d = make()
    r = _iterate(d, np.eye(d.n), 1e-10, 10_000)
    if iterations is not None:
        assert (r.iterations, len(r.trace)) == (iterations, rows)
    last_k, last_res, _ = r.trace[-1]
    if exit_ == "converged":
        assert r.converged and r.constant == pytest.approx(constant, abs=1e-9)
        assert (r.iterations, r.residual) == (last_k, last_res) and r.residual <= 1e-10
        return
    assert not r.converged and r.constant == math.inf
    if exit_ == "min eigenvalue":
        # the evaluation of k failed before its row was written
        assert r.iterations == last_k + 1 and math.isnan(r.residual)
    else:
        # the line search from the iterate of row k failed
        assert (r.iterations, r.residual) == (last_k, last_res)
    assert (np.linalg.eigvalsh(r.A).min() < MIN_EIGENVALUE) == (exit_ == "min eigenvalue")


@pytest.mark.parametrize("make, iterations, searches, multi_row, no_curvature, trials", [
    # each step is a first trial and three doublings
    pytest.param(_infeasible_datum, 2, 2, 0, 2, 8, id="infeasible"),
    pytest.param(lambda: young_flagship()[1], 4, 4, 0, 0, 4, id="young"),
    # how many trials its line searches make depends on the BLAS kernel
    pytest.param(_overflow_datum, 2, 3, 2, 3, None, id="random-overflow"),
])
def test_lapack_calls_per_iteration(monkeypatch, make, iterations, searches, multi_row,
                                    no_curvature, trials):
    # An iteration at n <= 3 is bound by call overhead, so its LAPACK calls
    # are counted rather than timed: one SVD of K, one eigh of the step, one
    # whitening SVD per factor group of more than one row per line-search
    # trial, extension trials included, and one SVD for ||G||_2 when a step
    # has no curvature.
    d = make()
    assert sum(g.B.shape[1] > 1 for g in d.groups) == multi_row
    calls = []
    for name in ("svd", "eigh", "norm"):
        def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.ndim(a), kwargs.get("compute_uv", True)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    whiten, whitenings = blgauss.gaussian_solver._whiten, []
    monkeypatch.setattr(blgauss.gaussian_solver, "_whiten",
                        lambda g, K: whitenings.append(K) or whiten(g, K))
    r = _iterate(d, np.eye(d.n), 1e-10, 10_000)
    assert r.iterations == iterations
    assert trials in (None, len(whitenings) - 1)
    evaluations = len(r.trace) + math.isnan(r.residual)  # the MIN_EIGENVALUE exit has no row
    assert evaluations <= iterations + 1
    assert calls.count(("svd", 2, True)) == evaluations
    assert calls.count(("eigh", 2, True)) == searches
    # the first whitening is at K = I, the rest are trials; a trial that
    # raises on its first group makes no SVD for the second
    assert calls.count(("svd", 3, True)) <= multi_row * len(whitenings)
    assert calls.count(("svd", 3, True)) >= multi_row * (len(whitenings) - 1)
    spectral = calls.count(("svd", 2, False))
    assert spectral <= searches and no_curvature in (None, spectral)
    assert len(calls) == evaluations + searches + spectral + calls.count(("svd", 3, True))


def test_spent_budget_reports_the_iterate_it_returns():
    # A spent budget evaluates the iterate after max_iter steps and takes no
    # step from it, so the constant and residual are those of the returned A.
    # The infeasible datum's constant is +inf (solve reads it off the kernel
    # witness, so the loop is run directly), but one step of the loop holds
    # no evidence of that: the run is inconclusive, with the bound its A
    # certifies.
    d = _infeasible_datum()
    r = _iterate(d, np.eye(2), 1e-10, 1)
    assert not r.converged and (r.iterations, len(r.trace)) == (1, 2)
    assert r.constant == pytest.approx(math.sqrt(dual_check(d, 1.0, r.A)), rel=1e-12)
    assert r.constant == pytest.approx(2980.9579870417283, rel=1e-9)
    assert r.trace[-1][0] == r.iterations and r.residual == r.trace[-1][1]
    # after two steps A degenerates: the MIN_EIGENVALUE exit, as without a budget
    full, r = _iterate(d, np.eye(2), 1e-10, 10_000), _iterate(d, np.eye(2), 1e-10, 2)
    assert (r.constant, r.iterations, len(r.trace)) == (math.inf, 2, 2)
    assert np.array_equal(r.A, full.A) and r.trace == full.trace


def test_budget_of_the_converged_run_is_enough():
    # the flagship converges at row 4: a budget of 4 steps gives the same bits
    _, d = young_flagship()
    full, r = solve(d), solve(d, max_iter=4)
    assert full.iterations == 4 and r.converged
    assert np.array_equal(r.A, full.A) and r.trace == full.trace
    assert (r.constant, r.residual, r.iterations) == (full.constant, full.residual, full.iterations)


@pytest.mark.parametrize("make, max_iter, exit_", [
    pytest.param(lambda: young_flagship()[1], 10_000, "converged", id="converged"),
    pytest.param(lambda: young_flagship()[1], 3, "budget", id="budget"),
    pytest.param(_infeasible_datum, 1, "budget", id="infeasible-budget"),
    pytest.param(_overflow_datum, 10_000, "failed search", id="failed-search"),
])
def test_trace_has_a_row_per_iterate(make, max_iter, exit_):
    # every exit but the start failure and the MIN_EIGENVALUE exit writes the
    # row of the iterate it returns, so the trace holds iterations + 1 rows;
    # the loop is run directly, past the kernel witness of the infeasible and
    # random-overflow data
    d = make()
    r = _iterate(d, np.eye(d.n), 1e-10, max_iter)
    assert len(r.trace) == r.iterations + 1
    assert [k for k, _, _ in r.trace] == list(range(r.iterations + 1))
    assert r.residual == r.trace[-1][1]
    assert r.converged == (exit_ == "converged")
    assert (r.constant == math.inf) == (exit_ == "failed search")


@pytest.mark.parametrize("family", ["holder", "loomis-whitney-6", "loomis-whitney-12"])
def test_ill_conditioned_start_is_inconclusive_not_inf(family):
    # Mapped by M with cond(M) = 1e8, some B_i B_i^T is ill-conditioned at
    # K = I. That is the datum's own conditioning: the constants are finite
    # (about 1.5e14, 1.9e27 and 1.6e37).
    d, _, _ = gl_family(family)
    r = solve(gl_map(d, random_gl(d.n, 1e8, np.random.default_rng(100))))
    assert not r.converged and r.iterations == 0 and not r.trace
    assert math.isnan(r.constant) and math.isnan(r.residual)


def test_constant_past_the_float_range_is_inf():
    # Hoelder on R^24 with B_i = 1e-13 I: every A is optimal, C = 1e312.
    # exp(F/2) <= C at every A, so an overflowing estimate is evidence of a
    # constant past the float range; it must not raise OverflowError.
    d = make_datum(24, [0.5, 0.3, 0.2], [1e-13 * np.eye(24)] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = solve(d)
    assert not r.converged and r.constant == math.inf
    assert (r.iterations, len(r.trace)) == (0, 1) and r.residual <= 1e-10


def _sqrt_and_exp(A, H, t):
    w, U = np.linalg.eigh(A)
    R = (U * np.sqrt(w)) @ U.T
    lam, V = np.linalg.eigh(H)
    return R, R @ ((V * np.exp(t * lam)) @ V.T) @ R


def test_hessian_matches_second_difference_and_is_psd(rng):
    # along A(t) = R exp(tH) R, F''(0) = -<H, -Hess[H]>; the negative
    # Hessian is positive semidefinite, and zero when every B_i is square
    h = 1e-4
    for _ in range(20):
        d = random_datum(rng, homogeneous=True)
        A = well_conditioned_spd(d.n, rng)
        H = rng.standard_normal((d.n, d.n))
        H = H + H.T - 2.0 * np.trace(H) / d.n * np.eye(d.n)
        R, _ = _sqrt_and_exp(A, H, 0.0)
        groups = d.groups
        Ys, Qbar, lds = _whiten(groups, R)
        curvature = float(np.sum(H * _neg_hess(groups, Ys, Qbar, H)))
        assert curvature >= -1e-12 * float(np.sum(H * H))
        # any factor whitens: at the Cholesky factor L = R O, O orthogonal,
        # Qbar turns into O^T Qbar O and the direction H into O^T H O
        L = np.linalg.cholesky(A)
        O = np.linalg.solve(R, L)
        Ys_L, Qbar_L, lds_L = _whiten(groups, L)
        assert lds_L == pytest.approx(lds, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(Qbar_L, O.T @ Qbar @ O, atol=1e-12)
        H_L = O.T @ H @ O
        assert float(np.sum(H_L * _neg_hess(groups, Ys_L, Qbar_L, H_L))) == pytest.approx(
            curvature, rel=1e-10, abs=1e-12 * float(np.sum(H * H)))
        f = [_objective(d, _sqrt_and_exp(A, H, t)[1]) for t in (-h, 0.0, h)]
        second = (f[0] - 2.0 * f[1] + f[2]) / h**2
        assert second == pytest.approx(-curvature, rel=1e-4, abs=1e-6 * float(np.sum(H * H)))


@pytest.mark.parametrize("family, cond", [
    pytest.param(family, cond, id=f"{family}-{cond:.0e}")
    for family in GL_FAMILIES for cond in (1.0, 1e2, 1e4, 1e6)
])
def test_gl_families_reach_the_mapped_closed_form(family, cond):
    # C(B M) = C(B) / |det M| and A*(B M) = M^{-1} A* M^{-T}. Iterating on a
    # factor of A, not on A, keeps the iteration count flat up to
    # cond(M) = 1e6.
    d, constant, blocks = gl_family(family)
    M = random_gl(d.n, cond, np.random.default_rng(d.n))
    r = solve(gl_map(d, M))
    assert r.converged and r.iterations <= 30, (r.iterations, r.residual)
    assert r.constant == pytest.approx(constant / exact_abs_det(M), rel=1e-10)
    if blocks is None:
        return
    # M A M^T is optimal for the unmapped datum: block diagonal, each block
    # a positive multiple of the known det-normalized one. A float A holds
    # only eps cond(A) relative accuracy in its own metric.
    X = M @ r.A @ M.T
    edges = np.cumsum([0] + [len(b) for b in blocks])
    scaled = np.zeros_like(X)
    for lo, hi, b in zip(edges, edges[1:], blocks):
        scaled[lo:hi, lo:hi] = np.linalg.det(X[lo:hi, lo:hi]) ** (1.0 / (hi - lo)) * b
    L_inv = np.linalg.inv(np.linalg.cholesky(scaled))
    error = np.abs(L_inv @ X @ L_inv.T - np.eye(d.n)).max()
    assert error <= 1e-10 + np.finfo(float).eps * np.linalg.cond(r.A)


@pytest.mark.parametrize("cond", [1e4, 1e5, 1e6])
def test_hoelder_under_gl_is_solved_at_the_start(cond):
    # Every A is optimal for Hoelder mapped by M, so the solve starts at an
    # optimum, K = I. One Cholesky pass would leave Y_i Y_i^T off I by about
    # cond(M)^2 eps there, and the line search would climb on that rounding
    # noise until a failed search read as a rising objective: +inf.
    d, constant, _ = gl_family("holder")
    for seed in range(8):
        M = random_gl(d.n, cond, np.random.default_rng(100 + seed))
        r = solve(gl_map(d, M))
        assert r.converged and r.iterations == 0, (seed, r.constant, r.residual)
        assert r.constant == pytest.approx(constant / exact_abs_det(M), rel=1e-10)


def test_step_without_curvature_goes_to_the_cap():
    # The infeasible datum at K = I: F is linear along the traceless gradient
    # G = diag(-1/2, 1/2), so CG finds no curvature on its first direction.
    # The step goes along G to ||H||_2 = 2, where the line search caps it,
    # not a unit step along G.
    d = _infeasible_datum()
    groups = d.groups
    Ys, Qbar, _ = _whiten(groups, np.eye(2))
    G = np.eye(2) - Qbar
    H = _newton_direction(groups, Ys, Qbar, G)
    np.testing.assert_allclose(H, np.diag([-2.0, 2.0]), atol=1e-15)
    # a zero gradient (n = 1, where every traceless step is 0) stays 0
    d1 = make_datum(1, [0.5, 0.5], [np.eye(1), np.eye(1)])
    groups1 = d1.groups
    Ys1, Qbar1, _ = _whiten(groups1, np.eye(1))
    assert not _newton_direction(groups1, Ys1, Qbar1, np.zeros((1, 1))).any()


def _counting_searches(monkeypatch):
    """Patch the solver's line search and whitening to record, per search,
    ||H||_2 and the whitenings it made."""
    search, whiten, searches = blgauss.gaussian_solver._line_search, blgauss.gaussian_solver._whiten, []

    def counted_search(groups, K, H, *args):
        lam = np.linalg.eigvalsh(H)
        searches.append([max(-lam[0], lam[-1]), 0])
        return search(groups, K, H, *args)

    def counted_whiten(groups, K):
        if searches:
            searches[-1][1] += 1
        return whiten(groups, K)

    monkeypatch.setattr(blgauss.gaussian_solver, "_line_search", counted_search)
    monkeypatch.setattr(blgauss.gaussian_solver, "_whiten", counted_whiten)
    return searches


def test_curved_or_uncapped_step_is_not_extended(monkeypatch):
    # Only a capped first trial on which F is still affine is extended. From
    # K = diag(2, 1/2) the flagship's first Newton step is capped
    # (||H||_2 = 4.26) but curved, and every later one is uncapped: each
    # search accepts its first trial after one whitening.
    _, d = young_flagship()
    searches = _counting_searches(monkeypatch)
    r = _iterate(d, np.diag([2.0, 0.5]), 1e-10, 10_000)
    assert r.converged and len(searches) == r.iterations == 5
    assert searches[0][0] > 2.0 and all(norm < 2.0 for norm, _ in searches[1:])
    assert [count for _, count in searches] == [1] * 5
    # uncapped on the infeasible ray at K = I, where F gains exactly t <G, H>
    # along H = G = diag(-1/2, 1/2): the unit step, after one whitening
    d = _infeasible_datum()
    G = np.diag([-0.5, 0.5])
    searches.clear()
    K_t, _ = blgauss.gaussian_solver._line_search(d.groups, np.eye(2), G, G, 0.0, 0.0)
    np.testing.assert_array_equal(K_t, np.diag(np.exp([-0.25, 0.25])))
    assert searches == [[0.5, 1]]


def test_divergent_ray_doubles_to_the_min_eigenvalue_reach(monkeypatch):
    # No curvature on the infeasible ray: each capped step (t ||H||_2 = 2)
    # doubles while 2t ||H||_2 <= -log MIN_EIGENVALUE, to t ||H||_2 = 16, so
    # A = diag(e^-16k, e^16k) after k steps, and the second step crosses
    # MIN_EIGENVALUE without an overflow or a warning.
    reach = 2.0
    while 2.0 * reach <= -math.log(MIN_EIGENVALUE):
        reach *= 2.0
    searches = _counting_searches(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = _iterate(_infeasible_datum(), np.eye(2), 1e-10, 10_000)
    assert r.constant == math.inf and r.iterations == 2
    assert searches == [[2.0, 1 + math.log2(reach / 2.0)]] * 2
    np.testing.assert_allclose(np.diag(r.A), np.exp([-2.0 * reach, 2.0 * reach]), rtol=1e-12)
    assert np.exp(-2.0 * reach) < MIN_EIGENVALUE < np.exp(-reach)


def test_trial_that_cannot_move_k_ends_the_line_search(monkeypatch):
    # K exp(tH/2) rounds to K itself: a slack-passing null step would be
    # taken again at every later iteration, so the search fails unwhitened.
    _, d = young_flagship()
    groups = d.groups
    whitened = []
    monkeypatch.setattr(blgauss.gaussian_solver, "_whiten", lambda g, K_t: whitened.append(K_t))
    H = 1e-20 * np.diag([1.0, -1.0])
    assert _line_search(groups, np.eye(2), H, H, 0.0, 0.0) is None
    assert not whitened


def test_failed_search_near_stationarity_is_not_inf(monkeypatch):
    # A search that fails where the residual is already below
    # STATIONARITY_WARN (rounding at an ill-conditioned optimum) ends in the
    # budget verdict, although the objective rose over the run.
    # The flagship's fourth row has a residual of 5.6e-7; its search fails.
    e, d = young_flagship()
    search, calls = blgauss.gaussian_solver._line_search, []

    def fail_fourth(*args):
        calls.append(args)
        return None if len(calls) == 4 else search(*args)

    monkeypatch.setattr(blgauss.gaussian_solver, "_line_search", fail_fourth)
    r = solve(d)
    assert not r.converged and (r.iterations, len(r.trace)) == (3, 4)
    assert 1e-10 < r.residual <= STATIONARITY_WARN
    assert r.constant == pytest.approx(beckner_constant(e), rel=1e-11)


def test_ill_conditioned_trial_ends_the_line_search(monkeypatch):
    # Hoelder on R^2 at cond(A) = 4e13: the trials at t = 1 and t = 1/2 push
    # cond(A) past COND_LIMIT = 1e14, the one at t = 1/4 does not. The search
    # must stop at the first, after one whitening, instead of halving.
    d = make_datum(2, [0.5, 0.5], [np.eye(2), np.eye(2)])
    groups = d.groups
    K, H = np.diag([10.0**3.4, 10.0**-3.4]), np.diag([1.0, -1.0])
    _, _, lds = _whiten(groups, K)
    whitened = []
    whiten = blgauss.gaussian_solver._whiten
    monkeypatch.setattr(blgauss.gaussian_solver, "_whiten",
                        lambda g, K_t: whitened.append(K_t) or whiten(g, K_t))
    assert _line_search(groups, K, H, np.zeros((2, 2)), 0.0, -lds) is None
    assert len(whitened) == 1


def test_young_grid_converges_in_few_newton_steps():
    # the damped fixed point that Newton steps replaced needed 3,383
    # iterations at p = q = 1.01
    axis = np.linspace(1.1, 1.75, 6)
    for p, q in [(p, q) for p in axis for q in axis] + [(1.01, 1.01)]:
        e = YoungExponents.from_pq(p, q)
        r = solve(datum_from_exponents(e))
        assert r.converged and r.iterations <= 10, (p, q, r.iterations)
        assert r.constant == pytest.approx(beckner_constant(e), abs=1e-12), (p, q)


class TestExtremizers:
    # factor order is [(1,1), (0,1), (1,0)]; at the optimum the three
    # quadratic forms are 3/(2 sqrt 2), 3/(2 sqrt 2), sqrt 2
    def test_direct_precisions_closed_form(self):
        _, d = young_flagship()
        exts = direct_extremizers(d, YOUNG_A)
        expected = [2.0 * math.sqrt(2.0) / 3.0, 2.0 * math.sqrt(2.0) / 3.0, 1.0 / math.sqrt(2.0)]
        for E, s in zip(exts, expected):
            np.testing.assert_allclose(E, [[s]], atol=1e-12)

    def test_reverse_precisions_closed_form(self):
        _, d = young_flagship()
        exts, env = reverse_extremizers(d, YOUNG_A)
        expected = [3.0 / (2.0 * math.sqrt(2.0)), 3.0 / (2.0 * math.sqrt(2.0)), math.sqrt(2.0)]
        for E, s in zip(exts, expected):
            np.testing.assert_allclose(E, [[s]], atol=1e-12)
        np.testing.assert_array_equal(env, YOUNG_A)

    def test_norm_decomposition_at_solution(self, rng):
        # at the optimum, <inv(A)x, x> splits into the weighted factor forms
        _, d = young_flagship()
        inv_A = np.linalg.inv(YOUNG_A)
        exts = direct_extremizers(d, YOUNG_A)
        for _ in range(20):
            x = rng.standard_normal(2)
            total = sum(
                f.c * float(f.B @ x @ E @ (f.B @ x))
                for f, E in zip(d.factors, exts)
            )
            assert total == pytest.approx(float(x @ inv_A @ x), abs=1e-12)


class TestSolveResult:
    def test_to_dict_round_trips_json(self):
        import json

        r = solve(prekopa_leindler_datum())
        doc = r.to_dict()
        json.dumps(doc)
        assert doc["converged"] is True
        assert doc["A"] == [[1.0]]


def test_solver_imports_no_verification_layer():
    """Verification layers may share _linalg and datum with the solver, never
    the fixed-point logic, so the solver imports no other package module."""
    tree = ast.parse(Path(blgauss.gaussian_solver.__file__).read_text(encoding="utf-8"))
    imported = {"." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    assert {m for m in imported if m.startswith((".", "blgauss"))} == {"._linalg", ".datum"}
