import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import blgauss.gaussian_solver
from blgauss import (
    DatumError,
    bl_constant,
    direct_extremizers,
    direct_sum,
    fp_map,
    grad_logdet,
    logdet_objective,
    make_datum,
    reverse_extremizers,
    solve,
)
from blgauss.gaussian_solver import DEFAULT_DAMPING, MIN_EIGENVALUE, _iterate
from blgauss.young import beckner_constant, closed_form_A
from conftest import (
    coordinate_datum,
    mercedes_frame_datum,
    prekopa_leindler_datum,
    random_datum,
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
            val = (logdet_objective(datum, A + h * D) - logdet_objective(datum, A - h * D)) / (2 * h)
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
        f0 = logdet_objective(d, A)
        for lam in (0.1, 3.0, 17.0):
            assert abs(logdet_objective(d, lam * A) - f0) <= 1e-10 * max(1.0, abs(f0))

    def test_objective_zero_at_identity_for_frames(self):
        for d in (prekopa_leindler_datum(), coordinate_datum(3), mercedes_frame_datum()):
            assert abs(logdet_objective(d, np.eye(d.n))) <= 1e-14

    def test_fp_map_fixes_optimum(self):
        _, d = young_flagship()
        np.testing.assert_allclose(fp_map(d, YOUNG_A), YOUNG_A, atol=1e-12)

    def test_rejects_non_spd(self):
        d = prekopa_leindler_datum()
        with pytest.raises(ValueError):
            logdet_objective(d, np.array([[-1.0]]))

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
            assert logdet_objective(d, A) == pytest.approx(objective, rel=1e-12)


class TestBlConstant:
    def test_warns_away_from_stationarity(self):
        _, d = young_flagship()
        with pytest.warns(UserWarning, match="stationarity"):
            bl_constant(d, np.diag([1.0, 5.0]))

    def test_value_at_optimum(self):
        _, d = young_flagship()
        assert bl_constant(d, YOUNG_A) == pytest.approx(YOUNG_CONSTANT, abs=1e-12)

    def test_scale_invariance_at_optimum(self):
        _, d = young_flagship()
        a = bl_constant(d, YOUNG_A)
        b = bl_constant(d, 7.0 * YOUNG_A)
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
        # Ascent trial steps there reach eigenvalues whose exp overflows; they
        # must be rejected, not leak a warning or a LinAlgError.
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

    def test_rejects_bad_damping(self):
        with pytest.raises(ValueError):
            solve(prekopa_leindler_datum(), damping=0.0)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_rejects_empty_budget(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            solve(prekopa_leindler_datum(), max_iter=max_iter)

    def test_budget_exhaustion_is_inconclusive_not_inf(self):
        # a crawl toward a finite supremum must not be misread as divergence
        _, d = young_flagship()
        r = solve(d, damping=0.001)
        assert not r.converged
        assert math.isfinite(r.constant)
        assert r.constant == pytest.approx(YOUNG_CONSTANT, abs=1e-3)

    def test_ascent_fallback_reaches_tolerance(self):
        e, d = young_flagship()
        r = _iterate(d, np.diag([4.0, 0.25]), "ascent", 1e-10, 10_000, DEFAULT_DAMPING)
        assert r.converged
        assert r.residual <= 1e-10
        assert r.constant == pytest.approx(beckner_constant(e), abs=1e-12)

    def test_ascent_trace_objective_is_monotone(self):
        _, d = young_flagship()
        r = _iterate(d, np.diag([4.0, 0.25]), "ascent", 1e-10, 10_000, DEFAULT_DAMPING)
        objs = [obj for _, _, obj in r.trace]
        assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))

    def test_random_homogeneous_data_get_a_verdict(self, rng):
        # random data are usually infeasible (some subspace violates the
        # dimension conditions); either way solve must not raise and must
        # label its result honestly
        for _ in range(8):
            d = random_datum(rng, homogeneous=True)
            r = solve(d)
            if r.converged:
                assert r.residual <= 1e-10
                assert np.isfinite(r.constant)
                assert np.abs(grad_logdet(d, r.A)).max() <= 1e-8
            else:
                assert r.constant == math.inf


def _unattained_datum():
    # E = span(e1) is critical and C = 1, but no Gaussian attains it
    return make_datum(2, [0.5, 1.0, 0.5], [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]),
                                           np.array([[1.0, 1.0]])])


def _infeasible_datum():
    return make_datum(2, [1.5, 0.5], [np.eye(2)[:1], np.eye(2)[1:]])


def _overflow_datum():
    rng = np.random.default_rng(2)
    return [random_datum(rng, homogeneous=True) for _ in range(5)][-1]


# How each kind of run ends: iterations, constant, trace rows, the k at which
# the fixed point stalled and the ascent re-evaluated it (a repeated trace
# row), and the exit. These pins change only when the algorithm changes on
# purpose (ROADMAP items 2 and 3), and CHANGES.md must record it when they do.
@pytest.mark.parametrize("make, options, iterations, constant, rows, ascent_at, exit_", [
    # fixed point -> ascent -> polish; the polish stalls: budget verdict +inf
    pytest.param(_unattained_datum, {}, 5147, math.inf, 5148, 5041, "budget", id="unattained"),
    # the same phases, but the verdict is finite and inconclusive; the polish
    # runs at DEFAULT_DAMPING, not at the caller's damping
    pytest.param(_unattained_datum, {"damping": 0.25}, 5122, 0.9998056488150809, 5123, 5004, "budget",
                 id="unattained-damped"),
    # fixed point -> ascent, which exits on MIN_EIGENVALUE
    pytest.param(_infeasible_datum, {}, 55, math.inf, 56, 50, "min eigenvalue", id="infeasible"),
    # the fixed-point sum becomes ill-conditioned while the objective rises
    pytest.param(_infeasible_datum, {"damping": 0.9}, 32, math.inf, 33, None, "fixed point sum",
                 id="infeasible-fast"),
    # the fixed point crawls until the budget is spent: finite, inconclusive
    pytest.param(lambda: young_flagship()[1], {"damping": 0.001}, 10_000, 0.8773635757113353, 10_000,
                 None, "budget", id="young-slow"),
    # fixed point -> ascent -> polish, which meets an ill-conditioned factor
    # while the objective rises. The path is ill-conditioned: OpenBLAS kernels
    # for different CPUs end it after 61 to 63 iterations, so that count and
    # the row count are not pinned.
    pytest.param(_overflow_datum, {}, None, math.inf, None, 55, "ill-conditioned", id="random-overflow"),
])
def test_how_runs_end_is_pinned(make, options, iterations, constant, rows, ascent_at, exit_):
    r = solve(make(), **options)
    assert not r.converged
    if math.isinf(constant):
        assert r.constant == math.inf
    else:
        assert r.constant == pytest.approx(constant, rel=1e-12)
    ks = [k for k, _, _ in r.trace]
    assert [a for a, b in zip(ks, ks[1:]) if a == b] == ([] if ascent_at is None else [ascent_at])
    if iterations is not None:
        assert (r.iterations, len(r.trace)) == (iterations, rows)
    last_k, last_res, _ = r.trace[-1]
    if exit_ == "fixed point sum":  # the step failed after the row of k was written
        assert (r.iterations, r.residual) == (last_k, last_res)
    elif exit_ == "budget":
        assert (r.iterations, r.residual) == (last_k + 1, last_res)
    else:  # the evaluation of k failed before its row was written
        assert r.iterations == last_k + 1 and math.isnan(r.residual)
        assert (np.linalg.eigvalsh(r.A).min() < MIN_EIGENVALUE) == (exit_ == "min eigenvalue")


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

    def test_trace_csv(self, tmp_path):
        r = solve(young_flagship()[1])
        p = tmp_path / "trace.csv"
        r.write_trace_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == "iteration,residual,objective"
        assert len(lines) == len(r.trace) + 1
        k, res, obj = lines[1].split(",")
        assert int(k) == 0
        float(res), float(obj)


def test_solver_imports_no_verification_layer():
    """Verification layers may share _linalg and datum with the solver, never
    the fixed-point logic, so the solver imports no other package module."""
    tree = ast.parse(Path(blgauss.gaussian_solver.__file__).read_text(encoding="utf-8"))
    imported = {"." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    assert {m for m in imported if m.startswith((".", "blgauss"))} == {"._linalg", ".datum"}
