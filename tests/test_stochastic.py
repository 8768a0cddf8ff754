import math
import tracemalloc

import numpy as np
import pytest

from blgauss import (
    BrownianConfig,
    DriftPolicy,
    builtin_suite,
    closed_form_linear,
    closed_form_quadratic,
    drift_value,
    linear_g,
    mc_log_mgf,
    quadratic_g,
    terminal_points,
)
from blgauss.stochastic import check_draws

A2 = np.array([[1.0, 0.3], [0.3, 0.8]])


def small_config(**kw):
    opts = dict(A=A2, horizon=1.0, steps=64, paths=4000, seed=20240817)
    opts.update(kw)
    return BrownianConfig(**opts)


class TestConfig:
    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            BrownianConfig(A=np.eye(1), horizon=0.0)

    def test_rejects_non_spd_covariance(self):
        with pytest.raises(ValueError):
            BrownianConfig(A=np.array([[0.0]]))

    def test_rejects_budget_blowout(self):
        # the budget bounds what is allocated: W_T, (paths, n), a drift's
        # time grid, (steps, n), and the covariance density, (n, n)
        with pytest.raises(ValueError, match=r"\(paths \+ steps \+ n\) \* n"):
            BrownianConfig(A=np.eye(2), steps=1, paths=5 * 10**7)
        BrownianConfig(A=np.eye(2), steps=10**5, paths=10**5)
        check_draws(5000, 5000, 10_000)
        with pytest.raises(ValueError, match=r"= 100005000 exceeds the budget 100000000$"):
            check_draws(5000, 5000, 10_001)
        # at n = 10^4 the covariance alone takes the whole budget; a
        # broadcast A of that shape holds one float
        with pytest.raises(ValueError, match=r"= 100030000 exceeds the budget 100000000$"):
            BrownianConfig(A=np.broadcast_to(1.0, (10**4, 10**4)), steps=1, paths=2)

    def test_budget_is_read_before_the_covariance_is_decomposed(self):
        # -I is not positive definite; the budget, read off its shape, refuses it first
        with pytest.raises(ValueError, match=r"\(paths \+ steps \+ n\) \* n"):
            BrownianConfig(A=-np.eye(2), paths=10**8)

    def test_rejects_single_path(self):
        # standard errors are sample standard deviations and need two paths
        with pytest.raises(ValueError, match="paths must be an integer of at least 2, got 1"):
            BrownianConfig(A=np.eye(1), paths=1)

    @pytest.mark.parametrize("field, value, least", [
        # 2.5 steps summed 3 steps of T / 2.5: a unit constant drift on
        # T = 1 gave drift_value -0.6, not -0.5
        ("steps", 2.5, 1), ("steps", 0, 1),
        # 10.5 paths ended in a TypeError from the draw
        ("paths", 10.5, 2),
    ])
    def test_counts_are_integers(self, field, value, least):
        with pytest.raises(ValueError, match=f"{field} must be an integer of at least {least}, got {value}"):
            BrownianConfig(A=np.eye(1), **{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
            small_config(seed=seed)

    def test_dt(self):
        c = BrownianConfig(A=np.eye(1), horizon=2.0, steps=8)
        assert c.dt == 0.25


class TestTerminalPoints:
    @pytest.mark.parametrize(
        "n, steps, paths, horizon",
        [
            (1, 64, 5000, 1.0),
            (3, 64, 5000, 0.3),
            (3, 1, 5000, 2.5),
            (2, 128, 2049, 1.0),
        ],
    )
    def test_is_one_scaled_gaussian_draw(self, n, steps, paths, horizon):
        # W_T = sqrt(T) Z L^T, Z one (paths, n) standard normal draw
        A = np.eye(n) + 0.2 * np.ones((n, n))
        c = BrownianConfig(A=A, horizon=horizon, steps=steps, paths=paths, seed=7)
        Z = np.random.default_rng(7).standard_normal((paths, n))
        WT = terminal_points(c)
        assert WT.shape == (paths, n)
        assert np.array_equal(WT, math.sqrt(horizon) * Z @ np.linalg.cholesky(A).T)

    def test_seed_reproducibility(self):
        a = terminal_points(small_config(paths=8))
        b = terminal_points(small_config(paths=8))
        np.testing.assert_array_equal(a, b)

    def test_covariance_is_horizon_times_A(self):
        # W_T ~ N(0, T A) with T != 1 and a coarse grid, so a leftover
        # sqrt(dt) scaling (covariance dt A = 0.36 A) cannot pass
        c = small_config(horizon=2.5, steps=7, paths=20000)
        cov = np.cov(terminal_points(c).T)
        np.testing.assert_allclose(cov, 2.5 * A2, atol=0.1)

    def test_estimators_default_to_terminal_points(self):
        c = small_config(paths=3000)
        g = quadratic_g(np.diag([0.7, 1.2]))
        WT = terminal_points(c)
        assert mc_log_mgf(c, g) == mc_log_mgf(c, g, terminal=WT)
        policy = DriftPolicy.constant([0.2, -0.1])
        assert drift_value(c, g, policy) == drift_value(c, g, policy, terminal=WT)

    def test_rejects_path_arrays(self):
        c = small_config(paths=16, steps=8)
        with pytest.raises(ValueError, match="terminal must have shape"):
            mc_log_mgf(c, linear_g([1.0, 0.0]), terminal=np.zeros((16, 9, 2)))

    def test_suite_never_builds_a_path_array(self):
        # a few (paths, n) arrays at most; one normal per path, step and
        # coordinate would take 205 MB here
        c = BrownianConfig(A=A2, steps=128, paths=100_000, seed=11)
        tracemalloc.start()
        try:
            builtin_suite(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * c.paths * c.n * 8


class TestDriftPolicy:
    def test_zero(self):
        ud = DriftPolicy.zero().derivative(np.linspace(0, 1, 5), 3)
        np.testing.assert_array_equal(ud, np.zeros((5, 3)))

    def test_constant_shape_check(self):
        p = DriftPolicy.constant([1.0, 2.0])
        with pytest.raises(ValueError):
            p.derivative(np.zeros(4), 3)

    def test_linear_in_time_values(self):
        rate = np.array([[1.0, 2.0], [0.5, -1.0]])
        times = np.array([0.0, 0.5, 1.0])
        ud = DriftPolicy.linear_in_time(rate).derivative(times, 2)
        np.testing.assert_allclose(ud[:, 0], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(ud[:, 1], [0.5, 0.0, -0.5])

    def test_linear_in_time_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            DriftPolicy.linear_in_time(np.zeros((2, 3)))

    def test_constant_is_the_ramp_without_slope(self):
        # v + s * 0 = v exactly, so a constant drift keeps every bit
        v = np.array([0.3, -1.7, 0.0])
        times = np.arange(7) * 0.37
        ud = DriftPolicy.constant(v).derivative(times, 3)
        np.testing.assert_array_equal(ud, np.broadcast_to(v, (7, 3)))
        np.testing.assert_array_equal(DriftPolicy.constant(v).rate, np.stack([v, np.zeros(3)], axis=1))
        assert DriftPolicy.zero().rate is None

    @pytest.mark.parametrize("v", [1.0, [[1.0, 2.0]]])
    def test_constant_rejects_non_vector(self, v):
        with pytest.raises(ValueError, match="constant drift must be a vector"):
            DriftPolicy.constant(v)

    def test_every_construction_checks_the_rate(self):
        # the raw constructor took an (n, 3) rate, whose third column
        # drift_value dropped, and a NaN rate surfaced as an OverflowError of g
        for make in (lambda: DriftPolicy(rate=np.ones((2, 3))), lambda: DriftPolicy(rate=np.zeros((0, 2))),
                     lambda: DriftPolicy.constant([])):
            with pytest.raises(ValueError, match=r"rate must have shape \(n, 2\) with n >= 1"):
                make()
        for make in (lambda: DriftPolicy(rate=np.full((2, 2), np.nan)),
                     lambda: DriftPolicy.linear_in_time(np.full((2, 2), np.nan)),
                     lambda: DriftPolicy.constant([np.inf, 0.0])):
            with pytest.raises(ValueError, match="rate must be finite"):
                make()

    def test_a_list_rate_is_an_array(self):
        # a list rate raised AttributeError in derivative
        policy = DriftPolicy(rate=[[1.0, 2.0], [0.5, -1.0]])
        np.testing.assert_array_equal(policy.derivative(np.array([0.0, 1.0]), 2), [[1.0, 0.5], [3.0, -0.5]])


class TestClosedForms:
    def test_linear_frozen(self):
        # A = I_1, b = 1, T = 1: log E e^{W_T} = 1/2
        assert closed_form_linear(np.eye(1), [1.0], 1.0) == pytest.approx(0.5)

    def test_quadratic_frozen(self):
        # A = Q = I_1, T = 1: -log(2)/2
        assert closed_form_quadratic(np.eye(1), np.eye(1), 1.0) == pytest.approx(
            -0.5 * math.log(2.0)
        )

    def test_quadratic_non_commuting(self):
        # sym(I + T A Q) has a different determinant from I + T A Q when A
        # and Q do not commute, so the closed form must not symmetrize it
        Q = np.array([[0.9, -0.4], [-0.4, 0.3]])
        assert not np.allclose(A2 @ Q, Q @ A2)
        _, ld = np.linalg.slogdet(np.eye(2) + 1.5 * A2 @ Q)
        assert closed_form_quadratic(A2, Q, 1.5) == pytest.approx(-0.5 * ld, rel=1e-12)

    def test_quadratic_g_matches_pointwise_form(self):
        Q = np.array([[0.9, -0.4], [0.2, 0.3]])
        x = np.random.default_rng(3).standard_normal((50, 2))
        expected = [-0.5 * float(xi @ Q @ xi) for xi in x]
        np.testing.assert_allclose(quadratic_g(Q)(x), expected, rtol=1e-13, atol=1e-15)
        assert quadratic_g(Q)(x[0]) == pytest.approx(expected[0], rel=1e-13)
        # scaled in place, with the bits of the scaled copy
        assert quadratic_g(Q)(x).tobytes() == (-0.5 * np.einsum("...i,...i->...", x @ Q, x)).tobytes()

    def test_mc_agrees_with_linear(self):
        c = small_config(paths=40000)
        b = np.array([0.8, -0.4])
        est, se = mc_log_mgf(c, linear_g(b))
        assert abs(est - closed_form_linear(A2, b, 1.0)) <= 3.5 * se

    def test_mc_agrees_with_quadratic(self):
        c = small_config(paths=40000)
        Q = np.diag([0.7, 1.2])
        est, se = mc_log_mgf(c, quadratic_g(Q))
        assert abs(est - closed_form_quadratic(A2, Q, 1.0)) <= 3.5 * se


class TestDriftValue:
    def test_zero_drift_is_plain_mean(self):
        c = small_config()
        b = np.array([1.0, 0.0])
        WT = terminal_points(c)
        est, _ = drift_value(c, linear_g(b), DriftPolicy.zero(), terminal=WT)
        assert est == pytest.approx(float(WT[:, 0].mean()), abs=1e-12)

    @pytest.mark.parametrize("n, layout", [(1, "c"), (3, "c"), (6, "c"), (3, "rows"), (3, "columns"),
                                           (3, "fortran")])
    def test_the_shift_is_the_broadcast_sum(self, n, layout):
        # U_T is added to W_T a coordinate column at a time: g reads the
        # bits and the layout of the broadcast sum W_T + U_T, also on a
        # terminal= array that is a strided view or in Fortran order. U_T is
        # read off the shift of zero terminal points
        A = np.eye(n) + 0.2 * np.ones((n, n))
        c = BrownianConfig(A=A, steps=16, paths=300, seed=5)
        policy = DriftPolicy.linear_in_time(np.stack([np.linspace(0.3, -0.4, n), np.full(n, 0.7)], axis=1))
        WT = terminal_points(BrownianConfig(A=np.eye(2 * n), steps=16, paths=900, seed=5))
        WT = {"c": np.ascontiguousarray(WT[:300, :n]), "rows": WT[::3, :n], "columns": WT[:300, ::2],
              "fortran": np.asfortranarray(WT[:300, :n])}[layout]
        seen = []

        def g(x):
            seen.append((x.strides, x.copy()))
            return x[:, 0]

        drift_value(c, g, policy, terminal=np.zeros((300, n)))
        drift_value(c, g, policy, terminal=WT)
        (_, shifts), (strides, shifted) = seen
        want = WT + shifts[0]
        assert np.all(shifts == shifts[0]) and np.any(shifts != 0.0)
        assert strides == want.strides and shifted.tobytes() == want.tobytes()

    def test_every_policy_is_a_lower_bound(self):
        c = small_config(paths=20000)
        b = np.array([0.8, -0.4])
        g = linear_g(b)
        WT = terminal_points(c)
        mc, mc_se = mc_log_mgf(c, g, terminal=WT)
        for policy in (
            DriftPolicy.zero(),
            DriftPolicy.constant(A2 @ b),
            DriftPolicy.constant(0.3 * (A2 @ b)),
            DriftPolicy.linear_in_time(np.stack([0.2 * b, 0.5 * b], axis=1)),
        ):
            dv, dv_se = drift_value(c, g, policy, terminal=WT)
            assert dv <= mc + 3.0 * math.hypot(dv_se, mc_se)

    def test_optimal_drift_attains_closed_form(self):
        c = small_config(paths=40000)
        b = np.array([0.8, -0.4])
        dv, se = drift_value(c, linear_g(b), DriftPolicy.constant(A2 @ b))
        assert abs(dv - closed_form_linear(A2, b, 1.0)) <= 3.5 * se

    def test_cameron_martin_norm_matches_manual_sum(self):
        # check the ||U||_H^2 bookkeeping against a hand-rolled Riemann sum
        c = small_config(paths=10, steps=32)
        rate = np.array([[0.3, 0.7], [-0.2, 0.1]])
        policy = DriftPolicy.linear_in_time(rate)
        g_zero = lambda x: np.zeros(x.shape[0])
        est, _ = drift_value(c, g_zero, policy)
        times = np.arange(c.steps) * c.dt
        ud = rate[None, :, 0] + times[:, None] * rate[None, :, 1]
        manual = sum(float(u @ np.linalg.solve(A2, u)) for u in ud) * c.dt
        assert est == pytest.approx(-0.5 * manual, abs=1e-12)

    def test_overflow_raises(self):
        c = small_config(paths=100)
        bad = lambda x: np.where(x[:, 0] > 0, np.inf, 0.0)
        with pytest.raises(OverflowError):
            mc_log_mgf(c, bad)

    @pytest.mark.parametrize("g", [lambda x: 1.0, lambda x: np.ones((x.shape[0], 3))],
                             ids=["scalar", "paths-by-3"])
    def test_a_g_of_the_wrong_shape_is_refused(self, g):
        # a scalar g gave stderr nan and leaked two RuntimeWarnings; a
        # (paths, 3) g took its standard error over 3 * paths values
        c = small_config(paths=100)
        for run in (lambda: mc_log_mgf(c, g), lambda: drift_value(c, g, DriftPolicy.zero())):
            with pytest.raises(ValueError, match=r"g must return shape \(100,\)"):
                run()


class TestDiscretization:
    def test_terminal_points_do_not_depend_on_steps(self):
        # W_T is drawn exactly, so estimates depend on the grid only
        # through the drift quadrature
        WT = [terminal_points(small_config(paths=500, steps=steps)) for steps in (1, 7, 128)]
        assert np.array_equal(WT[0], WT[1])
        assert np.array_equal(WT[0], WT[2])


class TestBuiltinSuite:
    def test_all_rows_pass_at_reference_size(self):
        rows = builtin_suite(small_config(paths=20000, steps=128))
        assert len(rows) == 10  # 2 g's x (1 closed-form row + 4 policies)
        for row in rows:
            assert row.ok, f"{row.label}: z = {row.z:.2f}"

    def test_row_kinds_and_closed_forms(self):
        rows = builtin_suite(small_config(paths=2000))
        kinds = {row.label: row.kind for row in rows}
        assert kinds["mc_log_mgf[linear]"] == "closed"
        assert kinds["drift_value[linear;constant-opt]"] == "bound"
        closed = {row.label: row.closed_form for row in rows}
        assert closed["drift_value[linear;constant-opt]"] is not None
        assert closed["drift_value[linear;zero]"] is None

    @pytest.mark.parametrize("n, horizon", [(1, 1.0), (2, 1.0), (3, 1.0), (2, 2.5)])
    def test_rows_are_the_public_estimators(self, n, horizon):
        # the suite reads every policy's shifted points once for both
        # payoffs; each row keeps the bits of its public estimator called
        # alone on the same terminal points
        A = np.eye(n) + 0.2 * np.ones((n, n))
        c = BrownianConfig(A=A, horizon=horizon, steps=16, paths=3000, seed=5)
        b = np.linspace(1.0, 0.5, n)
        Q = np.diag(np.linspace(0.5, 1.5, n)) + 0.1 * np.ones((n, n)) / n
        policies = {
            "zero": DriftPolicy.zero(),
            "constant-opt": DriftPolicy.constant(A @ b),
            "constant-half": DriftPolicy.constant(0.5 * (A @ b)),
            "linear-in-time": DriftPolicy.linear_in_time(np.stack([0.3 * b, 0.4 * b], axis=1)),
        }
        WT = terminal_points(c)
        expected = []
        for g_name, g in {"linear": linear_g(b), "quadratic": quadratic_g(Q)}.items():
            expected.append((f"mc_log_mgf[{g_name}]", mc_log_mgf(c, g, terminal=WT)))
            expected += [(f"drift_value[{g_name};{p_name}]", drift_value(c, g, policy, terminal=WT))
                         for p_name, policy in policies.items()]
        assert [(row.label, (row.estimate, row.stderr)) for row in builtin_suite(c)] == expected

    def test_deterministic_given_seed(self):
        a = builtin_suite(small_config(paths=1000))
        b = builtin_suite(small_config(paths=1000))
        assert [r.estimate for r in a] == [r.estimate for r in b]
