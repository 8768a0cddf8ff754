import math

import numpy as np
import pytest

from blgauss import (
    DatumError,
    direct_extremizers,
    direct_gaussian_check,
    dual_check,
    gaussian_constant_search,
    logdet_duality_check,
    make_datum,
    reverse_extremizers,
    reverse_gaussian_check,
    sample_spd,
    sample_spd_stack,
    sample_tuple,
    solve,
    sweep_direct,
    sweep_dual,
    sweep_reverse,
)
from blgauss._linalg import IllConditionedError, chol_logdet, sym
from blgauss.young import beckner_constant
from conftest import (
    coordinate_datum,
    mercedes_frame_datum,
    prekopa_leindler_datum,
    random_spd_tuple,
    young_flagship,
)


def brute_force_direct_ratio(datum, mats, constant):
    """Same inequality, assembled with plain dense inverses / dets instead of
    the log-domain Cholesky pipeline."""
    num = 1.0
    S = np.zeros((datum.n, datum.n))
    for i, Ai in zip(datum.active_indices(), mats):
        f = datum.factors[i]
        num *= np.linalg.det(Ai) ** f.c
        S += f.c * (f.B.T @ Ai @ f.B)
    return num / (constant**2 * np.linalg.det(S))


def dims_one_to_three_datum():
    """n = 3 with factor dimensions 1, 2 and 3 and well-conditioned maps."""
    maps = [np.array([[1.0, 1.0, 0.0]]),
            np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]]),
            np.array([[2.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]])]
    return make_datum(3, [0.6, 0.6, 0.4], maps)


def brute_force_reverse_ratio(datum, mats, constant):
    S = np.zeros((datum.n, datum.n))
    den = 1.0
    for i, Ai in zip(datum.active_indices(), mats):
        f = datum.factors[i]
        S += f.c * (f.B.T @ np.linalg.inv(Ai) @ f.B)
        den *= np.linalg.det(Ai) ** f.c
    return np.linalg.det(np.linalg.inv(S)) / (constant**2 * den)


class TestPointChecks:
    def test_direct_matches_naive_formula(self, rng):
        _, d = young_flagship()
        for _ in range(10):
            mats = random_spd_tuple(d, rng)
            a = direct_gaussian_check(d, 0.9, mats)
            b = brute_force_direct_ratio(d, mats, 0.9)
            assert a == pytest.approx(b, rel=1e-10)

    def test_reverse_matches_naive_formula(self, rng):
        _, d = young_flagship()
        for _ in range(10):
            mats = random_spd_tuple(d, rng)
            a = reverse_gaussian_check(d, 0.9, mats)
            b = brute_force_reverse_ratio(d, mats, 0.9)
            assert a == pytest.approx(b, rel=1e-10)

    def test_equality_at_direct_extremizers(self):
        _, d = young_flagship()
        r = solve(d)
        exts = direct_extremizers(d, r.A)
        assert direct_gaussian_check(d, r.constant, exts) == pytest.approx(1.0, abs=1e-10)

    def test_equality_at_reverse_extremizers(self):
        _, d = young_flagship()
        r = solve(d)
        exts, env = reverse_extremizers(d, r.A)
        assert reverse_gaussian_check(d, r.constant, exts) == pytest.approx(1.0, abs=1e-10)
        assert dual_check(d, r.constant, env) == pytest.approx(1.0, abs=1e-10)

    def test_dual_scale_invariance(self, rng):
        _, d = young_flagship()
        A = sample_spd(2, rng)
        base = dual_check(d, 0.9, A)
        for t in (1e-3, 0.7, 42.0):
            assert dual_check(d, 0.9, t * A) == pytest.approx(base, rel=1e-12)

    def test_frames_peak_at_identity(self):
        for d in (prekopa_leindler_datum(), coordinate_datum(3), mercedes_frame_datum()):
            tuple_ = [np.eye(f.target_dim) for f in d.factors]
            assert direct_gaussian_check(d, 1.0, tuple_) == pytest.approx(1.0, abs=1e-14)
            assert reverse_gaussian_check(d, 1.0, tuple_) == pytest.approx(1.0, abs=1e-14)
            assert dual_check(d, 1.0, np.eye(d.n)) == pytest.approx(1.0, abs=1e-14)


class TestLogdetDuality:
    def test_frozen_example(self):
        # A = I_2, B = 2 I_2: gap = tr(2I) - 2 - logdet(2I) = 2 - 2 log 2
        gap = logdet_duality_check(np.eye(2), 2.0 * np.eye(2))
        assert gap == pytest.approx(2.0 - 2.0 * math.log(2.0), abs=1e-14)

    def test_zero_exactly_at_inverse(self, rng):
        for _ in range(10):
            A = sample_spd(3, rng)
            assert abs(logdet_duality_check(A, np.linalg.inv(A))) <= 1e-10

    def test_nonnegative_everywhere(self, rng):
        for _ in range(50):
            A = sample_spd(2, rng)
            B = sample_spd(2, rng)
            assert logdet_duality_check(A, B) >= -1e-12


class TestSweeps:
    def test_young_sweeps_clean(self):
        _, d = young_flagship()
        r = solve(d)
        rep_d, ratios_d = sweep_direct(d, r.constant, samples=300, seed=11,
                                       extremizer=direct_extremizers(d, r.A))
        exts, env = reverse_extremizers(d, r.A)
        rep_r, _ = sweep_reverse(d, r.constant, samples=300, seed=11, extremizer=exts)
        rep_a, _ = sweep_dual(d, r.constant, samples=300, seed=11, extremizer=env)
        for rep in (rep_d, rep_r, rep_a):
            assert rep.samples == 300
            assert rep.violations == 0
            assert rep.worst_ratio <= 1.0 + 1e-9
            assert rep.equality_gap <= 1e-10
            assert rep.ok
        assert ratios_d.shape == (300,)
        assert ratios_d.max() <= 1.0 + 1e-9

    def test_deflated_constant_is_caught(self):
        # the detector must fire when the claimed constant is too small
        _, d = young_flagship()
        r = solve(d)
        for sweep in (sweep_direct, sweep_reverse, sweep_dual):
            rep, _ = sweep(d, 0.5 * r.constant, samples=100, seed=11)
            assert rep.violations > 0
            assert not rep.ok

    @pytest.mark.parametrize("samples", [5, 40])  # 5 < 16 leaves blocks empty
    @pytest.mark.parametrize("datum", [young_flagship()[1], dims_one_to_three_datum()],
                             ids=["young", "dims123"])
    def test_blocks_replay_against_brute_force(self, datum, samples):
        # block b holds the next samples of SeedSequence((seed, b)); every
        # ratio is recomputed from them with plain dense dets and inverses.
        # The reverse ratio is det(inv(S)) for the harmonic sum S, known in
        # floating point only to about eps * cond(S), whatever the method.
        seed, constant = 3, 0.9
        want = {"direct": [], "reverse": [], "dual": []}
        rtol = {"direct": 1e-10, "reverse": [], "dual": 1e-10}
        base, extra = divmod(samples, 16)
        for b in range(16):
            count = base + (1 if b < extra else 0)
            rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
            stacks = [sample_spd_stack(f.target_dim, count, rng) for f in datum.factors]
            for j in range(count):
                mats = [S[j] for S in stacks]
                want["direct"].append(brute_force_direct_ratio(datum, mats, constant))
                want["reverse"].append(brute_force_reverse_ratio(datum, mats, constant))
                S = sum(f.c * f.B.T @ np.linalg.inv(M) @ f.B for f, M in zip(datum.factors, mats))
                rtol["reverse"].append(1e-10 + 1e-14 * np.linalg.cond(S))
            rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
            for A in sample_spd_stack(datum.n, count, rng):
                den = np.prod([np.linalg.det(f.B @ A @ f.B.T) ** f.c for f in datum.factors])
                want["dual"].append(np.linalg.det(A) / (constant**2 * den))
        for name, sweep in (("direct", sweep_direct), ("reverse", sweep_reverse),
                            ("dual", sweep_dual)):
            rep, ratios = sweep(datum, constant, samples, seed)
            assert rep.samples == samples
            assert np.all(np.abs(ratios / np.array(want[name]) - 1.0) <= rtol[name])

    def test_sample_split_covers_requested_count(self):
        d = prekopa_leindler_datum()
        rep, ratios = sweep_dual(d, 1.0, samples=37, seed=0)
        assert rep.samples == 37
        assert ratios.shape == (37,)


class TestStackedCholesky:
    def test_matches_chol_logdet_per_matrix(self, rng):
        for k in (1, 3):
            stack = sample_spd_stack(k, 6, rng).reshape(2, 3, k, k)
            L, ld = chol_logdet(stack)
            assert ld.shape == (2, 3)
            for idx in np.ndindex(2, 3):
                L1, ld1 = chol_logdet(stack[idx])
                np.testing.assert_allclose(L[idx], L1, rtol=1e-14)
                assert ld[idx] == pytest.approx(ld1, rel=1e-14, abs=1e-14)

    def test_guards_of_the_per_matrix_path(self):
        good = np.eye(2)
        with pytest.raises(ValueError, match="symmetric"):
            chol_logdet(np.stack([good, [[1.0, 0.1], [0.0, 1.0]]]))
        for bad in ([[1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 1e-15]], [[0.0, 0.0], [0.0, 0.0]]):
            with pytest.raises(IllConditionedError, match=r"\[1\]"):
                chol_logdet(np.stack([good, bad]))
        with pytest.raises(IllConditionedError):
            chol_logdet(-np.ones((4, 1, 1)))

    def test_matrix_and_stack_of_one_agree(self, rng):
        for k in (1, 2, 5):
            M = sample_spd(k, rng)
            L, ld = chol_logdet(M)
            Ls, lds = chol_logdet(M[None])
            assert np.array_equal(L, Ls[0]) and ld == lds[0]
            assert np.ndim(ld) == 0 and lds.shape == (1,)

    def test_single_matrix_symmetry_guard(self, rng):
        M = sample_spd(3, rng)
        E = np.zeros((3, 3))
        E[0, 1] = np.abs(M).max()
        with pytest.raises(ValueError, match="symmetric"):
            chol_logdet(M + 1e-11 * E)
        L, ld = chol_logdet(M + 1e-14 * E)
        L0, ld0 = chol_logdet(sym(M + 1e-14 * E))
        assert np.array_equal(L, L0) and ld == ld0


class TestSampling:
    def test_sample_spd_is_spd_and_spread(self, rng):
        scales = []
        for _ in range(50):
            M = sample_spd(3, rng)
            assert np.linalg.eigvalsh(M).min() > 0
            scales.append(np.trace(M))
        assert max(scales) / min(scales) > 1e2  # log-uniform spread is real

    def test_sample_tuple_shapes(self, rng):
        _, d = young_flagship()
        mats = sample_tuple(d, rng)
        assert [M.shape[0] for M in mats] == [1, 1, 1]


class TestConstantSearch:
    def test_frame_search_finds_one(self):
        assert gaussian_constant_search(mercedes_frame_datum(), iters=200) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_young_search_matches_closed_form(self):
        e, d = young_flagship()
        assert gaussian_constant_search(d, iters=400) == pytest.approx(
            beckner_constant(e), abs=1e-6
        )

    def test_search_agrees_with_solver_independently(self):
        d = coordinate_datum(3, weights=[1.0, 1.0, 1.0])
        r = solve(d)
        assert gaussian_constant_search(d, iters=200) == pytest.approx(r.constant, abs=1e-8)

    def test_refuses_bad_data(self):
        degenerate = make_datum(2, [1.0, 1.0], [np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])])
        with pytest.raises(DatumError):
            gaussian_constant_search(degenerate)
        inhomogeneous = make_datum(2, [1.0, 1.0, 1.0],
                                   [np.eye(2)[:1], np.eye(2)[1:], np.eye(2)[:1]])
        with pytest.raises(DatumError):
            gaussian_constant_search(inhomogeneous)
