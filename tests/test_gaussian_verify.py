import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import blgauss.gaussian_verify
from blgauss import (
    BrownianConfig,
    DatumError,
    direct_extremizers,
    dual_check,
    gaussian_constant_search,
    make_datum,
    reverse_extremizers,
    sample_spd_stack,
    sample_tuple,
    solve,
    sweep_direct,
    sweep_dual,
    sweep_reverse,
)
from blgauss._linalg import (COND_LIMIT, IllConditionedError, _guard, check_spd, chol_logdet, gram_logdet,
                             sym, whiten)
from blgauss.gaussian_solver import _whiten
from blgauss.gaussian_verify import (VIOLATION_RTOL, _direct_ratios, _dual_ratios,
                                     _reverse_ratios, sweep_direct_and_reverse)
from blgauss.young import beckner_constant
from conftest import (
    coordinate_datum,
    gaussian_ratio,
    gl_map,
    loomis_whitney_datum,
    mercedes_frame_datum,
    prekopa_leindler_datum,
    random_datum,
    random_gl,
    random_spd_tuple,
    young_flagship,
)


def brute_force_direct_ratio(datum, mats, constant):
    """Same inequality, assembled with plain dense inverses / dets instead of
    the log-domain Cholesky pipeline."""
    num = 1.0
    S = np.zeros((datum.n, datum.n))
    for i, Ai in zip(datum.active, mats):
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


def generic_datum():
    """n = 6 with eight Gaussian maps of target dimension 1 to 3, five of
    them rank one, weights 6 / sum n_i: homogeneous, finite, attained."""
    rng = np.random.default_rng(0)
    dims = [int(k) for k in rng.integers(1, 4, size=8)]
    return make_datum(6, [6 / sum(dims)] * 8, [rng.standard_normal((k, 6)) for k in dims])


def brute_force_reverse_ratio(datum, mats, constant):
    S = np.zeros((datum.n, datum.n))
    den = 1.0
    for i, Ai in zip(datum.active, mats):
        f = datum.factors[i]
        S += f.c * (f.B.T @ np.linalg.inv(Ai) @ f.B)
        den *= np.linalg.det(Ai) ** f.c
    return np.linalg.det(np.linalg.inv(S)) / (constant**2 * den)


class TestPointChecks:
    def test_direct_matches_naive_formula(self, rng):
        _, d = young_flagship()
        for _ in range(10):
            mats = random_spd_tuple(d, rng)
            a = gaussian_ratio(_direct_ratios, d, 0.9, mats)
            b = brute_force_direct_ratio(d, mats, 0.9)
            assert a == pytest.approx(b, rel=1e-10)

    def test_reverse_matches_naive_formula(self, rng):
        _, d = young_flagship()
        for _ in range(10):
            mats = random_spd_tuple(d, rng)
            a = gaussian_ratio(_reverse_ratios, d, 0.9, mats)
            b = brute_force_reverse_ratio(d, mats, 0.9)
            assert a == pytest.approx(b, rel=1e-10)

    def test_equality_at_direct_extremizers(self):
        _, d = young_flagship()
        r = solve(d)
        rep, _ = sweep_direct(d, r.constant, samples=1, extremizer=direct_extremizers(d, r.A))
        assert rep.equality_gap <= 1e-10

    def test_equality_at_reverse_extremizers(self):
        _, d = young_flagship()
        r = solve(d)
        exts, env = reverse_extremizers(d, r.A)
        rep, _ = sweep_reverse(d, r.constant, samples=1, extremizer=exts)
        assert rep.equality_gap <= 1e-10
        assert dual_check(d, r.constant, env) == pytest.approx(1.0, abs=1e-10)

    def test_dual_scale_invariance(self, rng):
        _, d = young_flagship()
        A = sample_spd_stack(2, 1, rng)[0]
        base = dual_check(d, 0.9, A)
        for t in (1e-3, 0.7, 42.0):
            assert dual_check(d, 0.9, t * A) == pytest.approx(base, rel=1e-12)

    def test_frames_peak_at_identity(self):
        for d in (prekopa_leindler_datum(), coordinate_datum(3), mercedes_frame_datum()):
            tuple_ = [np.eye(f.target_dim) for f in d.factors]
            for rep, _ in sweep_direct_and_reverse(d, 1.0, 1, extremizers=(tuple_, tuple_)):
                assert rep.equality_gap <= 1e-14
            assert dual_check(d, 1.0, np.eye(d.n)) == pytest.approx(1.0, abs=1e-14)


def _poisoned(k: int, value: float) -> np.ndarray:
    M = np.eye(k)
    M[0, 0] = value
    return M


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [
    lambda M: check_spd(M(1)),
    lambda M: BrownianConfig(A=M(2)),
    lambda M: dual_check(young_flagship()[1], 1.0, M(2)),
    lambda M: sweep_direct(young_flagship()[1], 1.0, 10, extremizer=[np.eye(1), np.eye(1), M(1)]),
], ids=["check_spd", "BrownianConfig", "dual_check", "sweep-extremizer"])
def test_non_finite_matrix_is_refused(call, value):
    # refused by name before any arithmetic on it, so no ratio is NaN and no
    # RuntimeWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="has non-finite entries"):
            call(lambda k: _poisoned(k, value))


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

    def test_degenerate_data_are_refused_before_any_draw(self, monkeypatch):
        # check_tuple's rule, with or without an extremizer; the dual sweep
        # reads no tuple and keeps running
        d = make_datum(2, [1.0, 1.0], [np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]])])
        assert sweep_dual(d, 1.0, 10)[0].samples == 10

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep drew a random number")
        monkeypatch.setattr(blgauss.gaussian_verify.np.random, "default_rng", refuse)
        for sweep in (sweep_direct, sweep_reverse, sweep_direct_and_reverse):
            with pytest.raises(DatumError, match="^degenerate datum: the factor maps do not jointly span"):
                sweep(d, 1.0, 10)

    def test_an_ill_conditioned_sample_on_spanning_data_raises_its_own_error(self):
        # solve converges on this GL-mapped datum, but one of 2,000 random
        # tuples has a harmonic sum past COND_LIMIT: the sample's fault, not
        # the datum's
        d = gl_map(loomis_whitney_datum(3), random_gl(3, 1e4, np.random.default_rng(3)))
        r = solve(d)
        assert r.converged and not d.degenerate
        with pytest.raises(IllConditionedError, match=r"^harmonic sum \[\d+\] is not positive definite"):
            sweep_reverse(d, r.constant, samples=2000)

    def test_deflated_constant_is_caught(self):
        # the detector must fire when the claimed constant is too small
        _, d = young_flagship()
        r = solve(d)
        for sweep in (sweep_direct, sweep_reverse, sweep_dual):
            rep, _ = sweep(d, 0.5 * r.constant, samples=100, seed=11)
            assert rep.violations > 0
            assert not rep.ok

    def test_a_constant_too_small_for_its_extremizer_fails(self):
        # deflated by 1e-3 at the solver's A, each of the 1,000 random
        # samples of seed 0 still passes, but the extremizer's ratio, about
        # 1 + 2e-3, is a violation
        _, d = young_flagship()
        r = solve(d)
        constant = r.constant * (1.0 - 1e-3)
        exts, env = reverse_extremizers(d, r.A)
        reports = [rep for rep, _ in sweep_direct_and_reverse(d, constant, 1000, 0, extremizers=(
            direct_extremizers(d, r.A), exts))]
        reports.append(sweep_dual(d, constant, 1000, 0, extremizer=env)[0])
        for rep in reports:
            assert rep.worst_ratio < 1.0
            assert rep.equality_gap == pytest.approx((1.0 - 1e-3) ** -2 - 1.0, rel=1e-9)
            assert rep.violations == 1
            assert not rep.ok

    def test_a_tiny_constant_overflows_to_violations_without_warnings(self):
        # C = 1e-300 puts every log ratio near +1381: exp overflowed, with a
        # RuntimeWarning per sweep; the ratio is inf, which counts as a violation
        _, d = young_flagship()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sweep in (sweep_direct, sweep_reverse, sweep_dual):
                rep, ratios = sweep(d, 1e-300, samples=50, seed=11)
                assert rep.violations == rep.samples == 50
                assert np.all(np.isinf(ratios))
            assert dual_check(d, 1e-300, np.eye(2)) == math.inf

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

    @pytest.mark.parametrize("sweep", [sweep_direct, sweep_reverse, sweep_dual])
    @pytest.mark.parametrize("samples", [0, -5, 40.5])
    def test_rejects_no_samples(self, sweep, samples):
        # zero samples would pass a check that tested nothing; a float count
        # ended in a TypeError from the block split
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"samples must be an integer of at least 1, got {samples}"):
                sweep(prekopa_leindler_datum(), 1.0, samples=samples)

    @pytest.mark.parametrize("sweep", [sweep_direct, sweep_reverse, sweep_dual])
    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_rejects_bad_seed(self, sweep, seed, monkeypatch):
        def draw(*args):
            raise AssertionError("drew samples for a bad seed")
        monkeypatch.setattr(blgauss.gaussian_verify, "_draw_spd", draw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
                sweep(prekopa_leindler_datum(), 1.0, samples=10, seed=seed)


@pytest.mark.parametrize("samples, runs", [(300, 1), (70_000, 16)])
def test_direct_and_reverse_share_one_draw(monkeypatch, samples, runs):
    # the direct and reversed sweeps draw the same tuples: on one draw, each
    # kernel with its own extremizer gives the reports and ratios of its own
    # sweep, bit for bit, and each run of blocks is drawn once, not twice
    d = young_flagship()[1]
    r = solve(d)
    exts = (direct_extremizers(d, r.A), reverse_extremizers(d, r.A)[0])
    alone = [sweep(d, r.constant, samples, 5, extremizer=ext)
             for sweep, ext in zip((sweep_direct, sweep_reverse), exts)]
    draw, draws = blgauss.gaussian_verify._draw_run, []
    monkeypatch.setattr(blgauss.gaussian_verify, "_draw_run",
                        lambda *args: draws.append(args[2]) or draw(*args))
    shared = sweep_direct_and_reverse(d, r.constant, samples, 5, extremizers=exts)
    assert len(draws) == runs and sum(map(len, draws)) == 16
    for (rep_a, ratios_a), (rep_s, ratios_s) in zip(alone, shared):
        assert rep_a == rep_s and rep_s.equality_gap is not None
        np.testing.assert_array_equal(ratios_a, ratios_s)


SWEEPS = {"direct": sweep_direct, "reverse": sweep_reverse, "dual": sweep_dual}


class TestGroupedBlocks:
    """One kernel call evaluates a run of consecutive RNG blocks (at most
    _CHUNK samples, or one larger block alone). Which blocks share a call
    must change no ratio and no report."""

    @pytest.mark.parametrize("samples", [5, 40, 250, 1000])
    @pytest.mark.parametrize("datum", [young_flagship()[1], dims_one_to_three_datum(), generic_datum()],
                             ids=["young", "dims123", "generic6"])
    def test_grouping_changes_no_ratio(self, datum, samples, monkeypatch):
        r = solve(datum)
        if r.converged:
            constant, ext = r.constant, {"direct": direct_extremizers(datum, r.A)}
            ext["reverse"], ext["dual"] = reverse_extremizers(datum, r.A)
        else:  # dims123 has constant +inf and no extremizers
            constant, ext = 0.9, dict.fromkeys(SWEEPS)
        calls, out = [], {}
        kernel = blgauss.gaussian_verify._direct_ratios
        monkeypatch.setattr(blgauss.gaussian_verify, "_direct_ratios",
                            lambda *args: calls.append(args[2][0].shape[0]) or kernel(*args))
        for chunk in (1, samples):  # every block alone; every block in one call
            monkeypatch.setattr(blgauss.gaussian_verify, "_CHUNK", chunk)
            out[chunk] = {name: sweep(datum, constant, samples, seed=5, extremizer=ext[name])
                          for name, sweep in SWEEPS.items()}
        # the extremizer rides along as one more sample of the first call
        blocks = [c for c in (samples // 16 + (b < samples % 16) for b in range(16)) if c]
        lead = int(r.converged)
        assert calls == [blocks[0] + lead, *blocks[1:], samples + lead]
        for name in SWEEPS:
            (rep_alone, alone), (rep_one, one) = out[1][name], out[samples][name]
            assert np.array_equal(alone, one), name
            assert rep_alone == rep_one, name
            assert (rep_one.equality_gap is not None) == r.converged

    @pytest.mark.parametrize("name", list(SWEEPS))
    def test_memory_stays_at_a_chunk_or_a_block(self, name, monkeypatch):
        # a call holds max(_CHUNK, one block) samples at most; every block in
        # one call would hold 4 and 20 chunks' worth in the last two sweeps
        chunk = 512
        monkeypatch.setattr(blgauss.gaussian_verify, "_CHUNK", chunk)
        d, sweep = generic_datum(), SWEEPS[name]

        def peak(samples):
            tracemalloc.start()
            try:
                sweep(d, 1.0, samples, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_call = peak(chunk)  # blocks of 32 in one call
        assert peak(4 * chunk) < 1.5 * one_call  # four calls of four blocks
        assert peak(16 * 640) < 1.5 * 640 / chunk * one_call  # blocks of 640, each alone


def _exact(M):
    """M = N / D exactly: every float is a dyadic rational, so N is an object
    array of Python ints and D a power of two."""
    q = [Fraction(x) for x in np.ravel(M).tolist()]
    D = max(x.denominator for x in q)
    return np.array([x.numerator * (D // x.denominator) for x in q], dtype=object).reshape(np.shape(M)), D


def _exact_log_abs_det(N, D) -> float:
    """log |det(N / D)| for a square object array N of ints: Bareiss
    elimination in exact integers, rounded once."""
    a = N.tolist()
    k, prev = len(a), 1
    for i in range(k - 1):
        p = next(r for r in range(i, k) if a[r][i])  # a row swap only flips the sign
        a[i], a[p] = a[p], a[i]
        for r in range(i + 1, k):
            for j in range(i + 1, k):
                a[r][j] = (a[r][j] * a[i][i] - a[r][i] * a[i][j]) // prev
        prev = a[i][i]
    return math.log(abs(Fraction(a[-1][-1], D**k)))


class TestExactRatios:
    # Per-factor scales 1e-2..1e2 make the sums S of the direct and reversed
    # inequalities ill-conditioned (cond(S) up to 4.4e8 here). A logdet taken
    # off a formed S loses eps cond(S), above VIOLATION_RTOL; read off the
    # rows whose Gram matrix S is, it loses eps sqrt(cond(S)). The remaining
    # 1.6e-10 is the logdet of one ill-conditioned A_i itself. The maps are
    # three draws from one generator.
    MAPS = list(map(np.random.default_rng(0).standard_normal, [(1, 3), (2, 3), (3, 3)]))

    def test_log_ratios_match_exact_arithmetic(self):
        d = make_datum(3, [0.5] * 3, self.MAPS)
        groups, B = d.groups, [_exact(M) for M in self.MAPS]
        worst = dict.fromkeys(("direct", "reverse", "dual"), 0.0)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            tup = [sample_spd_stack(k, 40, rng) for k in d.dims]
            amb = sample_spd_stack(3, 40, np.random.default_rng(seed))
            got = {"direct": np.log(_direct_ratios(groups, 1.0, tup)),
                   "reverse": np.log(_reverse_ratios(groups, 1.0, tup)),
                   "dual": np.log(_dual_ratios(groups, 1.0, amb))}
            for j in range(40):
                A = [_exact(T[j]) for T in tup]
                ld_A = [_exact_log_abs_det(*a) for a in A]
                # S = sum_i B_i^T A_i B_i / 2, exact over one power-of-two denominator
                terms = [(Bn.T @ An @ Bn, 2 * Db * Db * Da) for (Bn, Db), (An, Da) in zip(B, A)]
                D = max(t for _, t in terms)
                ld_S = _exact_log_abs_det(sum(T * (D // t) for T, t in terms), D)
                # reversed: S = sum_i B_i^T inv(2 A_i) B_i is the Schur complement
                # of blockdiag(2 A_i) in [[blockdiag(2 A_i), B], [B^T, 0]]
                M, rows = np.zeros((9, 9)), 0
                for Bi, T in zip(self.MAPS, tup):
                    k = len(Bi)
                    M[rows:rows + k, rows:rows + k] = 2.0 * T[j]
                    M[rows:rows + k, 6:], M[6:, rows:rows + k] = Bi, Bi.T
                    rows += k
                ld_H = (_exact_log_abs_det(*_exact(M))
                        - sum(ld + k * math.log(2.0) for ld, k in zip(ld_A, (1, 2, 3))))
                An, Da = _exact(amb[j])
                ld_P = [_exact_log_abs_det(Bn @ An @ Bn.T, Db * Db * Da) for Bn, Db in B]
                exact = {"direct": 0.5 * sum(ld_A) - ld_S,
                         "reverse": -ld_H - 0.5 * sum(ld_A),
                         "dual": _exact_log_abs_det(An, Da) - 0.5 * sum(ld_P)}
                for kind, value in exact.items():
                    worst[kind] = max(worst[kind], abs(got[kind][j] - value))
        assert max(worst.values()) <= VIOLATION_RTOL / 3, worst


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
            M = sample_spd_stack(k, 1, rng)[0]
            L, ld = chol_logdet(M)
            Ls, lds = chol_logdet(M[None])
            assert np.array_equal(L, Ls[0]) and ld == lds[0]
            assert np.ndim(ld) == 0 and lds.shape == (1,)

    def test_single_matrix_symmetry_guard(self, rng):
        M = sample_spd_stack(3, 1, rng)[0]
        E = np.zeros((3, 3))
        E[0, 1] = np.abs(M).max()
        with pytest.raises(ValueError, match="symmetric"):
            chol_logdet(M + 1e-11 * E)
        L, ld = chol_logdet(M + 1e-14 * E)
        L0, ld0 = chol_logdet(sym(M + 1e-14 * E))
        assert np.array_equal(L, L0) and ld == ld0


class TestGramLogdet:
    def test_matches_chol_logdet_of_the_formed_gram(self, rng):
        for k in (1, 2, 3):
            C = rng.standard_normal((2, 5, k, 4))
            _, ld0 = chol_logdet(sym(C @ C.swapaxes(-1, -2)))
            Vt, ld = whiten(C)
            np.testing.assert_allclose(ld, ld0, rtol=0, atol=1e-13)
            np.testing.assert_allclose(gram_logdet(C), ld0, rtol=0, atol=1e-13)
            assert Vt.shape == C.shape and ld.shape == (2, 5)
            assert np.ndim(gram_logdet(C[0, 0])) == 0

    def test_rows_are_orthonormal_and_span_c(self, rng):
        for k in (1, 2, 3):
            C = rng.standard_normal((6, k, 4))
            Vt, _ = whiten(C)
            np.testing.assert_allclose(Vt @ Vt.swapaxes(1, 2), np.broadcast_to(np.eye(k), (6, k, k)),
                                       rtol=0, atol=1e-14)
            # the same projection Y^T Y as any whitening Y = inv(L) C
            L = np.linalg.cholesky(C @ C.swapaxes(1, 2))
            Y = np.linalg.solve(L, C)
            np.testing.assert_allclose(Vt.swapaxes(1, 2) @ Vt, Y.swapaxes(1, 2) @ Y,
                                       rtol=0, atol=1e-13)

    def test_guard_names_the_stack_index(self):
        t = math.sqrt(1.0 / COND_LIMIT)
        good = np.eye(2, 3)
        for bad in ([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]],          # rank one
                    [[1.0, 0.0, 0.0], [0.0, t * (1 - 1e-6), 0.0]]):  # cond just above the limit
            C = np.stack([good] * 6).reshape(2, 3, 2, 3)
            C[1, 2] = bad
            for fn in (gram_logdet, whiten):
                with pytest.raises(IllConditionedError, match=r"^Gram \[1, 2\] is not positive definite"):
                    fn(C, name="Gram")
        for fn in (gram_logdet, whiten):
            fn(np.array([[1.0, 0.0, 0.0], [0.0, t * (1 + 1e-6), 0.0]]))  # cond just below
            with pytest.raises(IllConditionedError):  # more rows than columns
                fn(np.eye(3, 2))
        with pytest.raises(IllConditionedError, match=r"\[1\]"):
            whiten(np.array([[[1.0, 2.0]], [[0.0, 0.0]]]))

    def test_guard_fast_path_keeps_verdicts_and_values(self, rng):
        # a zero row of B_i K: the solver's whitening names the factor group
        d = make_datum(2, [0.5, 0.5, 1.0], [np.eye(2), np.eye(2), np.eye(2)[:1]])
        named = r"^B_i A B_i\^T, i in \[0, 1\] \[0\] is not positive definite"
        with pytest.raises(IllConditionedError, match=named):
            _whiten(d.groups, np.diag([1.0, 0.0]))
        # cond exactly COND_LIMIT passes, one ulp above it raises, and a
        # name passed as a function is made only for the message
        lo = np.array([1.0, 2.0]) / COND_LIMIT
        _guard(lo, np.array([1.0, 2.0]), name=lambda: pytest.fail("name made for a passing guard"))
        with pytest.raises(IllConditionedError, match=r"^made \[1\]"):
            _guard(np.array([lo[0], np.nextafter(lo[1], 0.0)]), np.array([1.0, 2.0]),
                   lambda: "made")
        # NaN singular values pass unflagged
        _, ld = whiten(np.array([[[np.nan, 1.0]], [[1.0, 1.0]]]))
        assert np.isnan(ld[0]) and ld[1] == whiten(np.array([[1.0, 1.0]]))[1]
        # the values are those of the formula without the fast path
        for count in (1, 3, 6):
            for k in (1, 2, 3):
                C = rng.standard_normal((count, k, 4))
                if k == 1:
                    s = np.sqrt((C @ C.swapaxes(-1, -2))[..., 0])
                    Y, s_only = C * (1.0 / s)[..., None], s
                else:
                    svd = np.linalg.svd(C.swapaxes(-1, -2), full_matrices=False)
                    Y, s = svd.U.swapaxes(-1, -2), svd.S
                    s_only = np.linalg.svd(C.swapaxes(-1, -2), compute_uv=False)
                Vt, ld = whiten(C)
                assert np.array_equal(Vt, Y)
                assert np.array_equal(ld, 2.0 * np.sum(np.log(s), axis=-1))
                assert np.array_equal(gram_logdet(C), 2.0 * np.sum(np.log(s_only), axis=-1))

    def test_empty_stack(self):
        for k in (1, 2):
            Vt, ld = whiten(np.zeros((0, k, 3)))
            assert Vt.shape == (0, k, 3) and ld.shape == (0,)
            assert gram_logdet(np.zeros((0, k, 3))).shape == (0,)
        # fewer samples than RNG blocks hand some kernel calls an empty stack
        d = make_datum(3, [0.5] * 3, TestExactRatios.MAPS)
        for sweep in (sweep_direct, sweep_reverse, sweep_dual):
            rep, ratios = sweep(d, 1e6, samples=3)
            assert rep.samples == 3 and ratios.shape == (3,)


class TestSampling:
    def test_sample_spd_is_spd_and_spread(self, rng):
        scales = []
        for _ in range(50):
            M = sample_spd_stack(3, 1, rng)[0]
            assert np.linalg.eigvalsh(M).min() > 0
            scales.append(np.trace(M))
        assert max(scales) / min(scales) > 1e2  # log-uniform spread is real

    def test_sample_tuple_shapes(self, rng):
        _, d = young_flagship()
        mats = sample_tuple(d, rng)
        assert [M.shape[0] for M in mats] == [1, 1, 1]


class TestConstantSearch:
    def test_frame_search_finds_one(self):
        assert gaussian_constant_search(mercedes_frame_datum()) == pytest.approx(1.0, abs=1e-8)

    def test_young_search_matches_closed_form(self):
        e, d = young_flagship()
        assert gaussian_constant_search(d) == pytest.approx(beckner_constant(e), abs=1e-6)

    def test_search_agrees_with_solver_independently(self):
        d = coordinate_datum(3, weights=[1.0, 1.0, 1.0])
        r = solve(d)
        assert gaussian_constant_search(d) == pytest.approx(r.constant, abs=1e-8)

    def test_search_reaches_a_hard_random_optimum(self):
        # C = 5.49146752..., reached from no start in the chart A = exp(S)
        rng = np.random.default_rng(7)
        d = [random_datum(rng, homogeneous=True) for _ in range(46)][-1]
        r = solve(d)
        assert r.converged
        assert gaussian_constant_search(d) == pytest.approx(r.constant, rel=1e-10)

    def test_search_draws_no_random_number(self, monkeypatch):
        # F is geodesically concave: one ascent from A = I, no random restarts
        def refuse(*args, **kwargs):
            raise AssertionError("the search drew a random number")
        monkeypatch.setattr(blgauss.gaussian_verify.np.random, "default_rng", refuse)
        e, d = young_flagship()
        assert gaussian_constant_search(d) == pytest.approx(beckner_constant(e), abs=1e-6)

    def test_search_approaches_an_unattained_constant(self):
        # C = 1 is a supremum that no Gaussian attains; the search is a lower bound
        d = make_datum(2, [0.5, 1.0, 0.5], [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]),
                                            np.array([[1.0, 1.0]])])
        assert 0.9995 <= gaussian_constant_search(d) <= 1.0 + 1e-12

    def test_refuses_bad_data(self):
        # by the solver's rule, datum.check_solvable, with the solver's words
        degenerate = make_datum(2, [1.0, 1.0], [np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])])
        inhomogeneous = make_datum(2, [1.0, 1.0, 1.0],
                                   [np.eye(2)[:1], np.eye(2)[1:], np.eye(2)[:1]])
        for d, words in ((degenerate, "^degenerate datum: the factor maps do not jointly span"),
                         (inhomogeneous, "^homogeneity defect 1.000e\\+00 exceeds 1e-09")):
            for refuse in (gaussian_constant_search, solve):
                with pytest.raises(DatumError, match=words):
                    refuse(d)

    def test_an_ill_conditioned_start_finds_nothing(self):
        # B A B^T = diag(1, 1e-16) at A = I passes COND_LIMIT: the search
        # returns 0.0, and solve stops inconclusive before its first iteration
        d = make_datum(2, [1.0], [np.diag([1.0, 1e-8])])
        r = solve(d)
        assert (r.converged, r.iterations) == (False, 0) and math.isnan(r.constant)
        assert gaussian_constant_search(d) == 0.0

