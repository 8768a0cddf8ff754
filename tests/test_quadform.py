import warnings

import numpy as np
import pytest

from blgauss import (
    DatumError,
    check_inf,
    harmonic_combine,
    inf_decomposition,
    make_datum,
)
import blgauss.quadform
from blgauss.quadform import check_tuple
from blgauss.report import DEFAULT_SEED
from conftest import (
    coordinate_datum,
    prekopa_leindler_datum,
    random_datum,
    random_spd_tuple,
    young_flagship,
)


def kkt_infimum(datum, mats, x):
    """Independent oracle: solve the equality-constrained quadratic program

        minimize sum_i c_i <A_i y_i, y_i>  subject to  sum_i c_i B_i^T y_i = x

    directly from its KKT system, without the harmonic-combination formula.
    """
    active = datum.active
    sizes = [datum.factors[i].target_dim for i in active]
    N = sum(sizes)
    n = datum.n
    H = np.zeros((N, N))
    L = np.zeros((n, N))
    off = 0
    for i, Ai, d in zip(active, mats, sizes):
        f = datum.factors[i]
        H[off : off + d, off : off + d] = 2.0 * f.c * Ai
        L[:, off : off + d] = f.c * f.B.T
        off += d
    K = np.block([[H, L.T], [L, np.zeros((n, n))]])
    rhs = np.concatenate([np.zeros(N), x])
    sol = np.linalg.solve(K, rhs)
    y = sol[:N]
    value = 0.0
    off = 0
    for i, Ai, d in zip(active, mats, sizes):
        block = y[off : off + d]
        value += datum.factors[i].c * float(block @ Ai @ block)
        off += d
    return value, y


class TestHarmonicCombine:
    def test_identity_tuple_on_frame_gives_identity(self):
        for d in (prekopa_leindler_datum(), coordinate_datum(3)):
            tuple_ = [np.eye(f.target_dim) for f in d.factors]
            np.testing.assert_allclose(harmonic_combine(d, tuple_), np.eye(d.n), atol=1e-14)

    def test_matches_kkt_oracle(self, rng):
        for _ in range(10):
            d = random_datum(rng)
            mats = random_spd_tuple(d, rng)
            A = harmonic_combine(d, mats)
            for _ in range(5):
                x = rng.standard_normal(d.n)
                value = float(x @ A @ x)
                kkt_value, _ = kkt_infimum(d, mats, x)
                assert value == pytest.approx(kkt_value, rel=1e-9)

    def test_monotone_in_inputs(self, rng):
        # enlarging every A_i enlarges the combination (as quadratic forms)
        d = random_datum(rng)
        mats = random_spd_tuple(d, rng)
        bigger = [M + 0.5 * np.eye(M.shape[0]) for M in mats]
        A, Abig = harmonic_combine(d, mats), harmonic_combine(d, bigger)
        assert np.linalg.eigvalsh(Abig - A).min() >= -1e-12

    def test_degenerate_raises(self):
        d = make_datum(2, [1.0, 1.0], [np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])])
        with pytest.raises(DatumError):
            harmonic_combine(d, [np.eye(1), np.eye(1)])

    def test_zero_map_factors_are_skipped(self, rng):
        d = coordinate_datum(2)
        padded = make_datum(2, [1.0, 1.0, 0.4], [np.eye(2)[:1], np.eye(2)[1:], np.zeros((1, 2))])
        mats = [np.array([[2.0]]), np.array([[3.0]])]
        np.testing.assert_allclose(
            harmonic_combine(padded, mats), harmonic_combine(d, mats), atol=1e-14
        )


class TestCheckTuple:
    def test_wrong_length(self):
        d = coordinate_datum(2)
        with pytest.raises(ValueError):
            check_tuple(d, [np.eye(1)])

    def test_wrong_shape(self):
        d = coordinate_datum(2)
        with pytest.raises(ValueError):
            check_tuple(d, [np.eye(1), np.eye(2)])

    def test_rejects_non_spd_entry(self):
        d = coordinate_datum(2)
        with pytest.raises(ValueError):
            check_tuple(d, [np.eye(1), -np.eye(1)])


class TestInfDecomposition:
    def test_minimizer_is_feasible_and_attains_value(self, rng):
        for _ in range(8):
            d = random_datum(rng)
            mats = random_spd_tuple(d, rng)
            x = rng.standard_normal(d.n)
            value, parts = inf_decomposition(d, mats, x)
            recombined = sum(
                d.factors[i].c * d.factors[i].B.T @ p
                for i, p in zip(d.active, parts)
            )
            np.testing.assert_allclose(recombined, x, atol=1e-10)
            attained = sum(
                d.factors[i].c * float(p @ Ai @ p)
                for i, Ai, p in zip(d.active, mats, parts)
            )
            assert attained == pytest.approx(value, rel=1e-10, abs=1e-12)

    def test_minimizer_matches_kkt_oracle(self, rng):
        d = random_datum(rng)
        mats = random_spd_tuple(d, rng)
        x = rng.standard_normal(d.n)
        _, parts = inf_decomposition(d, mats, x)
        _, y = kkt_infimum(d, mats, x)
        np.testing.assert_allclose(np.concatenate(parts), y, atol=1e-9)

    def test_rejects_bad_x_shape(self):
        d = coordinate_datum(2)
        with pytest.raises(ValueError):
            inf_decomposition(d, [np.eye(1), np.eye(1)], np.zeros(3))


class TestCheckInf:
    def test_no_violations_on_random_instances(self, rng):
        for _ in range(5):
            d = random_datum(rng)
            mats = random_spd_tuple(d, rng)
            x = rng.standard_normal(d.n)
            rep = check_inf(d, mats, x, samples=500, seed=7)
            assert rep.violations == 0
            assert rep.worst_ratio <= 1.0 + 1e-9
            assert rep.equality_gap <= 1e-10

    def test_kernel_free_instance_sticks_to_minimizer(self):
        # a single invertible map leaves no kernel: every sample is the minimizer
        d = make_datum(2, [1.0], [np.eye(2)])
        rep = check_inf(d, [np.diag([1.0, 2.0])], np.array([1.0, -1.0]), samples=100)
        assert rep.violations == 0
        assert rep.worst_ratio == pytest.approx(1.0, abs=1e-12)

    def test_sampling_explores_the_kernel(self):
        # the evidence is non-vacuous: competitors genuinely differ from the
        # minimizer and their objectives sit strictly above the infimum
        d = young_flagship()[1]
        mats = [np.array([[1.0]]), np.array([[2.0]]), np.array([[0.5]])]
        x = np.array([0.3, -1.2])
        value, _ = inf_decomposition(d, mats, x)
        rep = check_inf(d, mats, x, samples=500, seed=5)
        assert rep.violations == 0
        assert rep.worst_ratio < 1.0  # every competitor strictly worse

    @pytest.mark.parametrize("samples", [0, -5, 40.5])
    def test_rejects_no_samples(self, samples):
        # zero samples would certify nothing; negative and float ones reached numpy
        d = young_flagship()[1]
        mats = [np.array([[1.0]]), np.array([[2.0]]), np.array([[0.5]])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"samples must be an integer of at least 1, got {samples}"):
                check_inf(d, mats, np.array([0.3, -1.2]), samples=samples)

    def test_default_seed_is_the_shared_one(self):
        # the seed of every sampler's default run, as for the sweeps
        d = young_flagship()[1]
        mats = [np.array([[1.0]]), np.array([[2.0]]), np.array([[0.5]])]
        x = np.array([0.3, -1.2])
        rep = check_inf(d, mats, x, samples=50)
        assert rep.seed == DEFAULT_SEED
        assert rep == check_inf(d, mats, x, samples=50, seed=DEFAULT_SEED)

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_rejects_bad_seed(self, seed):
        # numpy's own message named no input
        d = young_flagship()[1]
        mats = [np.array([[1.0]]), np.array([[2.0]]), np.array([[0.5]])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
                check_inf(d, mats, np.array([0.3, -1.2]), samples=10, seed=seed)

    def test_degenerate_raises(self):
        d = make_datum(2, [1.0, 1.0], [np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]])])
        with pytest.raises(DatumError):
            check_inf(d, [np.eye(1), np.eye(1)], np.zeros(2))

    @pytest.mark.parametrize("x", [[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
    def test_rejects_a_non_finite_x(self, x):
        # [nan, 0] was reported ok, with 0 violations and a NaN equality gap;
        # [inf, 0] also passed, and leaked invalid-value warnings from a matmul
        d = young_flagship()[1]
        mats = [np.array([[1.0]]), np.array([[2.0]]), np.array([[0.5]])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x must be finite"):
                inf_decomposition(d, mats, np.array(x))
            with pytest.raises(ValueError, match="x must be finite"):
                check_inf(d, mats, np.array(x), samples=10)

    @pytest.mark.parametrize("kernel", [0, 1])
    def test_x_zero_is_its_own_minimizer(self, kernel):
        # the minimizer of x = 0 is 0, whose norm scales the competitors: every
        # sample is the minimizer, with a kernel (Young) or without one
        d, mats = [(make_datum(2, [1.0], [np.eye(2)]), [np.diag([1.0, 2.0])]),
                   (young_flagship()[1], [np.array([[1.0]]), np.array([[2.0]]), np.array([[0.5]])])][kernel]
        value, parts = inf_decomposition(d, mats, np.zeros(2))
        assert value == 0.0 and not np.concatenate(parts).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_inf(d, mats, np.zeros(2), samples=50)
        assert (rep.violations, rep.worst_ratio, rep.equality_gap) == (0, 1.0, 0.0)

    def test_tuple_is_checked_once(self, monkeypatch):
        # one check_spd per entry, not one per layer that reads the tuple
        calls = []
        check_spd = blgauss.quadform.check_spd
        monkeypatch.setattr(blgauss.quadform, "check_spd",
                            lambda M, name: calls.append(name) or check_spd(M, name))
        _, d = young_flagship()
        mats = [np.array([[1.0]]), np.array([[2.0]]), np.array([[0.5]])]
        check_inf(d, mats, np.array([0.3, -1.2]), samples=10)
        assert len(calls) == 3

    def test_near_degenerate_datum_is_refused(self):
        # the maps (1, 0) and (1, 1e-11) span R^2 only to roundoff; the datum
        # is degenerate, and every layer that reads the constraint map says so
        d = make_datum(2, [1, 1], [[[1, 0]], [[1, 1e-11]]])
        assert d.degenerate
        with pytest.raises(DatumError, match="degenerate"):
            d.decomposition
        with pytest.raises(DatumError, match="degenerate"):
            check_inf(d, [np.eye(1), np.eye(1)], np.zeros(2))

    def test_report_is_seed_deterministic(self, rng):
        d = random_datum(rng)
        mats = random_spd_tuple(d, rng)
        x = rng.standard_normal(d.n)
        a = check_inf(d, mats, x, samples=200, seed=42)
        b = check_inf(d, mats, x, samples=200, seed=42)
        assert a.worst_ratio == b.worst_ratio
        assert a.equality_gap == b.equality_gap
