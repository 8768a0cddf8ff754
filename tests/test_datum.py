import json
from pathlib import Path

import numpy as np
import pytest

from blgauss import (
    BLDatum,
    DatumError,
    LinearFactor,
    datum_digest,
    datum_from_dict,
    datum_to_dict,
    direct_sum,
    is_frame,
    load_datum,
    make_datum,
    save_datum,
    validate,
)
import blgauss._linalg
import blgauss.datum
from blgauss import GridFunction, gaussian_constant_search, gaussian_function, reverse_integral_check, solve
from blgauss.cli import main
from blgauss._linalg import numerical_rank
from conftest import (
    coordinate_datum,
    mercedes_frame_datum,
    prekopa_leindler_datum,
    random_datum,
    young_flagship,
)


class TestLinearFactor:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(DatumError):
            LinearFactor(0.0, np.array([[1.0]]))
        with pytest.raises(DatumError):
            LinearFactor(-0.5, np.array([[1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(DatumError):
            LinearFactor(np.inf, np.array([[1.0]]))
        with pytest.raises(DatumError):
            LinearFactor(1.0, np.array([[np.nan]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(DatumError):
            LinearFactor(1.0, np.array([1.0, 2.0]))

    def test_matrix_is_read_only(self):
        f = LinearFactor(1.0, np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            f.B[0, 0] = 2.0

    def test_zero_map_flag(self):
        assert LinearFactor(1.0, np.zeros((1, 3))).is_zero()
        assert not LinearFactor(1.0, np.array([[1e-10, 0.0, 0.0]])).is_zero()


class TestMakeDatum:
    def test_shapes_and_accessors(self):
        d = make_datum(3, [1.0, 0.5], [np.eye(3)[:2], np.eye(3)[2:]])
        assert d.n == 3
        assert d.m == 2
        assert d.dims == (2, 1)
        np.testing.assert_allclose(d.weights, [1.0, 0.5])
        assert d.active == (0, 1)

    def test_wide_target_cannot_be_onto(self):
        with pytest.raises(DatumError):
            make_datum(2, [1.0], [np.eye(3)[:, :2]])  # target dim 3 from R^2

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            make_datum(2, [1.0, 1.0], [np.eye(2)])

    def test_zero_map_excluded_from_active(self):
        d = make_datum(2, [1.0, 1.0, 1.0], [np.eye(2)[:1], np.eye(2)[1:], np.zeros((1, 2))])
        assert d.active == (0, 1)
        assert d.dims == (1, 1, 1)


class TestValidate:
    def test_frame_data_are_frames(self):
        for d in (prekopa_leindler_datum(), coordinate_datum(3), mercedes_frame_datum()):
            diag = validate(d)
            assert diag.frame
            assert not diag.degenerate
            assert diag.homogeneity_defect <= 1e-12
            assert is_frame(d)

    def test_young_is_homogeneous_but_not_frame(self):
        _, d = young_flagship()
        diag = validate(d)
        assert diag.homogeneity_defect <= 1e-12
        assert not diag.frame
        assert not diag.degenerate

    def test_degenerate_detected(self):
        # both maps kill e2, so the stacked map has a kernel
        d = make_datum(2, [1.0, 1.0], [np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]])])
        assert validate(d).degenerate

    def test_non_onto_factor_rejected(self):
        B = np.array([[1.0, 0.0], [2.0, 0.0]])  # rank 1, target dim 2
        with pytest.raises(DatumError):
            make_datum(2, [1.0], [B])

    def test_first_non_onto_factor_is_named_from_stacked_ranks(self, monkeypatch):
        # factor 3 (two rows, rank 1) sits in the first factor group and
        # factor 2 (three rows, rank 2) in the last; the message names the
        # first by index, as the per-factor loop did; building a datum makes
        # one SVD per factor group plus one for the joint rank, and validate
        # makes none
        rank_two = np.ones((3, 3)) + np.diag([1.0, 0.0, 0.0])
        rank_one = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
        with pytest.raises(DatumError) as err:
            make_datum(3, [1.0] * 5,
                       [np.eye(3)[:2], np.eye(3)[:1], rank_two, rank_one, np.eye(3)[2:]])
        assert str(err.value) == ("factor 2 has rank 2 < target dimension 3; "
                                  "a non-zero factor map must be onto")
        svd, shapes = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, *args, **kw: shapes.append(a.shape) or svd(a, *args, **kw))
        _, d = young_flagship()
        assert shapes == [(3, 1, 2), (3, 2)]
        validate(d)
        assert shapes == [(3, 1, 2), (3, 2)]

    def test_stacked_ranks_match_per_factor_ranks(self, rng):
        for k in (1, 2, 3):
            B = rng.standard_normal((40, k, 3))
            B[::3, -1] = B[::3, 0] * 2.0  # every third map loses a rank
            B[::7] *= 1e-9
            assert numerical_rank(B).tolist() == [numerical_rank(M) for M in B]

    def test_rank_against_a_reference_scale(self, rng):
        # roundoff is rank 1 against itself and rank 0 against a unit scale
        noise = np.array([[1e-17, -2e-17]])
        assert numerical_rank(noise) == 1
        assert numerical_rank(noise, 1.0) == 0
        # a stack takes one scale for all or one per matrix
        B = np.stack([noise, np.array([[1e-3, 0.0]])])
        assert numerical_rank(B).tolist() == [1, 1]
        assert numerical_rank(B, 1.0).tolist() == [0, 1]
        assert numerical_rank(B, [1e-18, 1e8]).tolist() == [1, 0]
        # the default scale is each matrix's own largest singular value
        B = rng.standard_normal((30, 2, 3))
        B[::3, 1] = B[::3, 0] * 2.0
        B[::4, 0] *= 1e-11
        norms = np.linalg.norm(B, 2, axis=(-2, -1))
        assert numerical_rank(B).tolist() == numerical_rank(B, norms).tolist()
        assert [numerical_rank(M) for M in B] == [numerical_rank(M, s) for M, s in zip(B, norms)]

    def test_exact_zero_map_allowed_and_flagged(self):
        d = make_datum(2, [1.0, 1.0, 0.7], [np.eye(2)[:1], np.eye(2)[1:], np.zeros((1, 2))])
        diag = validate(d)
        assert diag.zero_map_indices == [2]
        assert not diag.degenerate

    def test_tiny_map_is_active_not_zero(self):
        # rank is scale-invariant: a 1e-12 map is a genuine (badly scaled) factor
        d = make_datum(2, [1.0, 1.0, 0.7], [np.eye(2)[:1], np.eye(2)[1:], 1e-12 * np.ones((1, 2))])
        diag = validate(d)
        assert diag.zero_map_indices == []
        assert d.active == (0, 1, 2)

    def test_zero_map_does_not_change_diagnostics(self, rng):
        for _ in range(5):
            d = random_datum(rng, homogeneous=True)
            base = validate(d)
            padded = make_datum(
                d.n,
                list(d.weights) + [0.9],
                [f.B for f in d.factors] + [np.zeros((1, d.n))],
            )
            diag = validate(padded)
            assert diag.degenerate == base.degenerate
            assert diag.zero_map_indices == [d.m]
            np.testing.assert_allclose(diag.homogeneity_defect, base.homogeneity_defect, atol=1e-12)

    def test_permutation_invariance(self, rng):
        d = random_datum(rng, homogeneous=True)
        order = rng.permutation(d.m)
        shuffled = make_datum(d.n, [d.factors[i].c for i in order], [d.factors[i].B for i in order])
        a, b = validate(d), validate(shuffled)
        assert a.degenerate == b.degenerate
        np.testing.assert_allclose(a.homogeneity_defect, b.homogeneity_defect, atol=1e-12)

    def test_diagnostics_to_dict(self):
        doc = validate(prekopa_leindler_datum()).to_dict()
        assert set(doc) >= {"homogeneity_defect", "degenerate", "frame", "zero_map_indices"}
        json.dumps(doc)  # must be plain JSON types


class TestKernelWitness:
    # the first non-zero factor j with n_j < n and
    # n - n_j - sum_{i != j} c_i min(n_i, n - n_j) > HOMOGENEITY_TOL
    YOUNG_MAPS = [np.array([[1.0, 1.0]]), np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])]

    def test_infeasible_demo_datum(self):
        # c = (3/2, 1/2) on e1, e2: ker B_0 = span(e2) has dimension 1 > 1/2
        d = load_datum(Path(__file__).resolve().parents[1] / "demos" / "data" / "infeasible.json")
        assert d.kernel_witness == 0 and validate(d).kernel_witness == 0

    def test_young_facet_point_is_an_equality_case(self):
        # c_0 = 1 on the facet: ker B_0 gives 1 = 0.6 + 0.4, which does not fire
        assert make_datum(2, [1.0, 0.6, 0.4], self.YOUNG_MAPS).kernel_witness is None
        assert make_datum(2, [1.0001, 0.6, 0.3999], self.YOUNG_MAPS).kernel_witness == 0

    def test_near_homogeneous_data_have_none(self):
        e = np.eye(2)
        assert make_datum(1, [0.5, 0.5 + 5e-10], [np.eye(1)] * 2).kernel_witness is None
        assert make_datum(2, [0.5, 0.5 + 5e-10, 1.0], [e[:1], e[:1], e[1:]]).kernel_witness is None

    def test_zero_and_square_maps_are_skipped(self):
        # counted as a factor on R^1, the zero map would give 2 > 0.5 min(3, 2);
        # a square map has no kernel
        assert make_datum(3, [1.0, 0.5], [np.zeros((1, 3)), np.eye(3)]).kernel_witness is None
        assert make_datum(2, [0.5, 0.3, 0.2], [np.eye(2)] * 3).kernel_witness is None
        # a zero map's weight is not in the sum, and indices are datum indices
        e = np.eye(2)
        d = make_datum(2, [5.0, 1.5, 0.5], [np.zeros((1, 2)), e[:1], e[1:]])
        assert d.kernel_witness == 1

    def test_the_witness_breaks_the_dimension_condition(self, rng):
        # on random homogeneous draws the kernel of a witness j breaks the
        # condition by rank, not only by count: dim ker B_j > sum_i c_i
        # rank(B_i K_j), each rank read against ||B_i||
        fired = 0
        for _ in range(60):
            d = random_datum(rng, homogeneous=True)
            j = d.kernel_witness
            if j is None:
                continue
            fired += 1
            K = np.linalg.svd(d.factors[j].B)[2][d.dims[j]:].T
            spanned = sum(f.c * numerical_rank(f.B @ K, np.linalg.norm(f.B, 2)) for f in d.factors)
            assert K.shape[1] > spanned + 1e-9
        assert fired > 0


class TestDirectSum:
    def test_block_structure(self):
        a = prekopa_leindler_datum()
        b = coordinate_datum(2)
        s = direct_sum(a, b)
        assert s.n == 3
        assert s.m == a.m + b.m
        np.testing.assert_array_equal(s.factors[0].B, [[1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(s.factors[2].B, [[0.0, 1.0, 0.0]])
        assert validate(s).homogeneity_defect <= 1e-12

    def test_frame_sum_is_frame(self):
        s = direct_sum(prekopa_leindler_datum(), prekopa_leindler_datum())
        assert is_frame(s)


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        d = random_datum(rng)
        p = tmp_path / "datum.json"
        save_datum(d, p)
        back = load_datum(p)
        assert back.n == d.n
        assert back.m == d.m
        for f, g in zip(d.factors, back.factors):
            assert f.c == g.c
            np.testing.assert_array_equal(f.B, g.B)

    def test_dict_round_trip_preserves_digest(self, rng):
        d = random_datum(rng)
        assert datum_digest(datum_from_dict(datum_to_dict(d))) == datum_digest(d)

    def test_digest_distinguishes_data(self):
        a = prekopa_leindler_datum()
        b = make_datum(1, [0.5, 0.5 + 1e-9], [np.array([[1.0]]), np.array([[1.0]])])
        assert datum_digest(a) != datum_digest(b)

    @pytest.mark.parametrize("n", [2.7, True, "2", None])
    def test_dimension_must_be_an_integer(self, n):
        doc = datum_to_dict(young_flagship()[1])
        doc["n"] = n
        with pytest.raises(DatumError, match="ambient dimension must be an integer"):
            datum_from_dict(doc)

    def test_integral_float_dimension_is_read_as_an_int(self):
        doc = datum_to_dict(young_flagship()[1])
        doc["n"] = 2.0
        assert type(datum_from_dict(doc).n) is int

    @pytest.mark.parametrize("text, message", [
        pytest.param("[1, 2]", "object with fields n and factors", id="list-document"),
        pytest.param('{"n": 2, "factors": [[1]]}', "factor 0 must be an object with fields c and rows",
                     id="list-factor"),
        pytest.param('{"n": 2, "factors": 5}', "factors must be a list, got int", id="number-factors"),
        pytest.param('{"n": 1, "factors": [{"c": "0.5", "rows": [[1]]}]}', "factor 0: c must be a number",
                     id="string-weight"),
        pytest.param('{"n": 1, "factors": [{"c": true, "rows": [[1]]}]}', "factor 0: c must be a number",
                     id="bool-weight"),
        pytest.param('{"n": 2, "factors": [{"c": 1, "rows": [["1", 1]]}]}', "factor 0: rows must be",
                     id="string-entry"),
        pytest.param('{"n": 2, "factors": [{"c": 1, "rows": [[true, 0]]}]}', "factor 0: rows must be",
                     id="bool-entry"),
        pytest.param('{"n": 2, "factors": [{"c": 1, "rows": [[1, 0], [1]]}]}', "factor 0: rows must be",
                     id="ragged-rows"),
        pytest.param('{"n": 2, "factors": [{"c": 1, "rows": [[1' + "0" * 400 + ', 0]]}]}',
                     "factor 0: int too large", id="huge-integer"),
    ])
    def test_document_types_are_checked(self, text, message):
        # every refusal is a DatumError that names the field, so the CLI exits 2
        with pytest.raises(DatumError, match=message):
            datum_from_dict(json.loads(text))

    def test_load_rejects_malformed(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 2}')
        with pytest.raises((DatumError, KeyError, ValueError)):
            load_datum(p)

    def test_file_format_is_plain_json(self, tmp_path):
        save_datum(prekopa_leindler_datum(), tmp_path / "d.json")
        doc = json.loads((tmp_path / "d.json").read_text())
        assert doc["n"] == 1
        assert doc["factors"][0]["c"] == 0.5
        assert doc["factors"][0]["rows"] == [[1.0]]


class TestImmutability:
    def test_datum_is_hashable_frozen(self):
        d = prekopa_leindler_datum()
        assert isinstance(d, BLDatum)
        with pytest.raises(AttributeError):
            d.n = 5
        assert hash(d) == hash(prekopa_leindler_datum())


class TestValueSemantics:
    """A datum and a factor are values: equal content compares equal and
    hashes equal, as datum_digest does."""

    def test_equal_data(self, tmp_path):
        _, y = young_flagship()
        pair = load_datum(Path(__file__).resolve().parents[1] / "demos" / "data" / "young_pair.json")
        assert pair == direct_sum(y, y)
        assert hash(pair) == hash(direct_sum(y, y))
        save_datum(pair, tmp_path / "d.json")
        assert load_datum(tmp_path / "d.json") == pair
        assert {pair: 1}[direct_sum(y, y)] == 1
        assert LinearFactor(0.5, [[1, 2]]) == LinearFactor(0.5, np.array([[1.0, 2.0]]))
        assert hash(LinearFactor(0.5, [[1, 2]])) == hash(LinearFactor(0.5, [[1.0, 2.0]]))

    @pytest.mark.parametrize("other", [
        make_datum(2, [1.0, 1.0], [[[1.0, 0.0]], [[0.0, 1.0]]]),  # equal, the reference
        make_datum(2, [1.0, 0.5], [[[1.0, 0.0]], [[0.0, 1.0]]]),  # a weight
        make_datum(2, [1.0, 1.0], [[[1.0, 0.0]], [[0.0, 2.0]]]),  # an entry
        make_datum(2, [1.0, 1.0], [[[0.0, 1.0]], [[1.0, 0.0]]]),  # the order
        make_datum(2, [1.0, 1.0, 1.0], [[[1.0, 0.0]], [[0.0, 1.0]], [[0.0, 1.0]]]),  # a factor
        make_datum(2, [1.0, 1.0], [[[1.0, 0.0]], [[-0.0, 1.0]]]),  # the sign of a zero
    ])
    def test_equality_follows_the_digest(self, other):
        d = make_datum(2, [1.0, 1.0], [[[1.0, 0.0]], [[0.0, 1.0]]])
        same = datum_digest(d) == datum_digest(other)
        assert (d == other) is same and (d != other) is not same
        assert (hash(d) == hash(other)) is same  # no collision among these few
        assert d != datum_to_dict(d) and d.factors[0] != (1.0, d.factors[0].B)

    def test_array_holders_compare_by_identity(self):
        # a Subspace, a grid function, a Brownian configuration and a drift
        # policy hold arrays: == is identity and hashing does not raise
        from blgauss import BrownianConfig, DriftPolicy, GridFunction, Subspace
        made = [lambda: Subspace.coordinate(2, [0]),
                lambda: GridFunction.from_callable(lambda p: np.cos(p[..., 0]), np.zeros(1), np.ones(1), 3),
                lambda: BrownianConfig(A=np.eye(1)),
                lambda: DriftPolicy.constant([1.0])]
        for make in made:
            a = make()
            assert a == a and a != make()
            assert hash(a) == hash(a)


class TestCheckedOnce:
    def test_groups_follow_the_active_factors(self):
        d = make_datum(3, [1.0, 0.5, 0.7, 0.5],
                       [np.eye(3)[:2], np.eye(3)[2:], np.zeros((1, 3)), np.ones((1, 3))])
        assert d.active == (0, 1, 3)
        assert [(g.positions, g.indices) for g in d.groups] == [([0], [0]), ([1, 2], [1, 3])]
        np.testing.assert_array_equal(d.groups[1].B, [np.eye(3)[2:], np.ones((1, 3))])

    def test_group_arrays_are_read_only(self):
        for g in young_flagship()[1].groups:
            for a in (g.c, g.B, g.cb, g.sqrt_cb):
                with pytest.raises(ValueError):
                    a[(0,) * a.ndim] = 1.0

    def test_solve_and_search_read_the_built_datum(self, monkeypatch):
        # the rank SVDs ran when the datum was built; neither a solve nor the
        # independent search ranks or validates it again
        _, d = young_flagship()

        def refuse(*args, **kwargs):
            raise AssertionError("the datum was checked again")
        for name in ("numerical_rank", "is_frame"):
            monkeypatch.setattr(blgauss.datum, name, refuse)
        monkeypatch.setattr(blgauss._linalg, "numerical_rank", refuse)
        res = solve(d)
        assert res.converged
        assert gaussian_constant_search(d) == pytest.approx(res.constant, rel=1e-6)

    def test_the_decomposition_is_formed_once(self, monkeypatch, capsys):
        # pinv(L) is formed on the first read of a datum's decomposition and
        # never again: once per check-quadrature run, once per check-inf
        # run whatever its instance count, never by a solve or by a second
        # reverse check on the same datum
        young = str(Path(__file__).resolve().parents[1] / "demos" / "data" / "young.json")
        calls = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: calls.append(1) or pinv(*a, **k))

        def count(argv):
            calls.clear()
            assert main(argv) == 0
            return len(calls)
        assert count(["check-quadrature", "--datum", young, "--resolution", "101"]) == 1
        for instances in ("1", "3", "10"):
            assert count(["check-inf", "--datum", young, "--instances", instances, "--samples", "50"]) == 1
        assert count(["solve", "--datum", young]) == 0
        capsys.readouterr()

        _, d = young_flagship()
        fs = [GridFunction.from_callable(gaussian_function([[1.0]]), -8.0, 8.0, 21)] * 3
        calls.clear()
        first = reverse_integral_check(d, fs, 1.0, resolution=21)
        assert len(calls) == 1
        assert reverse_integral_check(d, fs, 1.0, resolution=21) == first and len(calls) == 1

        # the same two calls as ever, read-only
        L = np.hstack([f.c * f.B.T for f in d.factors])
        pinv_L, K = d.decomposition
        assert np.array_equal(pinv_L, pinv(L)) and np.array_equal(K, np.linalg.svd(L)[2][d.n :].T)
        for a in (pinv_L, K):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0
        # a degenerate datum has none, on every read
        d = make_datum(2, [1, 1], [[[1, 0]], [[1, 1e-11]]])
        for _ in range(2):
            with pytest.raises(DatumError, match="degenerate datum: the constraint map is not onto"):
                d.decomposition
