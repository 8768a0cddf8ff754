from pathlib import Path

import numpy as np
import pytest

from blgauss import (
    Subspace,
    coordinate_subspaces,
    direct_sum,
    is_critical,
    make_datum,
    multiplicativity_check,
    quotient,
    restrict,
    solve,
    validate,
)
from blgauss._linalg import numerical_rank
from blgauss.datum import DatumError, load_datum
from blgauss.structure import _images
from conftest import coordinate_datum, gl_map, prekopa_leindler_datum, random_gl, young_flagship

YOUNG_CONSTANT = 0.8773826753016616
YOUNG_PAIR = Path(__file__).resolve().parents[1] / "demos" / "data" / "young_pair.json"


class TestSubspace:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0], [1.0]]))

    def test_rejects_improper(self):
        with pytest.raises(ValueError):
            Subspace(np.eye(2))  # the whole space
        with pytest.raises(ValueError):
            Subspace(np.zeros((2, 0)))

    def test_from_rows_orthonormalizes(self):
        E = Subspace.from_rows([[3.0, 4.0, 0.0]])
        assert E.dim == 1
        np.testing.assert_allclose(np.abs(E.basis[:, 0]), [0.6, 0.8, 0.0], atol=1e-14)

    def test_from_rows_rejects_dependent(self):
        with pytest.raises(ValueError):
            Subspace.from_rows([[1.0, 0.0], [2.0, 0.0]])

    def test_rejects_non_finite_basis(self):
        with pytest.raises(ValueError, match="non-finite"):
            Subspace(np.full((4, 2), np.nan))

    @pytest.mark.parametrize("rows, message", [
        pytest.param({"a": 1}, "array of numbers", id="object"),
        pytest.param([], "non-empty 2-d array", id="empty"),
        pytest.param([[[1.0, 0.0]]], "non-empty 2-d array", id="3-d"),
        pytest.param([[np.inf, 0.0, 0.0, 0.0]], "non-finite", id="inf"),
        pytest.param([[np.nan, 0.0, 0.0, 0.0]], "non-finite", id="nan"),
    ])
    def test_from_rows_refuses_bad_rows_before_any_svd(self, rows, message, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an SVD of bad rows")
        monkeypatch.setattr(np.linalg, "svd", refuse)
        with pytest.raises(ValueError, match=message):
            Subspace.from_rows(rows)

    def test_complement_is_orthonormal_completion(self):
        E = Subspace.from_rows([[1.0, 1.0, 0.0]])
        F = E.complement()
        assert F.shape == (3, 2)
        np.testing.assert_allclose(F.T @ F, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(F.T @ E.basis, 0.0, atol=1e-12)

    def test_coordinate(self):
        E = Subspace.coordinate(4, [1, 3])
        assert E.dim == 2
        np.testing.assert_array_equal(E.basis[:, 0], [0, 1, 0, 0])


class TestRestrictQuotient:
    def test_restriction_to_first_axis_of_flagship(self):
        # maps (1,1), (0,1), (1,0) restricted to span{e1}: the middle factor
        # dies and must stay in the list as an exact zero map
        _, d = young_flagship()
        r = restrict(d, Subspace.coordinate(2, [0]))
        assert r.n == 1
        assert r.m == 3
        assert r.factors[1].is_zero()
        assert validate(r).zero_map_indices == [1]
        np.testing.assert_allclose(np.abs(r.factors[0].B), [[1.0]], atol=1e-14)
        np.testing.assert_allclose(np.abs(r.factors[2].B), [[1.0]], atol=1e-14)

    def test_quotient_drops_saturated_factors(self):
        # quotient by span{e1}: factors whose image equals the whole target
        # vanish; for the flagship datum only the (0,1) map survives
        _, d = young_flagship()
        q = quotient(d, Subspace.coordinate(2, [0]))
        assert q.n == 1
        assert q.m == 1
        np.testing.assert_allclose(np.abs(q.factors[0].B), [[1.0]], atol=1e-14)

    def test_dimension_bookkeeping(self):
        _, y = young_flagship()
        d = direct_sum(y, y)
        E = Subspace.coordinate(4, [0, 1])
        r, q = restrict(d, E), quotient(d, E)
        assert r.n + q.n == d.n
        for i, f in enumerate(d.factors):
            ri = r.factors[i]
            rank_on_E = 0 if ri.is_zero() else ri.target_dim
            assert rank_on_E <= f.target_dim

    def test_quotient_of_everything_raises(self):
        d = prekopa_leindler_datum()
        two = direct_sum(d, d)
        # E = R^2 embedded as first axis? every factor is scalar onto; take
        # a generic diagonal line: each 1-d factor image saturates its target
        E = Subspace.from_rows([[1.0, 1.0]])
        with pytest.raises(DatumError):
            quotient(two, E)

    def test_wrong_ambient_dimension(self):
        _, d = young_flagship()
        with pytest.raises(ValueError):
            restrict(d, Subspace.coordinate(3, [0]))
        with pytest.raises(ValueError):
            quotient(d, Subspace.coordinate(3, [0]))


class TestCriticality:
    def test_coordinate_blocks_of_direct_sum_are_critical(self):
        _, y = young_flagship()
        d = direct_sum(y, y)
        assert is_critical(d, Subspace.coordinate(4, [0, 1]))
        assert is_critical(d, Subspace.coordinate(4, [2, 3]))

    def test_flagship_axes_are_not_critical(self):
        # dim(B_i E) over the maps (1,1), (0,1), (1,0) at E = span{e1} is
        # 1, 0, 1: weighted sum 3/4 + 1/2 = 5/4 != 1
        _, d = young_flagship()
        assert not is_critical(d, Subspace.coordinate(2, [0]))
        assert not is_critical(d, Subspace.coordinate(2, [1]))

    def test_every_subspace_critical_for_identity_pair(self):
        d = coordinate_datum(2, weights=[1.0, 1.0])
        for E in coordinate_subspaces(2):
            assert is_critical(d, E)

    def test_takes_no_svd_of_a_factor_map(self, monkeypatch):
        # the rank rule reads ||B_i|| off the datum: one stacked SVD of the
        # images B_i E per factor group, one matrix per image
        _, y = young_flagship()
        d = direct_sum(y, y)
        svd, seen = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, *args, **kw: seen.append(np.array(a)) or svd(a, *args, **kw))
        assert is_critical(d, Subspace.coordinate(4, [0, 1]))
        assert len(seen) == len(d.groups)
        images = [M for a in seen for M in a.reshape(-1, *a.shape[-2:])]
        assert len(images) == len(d.active)
        assert not any(np.array_equal(M, f.B) for M in images for f in d.factors)

    def test_stacked_ranks_are_the_per_factor_ranks(self):
        # young_pair with its maps B_i replaced by B_i M: at every coordinate
        # subspace and at M^-1 span(e0, e1), each image and its dimension
        # are those of one product and one numerical_rank per factor
        M = random_gl(4, 1e3, np.random.default_rng(7))
        d = gl_map(load_datum(YOUNG_PAIR), M)
        mapped = Subspace.from_rows(np.linalg.solve(M, np.eye(4)[:, :2]).T)
        for E in [*coordinate_subspaces(4), mapped]:
            for (f, image, r), norm in zip(_images(d, E), d.norms):
                assert np.array_equal(image, f.B @ E.basis)
                assert r == numerical_rank(image, norm)
        assert is_critical(d, mapped)

    def test_near_zero_map_has_no_image(self):
        # a map within ZERO_MAP_TOL of zero is outside `active`, and its image
        # of any subspace has dimension 0, as an exact zero map's has
        d = make_datum(2, [1.0, 1.0, 0.5], [[[1.0, 0.0]], [[0.0, 1.0]], [[1e-15, 0.0]]])
        assert d.active == (0, 1) and d.homogeneity_defect == 0.0
        E = Subspace.coordinate(2, [0])
        assert is_critical(d, E)
        assert multiplicativity_check(d, E).gap <= 1e-12

    def test_basis_independence(self, rng):
        _, y = young_flagship()
        d = direct_sum(y, y)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        basis = np.zeros((4, 2))
        basis[:2, :] = Q  # same block, rotated basis
        assert is_critical(d, Subspace(basis))


class TestMappedData:
    """young_pair with every map B_i replaced by B_i M splits along
    M^-1 span(e0, e1). The second block's images of that subspace are zero in
    exact arithmetic and roundoff in floating point: measured against B_i M,
    they have dimension 0."""

    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e4, 1e6])
    def test_mapped_young_pair_splits(self, cond):
        _, y = young_flagship()
        pair = direct_sum(y, y)
        for s in range(20):
            M = random_gl(4, cond, np.random.default_rng(s))
            d = gl_map(pair, M)
            E = Subspace.from_rows(np.linalg.solve(M, np.eye(4)[:, :2]).T)
            assert is_critical(d, E)
            assert restrict(d, E).active == (0, 1, 2)
            assert quotient(d, E).m == 3
            assert multiplicativity_check(d, E).gap <= 1e-9


class TestMultiplicativity:
    def test_flagship_pair_splits(self):
        _, y = young_flagship()
        d = direct_sum(y, y)
        res = multiplicativity_check(d, Subspace.coordinate(4, [0, 1]))
        assert res.gap <= 1e-10
        assert res.restricted.constant == pytest.approx(YOUNG_CONSTANT, abs=1e-10)
        assert res.quotient.constant == pytest.approx(YOUNG_CONSTANT, abs=1e-10)
        assert res.full.constant == pytest.approx(YOUNG_CONSTANT**2, abs=1e-9)

    def test_rotated_basis_same_split(self, rng):
        _, y = young_flagship()
        d = direct_sum(y, y)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        basis = np.zeros((4, 2))
        basis[:2, :] = Q
        res = multiplicativity_check(d, Subspace(basis))
        assert res.gap <= 1e-8

    def test_hadamard_coordinate_split(self):
        d = coordinate_datum(3)
        res = multiplicativity_check(d, Subspace.coordinate(3, [0, 2]))
        assert res.gap <= 1e-10
        assert res.full.constant == pytest.approx(1.0, abs=1e-10)

    def test_non_critical_subspace_refused(self):
        _, d = young_flagship()
        with pytest.raises(ValueError):
            multiplicativity_check(d, Subspace.coordinate(2, [0]))

    def test_quotient_of_critical_is_homogeneous(self):
        _, y = young_flagship()
        d = direct_sum(y, y)
        E = Subspace.coordinate(4, [0, 1])
        assert abs(validate(quotient(d, E)).homogeneity_defect) <= 1e-9
        assert abs(validate(restrict(d, E)).homogeneity_defect) <= 1e-9

    def test_to_dict(self):
        import json

        _, y = young_flagship()
        d = direct_sum(y, y)
        doc = multiplicativity_check(d, Subspace.coordinate(4, [0, 1])).to_dict()
        json.dumps(doc)
        assert set(doc) == {"constant", "restricted_constant", "quotient_constant", "gap"}


class TestCoordinateSubspaces:
    def test_count(self):
        assert len(list(coordinate_subspaces(3))) == 2**3 - 2

    def test_cap(self):
        with pytest.raises(ValueError):
            list(coordinate_subspaces(7))
