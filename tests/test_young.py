import math

import numpy as np
import pytest

from blgauss import (
    YoungExponents,
    beckner_constant,
    closed_form_A,
    conjugate,
    constant_from_cs,
    datum_from_exponents,
    fp_map,
    grad_logdet,
    solve,
)

FLAGSHIP = YoungExponents(4.0 / 3.0, 4.0 / 3.0, 2.0)

# C^2 = ((4/3)^{3/4})^2 (2)^{1/2} / ((4)^{1/4})^2 (2)^{1/2}) simplifies to
# C = (2^{3/2}/3)^{1/2} * 3^{1/4} ... frozen numerically instead:
FLAGSHIP_CONSTANT = 0.8773826753016616


class TestYoungExponents:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            YoungExponents(1.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            YoungExponents(math.inf, 2.0, 2.0)

    def test_rejects_broken_scaling(self):
        with pytest.raises(ValueError):
            YoungExponents(2.0, 2.0, 2.0)

    def test_weights_flagship(self):
        assert FLAGSHIP.weights == pytest.approx((0.75, 0.75, 0.5))

    def test_weights_sum_to_two(self):
        e = YoungExponents.from_pq(1.5, 2.0)
        assert sum(e.weights) == pytest.approx(2.0, abs=1e-12)

    def test_from_pq(self):
        e = YoungExponents.from_pq(4.0 / 3.0, 4.0 / 3.0)
        assert e.r == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(ValueError):
            YoungExponents.from_pq(3.0, 4.0)  # 1/p + 1/q < 1


class TestConjugate:
    def test_values(self):
        assert conjugate(2.0) == pytest.approx(2.0)
        assert conjugate(4.0 / 3.0) == pytest.approx(4.0)
        assert conjugate(4.0) == pytest.approx(4.0 / 3.0)

    def test_blows_up_at_one(self):
        with pytest.raises(ValueError):
            conjugate(1.0)


class TestDatum:
    def test_flagship_datum(self):
        d = datum_from_exponents(FLAGSHIP)
        assert d.n == 2
        assert d.weights == pytest.approx((0.75, 0.75, 0.5))
        np.testing.assert_array_equal(d.factors[0].B, [[1.0, 1.0]])
        np.testing.assert_array_equal(d.factors[1].B, [[0.0, 1.0]])
        np.testing.assert_array_equal(d.factors[2].B, [[1.0, 0.0]])


class TestClosedFormA:
    def test_flagship_proportional_to_quarter_family(self):
        # un-normalized root (x, y, z) = (1/4, 3/16, -1/8), det 1/32
        A = closed_form_A(FLAGSHIP)
        scale = math.sqrt(32.0)
        np.testing.assert_allclose(
            A, scale * np.array([[0.25, -0.125], [-0.125, 0.1875]]), atol=1e-14
        )
        assert np.linalg.det(A) == pytest.approx(1.0, abs=1e-12)

    def test_is_exact_fixed_point(self):
        d = datum_from_exponents(FLAGSHIP)
        A = closed_form_A(FLAGSHIP)
        np.testing.assert_allclose(fp_map(d, A), A, atol=1e-12)
        assert np.abs(grad_logdet(d, A)).max() <= 1e-12

    def test_fixed_point_across_exponent_grid(self):
        for p in np.linspace(1.15, 3.0, 7):
            for q in np.linspace(1.15, 3.0, 7):
                inv_r = 1.0 / p + 1.0 / q - 1.0
                if not 0.005 < inv_r < 0.995:
                    continue
                e = YoungExponents.from_pq(p, q)
                d = datum_from_exponents(e)
                A = closed_form_A(e)
                assert np.abs(grad_logdet(d, A)).max() <= 1e-10


class TestConstants:
    def test_flagship_frozen_value(self):
        assert beckner_constant(FLAGSHIP) == pytest.approx(FLAGSHIP_CONSTANT, abs=1e-15)

    def test_flagship_hand_simplification(self):
        # C^2 = (4/3)^{3/2} * 2^{1/2} / (4^{1/2} * 2^{1/2}) = (4/3)^{3/2} / 2
        c2 = (4.0 / 3.0) ** 1.5 / 2.0
        assert beckner_constant(FLAGSHIP) == pytest.approx(math.sqrt(c2), abs=1e-15)

    def test_two_closed_forms_agree_on_grid(self):
        for p in np.linspace(1.2, 4.0, 10):
            for q in np.linspace(1.2, 4.0, 10):
                inv_r = 1.0 / p + 1.0 / q - 1.0
                if not 0.01 < inv_r < 0.99:
                    continue
                e = YoungExponents.from_pq(p, q)
                a = beckner_constant(e)
                b = constant_from_cs(*e.weights)
                assert a == pytest.approx(b, abs=1e-12)

    def test_constant_from_cs_validation(self):
        with pytest.raises(ValueError):
            constant_from_cs(1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            constant_from_cs(0.5, 0.5, 0.5)  # sums to 1.5

    def test_constant_below_one_interior(self):
        e = YoungExponents.from_pq(1.5, 1.5)
        assert beckner_constant(e) < 1.0


class TestSolverAgreement:
    def test_flagship(self):
        e = FLAGSHIP
        d = datum_from_exponents(e)
        r = solve(d)
        assert r.converged
        np.testing.assert_allclose(r.A, closed_form_A(e), atol=1e-8)
        assert r.constant == pytest.approx(beckner_constant(e), abs=1e-10)

    def test_asymmetric_exponent(self):
        e = YoungExponents.from_pq(1.25, 2.5)
        d = datum_from_exponents(e)
        r = solve(d)
        assert r.converged
        np.testing.assert_allclose(r.A, closed_form_A(e), atol=1e-8)
        assert r.constant == pytest.approx(beckner_constant(e), abs=1e-10)
