import math
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from blgauss import (
    DatumError,
    GridFunction,
    functional_verify,
    beckner_constant,
    box_function,
    bump_function,
    closed_form_A,
    direct_extremizers,
    direct_integral_check,
    gaussian_function,
    harmonic_combine,
    integrate,
    make_datum,
    reverse_extremizers,
    reverse_integral_check,
    solve,
    sup_convolution,
)
from blgauss.functional_verify import check_quadrature
from blgauss.gaussian_verify import _direct_ratios, _reverse_ratios
from blgauss.datum import load_datum
from conftest import coordinate_datum, gaussian_ratio, loomis_whitney_datum, prekopa_leindler_datum, young_flagship

BOX = [-8.0], [8.0]
DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


def ones(pts):
    return np.ones(pts.shape[:-1])


def read(gf, pts):
    """gf's callable at points (..., dim), clipped at 0 and 0 outside its box."""
    inside = np.all((pts >= gf.lo) & (pts <= gf.hi), axis=-1)
    return np.where(inside, np.fmax(gf.f(pts), 0.0), 0.0)


def grid_gaussian(precision, points=801, center=None):
    p = np.atleast_2d(precision)
    lo = [-8.0] * p.shape[0]
    hi = [8.0] * p.shape[0]
    return GridFunction.from_callable(gaussian_function(p, center), lo, hi, points)


class TestGridFunction:
    @pytest.mark.parametrize("lo, hi", [([0.0], [0.0]), ([], []), ([0.0], [1.0, 1.0])])
    def test_rejects_bad_boxes(self, lo, hi):
        with pytest.raises(ValueError):
            GridFunction.from_callable(ones, lo, hi, 5)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GridFunction.from_callable(lambda p: np.array([1.0, -0.1]), [0.0], [1.0], 2)
        with pytest.raises(ValueError):
            GridFunction.from_callable(lambda p: np.array([1.0, np.nan]), [0.0], [1.0], 2)
        with pytest.raises(ValueError):
            GridFunction.from_callable(ones, [0.0], [1.0], 1)
        with pytest.raises(ValueError):
            GridFunction.from_callable(lambda p: np.ones((3, 3)), [0.0], [1.0], 3)
        # a (3, 3) f on a 5 x 5 grid was taken for a 3 x 3 function
        with pytest.raises(ValueError, match=re.escape(
                "f must return one value per grid point, shape (5, 5), got (3, 3)")):
            GridFunction.from_callable(lambda p: np.ones((3, 3)), [-1, -1], [1, 1], 5)

    # an extent hi - lo past the float range, as [-1e308, 1e308], leaked an
    # overflow from np.linspace
    @pytest.mark.parametrize("lo, hi", [([-np.inf], [np.inf]), ([0.0], [np.inf]), ([np.nan], [1.0]),
                                        ([0.0, -np.inf], [1.0, 1.0]), ([-1e308], [1e308]),
                                        ([0.0, -1e308], [1.0, 1e308])])
    def test_rejects_unbounded_boxes(self, lo, hi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                GridFunction(ones, lo, hi, 3)
            with pytest.raises(ValueError, match="finite"):
                GridFunction.from_callable(ones, lo, hi, 5)

    def test_from_callable_1d(self):
        gf = GridFunction.from_callable(lambda p: p[..., 0] ** 2, [0.0], [1.0], 5)
        np.testing.assert_allclose(gf.values, np.linspace(0, 1, 5) ** 2)
        assert gf.dim == 1
        assert gf.points_per_axis == (5,)

    def test_from_callable_2d(self):
        gf = GridFunction.from_callable(
            lambda p: p[..., 0] + 2 * p[..., 1], [0.0, 0.0], [1.0, 1.0], 3
        )
        assert gf.dim == 2
        assert gf.values[2, 1] == pytest.approx(1.0 + 2 * 0.5)

    def test_max_boundary_value(self):
        gf = grid_gaussian([[1.0]], points=101)
        assert gf.max_boundary_value() == pytest.approx(math.exp(-32.0), rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_every_face_is_read(self, dim):
        # a narrow peak at the centre of one face at a time, 0.08 or less on
        # every other face: the boundary maximum is the peak whichever face
        # holds it, and the integral of the separable peak is the product of
        # the one-dimensional integrals of its factors
        for d in range(dim):
            for end in (0.0, 1.0):
                c = np.full(dim, 0.5)
                c[d] = end
                gf = GridFunction.from_callable(gaussian_function(20.0 * np.eye(dim), c),
                                                [0.0] * dim, [1.0] * dim, 21)
                assert gf.max_boundary_value() == 1.0
                expect = math.prod(integrate(GridFunction.from_callable(
                    gaussian_function([[20.0]], [ck]), [0.0], [1.0], 21)) for ck in c)
                assert integrate(gf) == pytest.approx(expect, rel=1e-13)

    def test_from_callable_keeps_the_callable(self):
        f = gaussian_function([[1.0]])
        assert GridFunction.from_callable(f, *BOX, 11).f is f

    @pytest.mark.parametrize("points", [2.5, 1, 0, True])
    def test_from_callable_refuses_a_bad_point_count(self, points):
        # 2.5 ended in a TypeError from np.linspace
        with pytest.raises(ValueError, match=f"points must be an integer of at least 2, got {points}"):
            GridFunction.from_callable(ones, *BOX, points)

    @pytest.mark.parametrize("lo, hi, points", [([-8.0], [8.0], 10**8 + 1),
                                                ([-8.0, -8.0], [8.0, 8.0], 7072)])
    def test_from_callable_refuses_a_grid_over_budget_before_it_allocates(self, lo, hi, points,
                                                                          monkeypatch):
        # dim * points^dim coordinates: 1e8 + 1 and 2 * 7072^2 = 100,026,368
        def grid(*args):
            raise AssertionError("allocated a grid over budget")
        monkeypatch.setattr(functional_verify, "_tensor_grid", grid)
        with pytest.raises(ValueError, match=r"points\^.* exceeds the budget 100000000"):
            GridFunction.from_callable(lambda p: pytest.fail("sampled a grid over budget"), lo, hi, points)


class TestIntegrate:
    def test_normal_density_1d(self):
        density = lambda p: np.exp(-0.5 * p[..., 0] ** 2) / math.sqrt(2 * math.pi)
        gf = GridFunction.from_callable(density, [-8.0], [8.0], 2001)
        assert integrate(gf) == pytest.approx(1.0, abs=1e-6)

    def test_linear_ramp_exact(self):
        gf = GridFunction.from_callable(lambda p: p[..., 0], [0.0], [1.0], 11)
        assert integrate(gf) == pytest.approx(0.5, abs=1e-14)

    def test_gaussian_2d_mass(self):
        P = np.array([[2.0, 0.3], [0.3, 1.0]])
        gf = GridFunction.from_callable(gaussian_function(P), [-8.0, -8.0], [8.0, 8.0], 401)
        expect = 2 * math.pi / math.sqrt(np.linalg.det(P))
        assert integrate(gf) == pytest.approx(expect, rel=1e-6)


class TestBuiltinFunctions:
    def test_gaussian_peak_and_center(self):
        f = gaussian_function([[4.0]], center=[1.5])
        assert f(np.array([[1.5]]))[0] == pytest.approx(1.0)
        assert f(np.array([[2.5]]))[0] == pytest.approx(math.exp(-2.0))

    def test_bump_support(self):
        f = bump_function(radius=2.0)
        assert f(np.array([[0.0]]))[0] == pytest.approx(1.0)
        assert f(np.array([[2.0]]))[0] == 0.0
        assert f(np.array([[1.99]]))[0] > 0.0

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
    def test_bump_refuses_a_radius_that_is_not_finite_and_positive(self, radius):
        # 0 leaked a division by zero when sampled, NaN built an all-zero
        # function and -1 acted as 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^radius must be finite and positive, got {radius}$"):
                bump_function(radius)

    def test_bump_past_the_float_range_is_zero(self):
        # ((x - c) / r)^2 overflows to +inf, outside the support, without a warning
        f = bump_function(0.2, [0.37, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(f(np.array([[1e200, 0.0], [0.0, -1e300], [0.37, 0.0]])), [0.0, 0.0, 1.0])

    def test_gaussian_past_the_float_range_is_zero(self):
        # the form overflows to +inf, whose value 0 is exact, without a warning
        f = gaussian_function([[2.0, 0.5], [0.5, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(f(np.array([[1e200, 0.0], [0.0, -1e300], [0.0, 0.0]])), [0.0, 0.0, 1.0])

    def test_gaussian_reads_0_where_terms_past_the_float_range_cancel(self):
        # at (1e200, 1e200) the terms (diff_i P_ij) diff_j are +inf, -inf,
        # -inf and +inf: the sum was NaN, and a GridFunction on a box
        # reaching 1e200 was refused as not finite
        P = [[1.0, -0.5], [-0.5, 1.0]]
        f = gaussian_function(P)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(f(np.array([[1e200, 1e200], [-1e200, -1e200], [1e200, -1e200]])),
                                          [0.0, 0.0, 0.0])
            assert f(np.array([1e200, 1e200])) == 0.0
            gf = GridFunction.from_callable(f, [-1e200, -1e200], [1e200, 1e200], 5)
        assert gf.values[2, 2] == 1.0 and np.count_nonzero(gf.values) == 1

    @pytest.mark.parametrize("center", [None, [0.0, 0.0], [0.7, -1.3]], ids=["none", "zero", "off"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_gaussian_is_the_term_by_term_form_to_the_bit(self, d, center):
        # the callable skips a zero centre and works in place; it must keep
        # the bits of exp(-0.5 q), q the terms (diff_i P_ij) diff_j summed
        # in order, at random points, at +-0, where q overflows (value 0)
        # and at a NaN coordinate. Where terms past the float range with
        # opposite signs make q NaN, the value is 0: P is positive definite
        rng = np.random.default_rng(11 + d)
        A = rng.standard_normal((d, d))
        P = A @ A.T + 0.5 * np.eye(d)
        center = None if center is None else center[:d]
        special = [0.0, -0.0, 1e200, -1e300, np.nan, 1.5]
        pts = np.concatenate([3.0 * rng.standard_normal((500, d)),
                              np.stack(np.meshgrid(*[special] * d, indexing="ij"), axis=-1).reshape(-1, d)])
        diff = pts - (np.zeros(d) if center is None else np.asarray(center))
        with np.errstate(over="ignore", invalid="ignore"):
            terms = [diff[:, i] * P[i, j] * diff[:, j] for i in range(d) for j in range(d)]
            q = terms[0]
            for t in terms[1:]:
                q = q + t
            expect = np.exp(-0.5 * q)
            got = gaussian_function(P, center)(pts)
        lost = np.isnan(q) & ~np.isnan(pts).any(axis=1)
        assert lost.any() == (d == 2)
        expect[lost] = 0.0
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes()
        overflowed = np.isinf(q) & (q > 0)
        assert overflowed.any() and np.isnan(q).any() and np.all(got[overflowed] == 0.0)

    @pytest.mark.parametrize("precision, center", [
        (np.eye(2), [0.5]),  # was a 2-d Gaussian centred at (0.5, 0.5)
        ([[1.0, 2.0, 3.0]], None),
        (np.zeros((0, 0)), None),
        (np.ones((1, 1, 1)), None),
        ([[np.inf]], None),  # leaked an invalid-value warning on its first call
        ([[1.0, np.nan], [np.nan, 1.0]], None),
        ([[1.0]], [np.nan]),  # read 0 everywhere
        ([[1.0]], 0.5),
    ])
    def test_gaussian_refuses_a_bad_precision_or_centre(self, precision, center):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^(precision must be a finite square matrix"
                                                 r"|center must be a finite vector of dimension \d), got "):
                gaussian_function(precision, center)

    @pytest.mark.parametrize("precision, center, point", [
        ([[1.0]], None, [[1.0, 5.0]]),  # read exp(-1/2), ignoring the 5
        ([[1.0]], [0.5], [[1.0, 5.0]]),
        (np.eye(2), None, [[1.0]]),  # raised IndexError
        (np.eye(2), [0.5, -0.5], [[1.0]]),
    ])
    def test_gaussian_refuses_points_of_another_dimension(self, precision, center, point):
        f = gaussian_function(precision, center)
        with pytest.raises(ValueError, match=r"^points of shape \(1, \d\) for a Gaussian of dimension \d$"):
            f(np.array(point))
        assert f(np.zeros((1, len(precision))))[0] > 0.0

    @pytest.mark.parametrize("make, dim", [
        (lambda: bump_function(1.0, center=[0.5]), 2),  # was centred at (0.5, 0.5)
        (lambda: bump_function(1.0, center=[0.0, 0.0]), 1),  # read 0.368 at x = 0.5
        (lambda: bump_function(1.0, center=[np.nan]), None),
        (lambda: bump_function(1.0, center=[[0.5]]), None),
        (lambda: bump_function(1.0, center=0.5), None),
        (lambda: box_function([0.0], [1.0]), 2),  # was the square [0, 1]^2
        (lambda: box_function([0.0, 0.0], [1.0]), None),
        (lambda: box_function(np.nan, 1.0), None),
        (lambda: box_function(0.0, np.inf), None),
    ])
    def test_bump_and_box_refuse_a_bad_centre_bound_or_point(self, make, dim):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^(center must be a finite vector, got "
                                                 r"|lo/hi must be non-empty vectors of one length$"
                                                 r"|box bounds must be finite, got "
                                                 r"|points of shape \(3, \d\) for a (center|box) of dimension \d$)"):
                make()(np.zeros((3, dim)))

    def test_box_indicator(self):
        f = box_function([-1.0], [2.0])
        np.testing.assert_array_equal(
            f(np.array([[-1.5], [0.0], [2.0], [2.5]])), [0.0, 1.0, 1.0, 0.0]
        )


class TestDirectIntegralCheck:
    def test_cauchy_schwarz_equality_case(self):
        # same function in both slots of the two-identical-maps datum: the
        # direct inequality at constant 1 is Cauchy-Schwarz with equality
        d = prekopa_leindler_datum()
        f = grid_gaussian([[1.3]])
        ratio = direct_integral_check(d, [f, f], 1.0, resolution=801)
        assert ratio == pytest.approx(1.0, abs=1e-8)

    def test_cauchy_schwarz_strict_case(self):
        d = prekopa_leindler_datum()
        ratio = direct_integral_check(
            d, [grid_gaussian([[1.0]]), grid_gaussian([[3.0]])], 1.0, resolution=801
        )
        assert ratio < 1.0

    def test_young_extremizers_give_equality(self):
        _, d = young_flagship()
        r = solve(d)
        fs = [grid_gaussian(P) for P in direct_extremizers(d, r.A)]
        ratio = direct_integral_check(d, fs, r.constant, resolution=401)
        assert ratio == pytest.approx(1.0, abs=1e-4)

    def test_matches_sqrt_of_gaussian_ratio(self):
        # for Gaussian inputs the quadrature ratio must equal the square root
        # of the determinant-form ratio; this ties the two oracles together
        _, d = young_flagship()
        r = solve(d)
        Q = [np.array([[0.8]]), np.array([[1.4]]), np.array([[0.6]])]
        quad = direct_integral_check(d, [grid_gaussian(q) for q in Q], r.constant, resolution=401)
        gauss = gaussian_ratio(_direct_ratios, d, r.constant, Q)
        assert quad == pytest.approx(math.sqrt(gauss), abs=1e-8)

    def test_rough_functions_stay_dominated(self):
        _, d = young_flagship()
        r = solve(d)
        fs = [
            GridFunction.from_callable(bump_function(radius=2.0), *BOX, 801),
            GridFunction.from_callable(box_function([-1.0], [1.0]), *BOX, 801),
            GridFunction.from_callable(bump_function(radius=1.0, center=[0.5]), *BOX, 801),
        ]
        ratio = direct_integral_check(d, fs, r.constant, resolution=801)
        assert ratio <= 1.0 + 1e-3

    @staticmethod
    def skewed_cases():
        """Data without symmetry, with their inputs: on R^2, two maps that
        each read both axes, with off-centre Gaussian inputs, and a map that
        reads both axes and two that each read one, with a coefficient other
        than 1, with off-centre Gaussian, bump and box inputs; on R, the
        Prekopa-Leindler datum with off-centre Gaussian inputs."""
        both = make_datum(2, [1.0, 1.0], [np.array([[1.0, 0.4]]), np.array([[-0.3, 1.0]])])
        one_axis = make_datum(2, [0.6, 0.5, 0.7], [np.array([[1.0, 0.4]]), np.array([[0.0, 2.5]]),
                                                   np.array([[-1.5, 0.0]])])
        return [
            (both, [grid_gaussian([[1.1]], points=201, center=[0.6]),
                    grid_gaussian([[0.7]], points=201, center=[-1.1])]),
            (one_axis, [grid_gaussian([[1.1]], points=201, center=[0.6]),
                        GridFunction.from_callable(bump_function(radius=3.0, center=[-0.8]), *BOX, 201),
                        GridFunction.from_callable(box_function([-2.5], [1.5]), *BOX, 201)]),
            (prekopa_leindler_datum(), [grid_gaussian([[1.1]], points=201, center=[0.6]),
                                        grid_gaussian([[0.7]], points=201, center=[-1.1])]),
        ]

    @pytest.mark.parametrize("chunk", [functional_verify._SUPCONV_CHUNK, 1000, 3 * 41, 41, 1],
                             ids=["default", "24-lines", "3-lines", "1-line", "1"])
    @pytest.mark.parametrize("case", [0, 1, 2], ids=["both-axes", "one-axis", "line"])
    def test_chunks_read_the_grid_point_by_point(self, case, chunk, monkeypatch):
        # chunks of whole grid lines (one line at a chunk of 41 or less, the
        # last of three lines short) build their points from the axis alone,
        # and a map with a zero column reads its axis once for every line;
        # off-centre inputs tell a point from its mirror or transpose. On R
        # the grid is one line, and its points' one column is both the
        # first and the last axis. Every chunk gives the default's bits and
        # the dense meshgrid's ratio
        d, fs = self.skewed_cases()[case]
        default = direct_integral_check(d, fs, 1.0, resolution=41)
        monkeypatch.setattr(functional_verify, "_SUPCONV_CHUNK", chunk)
        ratio = direct_integral_check(d, fs, 1.0, resolution=41)
        assert ratio == default
        assert 0.1 < ratio == pytest.approx(dense_direct(d, fs, 41), rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2])
    def test_each_function_is_read_on_the_axes_its_map_reads(self, n):
        # per direct check, a map with a zero column has its function read
        # once, on the resolution points of the one axis it reads, from the
        # calling thread; a map that reads every axis, at every grid point.
        # At 301 points per axis the plane takes two chunks
        d, fs = self.skewed_cases()[1] if n == 2 else (prekopa_leindler_datum(), [grid_gaussian([[1.3]])] * 2)
        calls = [[] for _ in fs]

        def counted(k, f):
            def g(pts):
                calls[k].append((np.shape(pts), threading.current_thread()))
                return f(pts)
            return g

        counting = [GridFunction.from_callable(counted(k, gf.f), gf.lo, gf.hi, gf.points_per_axis[0])
                    for k, gf in enumerate(fs)]
        for made in calls:
            made.clear()  # the calls that sampled each grid
        direct_integral_check(d, counting, 1.0, resolution=301)
        reads_all = [bool(np.all(f.B != 0.0)) for f in d.factors]
        assert reads_all == ([True, False, False] if n == 2 else [True, True])
        for every, made in zip(reads_all, calls):
            assert sum(math.prod(shape[:-1]) for shape, _ in made) == (301**n if every else 301)
            if not every:
                assert made == [((301, 1), threading.main_thread())]

    def test_a_zero_factor_is_refused(self):
        # a factor of zero mass leaves nothing to compare: no ratio, 0 or
        # otherwise, is a pass
        d = prekopa_leindler_datum()
        zero = GridFunction.from_callable(lambda p: np.zeros(p.shape[:-1]), [-8.0], [8.0], 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "function 1 integrates to zero on its grid of shape (11,) over lo=[-8.0] hi=[8.0]")):
                direct_integral_check(d, [grid_gaussian([[1.0]]), zero], 1.0, resolution=101)

    @pytest.mark.parametrize("resolution", [801, 101])
    def test_a_factor_its_grid_misses_is_refused(self, resolution):
        # the bump lies between the nodes of its own 11-point grid, so it
        # integrates to zero, whether the direct grid reads it (801 points)
        # or misses it too (101): either way the check is refused, where it
        # read +inf or 0
        d = prekopa_leindler_datum()
        fs = [grid_gaussian([[1.0]]), GridFunction.from_callable(bump_function(0.03, [0.05]), *BOX, 11)]
        assert integrate(fs[1]) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^function 1 integrates to zero on its grid of shape \(11,\) over"):
                direct_integral_check(d, fs, 1.0, resolution=resolution)

    def test_boundary_truncation_warns(self):
        d = prekopa_leindler_datum()
        flat = GridFunction.from_callable(ones, [-8.0], [8.0], 101)
        with pytest.warns(UserWarning, match="decayed"):
            direct_integral_check(d, [flat, flat], 1.0, resolution=101)

    def test_rejects_high_dimensions(self):
        d = coordinate_datum(3)
        fs = [grid_gaussian([[1.0]], points=11) for _ in range(3)]
        with pytest.raises(ValueError, match="ambient dimension 1 and 2 only"):
            direct_integral_check(d, fs, 1.0, resolution=11)

    def test_rejects_wrong_function_count(self):
        d = prekopa_leindler_datum()
        with pytest.raises(ValueError):
            direct_integral_check(d, [grid_gaussian([[1.0]])], 1.0)


def dense_direct(datum, fs, resolution):
    """Reference direct ratio at constant 1 on [-8, 8]^n: exp of sum_i c_i
    log f_i, added in factor order on the dense meshgrid of every grid point
    at once, integrated from the last axis, over the exp of sum_i c_i
    log(integral f_i)."""
    axis = np.linspace(-8.0, 8.0, resolution)
    X = np.stack(np.meshgrid(*[axis] * datum.n, indexing="ij"), axis=-1)
    acc = np.zeros(X.shape[:-1])
    for f, gf in zip(datum.factors, fs):
        with np.errstate(divide="ignore"):
            acc += f.c * np.log(read(gf, X @ f.B.T))
    lhs = np.exp(acc)
    for _ in range(datum.n):
        lhs = np.trapezoid(lhs, axis, axis=-1)
    return lhs / math.exp(sum(f.c * math.log(integrate(gf)) for f, gf in zip(datum.factors, fs)))


def dense_sup_convolution(datum, fs, resolution, box=8.0):
    """Reference with one construction per kernel dimension: the unique
    preimage Y0 for kdim 0; for kdim 1 every grid point at once, with the
    full (points, resolution, total_dim) array of decompositions Y0 + t k1
    sliced into factors afterwards; for kdim k >= 2 one grid point at a
    time over a resolution^k grid of the cube |t|_inf <= w, w bounding
    every feasible t."""
    active = datum.active
    L = np.hstack([datum.factors[i].c * datum.factors[i].B.T for i in active])
    dims = [datum.factors[i].target_dim for i in active]
    offsets = np.cumsum([0] + dims)
    kernel = np.linalg.svd(L)[2][datum.n :].T
    kdim = kernel.shape[1]
    assert kdim == sum(dims) - datum.n
    lows = np.concatenate([gf.lo for gf in fs])
    highs = np.concatenate([gf.hi for gf in fs])
    axis = np.linspace(-box, box, resolution)
    X = np.stack(np.meshgrid(*[axis] * datum.n, indexing="ij"), axis=-1).reshape(-1, datum.n)
    Y0 = X @ np.linalg.pinv(L).T

    def log_product(y):
        acc = np.zeros(y.shape[:-1])
        for k, i in enumerate(active):
            vals = read(fs[k], y[..., offsets[k] : offsets[k + 1]])
            with np.errstate(divide="ignore"):
                acc += datum.factors[i].c * np.where(
                    vals > 0.0, np.log(np.where(vals > 0.0, vals, 1.0)), -np.inf
                )
        return acc

    if kdim == 0:
        return np.exp(log_product(Y0)).reshape((resolution,) * datum.n)
    if kdim >= 2:
        r = np.maximum(np.abs(lows - Y0), np.abs(highs - Y0))
        w = np.sqrt(np.sum(r * r, axis=1))
        base = np.linspace(-1.0, 1.0, resolution)
        vals = np.zeros(X.shape[0])
        for idx in range(X.shape[0]):
            cube = np.meshgrid(*[w[idx] * base] * kdim, indexing="ij")
            T = np.stack([t.ravel() for t in cube], axis=-1)
            vals[idx] = np.exp(log_product(Y0[idx][None, :] + T @ kernel.T).max())
        return vals.reshape((resolution,) * datum.n)

    k1 = kernel[:, 0]
    t_lo = np.full(X.shape[0], -np.inf)
    t_hi = np.full(X.shape[0], np.inf)
    dead = np.zeros(X.shape[0], dtype=bool)
    for j in range(k1.size):
        if abs(k1[j]) > 1e-12:
            a = (lows[j] - Y0[:, j]) / k1[j]
            b = (highs[j] - Y0[:, j]) / k1[j]
            t_lo = np.maximum(t_lo, np.minimum(a, b))
            t_hi = np.minimum(t_hi, np.maximum(a, b))
        else:
            dead |= (Y0[:, j] < lows[j]) | (Y0[:, j] > highs[j])
    # a segment empty only by rounding is its one decomposition, which lies
    # on the boxes' boundary
    dead |= t_hi < t_lo - 1e-12
    width = np.where(t_hi > t_lo, t_hi - t_lo, 0.0)
    mid = 0.5 * (t_lo + t_hi)
    T = mid[:, None] + width[:, None] * np.linspace(-0.5, 0.5, resolution)[None, :]
    Y = Y0[:, None, :] + T[:, :, None] * k1[None, None, :]
    vals = np.exp(log_product(Y).max(axis=1))
    vals[dead | (width == 0.0)] = 0.0
    point = (~dead) & (width == 0.0)
    if np.any(point):
        y = np.clip(Y0[point] + mid[point, None] * k1[None, :], lows, highs)
        vals[point] = np.exp(log_product(y))
    return vals.reshape((resolution,) * datum.n)


class TestSupConvolution:
    def test_young_matches_dense_reference(self):
        # 71^2 grid points in chunks of 65_536 // 71 = 923: the last is partial
        _, d = young_flagship()
        fs = [grid_gaussian(p, points=201) for p in ([[1.3]], [[0.7]], [[2.1]])]
        env = sup_convolution(d, fs, resolution=71)
        assert np.array_equal(env, dense_sup_convolution(d, fs, 71))

    def test_two_dim_factor_matches_dense_reference(self):
        # a 2-d factor next to a 1-d one: the kernel is still a line
        B = np.array([[1.0, 0.3], [0.0, 1.0]])
        d = make_datum(2, [0.5, 1.0], [B, np.array([[0.6, 0.8]])])
        fs = [
            grid_gaussian([[1.2, 0.2], [0.2, 0.8]], points=121),
            grid_gaussian([[0.7]], points=201),
        ]
        env = sup_convolution(d, fs, resolution=71)
        ref = dense_sup_convolution(d, fs, 71)
        assert ref.max() > 0.5  # the envelope is not trivially zero
        assert np.array_equal(env, ref)

    def test_kdim0_matches_dense_reference(self):
        # a rotated 2-d factor: the decomposition is unique
        d = make_datum(2, [1.0], [np.array([[1.0, 0.4], [-0.2, 1.1]])])
        fs = [grid_gaussian([[1.2, 0.3], [0.3, 0.8]], points=101)]
        env = sup_convolution(d, fs, resolution=61)
        ref = dense_sup_convolution(d, fs, 61)
        assert ref.max() > 0.5
        assert np.array_equal(env, ref)

    def test_kdim2_matches_dense_reference_on_a_line(self):
        # three identities on the line; 81 grid points, whose runs are found
        # in one chunk and read in pieces of 81 samples, 809 pieces a read
        d = make_datum(1, [1.0 / 3.0] * 3, [np.eye(1)] * 3)
        fs = [grid_gaussian([[1.3]], points=401)] * 3
        env = sup_convolution(d, fs, resolution=81)
        assert np.array_equal(env, dense_sup_convolution(d, fs, 81))

    def test_kdim2_matches_dense_reference_in_the_plane(self):
        # four coordinate factors on R^2; 31^2 grid points, whose runs are
        # found in one chunk (up to 65_536 // 31 = 2114 points) and read in
        # pieces of 31 samples, 2114 pieces a read: the last is partial
        d = make_datum(
            2, [0.5] * 4, [np.eye(2)[:1], np.eye(2)[1:], np.eye(2)[:1], np.eye(2)[1:]]
        )
        fs = [grid_gaussian([[p]], points=401) for p in (1.0, 2.0, 0.5, 1.5)]
        env = sup_convolution(d, fs, resolution=31)
        assert np.array_equal(env, dense_sup_convolution(d, fs, 31))

    @pytest.mark.parametrize(
        "boxes, x, parts",
        [
            # feasible segment 1.4e-15 wide in floating point
            (([0.0], [1.0], [1.0], [2.0]), 1.5, (1.0, 2.0)),
            # exactly zero width: the window is the single point t = mid
            (([0.0], [1.0], [0.0], [1.0]), 0.0, (0.0, 0.0)),
            # t_hi 4.4e-16 below t_lo in floating point: not an empty segment
            (([0.0], [1.0], [1.0], [2.0]), 0.5, (0.0, 1.0)),
        ],
    )
    def test_collapsed_window_keeps_its_one_decomposition(self, boxes, x, parts):
        # x = (x_1 + x_2) / 2 has exactly one decomposition inside the boxes
        d = prekopa_leindler_datum()
        fs = [
            GridFunction.from_callable(gaussian_function([[1.0]]), boxes[0], boxes[1], 11),
            GridFunction.from_callable(gaussian_function([[1.0]]), boxes[2], boxes[3], 11),
        ]
        env = sup_convolution(d, fs, resolution=33)
        k = int(np.argmin(np.abs(np.linspace(-8.0, 8.0, 33) - x)))
        want = math.sqrt(
            read(fs[0], np.array([[parts[0]]]))[0]
            * read(fs[1], np.array([[parts[1]]]))[0]
        )
        assert env[k] == pytest.approx(want, rel=1e-14)
        assert np.array_equal(env, dense_sup_convolution(d, fs, 33))

    @staticmethod
    def kernel_cases():
        """One datum per kernel dimension: (datum, functions, resolution)."""
        _, young = young_flagship()
        line3 = make_datum(1, [1.0 / 3.0] * 3, [np.eye(1)] * 3)
        rotated = make_datum(2, [1.0], [np.array([[1.0, 0.4], [-0.2, 1.1]])])
        return [
            (rotated, [grid_gaussian([[1.2, 0.3], [0.3, 0.8]], points=101)], 31),
            (young, [grid_gaussian(p, points=201) for p in ([[1.3]], [[0.7]], [[2.1]])], 41),
            (line3, [grid_gaussian([[1.3]], points=401)] * 3, 41),
        ]

    @pytest.mark.parametrize("kdim", [0, 1, 2])
    def test_one_point_chunks_are_bit_identical(self, kdim, monkeypatch):
        d, fs, res = self.kernel_cases()[kdim]
        env = sup_convolution(d, fs, resolution=res)
        monkeypatch.setattr(functional_verify, "_SUPCONV_CHUNK", 1)
        assert np.array_equal(sup_convolution(d, fs, resolution=res), env)

    @pytest.mark.parametrize("kdim", [0, 1, 2])
    def test_dead_points_and_outside_samples_are_not_read(self, kdim, monkeypatch):
        # count the samples each factor's function is read at: a dead
        # point (kdim 1) and a sample outside some box (kdim 2) cost nothing,
        # and the envelope is still the dense reference
        d, fs, res = self.kernel_cases()[kdim]
        ref = dense_sup_convolution(d, fs, res)
        asked = []
        add_log = functional_verify._add_log

        def counted(acc, gf, coords, c):
            asked.append(coords[0].size)
            add_log(acc, gf, coords, c)

        monkeypatch.setattr(functional_verify, "_add_log", counted)
        env = sup_convolution(d, fs, resolution=res)
        assert np.array_equal(env, ref)
        every = len(fs) * res**d.n * res**kdim  # each factor, every point, every sample
        if kdim == 0:
            assert sum(asked) == every
        else:
            assert 0 < sum(asked) < (0.9 if kdim == 1 else 0.5) * every

    @pytest.mark.parametrize("case, share", [("line3", 1 / 3), ("four", 1 / 6)])
    def test_a_plane_forms_only_its_rows_runs(self, case, share, monkeypatch):
        # count the decompositions formed: a plane point forms the runs of
        # its base's rows that can reach inside every box, not the disc's
        # whole square (13 % and 8 % of it). The four coordinate factors'
        # kernel leaves two coordinates in place along each row, which
        # empty the rows where they lie outside their boxes (24 % without)
        if case == "line3":
            d, fs, res = self.kernel_cases()[2]
        else:
            e = np.eye(2)
            d = make_datum(2, [0.5] * 4, [e[:1], e[1:], e[:1], e[1:]])
            fs, res = [grid_gaussian([[p]], points=401) for p in (1.0, 2.0, 0.5, 1.5)], 31
        ref = dense_sup_convolution(d, fs, res)
        formed = []
        decompositions = functional_verify._decompositions

        def counted(y0, T, K):
            formed.append(T.shape[0] * T.shape[1])
            return decompositions(y0, T, K)

        monkeypatch.setattr(functional_verify, "_decompositions", counted)
        assert np.array_equal(sup_convolution(d, fs, resolution=res), ref)
        assert 0 < sum(formed) <= share * res ** (d.n + 2)

    @staticmethod
    def two_dim_factor_case():
        B = np.array([[1.0, 0.3], [0.0, 1.0]])
        d = make_datum(2, [0.5, 1.0], [B, np.array([[0.6, 0.8]])])
        fs = [
            grid_gaussian([[1.2, 0.2], [0.2, 0.8]], points=121),
            grid_gaussian([[0.7]], points=201),
        ]
        return d, fs, 41

    def direct_cases(self, chunk):
        """(datum, functions, constant, resolution, ratio) of the direct check
        on the Young flagship, the two-dim-factor case and a 1-D datum, with
        its pinned ratio. Chunks of one point take the flagship at 41 points
        per axis, not 801. The flagship's inputs and constant take no LAPACK
        call, so that its pin holds under every BLAS kernel: the precisions
        1 / (B_i A B_i^T) are read off the closed-form A entry by entry."""
        e, young = young_flagship()
        (a, b), (_, c) = closed_form_A(e)
        res, pin = (801, "0.9999999999913373") if chunk > 1 else (41, "0.9999999999878494")
        fy = [grid_gaussian([[1.0 / p]], points=res) for p in (a + 2.0 * b + c, c, a)]
        d2, f2, res2 = self.two_dim_factor_case()
        f1 = [grid_gaussian([[1.3]]), grid_gaussian([[0.7]])]
        return [
            (young, fy, beckner_constant(e), res, pin),
            (d2, f2, 1.0, res2, "1.2350561626725352"),
            (prekopa_leindler_datum(), f1, 1.0, 801, "0.9766981117201887"),
        ]

    @pytest.mark.parametrize("chunk", [functional_verify._SUPCONV_CHUNK, 300, 1])
    @pytest.mark.parametrize("case", range(7), ids=["kdim0", "kdim1", "kdim2", "two-dim-factor",
                                                    "direct-young", "direct-two-dim-factor", "direct-1d"])
    def test_any_chunk_size_is_bit_identical(self, case, chunk, monkeypatch):
        # every chunk writes its own slice of the envelope, or of the direct
        # check's integrand, by the same operations, so any chunk size gives
        # the default's envelope and ratio
        if case < 4:
            d, fs, res = (self.kernel_cases() + [self.two_dim_factor_case()])[case]
            run, pinned = lambda: sup_convolution(d, fs, resolution=res), None
        else:
            d, fs, c, res, pinned = self.direct_cases(chunk)[case - 4]
            run = lambda: np.array([direct_integral_check(d, fs, c, resolution=res)])
        default = run()
        monkeypatch.setattr(functional_verify, "_SUPCONV_CHUNK", chunk)
        result = run()
        assert result.max() > 0.1
        assert np.array_equal(result, default)
        if pinned is not None:
            assert repr(float(result[0])) == pinned

    def two_chunk_run(self, check):
        """A run of the sup-convolution or of the direct check in two chunks."""
        if check == "sup":
            d, fs, res = self.kernel_cases()[2]
            return lambda: sup_convolution(d, fs, resolution=res)
        _, d = young_flagship()
        fs = [grid_gaussian([[1.0]], points=41)] * 3
        return lambda: direct_integral_check(d, fs, 1.0, resolution=301)

    @pytest.mark.parametrize("check", ["sup", "direct"])
    def test_the_chunks_run_in_the_calling_thread(self, check, monkeypatch):
        # with Thread.start refused the check still runs, and the caller's
        # np.errstate holds in every chunk's reads
        run = self.two_chunk_run(check)

        def refused(thread):
            raise RuntimeError("a quadrature check started a thread")

        monkeypatch.setattr(threading.Thread, "start", refused)
        assert np.max(run()) > 0.1
        add_log = functional_verify._add_log

        def patched(*args):
            np.ones(3) / np.zeros(3)
            add_log(*args)

        monkeypatch.setattr(functional_verify, "_add_log", patched)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            run()

    def test_single_identity_factor_reproduces_input(self):
        d = make_datum(1, [1.0], [np.eye(1)])
        f = grid_gaussian([[0.9]])
        env = sup_convolution(d, [f], resolution=201)
        expect = GridFunction.from_callable(gaussian_function([[0.9]]), *BOX, 201)
        # f itself is read at each grid point: exp(log f) is f to rounding
        np.testing.assert_allclose(env, expect.values, rtol=0, atol=1e-14)

    def test_identity_reads_a_box_indicator_exactly(self):
        # the envelope's grid points (spacing 0.08) are not the input's
        # nodes (spacing 1.6), yet the indicator is read exactly: no
        # overshoot or ringing next to its jumps
        d = make_datum(1, [1.0], [np.eye(1)])
        box = box_function([-1.0], [2.0])
        env = sup_convolution(d, [GridFunction.from_callable(box, *BOX, 11)], resolution=201)
        assert np.array_equal(env, box(np.linspace(-8.0, 8.0, 201)[:, None]))
        assert env.sum() == 38

    @pytest.mark.parametrize("points", [2, 3, 4, 5, 8, 11, 200, 201])
    def test_identity_reads_the_callable_at_any_sampling(self, points):
        # the read does not depend on the grid f was sampled on: two nodes
        # read as exactly as 201, at envelope points that are not nodes
        d = make_datum(1, [1.0], [np.eye(1)])
        f = gaussian_function([[0.7]], center=[0.3])
        env = sup_convolution(d, [GridFunction.from_callable(f, *BOX, points)], resolution=101)
        expect = f(np.linspace(-8.0, 8.0, 101)[:, None])
        np.testing.assert_allclose(env, expect, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("points", [2, 3, 5, 8, 61])
    def test_identity_reads_a_2d_callable_at_any_sampling(self, points):
        d = make_datum(2, [1.0], [np.eye(2)])
        f = gaussian_function([[2.0, 0.3], [0.3, 1.0]], center=[0.5, -0.2])
        gf = GridFunction.from_callable(f, [-8.0, -8.0], [8.0, 8.0], points)
        env = sup_convolution(d, [gf], resolution=41)
        _, pts = functional_verify._tensor_grid([-8.0] * 2, [8.0] * 2, 41)
        np.testing.assert_allclose(env, f(pts), rtol=1e-13, atol=0)

    def test_negative_and_nan_reads_are_zero(self):
        # f is non-negative and finite at its three nodes, but negative for
        # 0 < |x| < 4 and NaN on (5, 6): both read 0, the rest reads f
        def f(p):
            x = p[..., 0]
            return np.where((x > 5.0) & (x < 6.0), np.nan, x**2 * (x**2 - 16.0))

        d = make_datum(1, [1.0], [np.eye(1)])
        env = sup_convolution(d, [GridFunction.from_callable(f, *BOX, 3)], resolution=201)
        ys = np.linspace(-8.0, 8.0, 201)
        expect = np.fmax(f(ys[:, None]), 0.0)
        assert np.all(np.isfinite(env))
        assert np.all(env[((ys > 0) & (ys < 4)) | ((ys > 5) & (ys < 6))] == 0.0)
        np.testing.assert_allclose(env, expect, rtol=1e-13, atol=0)

    def test_gaussian_closure_one_dim_kernel(self):
        _, d = young_flagship()
        P = [np.array([[1.3]]), np.array([[0.7]]), np.array([[2.1]])]
        fs = [grid_gaussian(p) for p in P]
        env = sup_convolution(d, fs, resolution=201)
        A = harmonic_combine(d, P)
        expect = GridFunction.from_callable(gaussian_function(A), [-8.0] * 2, [8.0] * 2, 201)
        assert np.abs(env - expect.values).max() <= 5e-3

    def test_gaussian_closure_two_dim_kernel(self):
        d = make_datum(
            2, [0.5] * 4, [np.eye(2)[:1], np.eye(2)[1:], np.eye(2)[:1], np.eye(2)[1:]]
        )
        P = [np.array([[p]]) for p in (1.0, 2.0, 0.5, 1.5)]
        fs = [grid_gaussian(p, points=401) for p in P]
        env = sup_convolution(d, fs, resolution=61)
        A = harmonic_combine(d, P)
        expect = GridFunction.from_callable(gaussian_function(A), [-8.0] * 2, [8.0] * 2, 61)
        assert np.abs(env - expect.values).max() <= 3e-2

    def test_rejects_a_degenerate_datum(self):
        # solve refuses this datum as degenerate; so does the sup-convolution
        d = make_datum(2, [1, 1], [[[1, 0]], [[1, 1e-11]]])
        fs = [grid_gaussian([[1.0]], points=21)] * 2
        with pytest.raises(DatumError, match="degenerate"):
            sup_convolution(d, fs, resolution=21)

    def test_rejects_kernel_dimension_above_two(self):
        # the refusal check_quadrature returns, raised
        d = make_datum(1, [0.25] * 4, [np.eye(1)] * 4)
        fs = [grid_gaussian([[1.0]], points=11)] * 4
        with pytest.raises(ValueError, match=r"^decomposition kernel has dimension 3 > 2$"):
            sup_convolution(d, fs, resolution=11)


class TestPastTheRefusals:
    """With _refusal lifted, both checks read n = 3 and 4 and kernel
    dimension 3 with the dense references' bits."""

    @staticmethod
    def solved(name):
        d = load_datum(DATA / f"{name}.json")
        A = solve(d).A
        return d, direct_extremizers(d, A), reverse_extremizers(d, A)[0]

    @staticmethod
    def skewed(n):
        """On R^n, a map that reads every axis, one that reads the first and
        the last, and one per middle axis, with off-centre Gaussian inputs."""
        maps = [np.linspace(1.0, -0.5, n)[None], (np.eye(n)[0] + 0.5 * np.eye(n)[-1])[None]]
        maps += [1.2 * np.eye(n)[a : a + 1] for a in range(1, n - 1)]
        inputs = [(1.1, 0.6), (0.7, -1.1), (1.3, 0.4), (0.9, -0.3)]
        fs = [grid_gaussian([[p]], points=41, center=[m]) for p, m in inputs[: len(maps)]]
        return make_datum(n, [0.6, 0.5, 0.7, 0.8][: len(maps)], maps), fs

    @pytest.mark.parametrize("lines", [None, 1, 3, 52], ids=["default", "1-line", "3-lines", "52-lines"])
    @pytest.mark.parametrize("resolution", [7, 10, 11])
    @pytest.mark.parametrize("name", ["hadamard3", "young_pair", "skewed3", "skewed4"])
    def test_the_direct_check_reads_any_n(self, name, resolution, lines, monkeypatch):
        # hadamard3's maps read one axis of R^3 each, young_pair's one or
        # two of R^4, and the skewed data's first map every axis, whose
        # grid points blocks of a few lines form: a block rewrites each
        # leading axis column whose period does not divide it, and the last
        # block is short
        monkeypatch.setattr(functional_verify, "_refusal", lambda *args: None)
        if lines:
            monkeypatch.setattr(functional_verify, "_SUPCONV_CHUNK", lines * resolution)
        if name.startswith("skewed"):
            d, fs = self.skewed(int(name[-1]))
        else:
            d, direct, _ = self.solved(name)
            fs = [grid_gaussian(P, points=41) for P in direct]
        ratio = direct_integral_check(d, fs, 1.0, resolution=resolution)
        assert 0.0 < ratio == dense_direct(d, fs, resolution)

    @pytest.mark.parametrize("name, resolutions", [("hadamard3", [7, 10, 11]), ("young_pair", [7, 9])])
    def test_the_reverse_check_reads_any_n(self, name, resolutions, monkeypatch):
        # kernel dimension 0 on R^3 and 2 on R^4
        monkeypatch.setattr(functional_verify, "_refusal", lambda *args: None)
        d, _, reverse = self.solved(name)
        fs = [grid_gaussian(P, points=41) for P in reverse]
        for resolution in resolutions:
            env = sup_convolution(d, fs, resolution=resolution)
            assert env.max() > 0.1
            assert np.array_equal(env, dense_sup_convolution(d, fs, resolution))

    @pytest.mark.parametrize("resolution", [7, 10, 11])
    @pytest.mark.parametrize("case", ["loomis-whitney", "four-identities"])
    def test_the_sup_convolution_reads_kernel_dimension_three(self, case, resolution, monkeypatch):
        # the three coordinate planes of R^3, and four identities on R
        # with weight 1/4: a cube of samples per grid point, in rows of
        # resolution samples over two fixed kernel coordinates
        monkeypatch.setattr(functional_verify, "_refusal", lambda *args: None)
        if case == "loomis-whitney":
            d = loomis_whitney_datum(3)
            fs = [grid_gaussian(np.eye(2) * p, points=21) for p in (1.0, 1.3, 0.7)]
        else:
            d = make_datum(1, [0.25] * 4, [np.eye(1)] * 4)
            fs = [grid_gaussian([[p]], points=41) for p in (1.0, 1.3, 0.7, 2.0)]
        env = sup_convolution(d, fs, resolution=resolution)
        assert env.max() > 0.0
        assert np.array_equal(env, dense_sup_convolution(d, fs, resolution))


def plain(fs, seen=None):
    """The same inputs behind plain callables, which carry no Gaussian mark,
    so sup_convolution reads every sample of each segment. With seen, each
    call appends whether it returned a subnormal value."""
    def wrap(f):
        def g(p):
            v = f(p)
            if seen is not None:
                seen.append(bool(np.any((v > 0.0) & (v < np.finfo(float).tiny))))
            return v
        return g

    return [GridFunction.from_callable(wrap(gf.f), gf.lo, gf.hi, gf.points_per_axis[0]) for gf in fs]


def line_case(rng, box=None, resolution=None, kind=None):
    """(datum, functions, box, resolution): a random datum whose
    decomposition kernel is a line, n = 1 with factor dimensions (1, 1) or
    n = 2 with (1, 1, 1) or (2, 1) (kind 0, 1 or 2, drawn unless given),
    and gaussian_function inputs. Precision eigenvalues are 0.1 to 10, half
    the centres are off 0 by up to a third of the box, and each factor box
    is 0.7 to 2 times the grid box, which is 1 to 100 and the resolution 21
    to 101 unless given."""
    n, dims = [(1, (1, 1)), (2, (1, 1, 1)), (2, (2, 1))][rng.integers(3) if kind is None else kind]
    d = make_datum(n, rng.uniform(0.3, 1.2, len(dims)), [rng.standard_normal((m, n)) for m in dims])
    box = 10.0 ** rng.uniform(0.0, 2.0) if box is None else box
    fs = []
    for m in dims:
        Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
        P = Q @ np.diag(10.0 ** rng.uniform(-1.0, 1.0, m)) @ Q.T
        centre = rng.uniform(-box / 3.0, box / 3.0, m) if rng.random() < 0.5 else None
        reach = box * rng.uniform(0.7, 2.0)
        fs.append(GridFunction.from_callable(gaussian_function(P, centre), [-reach] * m, [reach] * m, 5))
    return d, fs, box, int(rng.integers(21, 102)) if resolution is None else resolution


def at_the_window_limit(d, fs, box, resolution):
    """The case with every factor box [-u, u] at the window limit u, and the
    grid box there too where the grid volume allows (n = 1). Its factors
    are 1-d: at the corners of a 2-d box the terms of the form overflow to
    inf and -inf, whose sum is NaN."""
    u = functional_verify._window_limit(*d.decomposition)
    fs = [GridFunction.from_callable(gf.f, [-u] * gf.dim, [u] * gf.dim, 5) for gf in fs]
    return d, fs, u if d.n == 1 else box, resolution


def plane_case(rng, kind):
    """(datum, functions, resolution): a random datum whose decomposition
    kernel is a plane, by kind:

    offcentre  n = 1, three 1-d factors of random signs and weights, on
               asymmetric boxes, with off-centre Gaussians
    rank-one   n = 2, four rank-one factors with random (not coordinate)
               maps
    two-dim    n = 2, a 2-d factor beside two rank-one ones
    narrow     n = 1, three identities, the first on a box 0.05 to 1
               wide, about the samples' spacing or less, so that a row's
               run is often one sample
    edges      n = 1, three identities on boxes with an end at one grid
               point's preimage Y0_j each, where that point's sample t = 0
               lies exactly"""
    res = 25 if kind in ("offcentre", "narrow", "edges") else 15
    if kind in ("rank-one", "two-dim"):
        dims = (1, 1, 1, 1) if kind == "rank-one" else (2, 1, 1)
        d = make_datum(2, rng.uniform(0.2, 0.8, len(dims)), [rng.standard_normal((m, 2)) for m in dims])
        fs = []
        for m in dims:
            lo = rng.uniform(-6.0, 0.0, m)
            P = np.diag(rng.uniform(0.3, 2.0, m))
            fs.append(GridFunction.from_callable(gaussian_function(P), lo, lo + rng.uniform(1.0, 10.0, m), 21))
        return d, fs, res
    if kind == "offcentre":
        d = make_datum(1, rng.dirichlet([2.0] * 3), [[[rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])]]
                                                     for _ in range(3)])
        lo = rng.uniform(-6.0, 1.0, 3)
        hi = lo + rng.uniform(2.0, 9.0, 3)
    else:
        d = make_datum(1, [1.0 / 3.0] * 3, [np.eye(1)] * 3)
        if kind == "narrow":
            lo = np.concatenate([rng.uniform(-3.0, 3.0, 1), rng.uniform(-8.0, -5.0, 2)])
            hi = lo + np.concatenate([rng.uniform(0.05, 1.0, 1), rng.uniform(10.0, 13.0, 2)])
        else:
            # every box has an end at grid point i's preimage, the other
            # at another grid point's
            Y0 = np.linspace(-8.0, 8.0, res)[:, None] @ d.decomposition[0].T
            i = rng.integers(1, res - 1)
            ends = np.sort([[i, rng.integers(i + 1, res) if rng.random() < 0.5 else rng.integers(0, i)]
                            for _ in range(3)], axis=1)
            lo, hi = Y0[ends[:, 0], range(3)], Y0[ends[:, 1], range(3)]
    fs = [GridFunction.from_callable(gaussian_function([[rng.uniform(0.3, 2.0)]], [rng.uniform(-1.0, 1.0)]),
                                     [a], [b], 21) for a, b in zip(lo, hi)]
    return d, fs, res


class TestPlaneRuns:
    """A plane kernel forms each point's samples only on the runs of its
    base's rows that can reach inside every box, and reads the dense
    reference's envelope bit for bit at any chunk size."""

    @pytest.mark.parametrize("chunk", [functional_verify._SUPCONV_CHUNK, 300, 1])
    @pytest.mark.parametrize("kind", ["offcentre", "rank-one", "two-dim", "narrow", "edges"])
    def test_the_runs_keep_the_dense_envelope(self, kind, chunk, monkeypatch):
        rng = np.random.default_rng([5, len(kind)])
        monkeypatch.setattr(functional_verify, "_SUPCONV_CHUNK", chunk)
        counts, on_edge = [], [0]
        plane_runs = functional_verify._row_runs
        add_log = functional_verify._add_log

        def runs(*args):
            first, lengths = plane_runs(*args)
            counts.append(lengths)
            return first, lengths

        def counted(acc, gf, coords, c):
            on_edge[0] += sum(int(np.sum((y == lo) | (y == hi))) for y, lo, hi in zip(coords, gf.lo, gf.hi))
            add_log(acc, gf, coords, c)

        monkeypatch.setattr(functional_verify, "_row_runs", runs)
        monkeypatch.setattr(functional_verify, "_add_log", counted)
        live = 0
        for _ in range(3):
            d, fs, res = plane_case(rng, kind)
            env = sup_convolution(d, fs, resolution=res)
            assert np.array_equal(env, dense_sup_convolution(d, fs, res))
            live += env.max() > 0.0
        assert live == 3
        lengths = np.concatenate([c.ravel() for c in counts])
        if kind == "narrow":
            assert np.any(lengths == 1)
        if kind == "edges":
            assert on_edge[0] > 0

    @pytest.mark.parametrize("res", [9, 10])
    def test_a_window_of_scale_zero_reads_its_one_decomposition(self, res):
        # boxes [-1e-306, 1e-306]: at x = 0 the window's radius squares to
        # 0, every sample is the decomposition y0 = 0, and the runs, found
        # by dividing by the scale, are at most the middle sample; at
        # resolution 10 no grid point is 0, and no point has a decomposition
        d = make_datum(1, [1.0 / 3.0] * 3, [np.eye(1)] * 3)
        fs = [GridFunction.from_callable(gaussian_function([[1.0]]), [-1e-306], [1e-306], 5)] * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env = sup_convolution(d, fs, resolution=res)
        assert np.array_equal(env, dense_sup_convolution(d, fs, res))
        assert env.max() == (1.0 if res % 2 else 0.0)

    def test_the_runs_hold_every_sample_the_inside_test_keeps(self, monkeypatch):
        # three identities on boxes [lo_j, 20]: a grid point's window scale
        # comes from the upper ends, so each lo_j can be set to the j-th
        # coordinate of one of its samples as read forms it, which then lies
        # exactly on the box edge. The function reads exactly the samples
        # that the whole square's inside test keeps
        d = make_datum(1, [1.0 / 3.0] * 3, [np.eye(1)] * 3)
        res = 25
        pinv_L, K = d.decomposition
        Y0 = np.linspace(-8.0, 8.0, res)[:, None] @ pinv_L.T
        base = functional_verify._sample_base(2, res)
        rng = np.random.default_rng(5)
        asked = []
        add_log = functional_verify._add_log

        def counted(acc, gf, coords, c):
            asked.append(coords[0].size)
            add_log(acc, gf, coords, c)

        monkeypatch.setattr(functional_verify, "_add_log", counted)
        on_edge = 0
        for _ in range(12):
            highs = np.full(3, 20.0)
            lows = rng.uniform(-20.0, -8.0, 3)
            i = rng.integers(0, res // 2)
            _, scale, _ = functional_verify._window(Y0[i : i + 1], K, lows, highs)
            T = scale[:, None, None] * base
            Y = (T @ K.T)[0] + Y0[i]
            for j in range(3):
                # a sample below y0_j, whose coordinate keeps the upper end farther
                below = np.flatnonzero((Y[:, j] < Y0[i, j]) & (Y[:, j] > 2.0 * Y0[i, j] - 19.0))
                lows[j] = Y[rng.choice(below), j]
            fs = [GridFunction.from_callable(gaussian_function([[1.0]]), [a], [b], 21) for a, b in zip(lows, highs)]
            asked.clear()
            env = sup_convolution(d, fs, resolution=res)
            assert np.array_equal(env, dense_sup_convolution(d, fs, res))
            kept = 0
            for x in range(res):
                _, scale, _ = functional_verify._window(Y0[x : x + 1], K, lows, highs)
                T = scale[:, None, None] * base
                Y = (T @ K.T)[0] + Y0[x]
                inside = np.all((Y >= lows) & (Y <= highs), axis=1)
                kept += np.sum(inside)
                on_edge += np.sum(inside & np.any(Y == lows, axis=1))
            assert sum(asked) == 3 * kept
        assert on_edge >= 36


class TestLineWindow:
    """A line kernel with gaussian_function inputs reads each point's
    segment only on a window that the closed-form maximizer places and a
    certificate checks (_line_peaks), and keeps the whole segment's bits."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(1302)
        out = [line_case(rng) for _ in range(40)]
        out += [line_case(rng, resolution=2) for _ in range(3)]
        # reads outside some windows reach the subnormal range, which exp
        # may round up past the model, and some best reads are subnormal
        out += [line_case(rng, box=b) for b in (20.0, 25.0, 30.0, 35.0, 40.0)]
        wide = GridFunction.from_callable(gaussian_function([[1.0]]), -40.0, 40.0, 5)
        out += [(prekopa_leindler_datum(), [wide] * 2, 40.0, 41), (young_flagship()[1], [wide] * 3, 40.0, 101)]
        out += [at_the_window_limit(*line_case(rng, resolution=21, kind=k)) for k in (0, 1, 1)]
        return out

    @staticmethod
    def counted_windows(monkeypatch):
        """[points, points left to read their whole segment] per chunk."""
        stats = []
        line_peaks = functional_verify._line_peaks

        def counted(model, y0, *args):
            peaks, rest = line_peaks(model, y0, *args)
            stats.append((len(y0), len(rest)))
            return peaks, rest

        monkeypatch.setattr(functional_verify, "_line_peaks", counted)
        return stats

    def test_the_window_keeps_the_whole_segments_bits(self, monkeypatch):
        # each case as gaussian_function inputs and as plain callables; then
        # again with each block shifted by w + 1 samples, past the sample
        # nearest t*, which only leaves more points to read their whole
        # segment (a block that kept that sample would read the segment's
        # peak even uncertified)
        stats = self.counted_windows(monkeypatch)
        seen, rest = [], []
        envelopes = []
        block = functional_verify._block
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d, fs, box, res in self.cases():
                want = sup_convolution(d, plain(fs, seen), resolution=res, box=box).tobytes()
                for shift in (False, True):
                    monkeypatch.setattr(functional_verify, "_block",
                                        lambda at, R, w: block(at + (w + 1) * shift, R, w))
                    stats.clear()
                    env = sup_convolution(d, fs, resolution=res, box=box)
                    assert env.tobytes() == want, (d, box, res, shift)
                    rest.append(np.sum(stats, axis=0))
                envelopes.append(env)
        points, left = np.array(rest[::2]).sum(axis=0)
        _, left_shifted = np.array(rest[1::2]).sum(axis=0)
        # some points certify a block and some do not; a shifted block
        # certifies fewer
        assert 0 < left < points and left < left_shifted
        # some reads, and some envelope values, are subnormal
        tiny = np.finfo(float).tiny
        assert any(seen) and any(np.any((0.0 < e) & (e < tiny)) for e in envelopes)

    def test_young_reads_one_block_per_certified_point(self, monkeypatch):
        _, d = young_flagship()
        fs = [grid_gaussian(p, points=201) for p in ([[1.3]], [[0.7]], [[2.1]])]
        stats = self.counted_windows(monkeypatch)
        asked = []
        add_log = functional_verify._add_log

        def counted(acc, gf, coords, c):
            asked.append(coords[0].size)
            add_log(acc, gf, coords, c)

        monkeypatch.setattr(functional_verify, "_add_log", counted)
        env = sup_convolution(d, fs, resolution=201)
        windows = sum(asked)
        asked.clear()
        assert sup_convolution(d, plain(fs), resolution=201).tobytes() == env.tobytes()
        # a plain callable is read at all 201 samples of every live point
        live = np.count_nonzero(env)
        assert sum(asked) == 3 * 201 * live
        # a point the window path certifies reads its block of 2w + 1 = 5
        # samples, and here every other point only its whole segment
        points, left = np.sum(stats, axis=0)
        assert points == live and 0 < left < points / 100
        assert windows == 3 * (5 * (points - left) + 201 * left)

    @pytest.mark.parametrize("precisions, box", [("unit", b) for b in (8.0, 16.0, 24.0, 30.0, 36.0)]
                             + [("extremizer", b) for b in (8.0, 16.0, 24.0, 30.0)])
    def test_every_young_point_certifies_its_block(self, precisions, box, monkeypatch):
        # the Young flagship at 101 points per axis with inputs on [-box,
        # box], in three chunks that each take one bound E: every one of its
        # 8,719 live points certifies its block. A coarser E, or a coarser
        # normal-range test, would leave some to read their whole segment
        e, d = young_flagship()
        ps = [np.eye(1)] * 3 if precisions == "unit" else reverse_extremizers(d, closed_form_A(e))[0]
        fs = [GridFunction.from_callable(gaussian_function(p), -box, box, 101) for p in ps]
        stats = self.counted_windows(monkeypatch)
        sup_convolution(d, fs, resolution=101, box=box)
        assert len(stats) == 3 and tuple(np.sum(stats, axis=0)) == (8719, 0)

    def test_a_block_of_inf_and_nan_reads_keeps_the_row_maximum(self):
        # the best read of each block is taken a column at a time; on reads
        # holding -inf and NaN, which no gaussian_function gives, it keeps
        # the bits of the maximum across each row, and the certificate its
        # rule: a NaN in the block certifies nothing, an edge that reads
        # -inf certifies only at a segment end, and an edge that ties the
        # best never. Every live point of the flagship at 101 points reads a
        # block; the reads are drawn from the rows below
        _, d = young_flagship()
        pinv_L, K = d.decomposition
        _, pts = functional_verify._tensor_grid([-8.0] * 2, [8.0] * 2, 101)
        Y0 = pts.reshape(-1, 2) @ np.ascontiguousarray(pinv_L.T)
        centre, scale, dead = functional_verify._window(Y0, K, np.full(3, -8.0), np.full(3, 8.0))
        fs = [grid_gaussian([[1.0]], points=101)] * 3
        model = functional_verify._line_model(fs, [f.c for f in d.factors], [(0, 1), (1, 2), (2, 3)], K[:, 0])
        inf, nan, tiny = np.inf, np.nan, 5e-324
        rows = np.array([[-1.0, 0.0, 2.0, 0.0, -1.0], [-1.0, -inf, 2.0, -inf, -1.0],
                         [-inf, 0.0, 2.0, 0.0, -1.0], [-1.0, 0.0, 2.0, 0.0, -inf], [-inf] * 5,
                         [-1.0, nan, 2.0, 0.0, -1.0], [nan, 0.0, 2.0, 0.0, -1.0], [-1.0, 0.0, 2.0, 0.0, nan],
                         [2.0, 0.0, -1.0, -2.0, -3.0], [-3.0, -2.0, -1.0, 0.0, 2.0], [-3.0, tiny, -1.0, -2.0, -3.0]])
        rng = np.random.default_rng(43)
        blocks = []

        def read(y0, centre, scale, index):
            blocks.append((index, rows[rng.integers(len(rows), size=len(index))]))
            return blocks[-1][1]

        peaks, rest = functional_verify._line_peaks(model, Y0[~dead], centre[~dead], scale[~dead],
                                                    functional_verify._sample_base(1, 101), read)
        ((index, reads),) = blocks
        assert len(index) == np.count_nonzero(~dead)
        best, ok = reads.max(axis=1), np.ones(len(reads), dtype=bool)
        for s, end in ((reads[:, 0], index[:, 0] == 0), (reads[:, -1], index[:, -1] == 100)):
            ok &= end | ((s > -np.inf) & (best > s + 0.5))
        assert np.array_equal(rest, np.flatnonzero(~ok))
        assert peaks[ok].tobytes() == best[ok].tobytes() and 0 < ok.sum() < len(ok)

    @pytest.mark.parametrize("case", ["indefinite", "huge-box"])
    def test_a_model_that_cannot_certify_reads_every_sample(self, case, monkeypatch):
        # gamma = (1 - 2) / 4 < 0 makes the model convex, and no line model
        # is built; at box 1e300 the model's magnitudes pass the float
        # range, and every point reads its whole segment, without a warning
        d = prekopa_leindler_datum()
        box, ps = (8.0, (1.0, -2.0)) if case == "indefinite" else (1e300, (1.0, 0.5))
        fs = [GridFunction.from_callable(gaussian_function([[p]]), -box, box, 21) for p in ps]
        stats = self.counted_windows(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env = sup_convolution(d, fs, resolution=41, box=box)
        assert env.tobytes() == sup_convolution(d, plain(fs), resolution=41, box=box).tobytes()
        if case == "indefinite":
            assert stats == [] and env.max() > 1.0
        else:
            points, rest = np.sum(stats, axis=0)
            assert rest == points > 0

    @pytest.mark.parametrize("kdim", [0, 2])
    def test_other_kernel_dimensions_take_no_window(self, kdim, monkeypatch):
        d, fs, res = TestSupConvolution.kernel_cases()[kdim]

        def unused(*args):
            raise AssertionError("a window was read")

        monkeypatch.setattr(functional_verify, "_line_peaks", unused)
        env = sup_convolution(d, fs, resolution=res)
        assert env.tobytes() == sup_convolution(d, plain(fs), resolution=res).tobytes()


@pytest.mark.parametrize("kdim", [1, 2, 3])
def test_samples_match_the_broadcast_product(kdim):
    # a window's samples are formed a kernel coordinate at a time; they keep
    # the bits and the layout of the product broadcast over (points,
    # samples, kdim) and the line's centre added after it, at scales of 0, a
    # subnormal and 1e300, and at a kernel dimension no check samples
    rng = np.random.default_rng(43)
    base = functional_verify._sample_base(kdim, 7)
    index = rng.integers(0, len(base), (40, 9))
    scale = np.concatenate([[0.0, 5e-324, 1e300], 10.0 ** rng.uniform(-3.0, 3.0, 37)])
    centre = 10.0 * rng.standard_normal((40, 1 if kdim == 1 else 0))
    want = scale[:, None, None] * base[index]
    want[..., : centre.shape[1]] += centre[:, None, :]
    got = functional_verify._samples(centre, scale, base, index)
    assert got.flags.c_contiguous and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(60,), (20, 9)], ids=["points", "rows"])
def test_segments_match_the_reductions_across_coordinates(shape):
    # _segment, and the line's dead points in _window, take one coordinate
    # at a time. With ends on box faces (so -0.0 and +0.0 tie), a coordinate
    # that does not move (k_j = 0) and one outside its box, they keep the
    # bits of the reductions across the coordinates
    rng = np.random.default_rng(44)
    k = np.array([0.8, -0.5, 0.0, 0.3])
    on = np.abs(k) > 1e-12
    lows, highs = np.array([-3.0, -1.0, -2.0, -4.0]), np.array([2.0, 5.0, 2.0, 1.0])
    Y0 = rng.uniform(-6.0, 6.0, shape + (4,))
    Y0 = np.where(rng.random(Y0.shape) < 0.3, np.where(rng.random(Y0.shape) < 0.5, lows, highs), Y0)
    a, b = (lows[on] - Y0[..., on]) / k[on], (highs[on] - Y0[..., on]) / k[on]
    t_lo, t_hi = np.minimum(a, b).max(axis=-1), np.maximum(a, b).min(axis=-1)
    got = functional_verify._segment(Y0, k, on, lows, highs)
    assert got[0].tobytes() == t_lo.tobytes() and got[1].tobytes() == t_hi.tobytes()
    if len(shape) == 1:
        mag = (np.maximum(np.abs(lows[on]), np.abs(highs[on])) + np.abs(Y0[:, on])) / np.abs(k[on])
        fixed = Y0[:, ~on]
        dead = (np.any((fixed < lows[~on]) | (fixed > highs[~on]), axis=1)
                | (t_hi < t_lo - 8.0 * np.finfo(float).eps * mag.max(axis=1)))
        _, _, got_dead = functional_verify._window(Y0, k[:, None], lows, highs)
        assert np.array_equal(got_dead, dead) and 0 < dead.sum() < len(dead)


@pytest.mark.parametrize("box", [-1.0, 0.0, np.nan, np.inf])
@pytest.mark.parametrize("check", ["direct", "sup", "reverse"])
def test_bad_box_is_refused_before_any_grid(check, box):
    d = prekopa_leindler_datum()
    fs = [grid_gaussian([[1.0]], points=41)] * 2
    run = {
        "direct": lambda: direct_integral_check(d, fs, 1.0, resolution=21, box=box),
        "sup": lambda: sup_convolution(d, fs, resolution=21, box=box),
        "reverse": lambda: reverse_integral_check(d, fs, 1.0, resolution=21, box=box),
    }[check]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="box must be finite and positive"):
            run()


@pytest.mark.parametrize("resolution", [1, 0, -3, 2.5, 801.0])
@pytest.mark.parametrize("check", ["direct", "sup", "reverse"])
def test_bad_resolution_is_refused_before_any_grid(check, resolution):
    # one point per axis made the direct check a silent pass: 0.0 for the
    # Young flagship at half its constant
    _, d = young_flagship()
    fs = [grid_gaussian([[1.0]], points=41)] * 3
    c = 0.5 * solve(d).constant
    run = {
        "direct": lambda: direct_integral_check(d, fs, c, resolution=resolution),
        "sup": lambda: sup_convolution(d, fs, resolution=resolution),
        "reverse": lambda: reverse_integral_check(d, fs, c, resolution=resolution),
    }[check]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"resolution must be an integer of at least 2, got {resolution}"):
            run()


def test_quadrature_support_rule():
    # one rule for both checks and the command line: R^1 or R^2 and a good
    # grid, else ValueError; then the reverse check's kernel dimension
    assert check_quadrature(young_flagship()[1], 8.0, 11) is None
    assert check_quadrature(make_datum(2, [1.0], [np.eye(2)]), 8.0, 11) is None
    four = make_datum(1, [0.25] * 4, [np.eye(1)] * 4)
    assert check_quadrature(four, 8.0, 11) == "decomposition kernel has dimension 3 > 2"
    # a degenerate datum has no decomposition map to bound the windows by;
    # sup_convolution refuses it itself
    degenerate = make_datum(2, [1.0] * 3, [np.array([[1.0, 0.0]])] * 3)
    assert degenerate.degenerate and check_quadrature(degenerate, 8.0, 11) is None
    with pytest.raises(ValueError, match="ambient dimension 1 and 2 only"):
        check_quadrature(coordinate_datum(3), 8.0, 11)
    with pytest.raises(ValueError, match="resolution must be an integer of at least 2, got 1"):
        check_quadrature(four, 8.0, 1)
    with pytest.raises(ValueError, match="box must be finite and positive"):
        check_quadrature(four, -1.0, 11)
    # the grid volume (2 * box)^n must be a float: 2e200 is, (2e200)^2 is not
    assert check_quadrature(four, 1e200, 11) is not None
    with pytest.raises(ValueError, match=r"^box = 1e\+200 puts the grid volume \(2 \* box\)\^2 past"):
        check_quadrature(young_flagship()[1], 1e200, 11)


@pytest.mark.parametrize("kdim", [1, 2])
def test_the_window_limit_holds_on_both_sides(kdim):
    # kdim + 1 identities with equal weights on R^1 have a kernel of
    # dimension kdim. Below the limit the reverse check runs without a
    # warning; above it the check is skipped. The bound is tight for the
    # plane and within a factor 2 for the line: past that, _window's
    # arithmetic at the grid's corner overflows
    m = kdim + 1
    d = make_datum(1, [1.0 / m] * m, [np.eye(1)] * m)
    pinv_L, K = d.decomposition
    limit = functional_verify._window_limit(pinv_L, K)
    below, above = 0.99 * limit, 1.01 * limit
    fs = [GridFunction.from_callable(gaussian_function([[1.0]]), -below, below, 21)] * m
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_quadrature(d, below, 21) is None
        assert reverse_integral_check(d, fs, 1.0, resolution=21, box=below) == pytest.approx(1.0, abs=1e-12)
    reason = f"box = {above} is above {limit:.6g}, past which the decomposition windows leave the float range"
    assert check_quadrature(d, above, 21) == reason
    with pytest.raises(ValueError, match="past which the decomposition windows leave the float range$"):
        sup_convolution(d, fs, resolution=21, box=above)
    past = (2.01 if kdim == 1 else 1.01) * limit
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        functional_verify._window(np.array([[past]]) @ pinv_L.T, K, np.full(m, -past), np.full(m, past))


@pytest.mark.parametrize("kdim, reach, limit", [(1, "8e+307", "3.1779e+307"), (2, "1e+200", "3.8705e+153")])
def test_the_window_limit_reads_the_factor_boxes(kdim, reach, limit):
    # at box = 1 the grid is small, but the factor boxes reach far enough
    # that _window's arithmetic would overflow: the limit reads them too
    m = kdim + 1
    d = make_datum(1, [1.0 / m] * m, [np.eye(1)] * m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fs = [GridFunction.from_callable(bump_function(0.2, [0.37]), -float(reach), float(reach), 21)] * m
        with pytest.raises(ValueError, match="^" + re.escape(f"factor boxes reaching {reach} are above {limit}, past which")):
            sup_convolution(d, fs, resolution=21, box=1.0)
        # within the limit the envelope is the dense reference
        wide = [GridFunction.from_callable(gaussian_function([[1.0]]), -20.0, 20.0, 21)] * m
        env = sup_convolution(d, wide, resolution=21, box=1.0)
    np.testing.assert_allclose(env, dense_sup_convolution(d, wide, 21, box=1.0), rtol=1e-12)


def test_a_unique_decomposition_takes_no_window():
    # kernel dimension 0 has no window, so no box limit: at box = 1e200 the
    # envelope is the dense reference, without a warning
    d = make_datum(1, [1.0], [np.array([[2.0]])])
    fs = [GridFunction.from_callable(gaussian_function([[1.0]]), -1e200, 1e200, 21)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_quadrature(d, 1e200, 21) is None
        env = sup_convolution(d, fs, resolution=21, box=1e200)
    assert env.max() == 1.0 and np.array_equal(env, dense_sup_convolution(d, fs, 21, box=1e200))


def test_grid_budget_bounds_the_largest_array():
    # no check builds an array of more than 4 * resolution^2 floats, which
    # check_quadrature holds to the package's element budget of 10^8, on a
    # line as on the plane
    d = prekopa_leindler_datum()
    assert check_quadrature(d, 8.0, 5000) is None
    for resolution, elements in ((5001, 100_040_004), (np.int64(10**10), 4 * 10**20)):
        with pytest.raises(ValueError, match=rf"4 \* resolution\^2 = {elements} exceeds the budget 100000000$"):
            check_quadrature(d, 8.0, resolution)


@pytest.mark.parametrize("check", ["direct", "sup", "reverse"])
def test_oversized_grid_is_refused_before_any_grid(check):
    # a million points per axis asked the direct check for 7.28 TiB
    _, d = young_flagship()
    fs = [grid_gaussian([[1.0]], points=41)] * 3
    run = {
        "direct": lambda: direct_integral_check(d, fs, 1.0, resolution=10**6),
        "sup": lambda: sup_convolution(d, fs, resolution=10**6),
        "reverse": lambda: reverse_integral_check(d, fs, 1.0, resolution=10**6),
    }[check]
    with pytest.raises(ValueError, match="exceeds the budget"):
        run()


@pytest.mark.parametrize("constant", [np.nan, np.inf, -np.inf, -1.0, 0.0])
@pytest.mark.parametrize("check", ["direct", "reverse"])
def test_bad_constant_is_refused_before_any_grid(check, constant):
    # the sweeps' rule: +inf read as a pass (ratio 0), NaN gave a NaN ratio,
    # -1 a negative one and 0 a ZeroDivisionError or a math domain error
    d = prekopa_leindler_datum()
    fs = [grid_gaussian([[1.0]], points=41)] * 2
    run = {"direct": direct_integral_check, "reverse": reverse_integral_check}[check]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="constant must be finite and positive"):
            run(d, fs, constant, resolution=21)


@pytest.mark.parametrize("scale, constant, check", [(1e-300, 1e-200, "direct"), (1e-300, 1e-200, "reverse"),
                                                    (1.0, 1e308, "direct"), (1.0, 1e308, "reverse")])
def test_ratios_at_the_edges_of_the_float_range(scale, constant, check):
    # C * prod_i (integral f_i)^{c_i} rounded to 0 (a ZeroDivisionError from
    # both checks) or past the float range (an OverflowError from the direct
    # check, a ratio of 0 from the reverse one); the ratio is formed in the
    # log domain there, and equals the ratio at C = 1 divided by C
    d = prekopa_leindler_datum()
    g = gaussian_function([[1.0]])
    fs = [GridFunction.from_callable(lambda p: scale * g(p), [-8.0], [8.0], 101)] * 2
    run = {"direct": direct_integral_check, "reverse": reverse_integral_check}[check]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratio = run(d, fs, constant, resolution=101)
        assert math.isfinite(ratio)
        assert ratio == pytest.approx(run(d, fs, 1.0, resolution=101) / constant, rel=1e-12, abs=0.0)


class TestReverseIntegralCheck:
    def test_young_extremizers_give_equality(self):
        _, d = young_flagship()
        r = solve(d)
        exts, _ = reverse_extremizers(d, r.A)
        fs = [grid_gaussian(P) for P in exts]
        ratio = reverse_integral_check(d, fs, r.constant, resolution=201)
        assert ratio == pytest.approx(1.0, abs=2e-3)

    def test_matches_sqrt_of_gaussian_ratio(self):
        _, d = young_flagship()
        r = solve(d)
        Q = [np.array([[0.8]]), np.array([[1.4]]), np.array([[0.6]])]
        quad = reverse_integral_check(d, [grid_gaussian(q) for q in Q], r.constant, resolution=201)
        gauss = gaussian_ratio(_reverse_ratios, d, r.constant, Q)
        assert quad == pytest.approx(math.sqrt(gauss), abs=2e-3)

    def test_prekopa_leindler_gaussians(self):
        # reversed inequality on the two-identical-maps datum with constant 1:
        # equal-precision inputs achieve equality, and translation is an exact
        # symmetry so shifted copies still do; mismatched precisions lose
        d = prekopa_leindler_datum()
        centered = [grid_gaussian([[1.0]]), grid_gaussian([[1.0]])]
        assert reverse_integral_check(d, centered, 1.0, resolution=201) == pytest.approx(
            1.0, abs=2e-3
        )
        shifted = [grid_gaussian([[1.0]], center=[1.0]), grid_gaussian([[1.0]], center=[-1.0])]
        assert reverse_integral_check(d, shifted, 1.0, resolution=201) == pytest.approx(
            1.0, abs=2e-3
        )
        mismatched = [grid_gaussian([[1.0]]), grid_gaussian([[3.0]])]
        ratio = reverse_integral_check(d, mismatched, 1.0, resolution=201)
        expect = math.sqrt(gaussian_ratio(_reverse_ratios, d, 1.0, [np.eye(1), 3.0 * np.eye(1)]))
        assert ratio == pytest.approx(expect, abs=2e-3)
        assert ratio < 0.99

    def test_a_zero_input_is_refused(self):
        d = prekopa_leindler_datum()
        zero = GridFunction.from_callable(lambda p: np.zeros(p.shape[:-1]), [-8.0], [8.0], 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^function 0 integrates to zero on its grid of shape \(11,\) over"):
                reverse_integral_check(d, [zero, zero], 1.0, resolution=51)

    def test_an_envelope_that_misses_the_inputs_is_refused(self):
        # the bump's support (0.17, 0.57) holds no node of the 21-point
        # envelope grid (spacing 0.8): the grid sees none of the envelope,
        # so the check is refused, where it read +inf
        d = prekopa_leindler_datum()
        bump = GridFunction.from_callable(bump_function(0.2, [0.37]), *BOX, 801)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "the envelope integrates to zero on its grid of shape (21,) over lo=[-8.0] hi=[8.0]")):
                reverse_integral_check(d, [bump, bump], 1.0, resolution=21)
        assert reverse_integral_check(d, [bump, bump], 1.0, resolution=801) == pytest.approx(1.0, abs=1e-12)
