"""Low-dimensional quadrature checks of the actual integral inequalities.

The Gaussian checks exercise the determinant forms; this module goes back to
the integrals themselves on compact boxes, with functions held as values on
tensor grids. Ambient dimension and factor dimensions are limited to 2: the
point is an independent oracle at desk scale, not a general integrator.

direct   integral of prod_i f_i(B_i x)^{c_i} over the ambient box, against
         C * prod_i (integral of f_i)^{c_i}
reversed prod_i (integral of f_i)^{c_i} against C * integral of f, where f
         is the smallest admissible envelope: the sup-convolution
         f(x) = sup { prod_i f_i(x_i)^{c_i} : sum_i c_i B_i^T x_i = x }.

SciPy is used only here, by GridFunction.interpolator, and is imported on
the first spline it builds; everything else in the package runs on numpy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .datum import BLDatum
from .quadform import decomposition_map

DEFAULT_BOX = 8.0
DECAY_WARN = 1e-6
# largest decomposition-kernel dimension sup_convolution samples
MAX_KERNEL_DIM = 2
# decomposition samples per sup-convolution chunk (a grid point takes one,
# resolution or resolution^2 by kernel dimension): ~2 MB per factor coordinate
_SUPCONV_CHUNK = 250_000


@dataclass(frozen=True)
class GridFunction:
    """Non-negative function sampled on a uniform tensor grid over a box."""

    lo: np.ndarray
    hi: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        values = np.asarray(self.values, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size not in (1, 2):
            raise ValueError("lo/hi must be vectors of length 1 or 2")
        if np.any(hi <= lo):
            raise ValueError("box must have positive extent on every axis")
        if values.ndim != lo.size:
            raise ValueError(f"values must be {lo.size}-dimensional, got {values.ndim}")
        if min(values.shape) < 2:
            raise ValueError("need at least 2 points per axis")
        if not np.all(np.isfinite(values)) or values.min() < 0.0:
            raise ValueError("values must be finite and non-negative")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def points_per_axis(self) -> tuple[int, ...]:
        return self.values.shape

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(self.lo[d], self.hi[d], self.values.shape[d])
            for d in range(self.dim)
        ]

    @classmethod
    def from_callable(cls, f, lo, hi, points: int) -> "GridFunction":
        """Sample f on a uniform grid; f takes an array of shape (..., dim)."""
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        _, pts = _tensor_grid(lo, hi, points)
        return cls(lo, hi, np.asarray(f(pts), dtype=float))

    def max_boundary_value(self) -> float:
        v = self.values
        if self.dim == 1:
            return float(max(v[0], v[-1]))
        return float(max(v[0, :].max(), v[-1, :].max(), v[:, 0].max(), v[:, -1].max()))

    def interpolator(self):
        """Cubic interpolant, zero outside the box, clipped at zero.

        Falls back to linear when the grid is too coarse for cubics."""
        # the package's one use of SciPy, imported here so that every
        # command but the quadrature checks runs without loading it
        from scipy.interpolate import CubicSpline, RectBivariateSpline

        axes = self.axes()
        if self.dim == 1:
            ax = axes[0]
            if ax.size >= 4:
                spline = CubicSpline(ax, self.values, extrapolate=False)

                def f1(pts):
                    t = np.asarray(pts)[..., 0]
                    v = spline(t)
                    return np.fmax(v, 0.0, out=v)  # NaN outside the box -> 0

                return f1

            def f1_lin(pts):
                t = np.asarray(pts)[..., 0]
                v = np.interp(t, ax, self.values)
                inside = (t >= ax[0]) & (t <= ax[-1])
                return np.where(inside, np.clip(v, 0.0, None), 0.0)

            return f1_lin

        ax0, ax1 = axes
        kx = 3 if ax0.size >= 4 else 1
        ky = 3 if ax1.size >= 4 else 1
        spline = RectBivariateSpline(ax0, ax1, self.values, kx=kx, ky=ky)

        def f2(pts):
            pts = np.asarray(pts)
            x, y = pts[..., 0], pts[..., 1]
            v = spline.ev(x.ravel(), y.ravel()).reshape(x.shape)
            inside = (
                (x >= ax0[0]) & (x <= ax0[-1]) & (y >= ax1[0]) & (y <= ax1[-1])
            )
            return np.where(inside, np.clip(v, 0.0, None), 0.0)

        return f2

    def to_dict(self) -> dict:
        return {
            "lo": self.lo.tolist(),
            "hi": self.hi.tolist(),
            "points_per_axis": list(self.values.shape),
            "values": self.values.ravel().tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GridFunction":
        shape = tuple(doc["points_per_axis"])
        values = np.asarray(doc["values"], dtype=float).reshape(shape)
        return cls(np.asarray(doc["lo"]), np.asarray(doc["hi"]), values)


def integrate(gf: GridFunction) -> float:
    """Tensor-product trapezoid rule on the function's own grid."""
    return _trapezoid_nd(gf.values, gf.axes())


# -- built-in function families -------------------------------------------------

def gaussian_function(precision, center=None):
    """x -> exp(-(x-c)^T P (x-c) / 2), peak value 1."""
    P = np.atleast_2d(np.asarray(precision, dtype=float))
    d = P.shape[0]
    c = np.zeros(d) if center is None else np.asarray(center, dtype=float)

    def f(pts):
        diff = np.asarray(pts) - c
        q = np.einsum("...i,ij,...j->...", diff, P, diff)
        return np.exp(-0.5 * q)

    return f


def bump_function(radius=1.0, center=None):
    """Smooth compactly supported mollifier, peak value 1 at the center."""

    def f(pts):
        pts = np.asarray(pts)
        c = np.zeros(pts.shape[-1]) if center is None else np.asarray(center, dtype=float)
        r2 = np.sum(((pts - c) / radius) ** 2, axis=-1)
        inside = r2 < 1.0
        safe = np.where(inside, r2, 0.0)
        return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - safe)), 0.0)

    return f


def box_function(lo, hi):
    """Indicator of the box [lo, hi] (per axis)."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))

    def f(pts):
        pts = np.asarray(pts)
        inside = np.all((pts >= lo) & (pts <= hi), axis=-1)
        return inside.astype(float)

    return f


# -- the two integral checks -----------------------------------------------------

def _check_functions(datum: BLDatum, fs) -> list[GridFunction]:
    active = datum.active_indices()
    fs = list(fs)
    if len(fs) != len(active):
        raise ValueError(f"expected {len(active)} grid functions, got {len(fs)}")
    for i, gf in zip(active, fs):
        want = datum.factors[i].target_dim
        if gf.dim != want:
            raise ValueError(f"function for factor {i} has dim {gf.dim}, expected {want}")
        if want > 2:
            raise ValueError("quadrature checks support factor dimensions 1 and 2 only")
    if datum.n > 2:
        raise ValueError("quadrature checks support ambient dimension 1 and 2 only")
    return fs


def _warn_truncation(fs) -> None:
    for k, gf in enumerate(fs):
        peak = gf.values.max()
        if peak > 0.0 and gf.max_boundary_value() > DECAY_WARN * peak:
            warnings.warn(
                f"function {k} has not decayed at its box boundary; "
                "the truncated integral may be unsound",
                stacklevel=3,
            )


def _tensor_grid(lo, hi, points: int):
    """Axes and (..., dim) points of the uniform tensor grid on the box [lo, hi]."""
    axes = [np.linspace(a, b, points) for a, b in zip(lo, hi)]
    return axes, np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _log0(vals: np.ndarray) -> np.ndarray:
    """In-place log of non-negative interpolant values, log 0 = -inf."""
    with np.errstate(divide="ignore"):
        return np.log(vals, out=vals)


def _trapezoid_nd(values: np.ndarray, axes) -> float:
    out = values
    for d in reversed(range(len(axes))):
        out = np.trapezoid(out, axes[d], axis=d)
    return float(out)


def direct_integral_check(
    datum: BLDatum,
    fs,
    constant: float,
    resolution: int = 801,
    box: float = DEFAULT_BOX,
) -> float:
    """integral of prod_i f_i(B_i x)^{c_i} over [-box, box]^n, divided by
    C * prod_i (integral f_i)^{c_i}. At most ~1 when C dominates; equals 1
    at extremizers up to quadrature error. Returns 0 (with a warning) when
    the right-hand side vanishes."""
    fs = _check_functions(datum, fs)
    _warn_truncation(fs)
    axes, pts = _tensor_grid([-box] * datum.n, [box] * datum.n, resolution)
    log_prod = np.zeros(pts.shape[:-1])
    for i, gf in zip(datum.active_indices(), fs):
        f = datum.factors[i]
        log_prod += f.c * _log0(gf.interpolator()(pts @ f.B.T))
    lhs = _trapezoid_nd(np.exp(log_prod), axes)

    log_rhs = math.log(constant)
    for i, gf in zip(datum.active_indices(), fs):
        total = integrate(gf)
        if total <= 0.0:
            warnings.warn("a factor integrates to zero; ratio reported as 0", stacklevel=2)
            return 0.0
        log_rhs += datum.factors[i].c * math.log(total)
    return lhs / math.exp(log_rhs)


def _sample_base(kdim: int, resolution: int) -> np.ndarray:
    """Fixed (samples, kdim) pattern that every window scales: one point for
    a unique decomposition, resolution points on [-1/2, 1/2] for a line, a
    resolution^2 grid on [-1, 1]^2 for a plane."""
    if kdim == 0:
        return np.zeros((1, 0))
    if kdim == 1:
        return np.linspace(-0.5, 0.5, resolution)[:, None]
    axis = np.linspace(-1.0, 1.0, resolution)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


def _window(Y0: np.ndarray, K: np.ndarray, lows: np.ndarray, highs: np.ndarray):
    """Centre (count, kdim), scale (count,) and dead mask (count,) of the
    kernel coordinates t to sample at each particular preimage Y0: the
    samples are centre + scale * base, and a dead point has no feasible
    decomposition inside the factor boxes. A scale of 0 occurs only for a
    line whose feasible segment is a single point."""
    if K.shape[1] == 1:
        # the exact feasible segment of the line Y0 + t k; coordinates with
        # k_j = 0 do not move and must lie in their box
        k = K[:, 0]
        on = np.abs(k) > 1e-12
        a = (lows[on] - Y0[:, on]) / k[on]
        b = (highs[on] - Y0[:, on]) / k[on]
        t_lo, t_hi = np.minimum(a, b).max(axis=1), np.maximum(a, b).min(axis=1)
        # a and b carry rounding of order eps (|box| + |Y0|) / |k|, so a
        # segment that is empty by less than that is a single point
        mag = (np.maximum(np.abs(lows[on]), np.abs(highs[on])) + np.abs(Y0[:, on])) / np.abs(k[on])
        slack = 8.0 * np.finfo(float).eps * mag.max(axis=1)
        fixed = Y0[:, ~on]
        dead = np.any((fixed < lows[~on]) | (fixed > highs[~on]), axis=1) | (t_hi < t_lo - slack)
        return 0.5 * (t_lo + t_hi)[:, None], np.maximum(t_hi - t_lo, 0.0), dead
    # rigorous l2 bound: orthonormal kernel columns give
    # ||t||^2 = sum_j (K_j . t)^2 <= sum_j r_j^2 (unused for kdim 0, whose
    # base has no columns)
    r = np.maximum(np.abs(lows - Y0), np.abs(highs - Y0))
    return np.zeros((len(Y0), K.shape[1])), np.sqrt(np.sum(r * r, axis=1)), np.zeros(len(Y0), dtype=bool)


def _kernel_offsets(T: np.ndarray, K: np.ndarray, spans):
    """Factor slices of K t for samples T of shape (..., kdim), one at a time.
    A line is a broadcast product, the fastest form; otherwise one matmul
    serves every factor, since a matmul on a one-column slice of K takes
    BLAS's matrix-vector path and rounds differently."""
    if K.shape[1] == 1:
        return (T * K[a:b, 0] for a, b in spans)
    KT = T @ K.T
    return (KT[..., a:b] for a, b in spans)


def sup_convolution(
    datum: BLDatum,
    fs,
    resolution: int = 401,
    box: float = DEFAULT_BOX,
) -> GridFunction:
    """Smallest envelope f with prod_i f_i(x_i)^{c_i} <= f(sum_i c_i B_i^T x_i),
    evaluated by brute force on a grid over [-box, box]^n.

    The decompositions of a grid point x are Y0 + K t, with Y0 = pinv(L) x
    the min-norm preimage under L = [c_i B_i^T] and K an orthonormal basis
    of ker L, whose dimension sum_i n_i - n is at most MAX_KERNEL_DIM. One
    loop serves every kernel dimension; only the window on t differs:

    0  no window: the decomposition Y0 is unique
    1  the exact segment of the line inside the factor boxes, sampled at
       resolution points (zero when the segment is empty)
    2  the disc whose radius bounds every feasible t, sampled on a
       resolution^2 grid over its bounding square
    """
    fs = _check_functions(datum, fs)
    active = datum.active_indices()
    cs = [datum.factors[i].c for i in active]
    dims = [datum.factors[i].target_dim for i in active]
    kdim = sum(dims) - datum.n
    if kdim > MAX_KERNEL_DIM:
        raise ValueError(f"decomposition kernel has dimension {kdim} > {MAX_KERNEL_DIM}")
    L, K = decomposition_map(datum)
    W = np.linalg.pinv(L)

    interps = [gf.interpolator() for gf in fs]
    lows = np.concatenate([gf.lo for gf in fs])
    highs = np.concatenate([gf.hi for gf in fs])
    offsets = np.cumsum([0] + dims)
    spans = list(zip(offsets[:-1], offsets[1:]))

    lo, hi = np.full(datum.n, -box), np.full(datum.n, box)
    _, pts = _tensor_grid(lo, hi, resolution)
    flat = pts.reshape(-1, datum.n)
    out = np.zeros(flat.shape[0])

    base = _sample_base(kdim, resolution)
    chunk = max(1, _SUPCONV_CHUNK // len(base))
    for start in range(0, flat.shape[0], chunk):
        Y0 = flat[start : start + chunk] @ W.T  # (chunk, sum n_i)
        centre, scale, dead = _window(Y0, K, lows, highs)
        T = centre[:, None, :] + scale[:, None, None] * base  # (chunk, samples, kdim)
        # a single-point segment lies on the boxes' boundary, which rounding
        # may cross: clamp it so the interpolators do not read it as outside
        point = (scale == 0.0) & ~dead
        # sum_i c_i log f_i over the samples, one factor's slice alive at once
        logs = None
        for (a, b), c, itp, t in zip(spans, cs, interps, _kernel_offsets(T, K, spans)):
            y = Y0[:, None, a:b] + t
            if point.any():
                y[point] = np.clip(y[point], lows[a:b], highs[a:b])
            vals = _log0(itp(y))
            vals *= c
            logs = vals if logs is None else np.add(logs, vals, out=logs)
        out[start : start + chunk] = np.where(dead, 0.0, np.exp(logs.max(axis=1)))

    return GridFunction(lo, hi, out.reshape(pts.shape[:-1]))


def reverse_integral_check(
    datum: BLDatum,
    fs,
    constant: float,
    resolution: int = 401,
    box: float = DEFAULT_BOX,
) -> float:
    """prod_i (integral f_i)^{c_i} divided by C * integral of the
    sup-convolution envelope. At most ~1 when C dominates the reversed
    inequality, 1 at the reversed extremizers up to quadrature error.
    All-zero input returns 0 by convention (with a warning)."""
    fs = _check_functions(datum, fs)
    _warn_truncation(fs)
    log_num = 0.0
    for i, gf in zip(datum.active_indices(), fs):
        total = integrate(gf)
        if total <= 0.0:
            warnings.warn("a factor integrates to zero; ratio reported as 0", stacklevel=2)
            return 0.0
        log_num += datum.factors[i].c * math.log(total)
    envelope = sup_convolution(datum, fs, resolution=resolution, box=box)
    total = integrate(envelope)
    if total <= 0.0:
        warnings.warn("the envelope integrates to zero; ratio reported as 0", stacklevel=2)
        return 0.0
    return math.exp(log_num) / (constant * total)
