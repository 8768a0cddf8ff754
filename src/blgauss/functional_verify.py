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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline, RectBivariateSpline

from .datum import BLDatum
from .quadform import harmonic_combine

DEFAULT_BOX = 8.0
DECAY_WARN = 1e-6
# decomposition points per sup-convolution chunk (resolution points per grid
# point when the kernel is a line): ~2 MB per factor coordinate
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


def sup_convolution(
    datum: BLDatum,
    fs,
    resolution: int = 401,
    box: float = DEFAULT_BOX,
    tuple_=None,
) -> GridFunction:
    """Smallest envelope f with prod_i f_i(x_i)^{c_i} <= f(sum_i c_i B_i^T x_i),
    evaluated by brute force on a grid over [-box, box]^n.

    For each grid point x the decompositions form an affine set: a particular
    preimage plus the kernel of the stacked adjoint. The kernel has dimension
    sum_i n_i - n, limited here to 2. The particular preimage is the
    pseudo-inverse solution, or the quadratic-form minimizer when a Gaussian
    tuple is passed (sharper centering when the f_i are near Gaussians).
    """
    fs = _check_functions(datum, fs)
    active = datum.active_indices()
    cs = [datum.factors[i].c for i in active]
    L = np.hstack([datum.factors[i].c * datum.factors[i].B.T for i in active])
    dims = [datum.factors[i].target_dim for i in active]
    total_dim = sum(dims)
    kdim = total_dim - datum.n
    if kdim > 2:
        raise ValueError(f"decomposition kernel has dimension {kdim} > 2")

    _, s, Vt = np.linalg.svd(L)
    if s.size < datum.n or s[-1] <= 1e-12 * s[0]:
        raise ValueError("degenerate datum: the constraint map is not onto")
    kernel = Vt[datum.n :].T  # (total_dim, kdim), orthonormal columns

    if tuple_ is None:
        W = np.linalg.pinv(L)  # min-norm particular preimage
    else:
        A_h = harmonic_combine(datum, tuple_)
        blocks = []
        for i, Ai in zip(active, tuple_):
            f = datum.factors[i]
            blocks.append(np.linalg.solve(Ai, f.B @ A_h))
        W = np.vstack(blocks)

    interps = [gf.interpolator() for gf in fs]
    lows = np.concatenate([np.asarray(gf.lo) for gf in fs])
    highs = np.concatenate([np.asarray(gf.hi) for gf in fs])
    offsets = np.cumsum([0] + dims)

    lo, hi = np.full(datum.n, -box), np.full(datum.n, box)
    _, pts = _tensor_grid(lo, hi, resolution)
    flat = pts.reshape(-1, datum.n)
    out = np.zeros(flat.shape[0])

    spans = list(zip(offsets[:-1], offsets[1:]))

    def log_product(parts):
        """Per-factor slices y_i of shape (..., n_i) -> sum_i c_i log f_i(y_i).

        parts may be a generator, so only one factor's slice is alive at once."""
        acc = None
        for c, itp, y in zip(cs, interps, parts):
            vals = _log0(itp(y))
            vals *= c
            acc = vals if acc is None else np.add(acc, vals, out=acc)
        return acc

    def split(y):
        return [y[..., a:b] for a, b in spans]

    chunk = max(1, _SUPCONV_CHUNK // max(resolution, 1) if kdim >= 1 else flat.shape[0])
    for start in range(0, flat.shape[0], chunk):
        X = flat[start : start + chunk]
        Y0 = X @ W.T  # (chunk, total_dim)
        if kdim == 0:
            out[start : start + chunk] = np.exp(log_product(split(Y0)))
            continue
        if kdim == 1:
            k1 = kernel[:, 0]
            t_lo = np.full(X.shape[0], -np.inf)
            t_hi = np.full(X.shape[0], np.inf)
            dead = np.zeros(X.shape[0], dtype=bool)
            for j in range(total_dim):
                if abs(k1[j]) > 1e-12:
                    a = (lows[j] - Y0[:, j]) / k1[j]
                    b = (highs[j] - Y0[:, j]) / k1[j]
                    t_lo = np.maximum(t_lo, np.minimum(a, b))
                    t_hi = np.minimum(t_hi, np.maximum(a, b))
                else:
                    dead |= (Y0[:, j] < lows[j]) | (Y0[:, j] > highs[j])
            width = np.where(t_hi > t_lo, t_hi - t_lo, 0.0)
            mid = 0.5 * (t_lo + t_hi)
            base = np.linspace(-0.5, 0.5, resolution)
            T = mid[:, None] + width[:, None] * base[None, :]
            # factor i's points on the segment Y0 + t k1, built one factor at a time
            logs = log_product(Y0[:, None, a:b] + T[:, :, None] * k1[a:b] for a, b in spans)
            vals = np.exp(logs.max(axis=1))
            vals[dead | (width == 0.0)] = 0.0
            # the window can degenerate to a point that is still feasible
            point = (~dead) & (t_hi >= t_lo) & (width == 0.0)
            if np.any(point):
                Yp = Y0[point] + mid[point, None] * k1[None, :]
                vals[point] = np.exp(log_product(split(Yp)))
            out[start : start + chunk] = vals
        else:
            # rigorous l2 bound: orthonormal kernel columns give
            # ||t||^2 = sum_j (K_j . t)^2 <= sum_j r_j^2
            r = np.maximum(np.abs(lows - Y0), np.abs(highs - Y0))
            w = np.sqrt(np.sum(r * r, axis=1))
            base = np.linspace(-1.0, 1.0, resolution)
            vals = np.zeros(X.shape[0])
            for idx in range(X.shape[0]):
                t0 = w[idx] * base
                T0, T1 = np.meshgrid(t0, t0, indexing="ij")
                T = np.stack([T0.ravel(), T1.ravel()], axis=-1)
                Y = Y0[idx][None, :] + T @ kernel.T
                vals[idx] = np.exp(log_product(split(Y)).max())
            out[start : start + chunk] = vals

    return GridFunction(lo, hi, out.reshape(pts.shape[:-1]))


def reverse_integral_check(
    datum: BLDatum,
    fs,
    constant: float,
    resolution: int = 401,
    box: float = DEFAULT_BOX,
    tuple_=None,
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
    envelope = sup_convolution(datum, fs, resolution=resolution, box=box, tuple_=tuple_)
    total = integrate(envelope)
    if total <= 0.0:
        warnings.warn("the envelope integrates to zero; ratio reported as 0", stacklevel=2)
        return 0.0
    return math.exp(log_num) / (constant * total)
