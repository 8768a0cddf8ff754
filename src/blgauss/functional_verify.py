"""Low-dimensional quadrature checks of the actual integral inequalities.

The Gaussian checks exercise the determinant forms; this module goes back to
the integrals themselves on compact boxes, with functions sampled on
tensor grids. Ambient dimension is limited to 2 (check_quadrature, which also
says whether the reverse check applies): the point is an independent oracle
at desk scale, not a general integrator.

direct   integral of prod_i f_i(B_i x)^{c_i} over the ambient box, against
         C * prod_i (integral of f_i)^{c_i}
reversed prod_i (integral of f_i)^{c_i} against C * integral of f, where f
         is the smallest admissible envelope: the sup-convolution
         f(x) = sup { prod_i f_i(x_i)^{c_i} : sum_i c_i B_i^T x_i = x }.

Each f_i is a GridFunction, built by GridFunction.from_callable: the
callable it was sampled from, which both checks read at every sample
through one reader (_add_log), f_i clipped at 0 (a NaN reads 0) and 0
outside its box; and its values on its own grid, which give the trapezoid
rule for its integral and the boundary-decay warning. The envelope the
sup-convolution returns is an array of its values on its own grid. The
checks call each f_i from up to W worker threads on chunks of shape
(samples, dim), so f_i must be vectorized and hold no shared mutable state.

Both checks add c_i log f_i over their samples in place (_add_log), in
chunks of _SUPCONV_CHUNK samples, and each chunk allocates its own arrays.
Work arrays that each thread allocated once and reused were no faster: on
a 2-core x86-64 host, allocating per chunk cut the `functional` benchmark's
wall time by about 4 % and its median op time by about 8 %, for about 2.4
MiB (3 %) more peak RSS. That holds only once glibc's mmap threshold has
risen, as it does when a larger mmapped block is freed (the direct check's
integrand at 801 points, 5 MB, say). Before that, each chunk's 512 KiB
arrays are mmapped and faulted in afresh: on that host a reverse check at
201 points, first in a fresh process, took about 130,000 minor page faults
and 0.42 s per call, against 0.22 s after a direct check had run.

Both checks run their chunks on one worker per CPU this process may run on
(_in_workers): the calling thread takes chunks 0, W, 2W, ..., and W - 1
threads, each in a copy of the caller's context (so its np.errstate holds
there too), take the rest. Each chunk writes only its own slice of the
envelope or of the direct check's integrand, and every sample goes through
the same operations in the same order, so both checks give the same bits
whatever W is. The first exception in a worker stops the others and is
re-raised in the caller. The direct check reads each chunk's grid points off
the axis by flat index instead of holding the whole grid.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .datum import BLDatum
from .quadform import decomposition_map
from .report import MAX_ELEMENTS, check_constant, check_count

DEFAULT_BOX = 8.0
DECAY_WARN = 1e-6
# largest decomposition-kernel dimension sup_convolution samples
MAX_KERNEL_DIM = 2
# samples per chunk of the quadrature loops (a sup-convolution grid point
# takes one, resolution or resolution^2 by kernel dimension): 512 KiB per
# array of floats. A chunk's working arrays outgrow a 2 MiB per-core L2
# cache, but a smaller chunk pays numpy's per-call cost more often: at
# 16,384 samples two workers ran the sup-convolution slower than one
_SUPCONV_CHUNK = 65_536


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Non-negative function f sampled on a uniform tensor grid over the box
    [lo, hi], with its values at the grid points; build one with from_callable."""

    lo: np.ndarray
    hi: np.ndarray
    values: np.ndarray
    f: object = field(repr=False)

    def __post_init__(self):
        lo, hi = _bounds(self.lo, self.hi)
        values = np.asarray(self.values, dtype=float)
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
        """Sample f on a uniform grid, and keep f: f takes an array of shape
        (..., dim) and returns (...).

        The integral checks read f itself between the nodes, from up to W
        worker threads (one per CPU this process may run on) on chunks of
        shape (samples, dim), so f must be vectorized and hold no shared
        mutable state. They read 0 outside the box and clip f at 0.

        points is an integer of at least 2, and the grid's dim * points^dim
        coordinates must fit MAX_ELEMENTS; ValueError otherwise, before the
        grid is allocated."""
        lo, hi = _bounds(lo, hi)
        check_count("points", points, 2)
        if (elements := lo.size * int(points) ** lo.size) > MAX_ELEMENTS:
            raise ValueError(f"{lo.size} * points^{lo.size} = {elements} exceeds the budget {MAX_ELEMENTS}")
        _, pts = _tensor_grid(lo, hi, points)
        return cls(lo, hi, np.asarray(f(pts), dtype=float), f)

    def max_boundary_value(self) -> float:
        """The largest value on the two end faces of every axis."""
        v = self.values
        return float(max(max(v.take(0, d).max(), v.take(-1, d).max()) for d in range(self.dim)))


def _bounds(lo, hi):
    """lo and hi as float vectors, refused unless they bound a finite box of positive extent."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
        raise ValueError("lo/hi must be non-empty vectors of one length")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError(f"box bounds must be finite, got lo={lo.tolist()} hi={hi.tolist()}")
    if np.any(hi <= lo):
        raise ValueError("box must have positive extent on every axis")
    return lo, hi


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
        # term by term: einsum sums a 2-D form in an order that depends on
        # how many points share the call, and the checks call f on chunks. A
        # form past the float range is +inf, and its value, 0, is then exact
        with np.errstate(over="ignore"):
            terms = (diff[..., i] * P[i, j] * diff[..., j] for i in range(d) for j in range(d))
            q = next(terms)
            for t in terms:
                q += t
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
    active = datum.active
    fs = list(fs)
    if len(fs) != len(active):
        raise ValueError(f"expected {len(active)} grid functions, got {len(fs)}")
    for i, gf in zip(active, fs):
        want = datum.factors[i].target_dim
        if gf.dim != want:
            raise ValueError(f"function for factor {i} has dim {gf.dim}, expected {want}")
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


def check_grid(box: float, resolution: int) -> None:
    """ValueError unless the box half-width is finite and positive and the
    resolution an integer of at least 2 points per axis whose largest array,
    4 * resolution^2 floats (the sup-convolution's preimages or samples of a
    plane, in at most 4 factor coordinates), fits MAX_ELEMENTS."""
    if not (math.isfinite(box) and box > 0.0):
        raise ValueError(f"box must be finite and positive, got {box}")
    check_count("resolution", resolution, 2)
    if (elements := 4 * int(resolution) ** 2) > MAX_ELEMENTS:
        raise ValueError(f"4 * resolution^2 = {elements} exceeds the budget {MAX_ELEMENTS}")


def check_quadrature(datum: BLDatum, box: float, resolution: int) -> str | None:
    """ValueError unless the datum is on R^1 or R^2, check_grid passes and
    the grid volume (2 * box)^n is within the float range; then None when
    the reverse check applies, else why not: its kernel, sum_i n_i - n over
    the non-zero factors, is above MAX_KERNEL_DIM."""
    if datum.n > 2:
        raise ValueError("quadrature checks support ambient dimension 1 and 2 only")
    check_grid(box, resolution)
    if datum.n * math.log2(2.0 * box) >= 1024.0:
        raise ValueError(f"box = {box} puts the grid volume (2 * box)^{datum.n} past the float range")
    kdim = sum(datum.factors[i].target_dim for i in datum.active) - datum.n
    return None if kdim <= MAX_KERNEL_DIM else f"decomposition kernel has dimension {kdim} > {MAX_KERNEL_DIM}"


def _log_masses(datum: BLDatum, fs, log_sum: float) -> float | None:
    """log_sum + sum_i c_i log(integral f_i), added in factor order; None,
    with a warning, when some f_i integrates to zero."""
    for i, gf in zip(datum.active, fs):
        total = integrate(gf)
        if total <= 0.0:
            warnings.warn("a factor integrates to zero; ratio reported as 0", stacklevel=3)
            return None
        log_sum += datum.factors[i].c * math.log(total)
    return log_sum


def _add_log(acc: np.ndarray, gf: GridFunction, coords, c: float) -> None:
    """acc += c * log f(y) in place, f the callable gf was sampled from, y
    the points whose coordinates along each axis are the arrays coords,
    shaped like acc. f is clipped at 0 (a NaN reads 0) and reads 0 outside
    gf's box; log 0 = -inf."""
    pts = coords[0][..., None] if gf.dim == 1 else np.stack(coords, axis=-1)
    v = np.fmax(gf.f(pts), 0.0)
    for y, lo, hi in zip(coords, gf.lo, gf.hi):
        np.copyto(v, 0.0, where=(y < lo) | (y > hi))
    with np.errstate(divide="ignore"):
        np.log(v, out=v)
    v *= c
    acc += v


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
    check_constant(constant)
    check_quadrature(datum, box, resolution)
    fs = _check_functions(datum, fs)
    _warn_truncation(fs)
    log_rhs = _log_masses(datum, fs, math.log(constant))
    if log_rhs is None:
        return 0.0
    axis = np.linspace(-box, box, resolution)
    shape = (resolution,) * datum.n
    size = math.prod(shape)
    factors = [(datum.factors[i], gf) for i, gf in zip(datum.active, fs)]
    chunk = min(size, _SUPCONV_CHUNK)
    log_prod = np.zeros(size)

    def run(task: int) -> None:
        start = task * chunk
        acc = log_prod[start : start + chunk]
        # the grid points of this chunk, read off the axis by flat index
        pts = axis[np.stack(np.unravel_index(np.arange(start, start + len(acc)), shape), axis=1)]
        for f, gf in factors:
            _add_log(acc, gf, list((pts @ f.B.T).T), f.c)

    _in_workers(-(-size // chunk), run)
    lhs = _trapezoid_nd(np.exp(log_prod, out=log_prod).reshape(shape), [axis] * datum.n)
    return lhs / math.exp(log_rhs)


def _sample_base(kdim: int, resolution: int) -> np.ndarray:
    """Fixed (samples, kdim) pattern that every window scales: one point for
    a unique decomposition, resolution points on [-1/2, 1/2] for a line, a
    resolution^2 grid on [-1, 1]^2 for a plane."""
    if kdim == 0:
        return np.zeros((1, 0))
    if kdim == 1:
        return np.linspace(-0.5, 0.5, resolution)[:, None]
    return _tensor_grid([-1.0] * 2, [1.0] * 2, resolution)[1].reshape(-1, 2)


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


def _decompositions(y0: np.ndarray, T: np.ndarray, K: np.ndarray):
    """The decompositions y0 + K t of samples T (live, samples, kdim) at the
    preimages y0 (live, sum n_i): one (live, samples) array per factor
    coordinate. A line is a broadcast product per coordinate, the fastest
    form; otherwise one matmul serves every coordinate, since a matmul on
    one column of K takes BLAS's matrix-vector path and rounds differently."""
    if T.shape[2] == 1:
        Y = [k * T[..., 0] for k in K[:, 0]]
        for y, y0j in zip(Y, y0.T):
            y += y0j[:, None]
        return Y
    P = T @ K.T
    P += y0[:, None, :]
    return [P[..., j] for j in range(len(K))]


def _worker_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_workers(tasks: int, run) -> None:
    """run(task) for each task in range(tasks) on W = min(CPUs this process
    may run on, tasks) workers: worker w takes tasks w, w + W, w + 2W and so
    on. Worker 0 is the calling thread; the others are threads, each in a
    copy of the caller's context. The first exception stops every worker
    before its next task and is re-raised here once all have ended."""
    workers, errors = min(_worker_count(), tasks), []

    def worker(w: int) -> None:
        try:
            for task in range(w, tasks, workers):
                if errors:
                    return
                run(task)
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(worker, w))
        for w in range(1, workers)
    ]
    for t in threads:
        t.start()
    worker(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def sup_convolution(
    datum: BLDatum,
    fs,
    resolution: int = 401,
    box: float = DEFAULT_BOX,
) -> np.ndarray:
    """Smallest envelope f with prod_i f_i(x_i)^{c_i} <= f(sum_i c_i B_i^T x_i),
    by brute force: its values on the (resolution,) * n grid over [-box, box]^n.

    The decompositions of a grid point x are Y0 + K t, with Y0 = pinv(L) x
    the min-norm preimage under L = [c_i B_i^T] and K an orthonormal basis
    of ker L, whose dimension sum_i n_i - n is at most MAX_KERNEL_DIM. One
    loop serves every kernel dimension; only the window on t differs:

    0  no window: the decomposition Y0 is unique
    1  the exact segment of the line inside the factor boxes, sampled at
       resolution points (zero when the segment is empty)
    2  the disc whose radius bounds every feasible t, sampled on a
       resolution^2 grid over its bounding square

    The functions are read at no dead point (one without a decomposition
    inside the boxes, whose envelope is 0) and, for a plane, at no sample
    outside the boxes. The chunks of grid points run on one worker per CPU
    this process may run on; the envelope does not depend on how many.
    """
    if (refusal := check_quadrature(datum, box, resolution)) is not None:
        raise ValueError(refusal)
    fs = _check_functions(datum, fs)
    cs = [datum.factors[i].c for i in datum.active]
    L, K = decomposition_map(datum)
    kdim = K.shape[1]

    lows = np.concatenate([gf.lo for gf in fs])
    highs = np.concatenate([gf.hi for gf in fs])
    offsets = np.cumsum([0] + [gf.dim for gf in fs])  # each n_i, as _check_functions holds
    spans = list(zip(offsets[:-1], offsets[1:]))

    _, pts = _tensor_grid([-box] * datum.n, [box] * datum.n, resolution)
    # one product for the whole grid, so that no preimage depends on the
    # chunk it falls in
    Y0 = pts.reshape(-1, datum.n) @ np.linalg.pinv(L).T  # (points, sum n_i)
    out = np.zeros(len(Y0))

    base = _sample_base(kdim, resolution)
    chunk = max(1, _SUPCONV_CHUNK // len(base))

    def run(task: int) -> None:
        start = task * chunk
        window = Y0[start : start + chunk]
        centre, scale, dead = _window(window, K, lows, highs)
        # a dead point has no decomposition inside the boxes and stays 0
        live = np.flatnonzero(~dead)
        if not len(live):
            return
        centre, scale = centre[live], scale[live]
        T = scale[:, None, None] * base
        T += centre[:, None, :]
        Y = _decompositions(window[live], T, K)
        # a single-point segment lies on the boxes' boundary, which rounding
        # may cross: clamp it so that the functions are read inside their boxes
        point = scale == 0.0
        if point.any():
            for y, a, b in zip(Y, lows, highs):
                y[point] = np.clip(y[point], a, b)
        if kdim == 2:
            # the disc's square is mostly outside the boxes: read only the
            # samples inside every box, the rest keep log 0 = -inf. A
            # line's segment and a unique decomposition are feasible already.
            inside = np.ones(T.shape[:2], dtype=bool)
            for y, a, b in zip(Y, lows, highs):
                inside &= y >= a
                inside &= y <= b
            Y = [y[inside] for y in Y]
        # sum_i c_i log f_i over the samples, one factor at a time
        logs = np.zeros(Y[0].shape)
        for (a, b), c, gf in zip(spans, cs, fs):
            _add_log(logs, gf, Y[a:b], c)
        if kdim == 2:
            logs, kept = np.full(T.shape[:2], -np.inf), logs
            logs[inside] = kept
        peaks = logs.reshape(len(live), len(base)).max(axis=1)
        out[start + live] = np.exp(peaks, out=peaks)

    _in_workers(-(-len(Y0) // chunk), run)
    return out.reshape(pts.shape[:-1])


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
    check_constant(constant)
    fs = list(fs)
    envelope = sup_convolution(datum, fs, resolution=resolution, box=box)
    _warn_truncation(fs)
    log_num = _log_masses(datum, fs, 0.0)
    if log_num is None:
        return 0.0
    total = _trapezoid_nd(envelope, [np.linspace(-box, box, resolution)] * datum.n)
    if total <= 0.0:
        warnings.warn("the envelope integrates to zero; ratio reported as 0", stacklevel=2)
        return 0.0
    return math.exp(log_num) / (constant * total)
