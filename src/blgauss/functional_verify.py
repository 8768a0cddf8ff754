"""Low-dimensional quadrature checks of the actual integral inequalities.

The Gaussian checks exercise the determinant forms; this module goes back to
the integrals themselves on compact boxes, with functions sampled on tensor
grids, as an independent oracle at desk scale, not a general integrator.
One rule (_refusal, read by check_quadrature) says what a grid can read:
ambient dimension 1 or 2, a grid within the element budget and the float
range, and for the reverse check a decomposition kernel of dimension at most
MAX_KERNEL_DIM whose windows stay within the float range.

direct   integral of prod_i f_i(B_i x)^{c_i} over the ambient box, against
         C * prod_i (integral of f_i)^{c_i}
reversed prod_i (integral of f_i)^{c_i} against C * integral of f, where f
         is the smallest admissible envelope: the sup-convolution
         f(x) = sup { prod_i f_i(x_i)^{c_i} : sum_i c_i B_i^T x_i = x }.

Each f_i is a GridFunction: the callable it was sampled from, which both
checks read at every sample through one reader (_add_log), clipped at 0 (a
NaN reads 0) and 0 outside its box; and its values on its own grid, which
give the trapezoid rule for its integral and the boundary-decay warning
(_log_masses). A check whose grid sees none of an input's mass, or of the
envelope's, has nothing to compare and raises ValueError. The checks call
each f_i from up to W worker threads on chunks of shape (samples, dim), so
f_i must be vectorized and hold no shared mutable state.

Both checks add c_i log f_i over their samples in place, in chunks of about
_SUPCONV_CHUNK samples, and each chunk allocates its own arrays. A chunk of
the direct check is a block of whole grid lines along the last axis, whose
points it builds off the axis instead of holding the whole grid. A factor
whose map reads one axis only has its f_i read once, on that axis, and the
table added to every line in factor order, so each grid point gets the same
floats as if f_i were read there.

Work arrays that each thread allocated once and reused were no faster than
per-chunk ones once glibc's mmap threshold has risen, which it does when a
larger mmapped block is freed. The direct check's integrand is such a block:
it stays one full-grid array that the final trapezoid rule reads, although
each worker could integrate its own lines, because freeing it is what keeps
a later check's chunks from being mmapped and faulted in afresh.

Both checks run their chunks on one worker per CPU this process may run on
(_in_workers): the calling thread takes chunks 0, W, 2W, ..., and W - 1
threads, each in a copy of the caller's context (so its np.errstate holds
there too), take the rest. Each chunk writes only its own slice of the
envelope or of the integrand, and every sample goes through the same
operations in the same order, so both checks give the same bits whatever W
is. The first exception in a worker stops the others and is re-raised in
the caller.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .datum import BLDatum, check_count
from .quadform import decomposition_map
from .report import MAX_ELEMENTS, check_constant

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
    """Non-negative function f sampled on a uniform tensor grid of `points`
    per axis over the box [lo, hi], with its values there. f takes an array
    of shape (..., dim) and returns (...); the integral checks call it from
    worker threads (see the module docstring), so it must be vectorized and
    hold no shared mutable state. ValueError before the grid is allocated
    unless points is an integer of at least 2 and the grid's dim * points^dim
    coordinates fit MAX_ELEMENTS; then unless f returns one finite,
    non-negative value per grid point."""

    f: object = field(repr=False)
    lo: np.ndarray
    hi: np.ndarray
    points: InitVar[int]
    values: np.ndarray = field(init=False)

    def __post_init__(self, points):
        lo, hi = _bounds(self.lo, self.hi)
        check_count("points", points, 2)
        if (elements := lo.size * int(points) ** lo.size) > MAX_ELEMENTS:
            raise ValueError(f"{lo.size} * points^{lo.size} = {elements} exceeds the budget {MAX_ELEMENTS}")
        _, pts = _tensor_grid(lo, hi, points)
        values = np.asarray(self.f(pts), dtype=float)
        if values.shape != pts.shape[:-1]:
            raise ValueError(f"f must return one value per grid point, shape {pts.shape[:-1]}, got {values.shape}")
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
        return [np.linspace(a, b, k) for a, b, k in zip(self.lo, self.hi, self.values.shape)]

    @classmethod
    def from_callable(cls, f, lo, hi, points: int) -> "GridFunction":
        """GridFunction(f, lo, hi, points): sample f on the grid, and keep f."""
        return cls(f, lo, hi, points)

    def max_boundary_value(self) -> float:
        """The largest value on the two end faces of every axis."""
        v = self.values
        return float(max(max(v.take(0, d).max(), v.take(-1, d).max()) for d in range(self.dim)))


def _bounds(lo, hi):
    """lo and hi as float vectors, refused unless they bound a box of finite, positive extent."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
        raise ValueError("lo/hi must be non-empty vectors of one length")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError(f"box bounds must be finite, got lo={lo.tolist()} hi={hi.tolist()}")
    if np.any(hi <= lo):
        raise ValueError("box must have positive extent on every axis")
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(hi - lo)):
            raise ValueError(f"box extent hi - lo must be finite, got lo={lo.tolist()} hi={hi.tolist()}")
    return lo, hi


def integrate(gf: GridFunction) -> float:
    """Tensor-product trapezoid rule on the function's own grid."""
    return _trapezoid_nd(gf.values, gf.axes())


# -- built-in function families -------------------------------------------------

def gaussian_function(precision, center=None):
    """x -> exp(-(x-c)^T P (x-c) / 2), peak value 1."""
    P = np.atleast_2d(np.asarray(precision, dtype=float))
    d = P.shape[0]
    # x - 0 is x, so a zero centre is not subtracted
    c = None if center is None or not np.any(center) else np.asarray(center, dtype=float)

    def f(pts):
        diff = np.asarray(pts, dtype=float) if c is None else np.asarray(pts) - c
        # term by term, (diff_i P_ij) diff_j added in order: einsum sums a 2-D
        # form in an order that depends on how many points share the call,
        # and the checks call f on chunks. A form past the float range is
        # +inf, and its value, 0, is then exact
        with np.errstate(over="ignore"):
            q = np.multiply(diff[..., 0], P[0, 0], out=np.empty(diff.shape[:-1]))
            q *= diff[..., 0]
            t = np.empty_like(q) if d > 1 else None
            for i in range(d):
                for j in range(d):
                    if i or j:
                        np.multiply(diff[..., i], P[i, j], out=t)
                        t *= diff[..., j]
                        q += t
            q *= -0.5
        return np.exp(q, out=q)

    return f


def bump_function(radius=1.0, center=None):
    """Smooth compactly supported mollifier of a finite, positive radius, peak value 1 at the center."""
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be finite and positive, got {radius}")

    def f(pts):
        pts = np.asarray(pts)
        c = np.zeros(pts.shape[-1]) if center is None else np.asarray(center, dtype=float)
        # a point past the float range has r2 = +inf, outside the support
        with np.errstate(over="ignore"):
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


def _tensor_grid(lo, hi, points: int):
    """Axes and (..., dim) points of the uniform tensor grid on the box [lo, hi]."""
    axes = [np.linspace(a, b, points) for a, b in zip(lo, hi)]
    return axes, np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def check_quadrature(datum: BLDatum, box: float, resolution: int) -> str | None:
    """_refusal for the factor boxes [-box, box]^{n_i} that check-quadrature
    builds: ValueError when no check can read the grid; then None when the
    reverse check applies, else why not."""
    return _refusal(datum, box, resolution, box)


def _refusal(datum: BLDatum, box: float, resolution: int, reach: float) -> str | None:
    """The one rule for what a quadrature grid over [-box, box]^n can read,
    every factor box lying in [-reach, reach] (reach >= box).

    ValueError unless the datum is on R^1 or R^2, box is finite and
    positive, resolution is an integer of at least 2 whose largest array,
    4 * resolution^2 floats (the sup-convolution's preimages or samples of a
    plane, in at most 4 factor coordinates), fits MAX_ELEMENTS, and the grid
    volume (2 * box)^n is within the float range. Then None when the reverse
    check applies, else why not: the decomposition kernel, of dimension
    sum_i n_i - n over the non-zero factors, is above MAX_KERNEL_DIM, or
    reach is above _window_limit. A kernel of dimension 0 takes no window,
    and a degenerate datum is left to decomposition_map to refuse."""
    if datum.n > 2:
        raise ValueError("quadrature checks support ambient dimension 1 and 2 only")
    if not (math.isfinite(box) and box > 0.0):
        raise ValueError(f"box must be finite and positive, got {box}")
    check_count("resolution", resolution, 2)
    if (elements := 4 * int(resolution) ** 2) > MAX_ELEMENTS:
        raise ValueError(f"4 * resolution^2 = {elements} exceeds the budget {MAX_ELEMENTS}")
    if datum.n * math.log2(2.0 * box) >= 1024.0:
        raise ValueError(f"box = {box} puts the grid volume (2 * box)^{datum.n} past the float range")
    kdim = sum(datum.factors[i].target_dim for i in datum.active) - datum.n
    if kdim > MAX_KERNEL_DIM:
        return f"decomposition kernel has dimension {kdim} > {MAX_KERNEL_DIM}"
    if datum.degenerate or not kdim:
        return None
    L, K = decomposition_map(datum)
    if reach <= (limit := _window_limit(np.linalg.pinv(L), K)):
        return None
    what = f"box = {box} is" if reach == box else f"factor boxes reaching {reach:.6g} are"
    return f"{what} above {limit:.6g}, past which the decomposition windows leave the float range"


def _window_limit(pinv_L: np.ndarray, K: np.ndarray) -> float:
    """The largest reach u for which the decomposition windows (_window)
    stay within the float range at kernel dimension 1 or 2, the grid box
    [-box, box]^n and every factor box lying in [-u, u] (box <= u); pinv_L
    is pinv(L) and K the kernel basis of decomposition_map.

    On the grid, |Y0_j| <= box p_j <= u p_j with p_j = ||pinv(L)_j||_1,
    attained at a corner. A plane takes r_j <= u + |Y0_j| <= u (1 + p_j),
    so sum_j r_j^2 is finite while u^2 sum_j (1 + p_j)^2 is, and its
    square root bounds every sample. A line with direction k takes a and b
    of at most A = u max_j (1 + p_j) / |k_j| over the moving coordinates
    (|k_j| > 1e-12, as _window); t_lo and t_hi are among them, so their sum
    and difference are at most 2A, and a live point's samples lie in the
    factor boxes. The float maximum is cut by 1e-12 relative for the
    rounding of the few operations that form each value."""
    p = np.abs(pinv_L).sum(axis=1)
    top = np.finfo(float).max * (1.0 - 1e-12)
    if K.shape[1] == 1:
        k = np.abs(K[:, 0])
        on = k > 1e-12
        return top / (2.0 * np.max((1.0 + p[on]) / k[on]))
    return math.sqrt(top / np.sum((1.0 + p) ** 2))


def _log_masses(datum: BLDatum, fs, log_sum: float) -> float:
    """log_sum + sum_i c_i log(integral f_i), added in factor order, with a
    warning for each f_i that has not decayed at its box boundary;
    ValueError when some f_i integrates to zero on its own grid."""
    for k, (i, gf) in enumerate(zip(datum.active, fs)):
        peak = gf.values.max()
        if peak > 0.0 and gf.max_boundary_value() > DECAY_WARN * peak:
            warnings.warn(f"function {k} has not decayed at its box boundary; "
                          "the truncated integral may be unsound", stacklevel=3)
        if (total := integrate(gf)) <= 0.0:
            raise ValueError(f"function {k} integrates to zero on its grid of shape {gf.points_per_axis} "
                             f"over lo={gf.lo.tolist()} hi={gf.hi.tolist()}")
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
    at extremizers up to quadrature error. ValueError where _refusal or
    _log_masses refuses the grid or an f_i."""
    check_constant(constant)
    # its ValueErrors only: the direct check samples no decomposition
    _refusal(datum, box, resolution, box)
    fs = _check_functions(datum, fs)
    log_rhs = _log_masses(datum, fs, math.log(constant))
    n = datum.n
    axis = np.linspace(-box, box, resolution)
    # the integrand, one row per grid line along the last axis; each chunk
    # is a block of whole lines
    integrand = np.zeros((resolution ** (n - 1), resolution))
    lines = max(1, _SUPCONV_CHUNK // resolution)
    # per factor in order: c_i log f_i over the whole grid when its map has
    # a zero column (at n <= 2 it then reads one axis: f_i is read once, on
    # that axis, and the table broadcast along the other), else None
    terms = []
    for i, gf in zip(datum.active, fs):
        f = datum.factors[i]
        (reads,) = np.nonzero(np.any(f.B != 0.0, axis=0))
        whole = None
        if len(reads) < n:
            (a,) = reads
            table = np.zeros(resolution)
            _add_log(table, gf, list(f.B[:, [a]] * axis), f.c)
            whole = np.broadcast_to(table if a == n - 1 else table[:, None], integrand.shape)
        terms.append((f, gf, whole))

    def run(task: int) -> None:
        rows = slice(task * lines, (task + 1) * lines)
        acc = integrand[rows]
        pts = None
        for f, gf, whole in terms:
            if whole is not None:
                acc += whole[rows]
                continue
            if pts is None:
                # the grid points of these lines, read off the axis
                cols = [np.tile(axis, len(acc))]
                if n == 2:
                    cols.insert(0, np.repeat(axis[rows], resolution))
                pts = np.stack(cols, axis=1)
            _add_log(acc.reshape(-1), gf, list((pts @ f.B.T).T), f.c)
        np.exp(acc, out=acc)

    _in_workers(-(-len(integrand) // lines), run)
    lhs = _trapezoid_nd(integrand.reshape((resolution,) * n), [axis] * n)
    return _ratio(lhs, _exp(log_rhs), math.log(lhs) if lhs > 0.0 else -math.inf, log_rhs)


def _exp(x: float) -> float:
    """math.exp, +inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _ratio(num: float, den: float, log_num: float, log_den: float) -> float:
    """num / den while both are positive finite floats, else exp(log_num - log_den)."""
    if 0.0 < num < math.inf and 0.0 < den < math.inf:
        return num / den
    return _exp(log_num - log_den)


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
    centre, dead = np.zeros((len(Y0), K.shape[1])), np.zeros(len(Y0), dtype=bool)
    if K.shape[1] == 0:
        # the decomposition Y0 is unique: the base has no columns to scale
        return centre, np.ones(len(Y0)), dead
    # rigorous l2 bound: orthonormal kernel columns give
    # ||t||^2 = sum_j (K_j . t)^2 <= sum_j r_j^2
    r = np.maximum(np.abs(lows - Y0), np.abs(highs - Y0))
    return centre, np.sqrt(np.sum(r * r, axis=1)), dead


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

    ValueError where _refusal refuses the reverse check, read at the reach
    of the grid box and of every factor box together.
    """
    fs = _check_functions(datum, fs)
    lows = np.concatenate([gf.lo for gf in fs])
    highs = np.concatenate([gf.hi for gf in fs])
    reach = max(box, float(np.abs(lows).max()), float(np.abs(highs).max()))
    if (refusal := _refusal(datum, box, resolution, reach)) is not None:
        raise ValueError(refusal)
    cs = [datum.factors[i].c for i in datum.active]
    L, K = decomposition_map(datum)
    pinv_L = np.linalg.pinv(L)
    kdim = K.shape[1]
    offsets = np.cumsum([0] + [gf.dim for gf in fs])  # each n_i, as _check_functions holds
    spans = list(zip(offsets[:-1], offsets[1:]))

    _, pts = _tensor_grid([-box] * datum.n, [box] * datum.n, resolution)
    # one product for the whole grid, so that no preimage depends on the
    # chunk it falls in
    Y0 = pts.reshape(-1, datum.n) @ pinv_L.T  # (points, sum n_i)
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
    ValueError where sup_convolution or _log_masses refuses, or where the
    envelope integrates to zero on its grid."""
    check_constant(constant)
    fs = list(fs)
    envelope = sup_convolution(datum, fs, resolution=resolution, box=box)
    log_num = _log_masses(datum, fs, 0.0)
    total = _trapezoid_nd(envelope, [np.linspace(-box, box, resolution)] * datum.n)
    if total <= 0.0:
        raise ValueError(f"the envelope integrates to zero on its grid of shape {envelope.shape} "
                         f"over lo={[-box] * datum.n} hi={[box] * datum.n}")
    return _ratio(_exp(log_num), constant * total, log_num, math.log(constant) + math.log(total))
