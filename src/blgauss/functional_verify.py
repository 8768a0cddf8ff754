"""Low-dimensional quadrature checks of the actual integral inequalities.

The Gaussian checks exercise the determinant forms; this module goes back to
the integrals themselves on compact boxes, with functions sampled on tensor
grids, as an independent oracle at desk scale, not a general integrator.
One rule (_refusal, read by check_quadrature) says what a grid can read:
ambient dimension 1 or 2, a grid within the element budget and the float
range, and for the reverse check a decomposition kernel of dimension at most
MAX_KERNEL_DIM whose windows stay within the float range; past it, both
checks read any n and kernel dimension the same way.

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
each f_i on chunks of shape (samples, dim), so f_i must be vectorized.

Both checks add c_i log f_i over their samples in place, in chunks of about
_SUPCONV_CHUNK samples run one after another in the calling thread, each
with its own arrays. Every sample goes through the same operations in the
same order whatever the chunk size, so neither check's bits depend on it.
A chunk of the direct check is a block of whole grid lines along the last
axis, whose points lie in one buffer per call; a block writes only the axis
columns that differ from the block before. A factor whose map has a zero
column has its f_i read once, on the grid of the axes it reads, and the
table added to every line, with the floats a read at each grid point gives.
The sup-convolution forms a run of each row of a grid point's samples and
reads the runs end to end, with brute force's bits (sup_convolution).
Per-sample work runs along the samples, never across a short row: the best
of 4,096 blocks of 5 reads took 338 us as a row maximum, 20 us by columns.

The direct check's integrand is one full-grid array: freeing it raises
glibc's mmap threshold, so a later check's chunks are not mmapped and
faulted in afresh (per-chunk integrands cost a later 81-point check of
kernel dimension 2 about 6,000 page faults a call). Other work arrays kept
for reuse were no faster, save the point buffer, which saves writes.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .datum import BLDatum, check_count
from .report import MAX_ELEMENTS, check_constant

DEFAULT_BOX = 8.0
DECAY_WARN = 1e-6
# largest decomposition-kernel dimension sup_convolution samples
MAX_KERNEL_DIM = 2
# samples per chunk of the quadrature loops (a sup-convolution grid point
# takes up to resolution^k at kernel dimension k): 512 KiB per
# array of floats. A chunk's working arrays outgrow a 2 MiB per-core L2
# cache, but a smaller chunk pays numpy's per-call cost more often: in one
# thread, 16,384 samples ran the Young reverse check at 201 points slower
_SUPCONV_CHUNK = 65_536


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Non-negative function f sampled on a uniform tensor grid of `points`
    per axis over the box [lo, hi], with its values there. f takes an array
    of shape (..., dim) and returns (...); the integral checks call it on
    chunks of samples, so it must be vectorized. ValueError before the grid
    is allocated unless points is an integer of at least 2 and the grid's
    dim * points^dim coordinates fit MAX_ELEMENTS; then unless f returns
    one finite, non-negative value per grid point."""

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
    """x -> exp(-(x-c)^T P (x-c) / 2), peak value 1. ValueError unless the
    precision P is a finite square matrix and the centre c, when given, a
    finite vector of its dimension; and at points of another dimension
    than P's. The callable carries P and c (zero when none is given) as its
    `_gaussian` mark, which sup_convolution reads to choose the samples it
    reads (_line_model)."""
    P = np.array(precision, dtype=float, ndmin=2)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or not P.size or not np.all(np.isfinite(P)):
        raise ValueError(f"precision must be a finite square matrix, got {P.tolist()}")
    d = P.shape[0]
    mu = np.zeros(d) if center is None else np.array(center, dtype=float)
    if mu.shape != (d,) or not np.all(np.isfinite(mu)):
        raise ValueError(f"center must be a finite vector of dimension {d}, got {mu.tolist()}")
    # x - 0 is x, so a zero centre is not subtracted
    c = mu if np.any(mu) else None

    def form(diff):
        # term by term, (diff_i P_ij) diff_j added in order: einsum sums a 2-D
        # form in an order that depends on how many points share the call,
        # and the checks call f on chunks
        q = np.multiply(diff[..., 0], P[0, 0], out=np.empty(diff.shape[:-1]))
        q *= diff[..., 0]
        t = np.empty_like(q) if d > 1 else None
        for i in range(d):
            for j in range(d):
                if i or j:
                    np.multiply(diff[..., i], P[i, j], out=t)
                    t *= diff[..., j]
                    q += t
        return q

    def f(pts):
        pts = np.asarray(pts)
        _at_dim(mu, pts, "Gaussian")
        diff = np.asarray(pts, dtype=float) if c is None else pts - c
        # a form past the float range is +inf, and its value, 0, exact. Where
        # terms past it of opposite signs add to NaN, and only there, it is
        # read again at diff scaled by a power of two to below 1 and back
        with np.errstate(over="ignore", invalid="ignore"):
            q = form(diff)
            if (lost := np.isnan(q)).any():
                _, e = np.frexp(np.abs(diff[lost]).max(axis=-1))
                q[lost] = np.ldexp(form(np.ldexp(diff[lost], -e[:, None])), 2 * e)
            q *= -0.5
        return np.exp(q, out=q)

    # read-only, so that the mark stays the function
    P.setflags(write=False)
    mu.setflags(write=False)
    f._gaussian = (P, mu)
    return f


def bump_function(radius=1.0, center=None):
    """Smooth compactly supported mollifier of a finite, positive radius,
    peak value 1 at the center, a finite vector (the origin of the points'
    dimension when none is given). ValueError for a bad radius or center,
    and at points of another dimension than the center's."""
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    if center is not None:
        center = np.array(center, dtype=float)
        if center.ndim != 1 or not center.size or not np.all(np.isfinite(center)):
            raise ValueError(f"center must be a finite vector, got {center.tolist()}")

    def f(pts):
        pts = np.asarray(pts)
        c = np.zeros(pts.shape[-1]) if center is None else _at_dim(center, pts, "center")
        # a point past the float range has r2 = +inf, outside the support
        with np.errstate(over="ignore"):
            r2 = np.sum(((pts - c) / radius) ** 2, axis=-1)
        inside = r2 < 1.0
        safe = np.where(inside, r2, 0.0)
        return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - safe)), 0.0)

    return f


def box_function(lo, hi):
    """Indicator of the box [lo, hi] (per axis). ValueError where _bounds
    refuses the box, and at points of another dimension than the box's."""
    lo, hi = _bounds(lo, hi)

    def f(pts):
        pts = np.asarray(pts)
        inside = np.all((pts >= _at_dim(lo, pts, "box")) & (pts <= hi), axis=-1)
        return inside.astype(float)

    return f


def _at_dim(v: np.ndarray, pts: np.ndarray, what: str) -> np.ndarray:
    """v, refused unless the points (..., dim) have its dimension."""
    if pts.shape[-1:] != v.shape:
        raise ValueError(f"points of shape {pts.shape} for a {what} of dimension {len(v)}")
    return v


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
    and a degenerate datum is left to its decomposition to refuse."""
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
    if datum.degenerate or not kdim or reach <= (limit := _window_limit(*datum.decomposition)):
        return None
    what = f"box = {box} is" if reach == box else f"factor boxes reaching {reach:.6g} are"
    return f"{what} above {limit:.6g}, past which the decomposition windows leave the float range"


def _window_limit(pinv_L: np.ndarray, K: np.ndarray) -> float:
    """The largest reach u for which the decomposition windows (_window)
    stay within the float range at kernel dimension 1 or 2, the grid box
    [-box, box]^n and every factor box lying in [-u, u] (box <= u); pinv_L
    and K are the datum's decomposition (BLDatum.decomposition).

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
    # is a block of whole lines, integrated along them while it is in cache
    # (numpy sums each row of a block as it sums that row of the grid)
    integrand = np.zeros((resolution ** (n - 1), resolution))
    line_sums = np.empty(len(integrand))
    lines = min(max(1, _SUPCONV_CHUNK // resolution), len(integrand))
    # each line's indices along the first n - 1 axes
    places = _grid_indices(resolution, n - 1)
    # per factor, when its map has a zero column: c_i log f_i on the grid of
    # the axes it reads, a row per point of those before the last, and each
    # line's row; else None
    terms = []
    for i, gf in zip(datum.active, fs):
        f = datum.factors[i]
        (reads,) = np.nonzero(np.any(f.B != 0.0, axis=0))
        table = row = None
        if len(reads) < n:
            lead = reads[reads < n - 1]
            table = np.zeros(resolution ** len(reads))
            _add_log(table, gf, list((axis[_grid_indices(resolution, len(reads))] @ f.B[:, reads].T).T), f.c)
            table = table.reshape(resolution ** len(lead), -1)
            row = places[:, lead] @ resolution ** np.arange(len(lead))[::-1]
        terms.append((f, gf, table, row))
    # a full block's grid points, when some map reads every axis: the last
    # axis's column is written once, the others by the first block, and by
    # a later block those whose period, resolution^(n - 1 - a) lines for
    # axis a, does not divide a block
    if any(table is None for *_, table, _ in terms):
        buf = np.empty((lines * resolution, n))
        buf[:, -1] = np.tile(axis, lines)
        moves = [a for a in range(n - 1) if lines % resolution ** (n - 1 - a)]

    for start in range(0, len(integrand), lines):
        rows = slice(start, start + lines)
        acc = integrand[rows]
        pts = None
        for f, gf, table, row in terms:
            if table is not None:
                # a table of one row is the same on every line
                acc += table[row[rows]] if len(table) > 1 else table
                continue
            if pts is None:
                pts = buf[: acc.size]
                for a in moves if start else range(n - 1):
                    pts.reshape(*acc.shape, n)[:, :, a] = axis[places[rows, a], None]
            _add_log(acc.reshape(-1), gf, list((pts @ f.B.T).T), f.c)
        np.exp(acc, out=acc)
        line_sums[rows] = np.trapezoid(acc, axis, axis=1)
    lhs = _trapezoid_nd(line_sums.reshape((resolution,) * (n - 1)), [axis] * (n - 1))
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


def _grid_indices(resolution: int, d: int) -> np.ndarray:
    """The (resolution^d, d) indices of a tensor grid of resolution points
    per axis, the last axis running fastest; one point, of no indices, at d = 0."""
    return np.indices((resolution,) * d).reshape(d, resolution**d).T


def _sample_base(kdim: int, resolution: int) -> np.ndarray:
    """Fixed (resolution^kdim, kdim) pattern that every window scales: the
    tensor grid of resolution points per axis on [-1, 1]^kdim, in rows of
    resolution samples along the last kernel coordinate that fix the others."""
    return np.linspace(-1.0, 1.0, resolution)[_grid_indices(resolution, kdim)]


def _window(Y0: np.ndarray, K: np.ndarray, lows: np.ndarray, highs: np.ndarray):
    """Centre (count, 1) on a line, else (count, 0), scale (count,) and dead
    mask (count,) of the kernel coordinates t to sample at each preimage
    Y0: the samples are centre + scale * base, on a line its feasible
    segment, else centred on t = 0, and a dead point has no feasible
    decomposition inside the factor boxes. Only a line whose feasible
    segment is one point takes a scale of 0."""
    if K.shape[1] == 1:
        # the exact feasible segment of the line Y0 + t k; coordinates with
        # k_j = 0 do not move and must lie in their box
        k = K[:, 0]
        on = np.abs(k) > 1e-12
        t_lo, t_hi = _segment(Y0, k, on, lows, highs)
        # a and b carry rounding of order eps (|box| + |Y0|) / |k|, so a
        # segment that is empty by less than that is a single point
        mag = [(max(abs(lows[j]), abs(highs[j])) + np.abs(Y0[:, j])) / abs(k[j]) for j in np.flatnonzero(on)]
        dead = t_hi < t_lo - 8.0 * np.finfo(float).eps * functools.reduce(np.maximum, mag)
        for j in np.flatnonzero(~on):
            dead |= (Y0[:, j] < lows[j]) | (Y0[:, j] > highs[j])
        return 0.5 * (t_lo + t_hi)[:, None], 0.5 * np.maximum(t_hi - t_lo, 0.0), dead
    centre, dead = np.zeros((len(Y0), 0)), np.zeros(len(Y0), dtype=bool)
    if K.shape[1] == 0:
        # the decomposition Y0 is unique: the base has no columns to scale
        return centre, np.ones(len(Y0)), dead
    # rigorous l2 bound: orthonormal kernel columns give
    # ||t||^2 = sum_j (K_j . t)^2 <= sum_j r_j^2
    r = np.maximum(np.abs(lows - Y0), np.abs(highs - Y0))
    return centre, np.sqrt(np.sum(r * r, axis=1)), dead


def _segment(Y0: np.ndarray, k: np.ndarray, on: np.ndarray, lows, highs):
    """The ends t_lo <= t_hi, each shaped Y0 (..., sum n_i) without its last
    axis, of the set of t that keeps the coordinates `on` of Y0 + t k inside
    their factor boxes, a coordinate at a time; k must not vanish on them."""
    ab = [((lows[j] - Y0[..., j]) / k[j], (highs[j] - Y0[..., j]) / k[j]) for j in np.flatnonzero(on)]
    return (functools.reduce(np.maximum, [np.minimum(a, b) for a, b in ab]),
            functools.reduce(np.minimum, [np.maximum(a, b) for a, b in ab]))


def _row_runs(y0: np.ndarray, scale: np.ndarray, K: np.ndarray, lows, highs, u: np.ndarray):
    """At kernel dimension k >= 2, each point's run of samples t = scale v
    (_sample_base, v over the axis u) in each row of its window: the first
    sample along the row and the length, (points, len(u)^(k - 1)), 0 for an
    empty row. The runs hold every sample whose decomposition y0 + K t
    read's inside test keeps, as read forms it, and a few more; at scale 0,
    where every sample is y0, which read clamps into the boxes, at most the
    middle sample of each row.

    A row fixes t_l = scale v_l for l < k, leaving the line y0 + sum_{l<k}
    K_l t_l + K_k t_k in t_k, feasible on the segment [t_lo, t_hi]
    (_segment) over the coordinates where |K_jk| > 1e-12. A sample read
    accepts is within (k + 5) eps (|y0_j| + scale) of box j, and the ends
    are formed within (k + 2) eps (|box_j| + |y0_j| + scale) / |K_jk|: the
    segment widened by 8k eps max_j (|box_j| + |y0_j| + scale) / |K_jk|, and
    by 2^-40 (R + 1) samples at each end for the rounding of v_k and of the
    sample numbers, holds every such t_k. A coordinate with |K_jk| <= 1e-12
    moves by at most |K_jk| scale along the row, which is empty where it
    lies farther than this and 8k eps (|box_j| + |y0_j| + scale) outside its
    box. A point whose runs are all empty still fills its one piece
    (_run_table), whose samples read -inf, or at scale 0 the clamped y0."""
    R, kdim = len(u), K.shape[1]
    k = K[:, -1]
    on = np.abs(k) > 1e-12
    # the rows' fixed coordinates, as read forms the samples: (points, rows) each
    fixed = scale[:, None, None] * u[_grid_indices(R, kdim - 1).T]
    Y0 = y0[:, None, :]
    for t, Kl in zip(fixed.swapaxes(0, 1), K.T):
        Y0 = Y0 + t[..., None] * Kl
    t_lo, t_hi = _segment(Y0, k, on, lows, highs)
    err = 8.0 * kdim * np.finfo(float).eps * (np.maximum(np.abs(lows), np.abs(highs)) + np.abs(y0) + scale[:, None])
    slack = (err[:, on] / np.abs(k[on])).max(axis=1)[:, None]
    off = err[:, None, ~on] + np.abs(k[~on]) * scale[:, None, None]
    empty = np.any((Y0[..., ~on] < lows[~on] - off) | (Y0[..., ~on] > highs[~on] + off), axis=-1)
    # t_k = scale v_k with v_k = -1 + 2 b / (R - 1): b = (t_k / scale + 1)
    # (R - 1) / 2, formed within 9 eps (R + 1) samples of the exact b
    half, pad = 0.5 * (R - 1), 2.0**-40 * (R + 1)
    s = np.where(scale > 0.0, scale, np.inf)[:, None]
    with np.errstate(over="ignore"):
        first = np.clip(np.ceil((t_lo - slack) / s * half + (half - pad)), 0.0, R)
        last = np.clip(np.floor((t_hi + slack) / s * half + (half + pad)), -1.0, R - 1)
    last[empty] = -1.0
    return first.astype(np.intp), np.maximum(last - first + 1.0, 0.0).astype(np.intp)


def _run_table(first: np.ndarray, counts: np.ndarray, width: int):
    """The runs (first, counts), each (points, rows) in rows of width
    samples, laid end to end point after point and row after row: where
    each run ends in that order and what to add to a position in it to get
    its sample row * width + first; then the pieces of width samples each
    point fills, at least one. One more run per point fills out its last
    piece with samples 0, 1, ... of its window, read as brute force reads
    them: a piece of width >= 2 takes BLAS's matrix-matrix product in
    _decompositions at k >= 2, as the whole cube does, where one sample
    would take the matrix-vector path, which rounds differently."""
    points, rows = counts.shape
    per_point = counts.sum(axis=1)
    pieces = np.maximum(1, -(-per_point // width))
    starts = np.concatenate([np.arange(rows) * width + first, np.zeros((points, 1), dtype=np.intp)], axis=1).ravel()
    lengths = np.concatenate([counts, (pieces * width - per_point)[:, None]], axis=1).ravel()
    ends = np.cumsum(lengths)
    return starts - (ends - lengths), ends, pieces


def _table_samples(shifts: np.ndarray, ends: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The samples at positions lo to hi - 1 of a run table (_run_table)."""
    j0, j1 = np.searchsorted(ends, [lo, hi - 1], side="right")
    runs = slice(j0, j1 + 1)  # the runs that hold lo and hi - 1, and those between
    return np.repeat(shifts[runs], np.diff(np.minimum(ends[runs], hi), prepend=lo)) + np.arange(lo, hi)


def _samples(centre: np.ndarray, scale: np.ndarray, base: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The samples centre + scale * base[index] (_window), a kernel coordinate at a time."""
    T = np.empty(index.shape + base.shape[1:])
    for j, b in enumerate(base.T):
        np.multiply(scale[:, None], b[index], out=T[..., j])
    for j in range(centre.shape[1]):
        T[..., j] += centre[:, j, None]
    return T


def _decompositions(y0: np.ndarray, T: np.ndarray, K: np.ndarray):
    """The decompositions y0 + K t of samples T (live, samples, kdim) at the
    preimages y0 (live, sum n_i): one (live, samples) array per factor
    coordinate. A line is a broadcast product per coordinate, the fastest
    form; otherwise one matmul serves every coordinate, since a matmul on
    one column of K takes BLAS's matrix-vector path and rounds differently.
    y0 is added per coordinate, so that numpy's inner loop runs along T."""
    if T.shape[2] == 1:
        Y = [k * T[..., 0] for k in K[:, 0]]
    else:
        P = T @ K.T
        Y = [P[..., j] for j in range(len(K))]
    for y, y0j in zip(Y, y0.T):
        y += y0j[:, None]
    return Y


@dataclass(frozen=True, eq=False)
class _LineModel:
    """Q(t) = sum_i c_i log f_i(y0_i + k_i t) for Gaussian f_i on a line
    kernel k: Q(t) = -1/2 d^T P d with d = u + k t, u = y0 - mu, P the block
    diagonal of the c_i P_i and mu the centres, over the factor coordinates.
    Q is a quadratic of curvature gamma = k^T P k, largest at
    t* = -(u . g) / gamma, g = sym(P) k. Per factor, over the coordinate
    spans: c_i, and a_i = max|P_i| n_i^2, so that |d_i^T P_i d_i| is at most
    a_i max_j d_j^2. The arrays it reads hold one coordinate per row, so
    that every operation runs along a grid chunk."""

    k: np.ndarray
    mu: np.ndarray
    g: np.ndarray
    gamma: float
    c: np.ndarray
    a: np.ndarray
    spans: list

    def per_factor(self, x: np.ndarray) -> np.ndarray:
        """The largest of each factor's rows of x, one row per factor."""
        return np.stack([x[a:b].max(axis=0) for a, b in self.spans])


def _line_model(fs, cs, spans, k: np.ndarray) -> _LineModel | None:
    """The model _line_peaks reads when every f_i is a gaussian_function on
    its GridFunction's dimension (its `_gaussian` mark) and gamma exceeds its
    own rounding, 2^-36 sum_i c_i a_i (|k| = 1), so that Q is certainly
    concave; else None, and every point reads its whole segment."""
    marks = [getattr(gf.f, "_gaussian", None) for gf in fs]
    if any(m is None or len(m[1]) != gf.dim for m, gf in zip(marks, fs)):
        return None
    P = np.zeros((len(k), len(k)))
    for (a, b), c, (Pi, _) in zip(spans, cs, marks):
        P[a:b, a:b] = c * Pi
    g = 0.5 * (P + P.T) @ k
    gamma = float(k @ g)
    c = np.array(cs)
    a = np.array([np.abs(Pi).max() * len(Pi) ** 2 for Pi, _ in marks])
    if not gamma > 2.0**-36 * float(c @ a):
        return None
    return _LineModel(k, np.concatenate([mu for _, mu in marks]), g, gamma, c, a, spans)


def _block(at, R: int, w: int) -> np.ndarray:
    """The first sample of each point's block of 2w + 1 samples: the block
    centred on the sample nearest t* (at, in steps of h from t_0), shifted
    into the R samples of its segment."""
    return np.clip(np.rint(at), w, R - 1 - w).astype(np.intp) - w


def _line_peaks(model: _LineModel, y0, centre, scale, base, read):
    """The largest sum_i c_i log f_i over each live point's segment samples
    centre + scale * base, read on a block of them that its own reads
    certify, with the bits the whole segment gives; read is
    sup_convolution's reader. Returns (peaks, rest): rest are the points
    that must read their whole segment, whose peaks entries are left unset.

    A point's samples t_0 <= ... <= t_{R-1} are spaced h = 2 scale / (R - 1).
    Its block is the 2w + 1 samples centred on the one nearest t*, shifted
    to lie in the segment. E bounds the rounding of a read s_m against the
    exact Q(t_m), twice over. With V_i the largest |y0_j| + |k_j t| + |mu_j|
    over factor i's coordinates and every segment of the chunk (one bound
    for all its points), the rounding of the decomposition, the term-by-term
    form, exp and log in the normal range, the weight c_i and the sums is
    within a few eps of c_i (1 + a_i V_i^2) per factor, and

        E = sum_i c_i e_i,  e_i = 2^-36 (1 + a_i V_i^2).

    A sample that exp rounds into the subnormal range may read far above
    Q, so every read of the segment must stay normal: with U_i the largest
    |y_j - mu_j| over factor i's coordinates at t_0 and t_{R-1}, as read,
    1/2 a_i U_i^2 + e_i < -log(tiny) for every i. Then the block is
    certified if its best read s_b beats by more than 2E each edge read s_e
    that is not a segment end and is not -inf (a sample rounded off a box
    edge reads 0, not Q). For then Q(t_b) >= s_b - E > s_e + E >= Q(t_e),
    so the concave Q falls beyond t_e, and a read s there has
    s <= Q(t) + E <= Q(t_e) + E <= s_e + 2E < s_b.

    The block's half-width w = 2 sets only how many samples are read: the
    certificate carries the bits. The best sample lies within h/2 of t*,
    and an edge that is not a segment end at least (w - 1/2) h from it, so
    the edge falls short of the best sample's Q by more than 4E, and the
    certificate holds, wherever (w - 1/2)^2 > 1/4 + 8E/(gamma h^2): at
    w = 2, wherever E < gamma h^2 / 4. A point is left to rest where its
    segment has at most 2w + 1 samples or is a single point (scale 0),
    where t* is not finite (a huge box), where some read may leave the
    normal range, and where the certificate fails."""
    R, k, mu = len(base), model.k, model.mu
    cols = np.ascontiguousarray(y0.T)
    with np.errstate(all="ignore"):
        # t_0 and t_{R-1}, and y - mu there, formed as the reads form them
        ends = [scale * base[m, 0] + centre[:, 0] for m in (0, -1)]
        reach = np.maximum(np.abs(ends[0]), np.abs(ends[1]))
        V = model.per_factor(np.abs(cols).max(axis=1) + np.abs(k) * reach.max() + np.abs(mu))
        U = model.per_factor(np.maximum(*(np.abs(k[:, None] * t + cols - mu[:, None]) for t in ends)))
        e = 2.0**-36 * (1.0 + model.a * V * V)
        E = float(model.c @ e)
        normal = np.all(0.5 * model.a[:, None] * U * U + e[:, None] < -math.log(np.finfo(float).tiny), axis=0)
        h = 2.0 * scale / (R - 1)
        # t* in steps of h from t_0
        at = (-(model.g @ (cols - mu[:, None])) / model.gamma - ends[0]) / h
    w = 2
    c = np.flatnonzero(normal & (scale > 0.0) & np.isfinite(at) & (R > 2 * w + 1))
    first = _block(at[c], R, w)
    reads = read(y0[c], centre[c], scale[c], first[:, None] + np.arange(2 * w + 1))
    best = functools.reduce(np.maximum, reads.T)
    ok = np.ones(len(c), dtype=bool)
    for s, end in ((reads[:, 0], first == 0), (reads[:, -1], first == R - 1 - 2 * w)):
        ok &= end | ((s > -np.inf) & (best > s + 2.0 * E))
    peaks, rest = np.empty(len(y0)), np.ones(len(y0), dtype=bool)
    peaks[c[ok]] = best[ok]
    rest[c[ok]] = False
    return peaks, np.flatnonzero(rest)


def sup_convolution(
    datum: BLDatum,
    fs,
    resolution: int = 401,
    box: float = DEFAULT_BOX,
) -> np.ndarray:
    """Smallest envelope f with prod_i f_i(x_i)^{c_i} <= f(sum_i c_i B_i^T x_i),
    by brute force: its values on the (resolution,) * n grid over [-box, box]^n.

    The decompositions of a grid point x are Y0 + K t (BLDatum.decomposition),
    Y0 = pinv(L) x and K an orthonormal basis of ker L, L = [c_i B_i^T], of
    dimension k = sum_i n_i - n. One rule serves every k: a point samples t
    on the resolution^k grid of its window centre + scale [-1, 1]^k
    (_window), in rows along the last kernel coordinate. At k <= 1 the
    window is the feasible set (Y0, or the exact feasible segment), read
    whole. At k >= 2 it is a cube around the convex feasible set, which
    meets each row in one segment: its samples, widened past every rounding,
    are the row's run (_row_runs). A point's runs are read end to end in
    pieces of a row's length, each as if it were a point (_run_table); a
    point with no decomposition inside the boxes stays 0. On a line with
    every f_i a gaussian_function a point first reads five samples around
    the closed-form peak of sum_i c_i log f_i, and its whole segment only
    where they do not certify their peak (_line_peaks). One reader reads
    every sample, so the envelope is brute force's, bit for bit, whatever
    the chunk size.

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
    pinv_L, K = datum.decomposition
    kdim = K.shape[1]
    offsets = np.cumsum([0] + [gf.dim for gf in fs])  # each n_i, as _check_functions holds
    spans = list(zip(offsets[:-1], offsets[1:]))

    _, pts = _tensor_grid([-box] * datum.n, [box] * datum.n, resolution)
    # one product for the whole grid, so that no preimage depends on the
    # chunk it falls in
    Y0 = pts.reshape(-1, datum.n) @ np.ascontiguousarray(pinv_L.T)  # (points, sum n_i)
    out = np.zeros(len(Y0))

    base = _sample_base(kdim, resolution)
    width = resolution ** min(kdim, 1)  # samples per row
    model = _line_model(fs, cs, spans, K[:, 0]) if kdim == 1 else None
    if kdim > 1:
        def runs(y0, scale):
            return _row_runs(y0, scale, K, lows, highs, base[:width, -1])
        tested = range(len(K))
        # half a chunk's samples a read: a run's samples mostly lie inside
        # the boxes and are kept twice (the three identities at 81 points
        # traced 6.4 MiB in reads of 65,529 samples, 3.4 MiB at 32,724)
        per_read = max(1, _SUPCONV_CHUNK // (2 * width))
    else:
        # the window is the feasible set: no runs, and one piece of samples
        # 0, 1, ... (_run_table); one past a box by rounding reads 0 (_add_log)
        def runs(y0, scale):
            return (np.zeros((len(y0), 0), dtype=np.intp),) * 2
        tested = ()
        per_read = max(1, _SUPCONV_CHUNK // width)
    # a chunk's points keep a value per row of their windows, or with a
    # model about 16: a block of 5 samples and ten more values. At 8 per
    # point, 30 rounds of the benchmark's functional ops peaked up to 6 MiB
    # higher in RSS (2-core x86-64 host), as glibc's heaps grew
    chunk = max(1, _SUPCONV_CHUNK // (16 if model else len(base) // width))

    def read(y0, centre, scale, index):
        """sum_i c_i log f_i at each point's window samples centre + scale *
        base[index] (_window), index holding one row of sample numbers per
        point: -inf at a sample outside the boxes, unread where tested."""
        T = _samples(centre, scale, base, index)
        Y = _decompositions(y0, T, K)
        # a single-point window lies on the boxes' boundary, which rounding
        # may cross: clamp it so that the functions are read inside their boxes
        point = scale == 0.0
        if point.any():
            for y, a, b in zip(Y, lows, highs):
                y[point] = np.clip(y[point], a, b)
        inside = np.ones(T.shape[:2], dtype=bool)
        for j in tested:
            inside &= Y[j] >= lows[j]
            inside &= Y[j] <= highs[j]
        every = inside.all()
        if not every:
            Y = [y[inside] for y in Y]
        # sum_i c_i log f_i over the samples, one factor at a time
        logs = np.zeros(Y[0].shape)
        for (a, b), c, gf in zip(spans, cs, fs):
            _add_log(logs, gf, Y[a:b], c)
        if not every:
            logs, kept = np.full(T.shape[:2], -np.inf), logs
            logs[inside] = kept
        return logs

    def run_peaks(y0, centre, scale):
        """The largest read over each point's runs."""
        if not len(y0):  # every point certified its block
            return np.empty(0)
        shifts, ends, pieces = _run_table(*runs(y0, scale), width)
        of = np.repeat(np.arange(len(y0)), pieces)
        peaks = np.empty(len(of))
        for q in range(0, len(of), per_read):
            b = of[q : q + per_read]
            index = _table_samples(shifts, ends, q * width, (q + len(b)) * width)
            peaks[q : q + len(b)] = read(y0[b], centre[b], scale[b], index.reshape(len(b), width)).max(axis=1)
        return np.maximum.reduceat(peaks, np.cumsum(pieces) - pieces)

    for start in range(0, len(Y0), chunk):
        window = Y0[start : start + chunk]
        centre, scale, dead = _window(window, K, lows, highs)
        # a dead point has no decomposition inside the boxes and stays 0
        live = np.flatnonzero(~dead)
        if not len(live):
            continue
        y0, centre, scale = window[live], centre[live], scale[live]
        best, rest = _line_peaks(model, y0, centre, scale, base, read) if model else (np.empty(len(y0)), slice(None))
        best[rest] = run_peaks(y0[rest], centre[rest], scale[rest])
        out[start + live] = np.exp(best, out=best)
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
