"""Monte Carlo of the variational formula for log-moment generating functions.

For Brownian motion W with covariance density A (so W_T ~ N(0, T A)) and a
bounded measurable g,

    log E exp(g(W_T)) = sup over adapted drifts of
                        E [ g(W_T + U_T) - (1/2) ||U||_H^2 ],

where U_t is the time integral of the drift derivative and the Cameron-Martin
norm weighs that derivative by inv(A). Every drift therefore certifies a
lower bound; this module estimates both sides by Monte Carlo for the
deterministic affine drifts u'(s) = a + s b (DriftPolicy; zero and constant
drifts among them) and compares against closed forms for linear and
quadratic g. Estimates come with standard errors so checks can run at fixed
z-score bands.

Every estimator reads only the endpoint W_T, drawn as one exact Gaussian
vector per path; no path is stepped. The time grid (steps) enters only the
Riemann sums of U_T and ||U||_H^2 for the deterministic drifts. Per-path
work runs along the paths, never across a row of n coordinates: the drift
shift of 100,000 points at n = 2 took 1.18 ms broadcast, 0.34 ms by columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import check_spd, chol_logdet, spd_solve, sym
from .datum import check_count
from .report import DEFAULT_SEED, MAX_ELEMENTS, check_seed


def check_draws(n: int, steps: int, paths: int) -> None:
    """ValueError when W_T, (paths, n), a drift grid, (steps, n), and the
    covariance density, (n, n), exceed MAX_ELEMENTS."""
    draws = (paths + steps + n) * n
    if draws > MAX_ELEMENTS:
        raise ValueError(f"(paths + steps + n) * n = {draws} exceeds the budget {MAX_ELEMENTS}")


@dataclass(frozen=True, eq=False)
class BrownianConfig:
    """Covariance density A, horizon, grid size, path count, seed."""

    A: np.ndarray
    horizon: float = 1.0
    steps: int = 128
    paths: int = 10_000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        check_count("steps", self.steps, 1)
        check_count("paths", self.paths, 2)  # each standard error is a sample one (ddof=1)
        check_seed(self.seed)
        # the budget reads A's shape, before check_spd decomposes A
        A = np.asarray(self.A, dtype=float)
        check_draws(A.shape[0] if A.ndim else 1, self.steps, self.paths)
        object.__setattr__(self, "A", check_spd(A, "covariance density"))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def dt(self) -> float:
        return self.horizon / self.steps


@dataclass(frozen=True, eq=False)
class DriftPolicy:
    """Deterministic drift derivative u'(s) = rate[:, 0] + s * rate[:, 1] for
    a finite (n, 2) matrix rate, n >= 1, however built (None: zero; ValueError
    otherwise), piecewise constant on the grid; a constant v is rate [v, 0],
    and v + s * 0 = v exactly. Deterministic policies keep U_T and the
    Cameron-Martin norm path-independent, so the value estimate inherits the
    paths' stderr only through g."""

    rate: np.ndarray | None = None

    def __post_init__(self):
        if self.rate is not None:
            rate = np.asarray(self.rate, dtype=float)
            if rate.ndim != 2 or rate.shape[1] != 2 or not len(rate):
                raise ValueError(f"rate must have shape (n, 2) with n >= 1, got {rate.shape}")
            if not np.all(np.isfinite(rate)):
                raise ValueError("rate must be finite")
            object.__setattr__(self, "rate", rate)

    @classmethod
    def zero(cls) -> "DriftPolicy":
        return cls()

    @classmethod
    def constant(cls, v) -> "DriftPolicy":
        if (v := np.asarray(v, dtype=float)).ndim != 1:
            raise ValueError(f"constant drift must be a vector, got shape {v.shape}")
        return cls.linear_in_time(np.stack([v, np.zeros_like(v)], axis=1))

    @classmethod
    def linear_in_time(cls, rate) -> "DriftPolicy":
        return cls(rate=rate)

    def derivative(self, times: np.ndarray, n: int) -> np.ndarray:
        """(len(times), n) array of u' sampled at the step left endpoints."""
        if self.rate is None:
            return np.zeros((times.size, n))
        if self.rate.shape[0] != n:
            raise ValueError(f"rate is for dimension {self.rate.shape[0]}, expected {n}")
        return self.rate[None, :, 0] + times[:, None] * self.rate[None, :, 1]


def terminal_points(config: BrownianConfig) -> np.ndarray:
    """W_T of every path, shape (paths, n): sqrt(T) Z L^T with Z one (paths, n)
    standard normal draw and A = L L^T, so W_T ~ N(0, T A) exactly whatever
    steps is. Same seed, same points."""
    rng = np.random.default_rng(config.seed)
    L = np.linalg.cholesky(config.A)
    return math.sqrt(config.horizon) * rng.standard_normal((config.paths, config.n)) @ np.ascontiguousarray(L.T)


def _terminal(config: BrownianConfig, terminal: np.ndarray | None) -> np.ndarray:
    if terminal is None:
        return terminal_points(config)
    terminal = np.asarray(terminal, dtype=float)
    if terminal.ndim != 2 or terminal.shape[1] != config.n:
        raise ValueError(f"terminal must have shape (paths, {config.n}), got {terminal.shape}")
    return terminal


def mc_log_mgf(config: BrownianConfig, g, terminal: np.ndarray | None = None) -> tuple[float, float]:
    """Estimate log E exp(g(W_T)) with a delta-method standard error.

    terminal holds the (paths, n) points W_T (default terminal_points(config)).
    Stabilized as m + log mean exp(g - m) with m = max g; g must give one
    finite value per point (else ValueError, or OverflowError if non-finite)."""
    vals = _payoff(g, _terminal(config, terminal), "terminal")
    m = float(vals.max())
    ex = np.exp(vals - m)
    mean_ex = float(ex.mean())
    estimate = m + math.log(mean_ex)
    stderr = float(ex.std(ddof=1)) / (mean_ex * math.sqrt(vals.size))
    return estimate, stderr


def drift_value(
    config: BrownianConfig,
    g,
    policy: DriftPolicy,
    terminal: np.ndarray | None = None,
) -> tuple[float, float]:
    """Estimate E[g(W_T + U_T)] - ||U||_H^2 / 2 for a deterministic policy.

    terminal as in mc_log_mgf. Always a lower bound for mc_log_mgf in
    expectation; the gap closes at the optimal drift."""
    (value,) = _drift_values(config, [g], policy, _terminal(config, terminal))
    return value


def _drift_values(config: BrownianConfig, gs, policy: DriftPolicy, WT: np.ndarray) -> list[tuple[float, float]]:
    """drift_value of each g in gs under one policy, all read on one shifted
    copy WT + U_T of the terminal points, one g's values alive at a time."""
    times = np.arange(config.steps) * config.dt
    ud = policy.derivative(times, config.n)
    U_T = ud.sum(axis=0) * config.dt
    weighted = spd_solve(config.A, ud.T, name="covariance density").T
    h_norm_sq = float(np.sum(weighted * ud)) * config.dt
    shifted = np.empty_like(WT)
    for j, u in enumerate(U_T):
        np.add(WT[:, j], u, out=shifted[:, j])
    return [_drift_estimate(_payoff(g, shifted, "shifted"), h_norm_sq) for g in gs]


def _drift_estimate(vals: np.ndarray, h_norm_sq: float) -> tuple[float, float]:
    return float(vals.mean()) - 0.5 * h_norm_sq, float(vals.std(ddof=1)) / math.sqrt(vals.size)


def _payoff(g, points: np.ndarray, which: str) -> np.ndarray:
    """g at the (paths, n) points, one value per path: ValueError on any
    other shape, OverflowError on a non-finite value."""
    vals = np.asarray(g(points), dtype=float)
    if vals.shape != (len(points),):
        raise ValueError(f"g must return shape ({len(points)},) at the {which} points, got {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise OverflowError(f"g produced non-finite values at the {which} points")
    return vals


# -- closed forms and built-in test functions ------------------------------------

def closed_form_linear(A: np.ndarray, b: np.ndarray, horizon: float) -> float:
    """log E exp(<b, W_T>) = T <A b, b> / 2, optimal drift u' = A b."""
    A = check_spd(A, "A")
    b = np.asarray(b, dtype=float)
    return 0.5 * horizon * float(b @ A @ b)


def closed_form_quadratic(A: np.ndarray, Q: np.ndarray, horizon: float) -> float:
    """log E exp(-<Q W_T, W_T>/2) = -logdet(I + T A Q) / 2 for PSD Q.

    Evaluated as logdet(I + T L^T Q L) with A = L L^T: same determinant, but
    symmetric, which chol_logdet needs; I + T A Q is not unless A and Q commute."""
    A = check_spd(A, "A")
    Q = sym(np.asarray(Q, dtype=float))  # the payoff reads only the symmetric part
    L = np.linalg.cholesky(A)
    _, ld = chol_logdet(np.eye(A.shape[0]) + horizon * L.T @ Q @ L, name="I + T L^T Q L")
    return -0.5 * float(ld)


def linear_g(b):
    b = np.asarray(b, dtype=float)
    return lambda x: np.asarray(x) @ b


def quadratic_g(Q):
    Q = np.asarray(Q, dtype=float)

    def g(x):
        # a BLAS product, then a row-wise dot scaled in place: the three-operand einsum is ~4x slower
        v = np.einsum("...i,...i->...", np.asarray(x) @ Q, np.asarray(x))
        v *= -0.5
        return v
    return g


@dataclass
class SuiteRow:
    label: str
    estimate: float
    stderr: float
    closed_form: float | None
    z: float
    kind: str = field(default="bound")  # "bound" rows compare drift vs mgf

    @property
    def ok(self) -> bool:
        return self.z <= 3.0 if self.kind == "bound" else abs(self.z) <= 3.0


def builtin_suite(config: BrownianConfig) -> list[SuiteRow]:
    """Run every built-in (g, policy) pair on one shared set of terminal points.

    Rows of kind "closed" compare an estimator against its closed form
    (z = (estimate - closed) / stderr, two-sided). Rows of kind "bound"
    check drift_value <= mc_log_mgf with z = gap / combined stderr,
    one-sided: z > 3 is a violation of the variational lower bound.

    Raises ValueError when the horizon leaves the floating-point range of the
    built-in test functions: a value overflows (the ramp drift's U_T grows
    like T^2), or every sample of an estimator rounds to one value, so its
    standard error is 0 and no z-score exists.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _suite_rows(config)
    except FloatingPointError as exc:
        raise ValueError(f"horizon {config.horizon!r} is out of range for the built-in suite: {exc}") from exc


def _z_score(diff: float, stderr: float, label: str) -> float:
    if not stderr > 0.0:
        raise FloatingPointError(f"{label} has standard error {stderr!r}")
    return diff / stderr


def _suite_rows(config: BrownianConfig) -> list[SuiteRow]:
    A, T, n = config.A, config.horizon, config.n
    b = np.linspace(1.0, 0.5, n)
    Q = np.diag(np.linspace(0.5, 1.5, n)) + 0.1 * np.ones((n, n)) / n
    WT = terminal_points(config)

    ramp = np.stack([0.3 * b, 0.4 * b], axis=1)
    policies = {
        "zero": DriftPolicy.zero(),
        "constant-opt": DriftPolicy.constant(A @ b),
        "constant-half": DriftPolicy.constant(0.5 * (A @ b)),
        "linear-in-time": DriftPolicy.linear_in_time(ramp),
    }
    gs = {
        "linear": (linear_g(b), closed_form_linear(A, b, T)),
        "quadratic": (quadratic_g(Q), closed_form_quadratic(A, Q, T)),
    }

    mgf = {g_name: mc_log_mgf(config, g, terminal=WT) for g_name, (g, _) in gs.items()}
    # one shifted copy of WT per policy, read by every g
    drift = {}
    for p_name, policy in policies.items():
        values = _drift_values(config, [g for g, _ in gs.values()], policy, WT)
        for g_name, value in zip(gs, values):
            drift[g_name, p_name] = value

    rows: list[SuiteRow] = []
    for g_name, (_, closed) in gs.items():
        label = f"mc_log_mgf[{g_name}]"
        mc, mc_se = mgf[g_name]
        rows.append(
            SuiteRow(
                label=label,
                estimate=mc,
                stderr=mc_se,
                closed_form=closed,
                z=_z_score(mc - closed, mc_se, label),
                kind="closed",
            )
        )
        for p_name in policies:
            label = f"drift_value[{g_name};{p_name}]"
            dv, dv_se = drift[g_name, p_name]
            rows.append(
                SuiteRow(
                    label=label,
                    estimate=dv,
                    stderr=dv_se,
                    closed_form=closed if (g_name == "linear" and p_name == "constant-opt") else None,
                    z=_z_score(dv - mc, math.hypot(dv_se, mc_se), label),
                    kind="bound",
                )
            )
    return rows
