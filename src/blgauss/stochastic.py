"""Monte Carlo of the variational formula for log-moment generating functions.

For Brownian motion W with covariance density A (so W_T ~ N(0, T A)) and a
bounded measurable g,

    log E exp(g(W_T)) = sup over adapted drifts of
                        E [ g(W_T + U_T) - (1/2) ||U||_H^2 ],

where U_t is the time integral of the drift derivative and the Cameron-Martin
norm weighs that derivative by inv(A). Every drift therefore certifies a
lower bound; this module estimates both sides by Monte Carlo for the built-in
deterministic drift families and compares against closed forms for linear and
quadratic g. Estimates come with standard errors so checks can run at fixed
z-score bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import check_spd, chol_logdet, spd_solve, sym

DEFAULT_SEED = 1729
MAX_DRAWS = 10**8
# normal draws per path chunk in terminal_points: ~2 MB of float64
_PATH_CHUNK_DRAWS = 2**18


@dataclass(frozen=True)
class BrownianConfig:
    """Covariance density A, horizon, grid size, path count, seed."""

    A: np.ndarray
    horizon: float = 1.0
    steps: int = 128
    paths: int = 10_000
    seed: int = DEFAULT_SEED
    max_draws: int = MAX_DRAWS

    def __post_init__(self):
        object.__setattr__(self, "A", check_spd(self.A, "covariance density"))
        if not (np.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")
        if self.paths < 2:
            # every standard error is a sample standard deviation (ddof=1)
            raise ValueError(f"paths must be at least 2, got {self.paths}")
        if self.steps * self.paths > self.max_draws:
            raise ValueError(
                f"steps * paths = {self.steps * self.paths} exceeds the budget {self.max_draws}"
            )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def dt(self) -> float:
        return self.horizon / self.steps


@dataclass(frozen=True)
class DriftPolicy:
    """Deterministic drift derivative u'(s), piecewise constant on the grid.

    kinds: "zero"; "constant" with u'(s) = v; "linear_in_time" with
    u'(s) = rate[:, 0] + s * rate[:, 1] for an (n, 2) coefficient matrix.
    Deterministic policies keep U_T and the Cameron-Martin norm
    path-independent, so the value estimate inherits the paths' stderr only
    through g."""

    kind: str
    v: np.ndarray | None = None
    rate: np.ndarray | None = None

    @classmethod
    def zero(cls) -> "DriftPolicy":
        return cls(kind="zero")

    @classmethod
    def constant(cls, v) -> "DriftPolicy":
        return cls(kind="constant", v=np.asarray(v, dtype=float))

    @classmethod
    def linear_in_time(cls, rate) -> "DriftPolicy":
        rate = np.asarray(rate, dtype=float)
        if rate.ndim != 2 or rate.shape[1] != 2:
            raise ValueError(f"rate must have shape (n, 2), got {rate.shape}")
        return cls(kind="linear_in_time", rate=rate)

    def derivative(self, times: np.ndarray, n: int) -> np.ndarray:
        """(len(times), n) array of u' sampled at the step left endpoints."""
        if self.kind == "zero":
            return np.zeros((times.size, n))
        if self.kind == "constant":
            v = np.asarray(self.v, dtype=float)
            if v.shape != (n,):
                raise ValueError(f"constant drift has shape {v.shape}, expected ({n},)")
            return np.broadcast_to(v, (times.size, n)).copy()
        if self.kind == "linear_in_time":
            if self.rate.shape[0] != n:
                raise ValueError(f"rate is for dimension {self.rate.shape[0]}, expected {n}")
            return self.rate[None, :, 0] + times[:, None] * self.rate[None, :, 1]
        raise ValueError(f"unknown drift policy kind {self.kind!r}")


def simulate(config: BrownianConfig) -> np.ndarray:
    """Path batch of shape (paths, steps+1, n); W_0 = 0, increments
    N(0, dt * A) through a fixed Cholesky factor. Same seed, same batch.

    The estimators read only W_T; terminal_points gives it without the
    path array."""
    rng = np.random.default_rng(config.seed)
    L = np.linalg.cholesky(config.A)
    out = np.empty((config.paths, config.steps + 1, config.n))
    out[:, 0, :] = 0.0
    out[:, 1:, :] = rng.standard_normal((config.paths, config.steps, config.n))
    out[:, 1:, :] = (out[:, 1:, :] @ L.T) * math.sqrt(config.dt)
    np.cumsum(out[:, 1:, :], axis=1, out=out[:, 1:, :])
    return out


def terminal_points(config: BrownianConfig) -> np.ndarray:
    """W_T of every path, shape (paths, n): exactly simulate(config)[:, -1, :].

    Paths are drawn in chunks of consecutive paths. The generator fills each
    chunk in the same C order as simulate's single draw, and each path goes
    through the same Cholesky product, scaling and cumulative sum, so the
    numbers agree bit for bit while memory stays at one chunk."""
    rng = np.random.default_rng(config.seed)
    L = np.linalg.cholesky(config.A)
    scale = math.sqrt(config.dt)
    out = np.empty((config.paths, config.n))
    chunk = max(1, _PATH_CHUNK_DRAWS // (config.steps * config.n))
    for start in range(0, config.paths, chunk):
        stop = min(start + chunk, config.paths)
        inc = rng.standard_normal((stop - start, config.steps, config.n)) @ L.T
        inc *= scale
        np.cumsum(inc, axis=1, out=inc)
        out[start:stop] = inc[:, -1, :]
    return out


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
    Stabilized as m + log mean exp(g - m) with m = max g; raises
    OverflowError only if g itself produced non-finite values."""
    vals = np.asarray(g(_terminal(config, terminal)), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise OverflowError("g produced non-finite values at the terminal points")
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
    WT = _terminal(config, terminal)
    times = np.arange(config.steps) * config.dt
    ud = policy.derivative(times, config.n)
    U_T = ud.sum(axis=0) * config.dt
    weighted = spd_solve(config.A, ud.T, name="covariance density").T
    h_norm_sq = float(np.sum(weighted * ud)) * config.dt
    vals = np.asarray(g(WT + U_T), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise OverflowError("g produced non-finite values at the shifted points")
    estimate = float(vals.mean()) - 0.5 * h_norm_sq
    stderr = float(vals.std(ddof=1)) / math.sqrt(vals.size)
    return estimate, stderr


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
    return lambda x: -0.5 * np.einsum("...i,ij,...j->...", np.asarray(x), Q, np.asarray(x))


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
    """
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

    rows: list[SuiteRow] = []
    for g_name, (g, closed) in gs.items():
        mc, mc_se = mc_log_mgf(config, g, terminal=WT)
        rows.append(
            SuiteRow(
                label=f"mc_log_mgf[{g_name}]",
                estimate=mc,
                stderr=mc_se,
                closed_form=closed,
                z=(mc - closed) / mc_se,
                kind="closed",
            )
        )
        for p_name, policy in policies.items():
            dv, dv_se = drift_value(config, g, policy, terminal=WT)
            comb = math.hypot(dv_se, mc_se)
            rows.append(
                SuiteRow(
                    label=f"drift_value[{g_name};{p_name}]",
                    estimate=dv,
                    stderr=dv_se,
                    closed_form=closed if (g_name == "linear" and p_name == "constant-opt") else None,
                    z=(dv - mc) / comb,
                    kind="bound",
                )
            )
    return rows
