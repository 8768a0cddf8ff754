"""Monte Carlo of the variational formula for log-MGFs of Brownian functionals.

log E[exp g(W_T)] equals the supremum over adapted drifts of
E[g(W_T + drift) - Cameron-Martin energy / 2]. Every concrete drift policy
therefore gives a lower bound, the optimal drift attains it, and for linear
and quadratic g the left side is known in closed form.
"""

import numpy as np

from blgauss import (
    BrownianConfig,
    DriftPolicy,
    builtin_suite,
    closed_form_linear,
    closed_form_quadratic,
    drift_value,
    linear_g,
    mc_log_mgf,
    terminal_points,
)

A = np.array([[1.0, 0.3], [0.3, 0.8]])
config = BrownianConfig(A=A, horizon=1.0, steps=128, paths=50_000, seed=1729)
WT = terminal_points(config)  # W_T ~ N(0, T A) drawn directly: the estimators never read whole paths
print(f"drew {config.paths} terminal points W_T, drift quadrature on {config.steps} steps, "
      f"covariance rate A cond {np.linalg.cond(A):.2f}")

b = np.array([1.0, 0.5])
g = linear_g(b)
closed = closed_form_linear(A, b, config.horizon)
mc, mc_se = mc_log_mgf(config, g, terminal=WT)
print(f"\nlinear payoff: closed form {closed:.6f}, Monte Carlo {mc:.6f} +- {mc_se:.6f}")

print("\ndrift policies (each is a lower bound; the optimal constant drift Ab attains it):")
for name, policy in [
    ("zero drift      ", DriftPolicy.zero()),
    ("half-optimal    ", DriftPolicy.constant(0.5 * (A @ b))),
    ("optimal constant", DriftPolicy.constant(A @ b)),
]:
    value, se = drift_value(config, g, policy, terminal=WT)
    print(f"  {name} {value:+.6f} +- {se:.6f}   (gap to closed form {closed - value:+.6f})")

print(f"\nquadratic payoff closed form: {closed_form_quadratic(A, np.eye(2), 1.0):.6f}")

print("\nfull built-in suite (bound rows: z <= 3 means the lower bound held):")
print(f"{'label':37s} {'estimate':>10s} {'stderr':>9s} {'closed':>10s} {'z':>6s}")
for row in builtin_suite(config):
    closed = f"{row.closed_form:.6f}" if row.closed_form is not None else "-"
    print(f"{row.label:37s} {row.estimate:10.6f} {row.stderr:9.6f} {closed:>10s} {row.z:6.2f}")
