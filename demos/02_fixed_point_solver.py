"""Newton steps on the Gaussian objective, and the solver's verdicts.

`solve` maximizes F(A) = logdet A - sum_i c_i logdet(B_i A B_i^T) over
positive definite A of determinant 1 by geodesic Newton steps on a factor K
of A = K K^T, K <- K exp(tH/2), from K = I. Its stationary points are the
fixed points inv(A) = sum_i c_i B_i^T inv(B_i A B_i^T) B_i. Frames are solved
at the identity without a step; generic homogeneous data converge
quadratically in a handful of steps; infeasible data get constant = +inf,
before any step when a factor's kernel breaks the dimension condition by
count alone, else when the objective climbs along a ray without end.
"""

import numpy as np

from blgauss import grad_logdet, make_datum, solve

# A tight frame: three unit vectors at 120 degrees, weights 2/3.
angles = [0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0]
maps = [np.array([[np.cos(t), np.sin(t)]]) for t in angles]
frame = make_datum(2, [2.0 / 3.0] * 3, maps)
res = solve(frame)
print(f"frame datum:    C = {res.constant:.15f} in {res.iterations} iterations (A = identity)")

# Convolution datum: the residual falls quadratically once it is small.
young = make_datum(
    2,
    [0.75, 0.75, 0.5],
    [np.array([[1.0, 1.0]]), np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])],
)
res = solve(young)
print(f"convolution:    C = {res.constant:.15f} in {res.iterations} iterations")
print(f"  gradient norm at the solution: {np.abs(grad_logdet(young, res.A)).max():.2e}")
print("  residual trace (every iteration):")
for k, r, obj in res.trace:
    print(f"    iter {k:4d}  residual {r:.3e}  objective {obj:+.12f}")

# Infeasible: weight 1.5 on one coordinate of R^2 breaks the dimension
# condition on that factor's kernel, dim ker B_0 = 1 > c_1 min(n_1, 1) = 0.5,
# so no Gaussian extremizer exists and the constant is +inf. The weights and
# target dimensions alone show it: the datum carries that kernel witness, and
# solve returns +inf before any Newton step.
bad = make_datum(2, [1.5, 0.5], [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
res = solve(bad)
print(f"\ninfeasible:     C = {res.constant} after {res.iterations} iterations "
      f"(kernel witness: factor {bad.kernel_witness}, the loop is skipped)")

# Without a witness the loop finds +inf itself. On R^3 with c = 0.6 on the
# coordinate maps (x1, x2), (x1, x3) and x1, V = span(e2) lies in two kernels
# and breaks the condition (1 > 0.6), which no count of dimensions shows. The
# objective climbs along a ray that the line search extends by doubling,
# until a search fails while F still rises far from stationarity.
e = np.eye(3)
ray = make_datum(3, [0.6, 0.6, 0.6], [e[[0, 1]], e[[0, 2]], e[:1]])
res = solve(ray)
print(f"no witness:     C = {res.constant} after {res.iterations} iterations "
      f"(kernel witness: {ray.kernel_witness})")
print("  objective trace (every iteration):")
for k, r, obj in res.trace:
    print(f"    iter {k:4d}  residual {r:.3e}  objective {obj:+.6f}")
print("  the objective rises along a ray while the residual stays put - the")
print("  supremum over Gaussian inputs is genuinely unbounded.")
