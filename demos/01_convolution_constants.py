"""Sharp constants for convolution on the line, three ways.

The datum has maps (x+y, y, x) on R^2 with weights (2-2/r', 1/p', 1/q')
written in conjugate-exponent form. The optimal Gaussian covariance is known
in closed form, so the constant can be computed from the exponents, from the
weights, and by the fixed-point solver - all three must agree. The solver's
covariance A is checked through the dual form: every A certifies the lower
bound sqrt(dual_check(datum, 1, A)) = exp(F(A)/2), with equality at the fixed
point.
"""

import math

import numpy as np

from blgauss import (
    YoungExponents,
    beckner_constant,
    closed_form_A,
    constant_from_cs,
    datum_from_exponents,
    dual_check,
    solve,
)

e = YoungExponents(4.0 / 3.0, 4.0 / 3.0, 2.0)
datum = datum_from_exponents(e)
print(f"exponents p={e.p:.6f} q={e.q:.6f} r={e.r:.6f}")
print(f"weights   c={tuple(round(c, 6) for c in e.weights)}  (sum {sum(e.weights):.1f} = ambient 2)")

A = closed_form_A(e)
print("\nclosed-form optimal covariance (det-normalized):")
print(np.array_str(A, precision=10))

res = solve(datum)
print(f"\nsolver: converged in {res.iterations} iterations, residual {res.residual:.2e}")
print(f"  max |A_solver - A_closed| = {np.abs(res.A - A).max():.2e}")

print("\nthe same constant three ways:")
print(f"  exponent formula   {beckner_constant(e)!r}")
print(f"  weight formula     {constant_from_cs(*e.weights)!r}")
print(f"  dual form at A     {math.sqrt(dual_check(datum, 1.0, res.A))!r}")
print(f"  hand simplification sqrt((4/3)^1.5 / 2) = {((4 / 3) ** 1.5 / 2) ** 0.5!r}")

# The quadratic for the off-diagonal entry has a second root, but it gives a
# singular matrix and is discarded by the closed form.
bad = np.array([[1.0, -1.0], [-1.0, 1.0]])
print(f"\ndiscarded second root has eigenvalues {np.linalg.eigvalsh(bad)} (singular)")

print("\nconstants across the valid exponent range (always < 1, -> 1 at the edges):")
for p in (1.05, 1.2, 4.0 / 3.0, 1.6, 1.9):
    ep = YoungExponents.from_pq(p, p)
    print(f"  p=q={p:<5} r={ep.r:.4f}  C={beckner_constant(ep):.12f}")
