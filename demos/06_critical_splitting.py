"""Splitting a constant across a critical subspace.

A subspace E is critical when dim E = sum_i c_i dim(B_i E). Along such a
subspace the constant factorizes: C = C_restricted * C_quotient. The demo
builds the direct sum of two convolution data, finds its critical coordinate
subspaces, and verifies the product identity on each.
"""

import numpy as np

from blgauss import (
    Subspace,
    coordinate_subspaces,
    direct_sum,
    is_critical,
    make_datum,
    multiplicativity_check,
    solve,
)

young = make_datum(
    2,
    [0.75, 0.75, 0.5],
    [np.array([[1.0, 1.0]]), np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])],
)
pair = direct_sum(young, young)
C = solve(pair).constant
print(f"direct sum of two convolution data on R^4: C = {C:.12f}")
print(f"(square of the one-block constant {solve(young).constant:.12f})")

critical = [E for E in coordinate_subspaces(4) if is_critical(pair, E)]
print(f"\ncritical coordinate subspaces: {len(critical)} of {2**4 - 2}")

for E in critical:
    axes = [int(a) for a in np.flatnonzero(np.abs(E.basis).max(axis=1) > 1e-12)]
    r = multiplicativity_check(pair, E)
    print(
        f"  axes {axes}: C_E = {r.restricted_constant:.12f}, "
        f"C_perp = {r.quotient_constant:.12f}, relative gap {r.gap:.1e}"
    )

# A single axis is not critical here (weights sum to 5/4 on it, not 1), and
# the product identity is refused rather than silently misapplied.
e0 = Subspace.from_rows(np.array([[1.0, 0.0, 0.0, 0.0]]))
print(f"\nspan(e0) critical? {is_critical(pair, e0)}")
try:
    multiplicativity_check(pair, e0)
except ValueError as exc:
    print(f"multiplicativity_check refused: {exc}")

# The same datum after a change of variables: every map B_i becomes B_i M,
# and the critical subspace span(e0, e1) becomes M^-1 span(e0, e1), no longer
# a coordinate subspace. The second block's maps send it to zero in exact
# arithmetic and to roundoff here; measured against B_i M, that roundoff has
# dimension 0, so the subspace is critical and the split goes through.
M = np.array([[2.0, 1.0, 0.0, 1.0],
              [0.0, 1.0, 1.0, 0.0],
              [1.0, 0.0, 3.0, 1.0],
              [0.0, 1.0, 0.0, 2.0]])
mapped = make_datum(4, pair.weights, [f.B @ M for f in pair.factors])
E = Subspace.from_rows(np.linalg.solve(M, np.eye(4)[:, :2]).T)
r = multiplicativity_check(mapped, E)
print(f"\nmapped by M, along M^-1 span(e0, e1): critical? {is_critical(mapped, E)}")
print(
    f"  C_E = {r.restricted_constant:.12f}, "
    f"C_perp = {r.quotient_constant:.12f}, relative gap {r.gap:.1e}"
)
