"""Stress-testing a claimed constant against random Gaussian inputs.

For Gaussian inputs both sides of the inequalities are determinants, so a
claimed constant can be checked exactly: every random SPD tuple must give
ratio <= 1, the solved extremizers must give ratio = 1, and a deliberately
deflated constant must be caught.
"""

import numpy as np

from blgauss import (
    direct_extremizers,
    dual_check,
    make_datum,
    reverse_extremizers,
    solve,
    sweep_direct,
    sweep_dual,
    sweep_reverse,
)

datum = make_datum(
    2,
    [0.75, 0.75, 0.5],
    [np.array([[1.0, 1.0]]), np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])],
)
res = solve(datum)
print(f"solved constant C = {res.constant:.12f}")

ext_d = direct_extremizers(datum, res.A)
ext_r, envelope = reverse_extremizers(datum, res.A)
sweeps = [
    ("direct ", sweep_direct(datum, res.constant, 2000, 7, extremizer=ext_d)),
    ("reverse", sweep_reverse(datum, res.constant, 2000, 7, extremizer=ext_r)),
    ("dual   ", sweep_dual(datum, res.constant, 2000, 7, extremizer=envelope)),
]
print("\n2000 random SPD tuples per sweep:")
for name, (report, ratios) in sweeps:
    print(
        f"  {name} violations {report.violations}  worst ratio {report.worst_ratio:.12f}"
        f"  mean {ratios.mean():.6f}  extremizer gap {report.equality_gap:.1e}"
    )

# A deflated claim is caught immediately.
report, _ = sweep_direct(datum, 0.5 * res.constant, 2000, 7)
print(f"\nclaiming C/2 instead: {report.violations}/2000 violations, worst ratio {report.worst_ratio:.3f}")

# Coordinate maps with unit weights: the dual inequality is det A <= prod a_ii,
# with equality exactly on diagonal matrices.
hadamard = make_datum(3, [1.0] * 3, [np.eye(3)[i : i + 1] for i in range(3)])
rng = np.random.default_rng(0)
G = rng.standard_normal((3, 3))
spd = G @ G.T + 0.1 * np.eye(3)
print("\ndeterminant vs diagonal product (C = 1):")
print(f"  random SPD   ratio {dual_check(hadamard, 1.0, spd):.6f} (< 1)")
print(f"  diagonal     ratio {dual_check(hadamard, 1.0, np.diag([0.3, 2.0, 5.0])):.15f} (= 1)")
