"""Proof that the benchmark's checks are not vacuous.

Feeds the checkers, and the op runner that counts failures, outputs that are
wrong by a small margin: a constant off by 1e-6 relative, a wrong CLI exit
code, a +inf verdict on a finite datum, a leaked warning, an exception. Each
must come back as a failure, and the exact outputs must pass. ``run.py`` runs
this before every benchmark run and stops if it finds a problem.

Standalone, from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import math
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np

OFF = 1.0 + 1e-6


def _result(A, constant, converged=True):
    return SimpleNamespace(A=A, constant=constant, residual=0.0, iterations=1, converged=converged)


def problems(root: Path) -> list[str]:
    import blgauss as bg

    import checks as ck
    import harness
    import workloads
    from tracing import NullTracer

    e, d = workloads.young(*workloads.FLAGSHIP)
    C, A = bg.beckner_constant(e), bg.closed_form_A(e)
    cli = workloads.cli_cases(root)
    unattained = workloads.unattained()
    infinite = bg.make_datum(2, [1.5, 0.5], [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])

    exact = ck.suite_closed_forms(A, 1.0)

    def bd_stdout(shift: float) -> str:
        rows = [f"mc_log_mgf[{g}],{v + shift * 0.01!r},0.01,{v!r},0.0" for g, v in exact.items()]
        return "\n".join(["label,estimate,stderr,closed_form,z", *rows,
                          "drift_value[linear;zero],0.0,0.01,,-50.0"]) + "\n"

    young_check = lambda res: ck.check_young(res, C, A)  # noqa: E731
    converged_check = lambda res: ck.check_converged(d, res)  # noqa: E731
    finite = ck.finite_by_dimension_condition(unattained)

    def warns():
        warnings.warn("overflow", RuntimeWarning)
        return _result(A, C)

    def raises():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # name -> (check, a thunk giving the op's output)
    must_fail = {
        "young constant off by 1e-6": (young_check, lambda: _result(A, C * OFF)),
        "young A off by 1e-6": (young_check, lambda: _result(A * OFF, C)),
        "converged constant off by 1e-6": (converged_check, lambda: _result(A, C * OFF)),
        "frame constant off by 1e-6": (ck.check_constant_one, lambda: _result(np.eye(2), OFF)),
        "+inf on a finite datum": (lambda res: ck.check_solve_verdict(unattained, res, finite),
                                   lambda: _result(np.eye(2), math.inf, converged=False)),
        "sweep ratio 1 + 1e-6": (lambda out: ck.check_sweep(*out, 2), lambda: (
            SimpleNamespace(violations=0, equality_gap=0.0), np.array([0.5, OFF]))),
        "direct quadrature ratio off by 2e-4": (
            lambda r: ck.check_ratio(r, ck.QUAD_DIRECT_TOL, "direct"), lambda: 1.0 + 2e-4),
        "cli constant off by 1e-6": (cli["constant"].check, lambda: (0, f"{C * OFF!r}\n", "")),
        "cli constant with exit code 1": (cli["constant"].check, lambda: (1, f"{C!r}\n", "")),
        "cli infeasible with exit code 2": (cli["constant-infeasible"].check,
                                            lambda: (2, "", "error\n")),
        "cli infeasible with a finite constant": (cli["constant-infeasible"].check,
                                                  lambda: (0, "1.0\n", "")),
        "cli bd row 10 sigma off": (cli["bd"].check, lambda: (0, bd_stdout(10.0), "")),
        "op leaking a warning": (young_check, warns),
        "op raising": (young_check, raises),
    }
    must_pass = {
        "young exact": (young_check, lambda: _result(A, C)),
        "converged exact": (converged_check, lambda: _result(A, C)),
        "cli constant exact": (cli["constant"].check, lambda: (0, f"{C!r}\n", "")),
        "cli infeasible printing inf": (cli["constant-infeasible"].check, lambda: (0, "inf\n", "")),
        "cli bd rows on their closed forms": (cli["bd"].check, lambda: (0, bd_stdout(0.0), "")),
    }

    def judged(check, output):
        """The verdict the op runner reaches, exactly as in a benchmark run."""
        op = workloads.Op("self-test", lambda tr, state: output(), check)
        return harness.run_op(op, NullTracer(), {}, 0)[1]

    out = [f"{k}: not counted as failed" for k, case in must_fail.items() if judged(*case) is None]
    for k, case in must_pass.items():
        fail = judged(*case)
        if fail is not None:
            out.append(f"{k}: counted as failed ({fail.reason})")
    if ck.finite_by_dimension_condition(infinite):
        out.append("dimension condition: c = (3/2, 1/2) on e1, e2 read as finite")
    return out


if __name__ == "__main__":
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    found = problems(root)
    for p in found:
        print(f"FAIL {p}")
    print("self-test passed" if not found else f"self-test failed: {len(found)} problem(s)")
    sys.exit(1 if found else 0)
