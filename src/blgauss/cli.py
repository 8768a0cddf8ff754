"""Command-line front end.

Subcommands mirror the library: validate / solve / constant for the fixed
point itself, check-gaussian / check-quadrature / check-inf / bd for the
independent verification layers, young and split for the closed-form test
bed and critical-subspace splitting.

Each subcommand is a function (args, datum) -> (payload, outcome) that only
computes and prints; main has loaded --datum (None for young and a bd run
without one). The outcome is True when every check passed, or for solve and
constant the SolveResult. main writes the --out report, then sets the exit
code: 0 success, 1 a check was violated or a solve was inconclusive (or +inf
where a finite constant is needed), 2 bad input. So a report is written
whenever the checks ran, violated or not, and solve and constant write one
whatever the verdict; none is written when a verdict stops the run before any
check, or on bad input. A report is deterministic for a fixed command line:
seeds default to fixed constants and it embeds the datum digest, the options
used, the seed, and the library version.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .datum import BLDatum, DatumError, check_count, datum_digest, load_datum, validate
from .functional_verify import (DEFAULT_BOX, GridFunction, check_quadrature, direct_integral_check,
                                gaussian_function, reverse_integral_check)
from .gaussian_solver import (DEFAULT_MAX_ITER, DEFAULT_TOL, ConvergenceError, SolveResult, direct_extremizers,
                              reverse_extremizers, solve)
from .gaussian_verify import DEFAULT_SAMPLES, sample_tuple, sweep_direct_and_reverse, sweep_dual
from .quadform import check_inf
from .report import DEFAULT_SEED, check_seed
from .stochastic import BrownianConfig, builtin_suite, check_draws
from .structure import Subspace, _multiplicativity_checks, coordinate_subspaces, is_critical
from .young import YoungExponents, beckner_constant, closed_form_A, constant_from_cs, datum_from_exponents

# Quadrature slack: grid error, not roundoff, so looser than the Gaussian sweeps.
QUAD_DIRECT_SLACK = 1e-3
QUAD_REVERSE_SLACK = 5e-3
SPLIT_GAP_TOL = 1e-8


def _json_options(args: argparse.Namespace) -> dict:
    # output destinations are not part of the computation
    skip = {"func", "command", "out", "csv", "trace"}
    return {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in skip and isinstance(v, (bool, int, float, str, type(None)))
    }


def _strict(x):
    """x with every non-finite float spelled "inf", "-inf" or "nan": strict
    JSON has no literal for them."""
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return str(float(x))
    return x


def _write_report(args, payload: dict, datum: BLDatum | None = None) -> None:
    out = getattr(args, "out", None)
    if not out:
        return
    doc = {
        "command": args.command,
        "version": __version__,
        "options": _json_options(args),
    }
    if datum is not None:
        doc["datum_digest"] = datum_digest(datum)
    doc.update(payload)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_strict(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(path: str, header: str, rows) -> None:
    """The --trace and --csv files: the header line, then one line per row,
    strings as they are and numbers by repr."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n")


def _verdict(res: SolveResult, inf_ok: bool) -> SolveResult:
    """The one reading of a solve's verdict: pass it through when it converged,
    or found +inf and `inf_ok`; else raise ConvergenceError saying why."""
    if res.converged or (inf_ok and res.constant == math.inf):
        return res
    raise ConvergenceError("the constant is +inf" if res.constant == math.inf
                           else "the solve was inconclusive")


def _finite_solve(args, datum: BLDatum) -> SolveResult:
    """The converged solve at --tol and --max-iter that a check needs."""
    return _verdict(solve(datum, tol=args.tol, max_iter=args.max_iter), inf_ok=False)


# -- subcommands -----------------------------------------------------------------

def cmd_validate(args, datum):
    diag = validate(datum)
    print(f"n={datum.n} m={datum.m} dims={list(datum.dims)}")
    print(f"homogeneity defect: {diag.homogeneity_defect:+.3e}")
    print(f"degenerate: {diag.degenerate}")
    print(f"frame: {diag.frame}")
    print(f"zero maps: {diag.zero_map_indices or 'none'}")
    witness = diag.kernel_witness
    print(f"kernel witness: {'none' if witness is None else f'factor {witness}'}")
    return {"diagnostics": diag.to_dict()}, True


def cmd_solve(args, datum):
    res = solve(datum, tol=args.tol, max_iter=args.max_iter)
    print(f"converged: {res.converged}  iterations: {res.iterations}  residual: {res.residual:.3e}")
    print(f"constant: {res.constant!r}")
    print("A (det-normalized):")
    for row in res.A:
        print("  " + "  ".join(f"{v:+.12e}" for v in row))
    if args.trace:
        _write_csv(args.trace, "iteration,residual,objective", res.trace)
    return {"result": res.to_dict()}, res


def cmd_constant(args, datum):
    res = solve(datum, tol=args.tol, max_iter=args.max_iter)
    print(f"{res.constant!r}")
    return {"constant": res.constant, "converged": res.converged}, res


def cmd_check_gaussian(args, datum):
    if args.constant is not None:
        constant = args.constant
        ext_direct = ext_reverse = ext_dual = None
    else:
        res = _finite_solve(args, datum)
        constant = res.constant
        ext_direct = direct_extremizers(datum, res.A)
        ext_reverse, ext_dual = reverse_extremizers(datum, res.A)

    direct, reverse = sweep_direct_and_reverse(datum, constant, args.samples, args.seed,
                                               extremizers=(ext_direct, ext_reverse))
    sweeps = [
        ("direct", direct),
        ("reverse", reverse),
        ("dual", sweep_dual(datum, constant, args.samples, args.seed, extremizer=ext_dual)),
    ]
    for name, (report, _) in sweeps:
        gap = f"  extremizer gap {report.equality_gap:.2e}" if report.equality_gap is not None else ""
        print(
            f"{name:8s} samples={report.samples} violations={report.violations} "
            f"worst_ratio={report.worst_ratio:.12f}{gap}"
        )
    if args.csv:
        _write_csv(args.csv, "check,sample,ratio", ((name, i, r) for name, (_, ratios) in sweeps
                                                    for i, r in enumerate(ratios.tolist())))
    checks = {name: report.to_dict() for name, (report, _) in sweeps}
    return {"constant": constant, "checks": checks}, all(report.ok for _, (report, _) in sweeps)


def cmd_check_quadrature(args, datum):
    skipped = check_quadrature(datum, args.box, args.resolution)
    res = _finite_solve(args, datum)
    checks = [("direct", direct_extremizers(datum, res.A), direct_integral_check, QUAD_DIRECT_SLACK)]
    if skipped is None:
        checks.append(("reverse", reverse_extremizers(datum, res.A)[0], reverse_integral_check,
                       QUAD_REVERSE_SLACK))

    payload = {"constant": res.constant, "checks": {}}
    for name, precisions, check, slack in checks:
        fs = [GridFunction.from_callable(gaussian_function(P), -args.box, args.box, args.resolution)
              for P in precisions]
        ratio = check(datum, fs, res.constant, args.resolution, args.box)
        print(f"{name:8s} ratio={ratio:.8f}  (equality expected: gap {abs(ratio - 1.0):.2e})")
        payload["checks"][name] = {"ratio": ratio, "ok": ratio <= 1.0 + slack}
    if skipped is not None:
        print(f"reverse  skipped ({skipped})")
    return payload, all(c["ok"] for c in payload["checks"].values())


def cmd_check_inf(args, datum):
    check_count("instances", args.instances, 1)
    check_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    reports = []
    for k in range(args.instances):
        tup = sample_tuple(datum, rng)
        x = rng.standard_normal(datum.n)
        reports.append(check_inf(datum, tup, x, samples=args.samples, seed=args.seed + k))
    print(
        f"instances={args.instances} samples={args.samples} per instance  "
        f"violations={sum(r.violations for r in reports)}  "
        f"worst_ratio={max(r.worst_ratio for r in reports):.12f}"
    )
    return {"instances": [r.to_dict() for r in reports]}, all(r.ok for r in reports)


def cmd_bd(args, datum):
    if datum is not None:
        A = _verdict(solve(datum), inf_ok=False).A
    else:
        check_count("dim", args.dim, 1)
        check_draws(args.dim, args.steps, args.paths)  # before np.eye allocates dim^2 floats
        A = np.eye(args.dim)
    config = BrownianConfig(A=A, horizon=args.horizon, steps=args.steps, paths=args.paths, seed=args.seed)
    rows = builtin_suite(config)
    print("label,estimate,stderr,closed_form,z")
    for r in rows:
        closed = "" if r.closed_form is None else repr(r.closed_form)
        print(f"{r.label},{r.estimate!r},{r.stderr!r},{closed},{r.z!r}")
    return {"rows": [{**dataclasses.asdict(r), "ok": r.ok} for r in rows]}, all(r.ok for r in rows)


def cmd_young(args, _):
    if args.r is None:
        e = YoungExponents.from_pq(args.p, args.q)
    else:
        e = YoungExponents(args.p, args.q, args.r)
    datum = datum_from_exponents(e)
    A = closed_form_A(e)
    res = _finite_solve(args, datum)
    c1, c2, c3 = e.weights
    print(f"p={e.p} q={e.q} r={e.r}  weights=({c1:.6f}, {c2:.6f}, {c3:.6f})")
    print("closed-form A (det-normalized):")
    for row in A:
        print("  " + "  ".join(f"{v:+.12e}" for v in row))
    print(f"constant (exponent form): {beckner_constant(e)!r}")
    print(f"constant (weight form):   {constant_from_cs(c1, c2, c3)!r}")
    print(f"constant (solver):        {res.constant!r}")
    print(f"solver max|A - closed|:   {np.abs(res.A - A).max():.3e}")
    return {
        "datum_digest": datum_digest(datum),
        "exponents": {"p": e.p, "q": e.q, "r": e.r},
        "constant": beckner_constant(e),
        "solver_constant": res.constant,
        "A": A.tolist(),
    }, True


def cmd_split(args, datum):
    if args.subspace:
        with open(args.subspace, "r", encoding="utf-8") as fh:
            candidates = [Subspace.from_rows(json.load(fh))]
    else:
        candidates = [E for E in coordinate_subspaces(datum.n) if is_critical(datum, E)]
        if not candidates:
            print("no critical coordinate subspace found (only coordinate subspaces were "
                  "tried; pass --subspace to split along another)")

    splits = []
    checks = _multiplicativity_checks(datum, candidates, {"tol": args.tol, "max_iter": args.max_iter})
    for E, result in zip(candidates, checks):
        ok = result.gap <= SPLIT_GAP_TOL
        axes = [int(a) for a in np.flatnonzero(np.abs(E.basis).max(axis=1) > 1e-12)]
        print(
            f"E(dim {E.dim}, axes~{axes}): C={result.full.constant:.12f} "
            f"C_E={result.restricted.constant:.12f} C_perp={result.quotient.constant:.12f} "
            f"gap={result.gap:.2e} {'ok' if ok else 'VIOLATION'}"
        )
        splits.append({**result.to_dict(), "dim": E.dim, "ok": ok})
    return {"splits": splits}, all(s["ok"] for s in splits)


# -- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blgauss",
        description="Brascamp-Lieb constants via Gaussian fixed points, with built-in verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, datum=True, solver=False, sampling=False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        if datum:
            p.add_argument("--datum", required=True, help="path to a datum JSON file ({n, factors:[{c, rows}]})")
        p.add_argument("--out", default=None, help="write a JSON report here")
        if solver:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="solver convergence tolerance")
            p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER, dest="max_iter")
        if sampling:
            p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        return p

    add("validate", cmd_validate, "diagnose a datum (homogeneity, degeneracy, frame, zero maps, kernel witness)")

    p = add("solve", cmd_solve, "run the fixed-point solver", solver=True)
    p.add_argument("--trace", default=None, help="write the iteration trace CSV here")

    add("constant", cmd_constant, "print the Brascamp-Lieb constant", solver=True)

    p = add("check-gaussian", cmd_check_gaussian, "random-tuple determinant inequality sweeps",
            solver=True, sampling=True)
    p.add_argument("--constant", type=float, default=None,
                   help="check this constant instead of the solver's")
    p.add_argument("--csv", default=None, help="write per-sample ratios CSV here")

    p = add("check-quadrature", cmd_check_quadrature, "grid quadrature of the integral inequalities",
            solver=True)
    p.add_argument("--resolution", type=int, default=801, help="grid points per axis")
    p.add_argument("--box", type=float, default=DEFAULT_BOX, help="half-width of every box")

    p = add("check-inf", cmd_check_inf, "brute-force the harmonic-combination infimum", sampling=True)
    p.add_argument("--instances", type=int, default=10, help="random (tuple, point) instances")

    p = add("bd", cmd_bd, "Monte Carlo of the variational log-MGF formula", datum=False)
    p.add_argument("--datum", default=None, help="use the solved covariance of this datum")
    p.add_argument("--dim", type=int, default=1, help="dimension when no datum is given")
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=128,
                   help="time steps of the drift quadrature; W_T does not depend on it")
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("young", cmd_young, "closed-form convolution datum on the line", datum=False, solver=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--r", type=float, default=None, help="inferred from p, q when omitted")

    p = add("split", cmd_split, "critical-subspace multiplicativity check", solver=True)
    p.add_argument("--subspace", default=None,
                   help="JSON file with basis row vectors; coordinate subspaces are enumerated when omitted")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that main reuses: building one costs far more than a parse."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        datum = None if getattr(args, "datum", None) is None else load_datum(args.datum)
        payload, outcome = args.func(args, datum)
        _write_report(args, payload, datum)
        if isinstance(outcome, SolveResult):  # solve, constant: the report first, then the verdict
            _verdict(outcome, inf_ok=True)
            return 0
        return 0 if outcome else 1
    except (DatumError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
