"""Inputs and op lists of the benchmark workloads, and the per-layer probes.

Every input is made from the workload seed, so one seed always gives the
same inputs. The data that are solved are fixed, and the seed only sets the
order of the ops or the samples drawn: iteration counts, and in ``sweep``
the factor dimensions, change with the entries, so drawing the data from
the seed would make the work of a round depend on the seed.

An op is one call sequence into the package (through its public functions or
``blgauss.cli.main``) followed by a check from ``checks`` that uses no solver
code. Ops run in a closed loop: each starts after the previous one has
returned. Arguments are passed by keyword and ``threads`` is never passed, so
sweeps run with the default single worker.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import blgauss as bg
from blgauss import cli as bg_cli

import checks as ck
import hostspeed

FLAGSHIP = (4.0 / 3.0, 4.0 / 3.0)
YOUNG_AXIS = np.linspace(1.1, 1.75, 6)  # includes the slow corner p = q = 1.1
# The random homogeneous data are the first 50 of default_rng(1) and of
# default_rng(2), drawn the way tests/conftest.random_datum draws them. These
# streams hold the solver's known failures on such data: raised LinAlgErrors
# and leaked overflow warnings.
RANDOM_STREAMS = (1, 2)
# The fixed streams of the solve-large ladder and of the sweep's n = 6 datum.
# Drawn from the seed, the ladder's iteration total ranged from 3,431 to 4,305
# over six seeds, and its solve time with it.
SOLVE_LARGE_STREAM = 0
SWEEP_N6_STREAM = 0
RANDOM_PER_STREAM = 50
# (n, m, largest target dimension): rank-one factors with m = 1.5 n, then
# factors of target dimension 1 to 3 with m = n.
SOLVE_LARGE_LADDER = ([(n, 3 * n // 2, 1) for n in range(8, 25, 2)]
                      + [(n, n, 3) for n in range(8, 25, 2)])
SWEEP_SAMPLES = 250
SWEEP_SEEDS_PER_DATUM = 2
CHECK_INF_INSTANCES = 3
CHECK_INF_SAMPLES = 1000
DIRECT_RES = 801
REVERSE_RES = 201
KDIM2_RES = 81
BOX = 8.0
MC_PATHS = 100_000
MC_STEPS = 128
CRITERION7_A = np.array([[1.0, 0.3], [0.3, 0.8]])
# Fewest rounds of the op list in an untraced run. Each op's time is a mean
# over rounds, and the rounds spread it over more of the host's speed phases.
MIN_ROUNDS = 3
# The host-speed reference each workload's times are corrected by (see hostspeed).
HOST_REFERENCE = {"solve-small": hostspeed.CALLS, "solve-large": hostspeed.CALLS,
                  "sweep": hostspeed.CALLS, "functional": hostspeed.CALLS_AND_LOOP}


@dataclass
class Op:
    label: str
    run: Callable[[Any, dict], Any]   # (tracer, per-round state) -> output
    check: Callable[[Any], ck.Fail | None]


@dataclass
class Probe:
    """One per-layer measurement: ``reps`` timed calls of ``call(tracer)``,
    each making exactly one call into the package; the metric is the median
    call time divided by ``per``."""

    metric: str
    unit: str
    reps: int
    per: float
    call: Callable[[Any], Any]


def _seed_seq(seed: int, stream: str) -> np.random.Generator:
    tag = int.from_bytes(stream.encode(), "little") % (2**32)
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


# -- data --------------------------------------------------------------------------------

def young(p: float, q: float):
    e = bg.YoungExponents.from_pq(p, q)
    return e, bg.datum_from_exponents(e)


def prekopa_leindler():
    return bg.make_datum(1, [0.5, 0.5], [np.eye(1), np.eye(1)])


def hadamard3():
    return bg.make_datum(3, [1.0] * 3, [np.eye(3)[i : i + 1] for i in range(3)])


def mercedes():
    maps = [np.array([[math.cos(t), math.sin(t)]]) for t in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    return bg.make_datum(2, [2.0 / 3.0] * 3, maps)


def unattained():
    """c = (1/2, 1, 1/2), B = (e1, e2, e1+e2): C = 1, attained by no Gaussian."""
    maps = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([[1.0, 1.0]])]
    return bg.make_datum(2, [0.5, 1.0, 0.5], maps)


def _rank(M: np.ndarray) -> int:
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0


def random_homogeneous(rng: np.random.Generator):
    """Random non-degenerate homogeneous datum, n and m in {2, 3}, built the
    way the test suite builds them. Many have constant +inf."""
    while True:
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        dims = [int(rng.integers(1, n + 1)) for _ in range(m)]
        maps = []
        for ni in dims:
            B = rng.standard_normal((ni, n))
            while _rank(B) < ni:
                B = rng.standard_normal((ni, n))
            maps.append(B)
        if _rank(np.vstack(maps)) < n:
            continue
        cs = rng.uniform(0.3, 2.0, size=m)
        cs = cs * (n / float(np.dot(cs, dims)))
        return bg.make_datum(n, cs, maps)


def generic(rng: np.random.Generator, n: int, m: int, max_dim: int):
    """Gaussian maps with weights n / sum n_i: homogeneous, finite, attained."""
    dims = [int(d) for d in rng.integers(1, max_dim + 1, size=m)]
    maps = [rng.standard_normal((d, n)) for d in dims]
    return bg.make_datum(n, [n / sum(dims)] * m, maps)


def spd(rng: np.random.Generator, d: int) -> np.ndarray:
    G = rng.standard_normal((d, d))
    return G @ G.T + 0.1 * np.eye(d)


def young_extremizers(e):
    """Direct and reverse factor precisions at the closed-form A, by plain numpy."""
    A = bg.closed_form_A(e)
    maps = [np.array([[1.0, 1.0]]), np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])]
    reverse = [B @ A @ B.T for B in maps]
    return [np.linalg.inv(M) for M in reverse], reverse


def grids(precisions, points: int):
    return [bg.GridFunction.from_callable(bg.gaussian_function(P), -BOX, BOX, points)
            for P in precisions]


# -- op builders ---------------------------------------------------------------------------

def verdict_of(res) -> str:
    if res.converged:
        return "converged"
    return "inf" if res.constant == math.inf else "inconclusive"


def _solve(d):
    def run(tr, state):
        res = tr.call(bg.solve, datum=d)
        tr.note(iterations=res.iterations, verdict=verdict_of(res))
        return res
    return run


def _young_op(p: float, q: float) -> Op:
    e, d = young(p, q)
    ref_c, ref_a = bg.beckner_constant(e), bg.closed_form_A(e)
    return Op(f"young[{p:.4g},{q:.4g}]", _solve(d), lambda res: ck.check_young(res, ref_c, ref_a))


def _verdict_op(label: str, d) -> Op:
    finite = functools.cache(lambda: ck.finite_by_dimension_condition(d))
    return Op(label, _solve(d), lambda res: ck.check_solve_verdict(d, res, finite()))


def _cli_op(label: str, argv: list[str], check) -> Op:
    def run(tr, state):
        return tr.cli(bg_cli.main, argv, label)
    return Op(f"cli:{label}", run, check)


def _float_after(text: str, marker: str) -> float:
    m = re.search(re.escape(marker) + r"\s*([-+0-9.eEinf]+)", text)
    if m is None:
        raise ValueError(f"no {marker!r} in CLI output")
    return float(m.group(1))


def cli_cases(root: Path) -> dict[str, Op]:
    """Every subcommand on the demo data, with the exit code and output it must give."""
    data = root / "demos" / "data"
    young_json, pair_json = str(data / "young.json"), str(data / "young_pair.json")
    e_flag, _ = young(*FLAGSHIP)
    c_flag = bg.beckner_constant(e_flag)
    e_15 = bg.YoungExponents.from_pq(1.5, 1.2)
    a_flag = bg.closed_form_A(e_flag)

    def exit_then(expected, what, more=None):
        def check(out):
            code, stdout, _ = out
            return ck.check_exit(code, expected, what) or (more(stdout) if more else None)
        return check

    def lines_all(pattern, count):
        def check(stdout):
            hits = [ln for ln in stdout.splitlines() if re.search(pattern, ln)]
            if len(hits) != count:
                return ck.Fail(f"{len(hits)} lines match {pattern!r}, expected {count}", incorrect=True)
            return None
        return check

    def quadrature(stdout):
        direct = _float_after(stdout, "direct   ratio=")
        reverse = _float_after(stdout, "reverse  ratio=")
        return (ck.check_ratio(direct, ck.QUAD_DIRECT_TOL, "direct")
                or ck.check_ratio(reverse, ck.QUAD_REVERSE_TOL, "reverse"))

    def bd_rows(stdout):
        rows = [SimpleNamespace(label=label, estimate=float(est), stderr=float(se), z=float(z))
                for label, est, se, _, z in (ln.split(",") for ln in stdout.splitlines()[1:])]
        return ck.check_suite(rows, a_flag, 1.0)

    cases = [
        ("validate", ["validate", "--datum", young_json],
         exit_then(0, "validate", lines_all(r"^(frame|degenerate): False$", 2))),
        ("solve", ["solve", "--datum", young_json],
         exit_then(0, "solve", lambda s: ck.check_value(_float_after(s, "constant:"), c_flag,
                                                         ck.YOUNG_CONSTANT_RTOL, "constant"))),
        ("constant", ["constant", "--datum", young_json],
         exit_then(0, "constant", lambda s: ck.check_value(float(s), c_flag,
                                                            ck.YOUNG_CONSTANT_RTOL, "constant"))),
        # c = (3/2, 1/2) on e1, e2 breaks the dimension condition along e2:
        # the constant is +inf, a valid answer, so the exit code is 0.
        ("constant-infeasible", ["constant", "--datum", str(data / "infeasible.json")],
         exit_then(0, "constant on infeasible.json", lambda s: None if float(s) == math.inf
                   else ck.Fail(f"constant {s.strip()} on a datum whose constant is +inf",
                                incorrect=True))),
        ("young", ["young", "--p", "1.5", "--q", "1.2"],
         exit_then(0, "young", lambda s: ck.check_value(
             _float_after(s, "constant (solver):"), bg.beckner_constant(e_15),
             ck.YOUNG_CONSTANT_RTOL, "solver constant"))),
        ("split", ["split", "--datum", pair_json],
         exit_then(0, "split", lines_all(r"gap=.* ok$", 2))),
        ("check-gaussian", ["check-gaussian", "--datum", young_json],
         exit_then(0, "check-gaussian", lines_all(r"violations=0 ", 3))),
        ("check-inf", ["check-inf", "--datum", young_json],
         exit_then(0, "check-inf", lines_all(r"violations=0 ", 1))),
        ("check-quadrature", ["check-quadrature", "--datum", young_json,
                              "--resolution", str(REVERSE_RES)],
         exit_then(0, "check-quadrature", quadrature)),
        ("bd", ["bd", "--datum", young_json], exit_then(0, "bd", bd_rows)),
    ]
    return {label: _cli_op(label, argv, check) for label, argv, check in cases}


# -- workloads -----------------------------------------------------------------------------------

def solve_small(seed: int, root: Path, cli: dict[str, Op]) -> list[Op]:
    """Call overhead and iteration count dominate: many solves of n <= 4.
    The data are the same for every seed; the seed shuffles the op order."""
    ops = [_young_op(p, q) for p in YOUNG_AXIS for q in YOUNG_AXIS]
    ops.append(_young_op(*FLAGSHIP))
    for label, d in (("prekopa-leindler", prekopa_leindler()), ("hadamard3", hadamard3()),
                     ("mercedes", mercedes())):
        ops.append(Op(f"frame[{label}]", _solve(d), ck.check_constant_one))
    for stream in RANDOM_STREAMS:
        rng = np.random.default_rng(stream)
        ops += [_verdict_op(f"random[{stream}:{k}]", random_homogeneous(rng))
                for k in range(RANDOM_PER_STREAM)]
    ops.append(_verdict_op("unattained", unattained()))

    pair = bg.load_datum(root / "demos" / "data" / "young_pair.json")
    E = bg.Subspace.from_rows(np.eye(4)[:2])
    c_young = bg.beckner_constant(young(*FLAGSHIP)[0])

    def split(tr, state):
        return tr.call(bg.multiplicativity_check, datum=pair, E=E)

    def split_check(r):
        if not r.gap <= ck.SPLIT_GAP_TOL:
            return ck.Fail(f"split gap {r.gap:.1e}", incorrect=True)
        return (ck.check_value(r.constant, c_young**2, ck.CONSTANT_RTOL, "pair constant")
                or ck.check_value(r.restricted_constant, c_young, ck.CONSTANT_RTOL, "C_E")
                or ck.check_value(r.quotient_constant, c_young, ck.CONSTANT_RTOL, "C_perp"))

    ops.append(Op("multiplicativity[young-pair]", split, split_check))
    ops += [cli[k] for k in ("validate", "solve", "constant", "young", "split", "constant-infeasible")]
    order = _seed_seq(seed, "solve-small-order").permutation(len(ops))
    return [ops[i] for i in order]


def solve_large(seed: int, root: Path, cli: dict[str, Op]) -> list[Op]:
    """Cost per iteration dominates: n from 8 to 24, up to 36 factors.
    The data are the same for every seed; the seed shuffles the op order."""
    rng = np.random.default_rng(SOLVE_LARGE_STREAM)
    ops = []
    for n, m, max_dim in SOLVE_LARGE_LADDER:
        d = generic(rng, n, m, max_dim)
        ops.append(Op(f"generic[n={n},m={m},dim<={max_dim}]", _solve(d),
                      functools.partial(ck.check_converged, d)))
    order = _seed_seq(seed, "solve-large-order").permutation(len(ops))
    return [ops[i] for i in order]


def sweep(seed: int, root: Path, cli: dict[str, Op]) -> list[Op]:
    """Per-sample Python loops of the Gaussian sweeps, beside the vectorized check_inf."""
    rng = _seed_seq(seed, "sweep")
    e, d_young = young(*FLAGSHIP)
    c_young, a_young = bg.beckner_constant(e), bg.closed_form_A(e)
    n6 = generic(np.random.default_rng(SWEEP_N6_STREAM), 6, 8, 3)
    data = {
        "young": (d_young, lambda res: ck.check_young(res, c_young, a_young)),
        "hadamard3": (hadamard3(), ck.check_constant_one),
        "mercedes": (mercedes(), ck.check_constant_one),
        "n6": (n6, functools.partial(ck.check_converged, n6)),
    }
    ops = []
    for name, (d, check) in data.items():
        def solve_and_extremize(tr, state, d=d, name=name):
            res = _solve(d)(tr, state)
            ext = tr.call(bg.direct_extremizers, datum=d, A=res.A)
            rev, env = tr.call(bg.reverse_extremizers, datum=d, A=res.A)
            state[name] = (res.constant, {"direct": ext, "reverse": rev, "dual": env})
            return res
        ops.append(Op(f"solve[{name}]", solve_and_extremize, check))

    sweeps = {"direct": bg.sweep_direct, "reverse": bg.sweep_reverse, "dual": bg.sweep_dual}
    sweep_seeds = [int(s) for s in rng.integers(0, 2**31, size=SWEEP_SEEDS_PER_DATUM)]
    for name, (d, _) in data.items():
        for s in sweep_seeds:
            for kind, fn in sweeps.items():
                def run(tr, state, d=d, name=name, kind=kind, fn=fn, s=s):
                    if name not in state:
                        raise RuntimeError(f"solve[{name}] failed this round; nothing to certify")
                    constant, ext = state[name]
                    report, ratios = tr.call(fn, datum=d, constant=constant, samples=SWEEP_SAMPLES,
                                             seed=s, extremizer=ext[kind])
                    tr.note(violations=report.violations)
                    return report, ratios
                ops.append(Op(f"sweep_{kind}[{name},seed={s}]", run,
                              lambda out: ck.check_sweep(out[0], out[1], SWEEP_SAMPLES)))
    for name, (d, _) in data.items():
        for k in range(CHECK_INF_INSTANCES):
            tup = [spd(rng, f.target_dim) for f in d.factors]
            x = rng.standard_normal(d.n)
            s = int(rng.integers(0, 2**31))

            def run(tr, state, d=d, tup=tup, x=x, s=s):
                return tr.call(bg.check_inf, datum=d, tuple_=tup, x=x,
                               samples=CHECK_INF_SAMPLES, seed=s)
            ops.append(Op(f"check_inf[{name},{k}]", run,
                          lambda r: ck.check_inf_report(r, CHECK_INF_SAMPLES)))
    ops += [cli["check-gaussian"], cli["check-inf"]]
    return ops


def functional(seed: int, root: Path, cli: dict[str, Op]) -> list[Op]:
    """Spline evaluation in the sup-convolution and the full Brownian path array."""
    rng = _seed_seq(seed, "functional")
    ops = []
    pairs = [FLAGSHIP] + [tuple(float(v) for v in rng.uniform(1.2, 1.7, size=2)) for _ in range(3)]
    for p, q in pairs:
        e, d = young(p, q)
        fs = grids(young_extremizers(e)[0], DIRECT_RES)
        c = bg.beckner_constant(e)

        def run(tr, state, d=d, fs=fs, c=c):
            return tr.call(bg.direct_integral_check, datum=d, fs=fs, constant=c,
                           resolution=DIRECT_RES, box=BOX)
        ops.append(Op(f"direct[{p:.4g},{q:.4g}]", run,
                      lambda r: ck.check_ratio(r, ck.QUAD_DIRECT_TOL, "direct")))

    p, q = (float(v) for v in rng.uniform(1.2, 1.7, size=2))
    e, d = young(p, q)
    fr = grids(young_extremizers(e)[1], REVERSE_RES)
    c = bg.beckner_constant(e)

    def reverse(tr, state):
        return tr.call(bg.reverse_integral_check, datum=d, fs=fr, constant=c,
                       resolution=REVERSE_RES, box=BOX)
    ops.append(Op(f"reverse[{p:.4g},{q:.4g}]", reverse,
                  lambda r: ck.check_ratio(r, ck.QUAD_REVERSE_TOL, "reverse")))

    d3 = bg.make_datum(1, [1.0 / 3.0] * 3, [np.eye(1)] * 3)
    for a in rng.uniform(0.5, 2.0, size=3):
        fs3 = grids([np.array([[a]])] * 3, 401)

        def kdim2(tr, state, fs3=fs3):
            return tr.call(bg.reverse_integral_check, datum=d3, fs=fs3, constant=1.0,
                           resolution=KDIM2_RES, box=BOX)
        ops.append(Op(f"reverse_kdim2[a={a:.4g}]", kdim2,
                      lambda r: ck.check_ratio(r, ck.QUAD_REVERSE_TOL, "reverse (2-d kernel)")))

    config = bg.BrownianConfig(A=CRITERION7_A, horizon=1.0, steps=MC_STEPS, paths=MC_PATHS,
                               seed=int(rng.integers(0, 2**31)))

    def suite(tr, state):
        return tr.call(bg.builtin_suite, config=config)
    ops.append(Op("builtin_suite", suite, lambda rows: ck.check_suite(rows, CRITERION7_A, 1.0)))
    ops += [cli["check-quadrature"], cli["bd"]]
    return ops


BUILDERS = {"solve-small": solve_small, "solve-large": solve_large, "sweep": sweep,
            "functional": functional}


def build(name: str, seed: int, root: Path) -> list[Op]:
    return BUILDERS[name](seed, root, cli_cases(root))


# -- per-layer probes (traced runs only) ---------------------------------------------------------

def probes(seed: int, root: Path) -> list[Probe]:
    """Fixed single-call measurements, identical in every workload's traced run."""
    from blgauss import _linalg

    rng = _seed_seq(seed, "probes")
    e, d_young = young(*FLAGSHIP)
    a_young = bg.closed_form_A(e)
    c_young = bg.beckner_constant(e)
    d20 = generic(rng, 20, 30, 1)
    res20 = bg.solve(datum=d20)
    a20 = res20.A
    tup = [spd(rng, 1) for _ in range(3)]
    x = rng.standard_normal(2)
    direct_fs = grids(young_extremizers(e)[0], DIRECT_RES)
    reverse_fs = grids(young_extremizers(e)[1], 101)
    d3 = bg.make_datum(1, [1.0 / 3.0] * 3, [np.eye(1)] * 3)
    kdim2_fs = grids([np.eye(1)] * 3, 401)
    pair = bg.load_datum(root / "demos" / "data" / "young_pair.json")
    E = bg.Subspace.from_rows(np.eye(4)[:2])
    config = bg.BrownianConfig(A=CRITERION7_A, horizon=1.0, steps=MC_STEPS, paths=MC_PATHS,
                               seed=int(rng.integers(0, 2**31)))
    g = bg.linear_g(np.linspace(1.0, 0.5, 2))

    out = [
        Probe("gaussian_solver.us_per_iter", "us", 1, max(1, res20.iterations),
              lambda tr: tr.call(bg.solve, datum=d20)),
        Probe("gaussian_solver.fp_map_us.small", "us", 200, 1.0,
              lambda tr: tr.call(bg.fp_map, datum=d_young, A=a_young)),
        Probe("gaussian_solver.fp_map_us.large", "us", 30, 1.0,
              lambda tr: tr.call(bg.fp_map, datum=d20, A=a20)),
        Probe("datum.validate_us.n2", "us", 200, 1.0,
              lambda tr: tr.call(bg.validate, datum=d_young)),
        Probe("datum.validate_us.n20", "us", 50, 1.0, lambda tr: tr.call(bg.validate, datum=d20)),
        Probe("structure.split_ms", "ms", 3, 1.0,
              lambda tr: tr.call(bg.multiplicativity_check, datum=pair, E=E)),
        Probe("quadform.harmonic_combine_us", "us", 200, 1.0,
              lambda tr: tr.call(bg.harmonic_combine, datum=d_young, tuple_=tup)),
        Probe("quadform.check_inf_us_per_sample", "us", 10, CHECK_INF_SAMPLES,
              lambda tr: tr.call(bg.check_inf, datum=d_young, tuple_=tup, x=x,
                                 samples=CHECK_INF_SAMPLES, seed=seed)),
        Probe("functional_verify.direct_ns_per_point", "ns", 3, DIRECT_RES**2,
              lambda tr: tr.call(bg.direct_integral_check, datum=d_young, fs=direct_fs,
                                 constant=c_young, resolution=DIRECT_RES, box=BOX)),
        Probe("functional_verify.supconv_ns_per_eval", "ns", 3, 101**3,
              lambda tr: tr.call(bg.sup_convolution, datum=d_young, fs=reverse_fs,
                                 resolution=101, box=BOX)),
        Probe("functional_verify.supconv_kdim2_ns_per_eval", "ns", 3, KDIM2_RES**3,
              lambda tr: tr.call(bg.sup_convolution, datum=d3, fs=kdim2_fs,
                                 resolution=KDIM2_RES, box=BOX)),
        Probe("stochastic.mc_log_mgf_ms", "ms", 3, 1.0,
              lambda tr: tr.call(bg.mc_log_mgf, config=config, g=g)),
        Probe("stochastic.suite_ms", "ms", 2, 1.0,
              lambda tr: tr.call(bg.builtin_suite, config=config)),
    ]
    for kind, fn in (("direct", bg.sweep_direct), ("reverse", bg.sweep_reverse),
                     ("dual", bg.sweep_dual)):
        out.append(Probe(f"gaussian_verify.us_per_sample.{kind}", "us", 3, SWEEP_SAMPLES,
                         lambda tr, fn=fn: tr.call(fn, datum=d_young, constant=c_young,
                                                   samples=SWEEP_SAMPLES, seed=seed)))
    # chol_logdet is private and may be folded into a batched core; then the
    # probe is reported absent rather than failing the run.
    chol = getattr(_linalg, "chol_logdet", None)
    for n in (1, 2, 20):
        M = spd(rng, n)
        out.append(Probe(f"linalg.chol_logdet_us.n{n}", "us", 300, 1.0,
                         None if chol is None else (lambda tr, M=M: tr.call(chol, M=M))))
    return out


def mc_config_bytes() -> int:
    """Computed size of the path array ``simulate`` materializes for the
    probe configuration: paths x (steps + 1) x n x 8 bytes."""
    return MC_PATHS * (MC_STEPS + 1) * CRITERION7_A.shape[0] * 8


def mc_peak_probe(seed: int):
    """The config and g the memory probe runs ``mc_log_mgf`` on."""
    rng = _seed_seq(seed, "mc-peak")
    config = bg.BrownianConfig(A=CRITERION7_A, horizon=1.0, steps=MC_STEPS, paths=MC_PATHS,
                               seed=int(rng.integers(0, 2**31)))
    return config, bg.quadratic_g(np.eye(2))
