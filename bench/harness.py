"""Closed-loop op execution, failure accounting and metric derivation."""

from __future__ import annotations

import statistics
import time
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

import hostspeed
from checks import Fail
from tracing import Tracer, self_times

# The package's modules that get per-layer numbers. ``young`` supplies exact
# reference values for the checks and is not timed; ``report`` is a record.
LAYERS = ("_linalg", "datum", "gaussian_solver", "gaussian_verify", "quadform",
          "functional_verify", "stochastic", "structure", "cli")
VERDICTS = ("converged", "inf", "inconclusive", "error")


def self_ms_name(layer: str) -> str:
    """Metric names start with a letter or digit, so ``_linalg`` reports as ``linalg``."""
    return f"{layer.lstrip('_')}.self_ms"


@dataclass
class Record:
    round: int
    index: int
    label: str
    seconds: float
    fail: Fail | None
    traced: bool
    ref: float  # reference routine time, run just before the op


def run_op(op, tr, state: dict, round_: int) -> tuple[float, Fail | None]:
    """Time one op and judge it. An exception, a leaked warning or a failed
    check makes the op fail; the failure is returned, never raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            with tr.op(op.label, round_):
                out = op.run(tr, state)
        except Exception as exc:  # an op that raises is a counted failure
            return time.perf_counter() - t0, Fail(f"raised {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
    if caught:
        w = caught[0]
        return dt, Fail(f"leaked {w.category.__name__}: {w.message}")
    try:
        return dt, op.check(out)
    except Exception as exc:  # output the checker cannot read is wrong output
        return dt, Fail(f"unreadable output: {type(exc).__name__}: {exc}", incorrect=True)


def run_rounds(ops, tracers, seconds: float, min_rounds: int,
               reference: hostspeed.Reference) -> list[Record]:
    """Repeat the op list, round by round through ``tracers`` in turn, until
    ``seconds`` have passed and each tracer has had ``min_rounds`` rounds.
    Alternating keeps traced and untraced rounds under the same machine load.
    The host-speed ``reference`` runs before every op, outside its timing."""
    records = []
    start = time.perf_counter()
    k = len(tracers)
    r = 0
    while r < min_rounds * k or r % k or time.perf_counter() - start < seconds:
        tr = tracers[r % k]
        state: dict = {}
        with tr.instrumented():
            for i, op in enumerate(ops):
                ref = reference.seconds()
                dt, fail = run_op(op, tr, state, r)
                records.append(Record(r, i, op.label, dt, fail, tr.enabled, ref))
        r += 1
    return records


def round_refs(records: list[Record]) -> dict[int, float]:
    """Mean reference routine time of each round. The host switches between
    a fast and a slow speed, so a median would jump between the two; the
    mean follows the share of the round spent at each, as op times do."""
    by_round: dict[int, list[float]] = {}
    for rec in records:
        by_round.setdefault(rec.round, []).append(rec.ref)
    return {r: statistics.fmean(v) for r, v in by_round.items()}


def op_seconds(records: list[Record], nominal_s: float | None) -> list[float]:
    """Each op's mean time over the rounds, in op-list order. Given the
    reference's ``nominal_s``, times are nominal: each measured time times
    ``nominal_s`` over the reference's mean time in the same round, which is
    seconds at a fixed host speed. Without it, times are as measured."""
    refs = round_refs(records)
    by_op: dict[int, list[float]] = {}
    for rec in records:
        scale = nominal_s / refs[rec.round] if nominal_s else 1.0
        by_op.setdefault(rec.index, []).append(rec.seconds * scale)
    return [statistics.fmean(by_op[i]) for i in sorted(by_op)]


def wall_s(records: list[Record], nominal_s: float | None) -> float:
    """Seconds to finish the op list once: the sum of the ops' mean times."""
    return sum(op_seconds(records, nominal_s))


def round_seconds(records: list[Record]) -> list[float]:
    """Measured op time per round, in round order."""
    out: dict[int, float] = {}
    for rec in records:
        out[rec.round] = out.get(rec.round, 0.0) + rec.seconds
    return [out[r] for r in sorted(out)]


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a mean of all order
    statistics, weighted by a beta density centred on rank ``q``. An op list
    mixes ops of very different lengths, and the plain sample quantile jumps
    across the gaps between them when a few ops change places."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    w = np.diff(betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n))
    return float(w @ x)


def latency(records: list[Record], nominal_s: float) -> dict:
    """p50 and p90, in ms, over the ops of the list at their mean nominal times."""
    ms = [v * 1e3 for v in op_seconds(records, nominal_s)]
    p90 = hd_quantile(ms, 0.9)
    return {"p50": hd_quantile(ms, 0.5), "p90": p90, "samples": len(ms),
            "beyond_p90": sum(1 for v in ms if v > p90),
            "rounds_per_sample": len({rec.round for rec in records})}


def failures(records: list[Record]) -> dict[str, str]:
    """First failure reason per failing op label."""
    out: dict[str, str] = {}
    for rec in records:
        if rec.fail is not None:
            out.setdefault(rec.label, rec.fail.reason)
    return out


# -- per-layer metrics from spans ---------------------------------------------------------------

def workload_layer_metrics(spans) -> dict[str, float]:
    """Counts and self time per round of the workload's traced rounds
    (medians over rounds; counts repeat exactly)."""
    op_round = {sp.id: sp.attrs["round"] for sp in spans if sp.name == "op"}
    rounds = sorted({r for r in op_round.values() if r >= 0})
    selfs = self_times(spans)
    per_round = {r: {} for r in rounds}
    iter_max = 0
    for sp in spans:
        r = op_round.get(sp.op, -1)
        if r < 0:
            continue
        acc = per_round[r]
        for layer, (_, self_s) in sp.inner.items():
            key = self_ms_name(layer)
            acc[key] = acc.get(key, 0.0) + self_s * 1e3
        if sp.name == "op":  # the op span's own time is the benchmark's
            continue
        key = self_ms_name(sp.layer)
        acc[key] = acc.get(key, 0.0) + selfs[sp.id] * 1e3
        if sp.name == "gaussian_solver.solve":
            verdict = sp.attrs.get("verdict", "error")
            acc[f"gaussian_solver.verdict.{verdict}"] = acc.get(f"gaussian_solver.verdict.{verdict}", 0) + 1
            its = sp.attrs.get("iterations", 0)
            acc["gaussian_solver.iterations"] = acc.get("gaussian_solver.iterations", 0) + its
            iter_max = max(iter_max, its)
        if "violations" in sp.attrs:
            acc["gaussian_verify.violations"] = acc.get("gaussian_verify.violations", 0) + sp.attrs["violations"]
    keys = ([self_ms_name(layer) for layer in LAYERS] + ["gaussian_solver.iterations"]
            + [f"gaussian_solver.verdict.{v}" for v in VERDICTS] + ["gaussian_verify.violations"])
    out = {k: statistics.median(per_round[r].get(k, 0) for r in rounds) for k in keys}
    out["gaussian_solver.iterations_max"] = iter_max
    return out


def cli_ms(spans) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for sp in spans:
        if sp.name == "cli.main":
            out.setdefault(sp.attrs["label"], []).append(sp.duration * 1e3)
    return out


_UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}


def run_probes(probes, tr: Tracer) -> dict[str, float | None]:
    """Median single-call time of each probe, per unit of work; None when
    the probed function no longer exists."""
    out = {}
    for pr in probes:
        if pr.call is None:
            out[pr.metric] = None
            continue
        times = []
        for _ in range(pr.reps):
            with tr.op(f"probe:{pr.metric}", -1):
                pr.call(tr)
            times.append(tr.spans[-1].duration)  # the call's span, opened last
        out[pr.metric] = statistics.median(times) * _UNIT_SCALE[pr.unit] / pr.per
    return out


def traced_peak_mib(fn) -> float:
    """tracemalloc peak, in MiB, while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20
