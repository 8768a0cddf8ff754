"""Benchmark: time to a certified Brascamp-Lieb constant.

Run from the repository root:

    python3 bench/run.py --workload solve-small --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, taken from a traced run and written with every span to
``bench/out/spans-<workload>-seed<seed>.json``. The line before it holds the
environment record and the details behind the numbers. See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("solve-small", "solve-large", "sweep", "functional")
SETUP_REPS = 3
SETUP_REF_S = 0.1  # seconds of reference samples before and after each set-up sample
SETUP_TIMEOUT_S = 120
# Rounds of each kind in a traced run. Per-layer metrics have no bound, and
# counts repeat exactly, so two of each keep traced runs short.
TRACED_ROUNDS = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
              "peak_rss_mb": "MiB"}
CLI_LABELS = ("validate", "solve", "constant", "constant-infeasible", "young", "split",
              "check-gaussian", "check-inf", "check-quadrature", "bd")
PER_LAYER = {
    "gaussian_solver.iterations": "count",
    "gaussian_solver.iterations_max": "count",
    "gaussian_solver.us_per_iter": "us",
    "gaussian_solver.fp_map_us.small": "us",
    "gaussian_solver.fp_map_us.large": "us",
    "gaussian_solver.verdict.converged": "count",
    "gaussian_solver.verdict.inf": "count",
    "gaussian_solver.verdict.inconclusive": "count",
    "gaussian_solver.verdict.error": "count",
    "datum.validate_us.n2": "us",
    "datum.validate_us.n20": "us",
    "linalg.chol_logdet_us.n1": "us",
    "linalg.chol_logdet_us.n2": "us",
    "linalg.chol_logdet_us.n20": "us",
    "structure.split_ms": "ms",
    "gaussian_verify.us_per_sample.direct": "us",
    "gaussian_verify.us_per_sample.reverse": "us",
    "gaussian_verify.us_per_sample.dual": "us",
    "gaussian_verify.violations": "count",
    "quadform.check_inf_us_per_sample": "us",
    "quadform.harmonic_combine_us": "us",
    "functional_verify.direct_ns_per_point": "ns",
    "functional_verify.supconv_ns_per_eval": "ns",
    "functional_verify.supconv_kdim2_ns_per_eval": "ns",
    "stochastic.mc_log_mgf_ms": "ms",
    "stochastic.suite_ms": "ms",
    "stochastic.peak_mb": "MiB",
    "stochastic.path_mb_computed": "MiB",
    **{f"cli.ms.{label}": "ms" for label in CLI_LABELS},
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    **{harness.self_ms_name(layer): "ms" for layer in harness.LAYERS},
    "trace.overhead_frac": "ratio",
}


def die(message: str, code: int = 2) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def setup_samples(root: Path, workload: str, seed: int, reference) -> list[dict]:
    """Time fresh interpreters from spawn until the first op is ready. The
    host-speed reference runs just before and after each, and ``setup_s`` is
    the time at the nominal host speed, like every end-to-end time."""
    samples = []
    for _ in range(SETUP_REPS):
        before = reference.mean_over(SETUP_REF_S)
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
                              cwd=root, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            die(f"set-up probe failed:\n{proc.stderr}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        ref = (before + reference.mean_over(SETUP_REF_S)) / 2
        measured = doc["ready"] - spawned
        samples.append({"setup_s": measured * reference.nominal_s / ref,
                        "setup_s_measured": measured, "import_s": doc["import_s"],
                        "inputs_s": doc["inputs_s"]})
    return samples


def as_metrics(values: dict, units: dict) -> dict:
    out = {}
    for name, unit in units.items():
        v = values.get(name)
        out[name] = {"value": v, "unit": unit} if v is not None else {
            "value": None, "unit": unit, "absent": True}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    package = root / "src" / "blgauss"
    if not (package / "__init__.py").is_file() or not (root / "demos" / "data").is_dir():
        die("run from the repository root: src/blgauss and demos/data are needed")
    sys.path.insert(0, str(root / "src"))

    import blgauss

    if Path(blgauss.__file__).resolve().parent != package.resolve():
        die(f"imported blgauss from {blgauss.__file__}, not from {package}")
    import envinfo
    import selftest
    import workloads
    from tracing import NullTracer, Tracer

    reference = workloads.HOST_REFERENCE[args.workload]
    setups = setup_samples(root, args.workload, args.seed, reference)
    env = envinfo.record(root, args.workload, args.seed, args.seconds, args.trace)
    problems = selftest.problems(root)
    if problems:
        die("checker self-test failed: " + "; ".join(problems), 3)
    ops = workloads.build(args.workload, args.seed, root)

    if not args.trace:
        records = harness.run_rounds(ops, [NullTracer()], args.seconds,
                                     workloads.MIN_ROUNDS, reference)
        lat = harness.latency(records, reference.nominal_s)
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": harness.wall_s(records, reference.nominal_s),
            "op_ms_p50": lat["p50"],
            "op_ms_p90": lat["p90"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        refs = harness.round_refs(records)
        details = {"latency": lat, "wall_s_measured": harness.wall_s(records, None),
                   "round_s": harness.round_seconds(records),
                   "round_ref_s": [refs[r] for r in sorted(refs)]}
    else:
        tr = Tracer({layer: importlib.import_module(f"blgauss.{layer}") for layer in harness.LAYERS})
        records = harness.run_rounds(ops, [NullTracer(), tr], args.seconds, TRACED_ROUNDS,
                                     reference)
        untraced = [rec for rec in records if not rec.traced]
        traced = [rec for rec in records if rec.traced]
        values = harness.workload_layer_metrics(tr.spans)
        values.update(harness.run_probes(workloads.probes(args.seed, root), tr))
        # Every metric must be a number, so a CLI case this workload does not
        # run is timed once here; the workload that runs it judges its output.
        ran = harness.cli_ms(tr.spans)
        for label, op in workloads.cli_cases(root).items():
            if label not in ran:
                harness.run_op(op, tr, {}, -1)
        for label, ms in harness.cli_ms(tr.spans).items():
            values[f"cli.ms.{label}"] = statistics.median(ms)
        config, g = workloads.mc_peak_probe(args.seed)
        values["stochastic.peak_mb"] = harness.traced_peak_mib(
            lambda: blgauss.mc_log_mgf(config=config, g=g))
        values["stochastic.path_mb_computed"] = workloads.mc_config_bytes() / 2**20
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        values["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setups)
        wall_untraced = harness.wall_s(untraced, reference.nominal_s)
        wall_traced = harness.wall_s(traced, reference.nominal_s)
        values["trace.overhead_frac"] = wall_traced / wall_untraced - 1.0
        units = PER_LAYER
        details = {"wall_s_untraced": wall_untraced, "wall_s_traced": wall_traced}
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        env["spans_file"] = str(spans_path.relative_to(root))

    failed = [rec for rec in records if rec.fail is not None]
    fail_frac = len(failed) / len(records)
    env["loadavg_end"] = envinfo.loadavg()
    details.update({
        "rounds": len({rec.round for rec in records}),
        "ops_per_round": len(ops),
        "fail_frac": {"value": fail_frac, "unit": "ratio"},
        "failures": harness.failures(records),
        "incorrect": sorted({rec.label for rec in failed if rec.fail.incorrect}),
        "setup_samples": setups,
        "computed_bytes": {"mc_path_array": workloads.mc_config_bytes()},
    })
    metrics = as_metrics(values, units)
    if args.trace:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "details": details, "metrics": metrics,
                       "spans": [sp.to_dict() for sp in tr.spans]}, fh)
    print(json.dumps({"env": env, "details": details}))
    print(json.dumps({
        "correct": not any(rec.fail.incorrect for rec in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
