"""Benchmark of casimir-plasmons: one seeded workload, one process, one thread.

    python3 perfbench/run.py --workload breakdown_scan --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout (it imports ``src/casimir_plasmons``).
A closed loop with one caller runs ops of the workload for ``--seconds``
(longer only if fewer than 100 passing results have come back, up to twice
that), times each op at its fastest of the passes that fit, and checks every
result against an independent oracle outside the timed region.  ``--trace 1``
instead runs a fixed, seeded list of ops twice, untraced and then with the
tracing wrappers installed, and reports per-layer work counts and times.

Output: a table of metrics, a result file under ``perfbench/results/``, and
as the last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``failed`` counts ops that raised a typed error, exited
nonzero, or gave a wrong result.  ``correct`` is false when a result is wrong
outside the bands the seed code is known to get wrong (see KNOWN_WRONG in
``workloads.py``), or when running an op again (repeated or traced) changed
its result.
"""

from __future__ import annotations

import os

# Pin every thread pool before numpy or scipy is imported.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 3
SETUP_CODE = "import casimir_plasmons, casimir_plasmons.cli"
MIN_GOOD = 100  # p90 then has at least 10 samples beyond it
WARMUP_OMEGA = 1.0
# Traced ops per second of --seconds: each traced run covers a fixed list
# of ops, so its work counts repeat exactly for a given seed.
TRACE_OPS_PER_SECOND = {"breakdown_scan": 1.0, "surface_modes": 50.0, "dispersion": 5.0}

END_TO_END_UNITS = {
    "setup_s": "s",
    "good_per_s": "1/s",
    "call_s_p50": "s",
    "call_s_p90": "s",
    "completed_frac": "1",
    "right_frac": "1",
    "peak_rss_mb": "MB",
}
# Shown and stored, not in the last line: they are 0 once a defect is fixed.
EXTRA_UNITS = {
    "fail_frac": "1",
    "wrong_frac": "1",
    "ops": "count",
    "good_ops": "count",
    "repeats": "count",
}

clock = time.perf_counter


def _die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads": THREAD_ENV,
    }


def measure_setup() -> list:
    """Wall time of fresh interpreters importing the package and its CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True, timeout=120
        )
        times.append(clock() - start)
    return times


def classify(workload, name: str, Omega_P: float, outcome) -> dict:
    """Check one op's outcome; untimed."""
    if outcome.untyped:
        return {"status": "wrong", "known": False, "why": [["untyped", outcome.untyped]]}
    if outcome.error:
        return {"status": "fail", "why": outcome.error}
    violations = workload.check(Omega_P, outcome.value)
    if not violations:
        return {"status": "good"}
    from workloads import is_known_wrong

    return {
        "status": "wrong",
        "known": is_known_wrong(name, Omega_P, violations),
        "why": [list(v) for v in violations],
    }


def _timed(workload, Omega_P: float):
    start = clock()
    outcome = workload.run(Omega_P)
    elapsed = clock() - start
    workload.finish(outcome)
    return outcome, elapsed


def timed_run(workload, name: str, seed: int, seconds: float):
    """Closed loop over seeded ops for ``seconds``; returns (records, changed).

    The first pass draws, times and checks ops until MIN_GOOD have passed.
    Repeat passes re-time the same ops until the time is up, each op keeping
    its fastest time, so that the host's slow spells drop out; ``changed``
    tells whether a repeat returned a different result.  The branch-constant
    cache is cleared before every pass, so each pass does the same work.
    """
    from casimir_plasmons import modes
    from workloads import omegas

    cache = modes._branch_constants_cached
    records, first = [], []
    good = 0
    start = clock()
    cache.cache_clear()
    for Omega_P in omegas(seed):
        outcome, elapsed = _timed(workload, Omega_P)
        record = {"Omega_P": Omega_P, "s": elapsed, "repeats": 1}
        record.update(classify(workload, name, Omega_P, outcome))
        records.append(record)
        first.append(outcome)
        good += record["status"] == "good"
        wall = clock() - start
        if good >= MIN_GOOD or wall >= 2.0 * seconds:
            break
    changed = False
    while clock() - start < seconds:
        cache.cache_clear()
        for record, outcome in zip(records, first):
            if clock() - start >= seconds:
                break
            again, elapsed = _timed(workload, record["Omega_P"])
            changed |= again != outcome
            record["s"] = min(record["s"], elapsed)
            record["repeats"] += 1
    return records, changed


def summarise(records: list, setup_times: list) -> dict:
    n = len(records)
    good = [r["s"] for r in records if r["status"] == "good"]
    fails = sum(r["status"] == "fail" for r in records)
    wrongs = sum(r["status"] == "wrong" for r in records)
    # With fewer than two passing ops, fall back to all ops so the value stays a number.
    sample = good if len(good) >= 2 else [r["s"] for r in records] * 2
    p50 = statistics.median(sample)
    p90 = statistics.quantiles(sample, n=10, method="inclusive")[8]
    return {
        "setup_s": statistics.median(setup_times),
        "good_per_s": len(good) / sum(r["s"] for r in records),
        "call_s_p50": p50,
        "call_s_p90": p90,
        "completed_frac": 1.0 - fails / n,
        "right_frac": 1.0 - wrongs / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": fails / n,
        "wrong_frac": wrongs / n,
        "ops": n,
        "good_ops": len(good),
        "repeats": statistics.median(r["repeats"] for r in records),
    }


def traced_run(workload, name: str, seed: int, seconds: float):
    """Same op list untraced, then traced; returns (records, per-layer, spans, ok)."""
    from casimir_plasmons import modes
    from tracing import Tracer
    from workloads import omegas

    count = max(1, round(TRACE_OPS_PER_SECOND[name] * seconds))
    ops = list(itertools.islice(omegas(seed), count))
    cache = modes._branch_constants_cached

    cache.cache_clear()
    plain, plain_s = [], 0.0
    for Omega_P in ops:
        outcome, elapsed = _timed(workload, Omega_P)
        plain_s += elapsed
        plain.append(outcome)

    cache.cache_clear()
    tracer = Tracer()
    traced, traced_s, output_bytes, hits, misses = [], 0.0, 0, 0, 0
    tracer.install()
    try:
        op = tracer.span("op", workload.run)
        for op_id, Omega_P in enumerate(ops):
            tracer.op_id = op_id
            before = cache.cache_info()
            t0 = clock()
            outcome = op(Omega_P)
            traced_s += clock() - t0
            after = cache.cache_info()
            hits += after.hits - before.hits
            misses += after.misses - before.misses
            output_bytes += workload.finish(outcome)
            traced.append(outcome)
    finally:
        tracer.uninstall()

    records = []
    for Omega_P, outcome in zip(ops, plain):
        record = {"Omega_P": Omega_P}
        record.update(classify(workload, name, Omega_P, outcome))
        records.append(record)
    layers = tracer.per_layer()
    layers["modes.branch_constants.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layers["cli.output_bytes"] = output_bytes
    layers["trace.op_s"] = tracer.span_seconds("op")
    layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return records, layers, tracer.spans, plain == traced


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from the end of its name."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "1"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "casimir_plasmons" / "__init__.py").is_file():
        _die(f"no package source at {SRC}; run from a casimir-plasmons checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    env = environment(args)
    workload = WORKLOADS[args.workload]()
    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=RESULTS, prefix=".work-")
    try:
        workload.setup(workdir)
        workload.finish(workload.run(WARMUP_OMEGA))
        if args.trace:
            records, metrics, spans, unchanged = traced_run(
                workload, args.workload, args.seed, args.seconds
            )
            units = {k: unit_of(k) for k in metrics}
            reported = metrics
        else:
            setup_times = measure_setup()
            records, changed = timed_run(workload, args.workload, args.seed, args.seconds)
            metrics = summarise(records, setup_times)
            units = {**END_TO_END_UNITS, **EXTRA_UNITS}
            reported = {k: metrics[k] for k in END_TO_END_UNITS}
            spans, unchanged = None, not changed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unexpected = [r for r in records if r["status"] == "wrong" and not r["known"]]
    correct = unchanged and not unexpected
    failed = sum(r["status"] != "good" for r in records)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if not args.trace:
        env["setup_samples_s"] = setup_times
    result = {
        "env": env,
        "correct": correct,
        "rerun_changed_results": not unchanged,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "ops": records,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if spans is not None:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")

    for k in sorted(metrics):
        print(f"{k:45s} {metrics[k]:>16.6g} {units[k]}")
    for r in unexpected[:5]:
        print(f"unexpected wrong result at Omega_P={r['Omega_P']!r}: {r['why']}")
    if not unchanged:
        print("a repeated or traced op returned a different result")
    print(f"result file: {RESULTS.relative_to(ROOT) / (stem + '.json')}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(records),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
