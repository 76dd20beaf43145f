"""One fresh interpreter for a library workload (kde-fit, matrix-scan).

``worker.py setup INPUTS --samples FILE`` imports the package, does the
set-up that ``setup_s`` covers, prints ``ready``, writes its host-speed
samples to FILE and exits; the parent times it up to ``ready``.
``worker.py run INPUTS --workload W --seconds S --trace T --out FILE``
does the same set-up, then runs the workload's timed sequence in a
closed loop, checks the last outputs and writes a result JSON to FILE.
Both run a ``speed.SpeedMeter`` from the start, and every reported time
is in corrected (reference) seconds; the raw wall times go to the
report next to them.

With ``--trace 1`` the set-up and one extra iteration run under the
tracer, after one untraced iteration that gives the tracing overhead.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import time
import traceback
from pathlib import Path

import checks
import workloads
from speed import SpeedMeter, corrected, slowdown
from tracer import Tracer, layer_metrics, median

ROOT = Path(__file__).resolve().parent.parent
QUERY_SETS = 4


def _import_package():
    import moraldrift

    if Path(moraldrift.__file__).resolve().parent != ROOT / "src" / "moraldrift":
        raise SystemExit(f"imported moraldrift from {moraldrift.__file__}, not {ROOT / 'src'}")
    return moraldrift


def _iteration(workload, ctx, inputs, freqs, failures) -> dict:
    """One timed sequence; returns its wall interval, the intervals of
    its query blocks, the number of queries and the outputs."""
    out: dict = {}
    ops = workloads.library_ops(workload, ctx, freqs, out)
    attempted = 0
    blocks, n_queries = [], 0
    start = time.perf_counter()
    for name, call in ops:
        attempted += 1
        try:
            call()
        except Exception:
            failures.append({"op": name, "error": traceback.format_exc(limit=5)})
        # The query set runs QUERY_SETS times after every operation, so the
        # queries sample the whole iteration; the iteration reports their
        # mean time. A single in-process query takes milliseconds, too
        # short for one to carry a host-speed sample of its own.
        queries = workloads.queries(inputs)
        t = time.perf_counter()
        for _ in range(QUERY_SETS):
            for command, word, tier in queries:
                attempted += 1
                try:
                    workloads.run_query(ctx, command, word, tier)
                except Exception:
                    failures.append({"op": f"query.{command}.{word}",
                                     "error": traceback.format_exc(limit=5)})
        blocks.append((t, time.perf_counter()))
        n_queries += QUERY_SETS * len(queries)
    return {"span": (start, time.perf_counter()), "blocks": blocks, "n_queries": n_queries,
            "attempted": attempted, "out": out}


def _times(meter: SpeedMeter, it: dict) -> dict:
    """Corrected and raw run and mean query times of one iteration."""
    start, end = it["span"]
    blocks = it["blocks"]
    return {"run_s": corrected(meter.samples, start, end),
            "query_s": sum(corrected(meter.samples, a, b) for a, b in blocks) / it["n_queries"],
            "wall_run_s": end - start,
            "wall_query_s": sum(b - a for a, b in blocks) / it["n_queries"]}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "run"])
    ap.add_argument("inputs", type=Path)
    ap.add_argument("--workload")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--samples", type=Path)
    args = ap.parse_args()
    meter = SpeedMeter()
    meter.start()
    inputs = json.loads(args.inputs.read_text())

    if args.mode == "setup":
        _import_package()
        workloads.setup(inputs)
        print("ready", flush=True)
        meter.stop()
        meter.dump(args.samples)
        return

    md = _import_package()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ctx = workloads.setup(inputs)
    if tracer:
        tracer.uninstall()
    freqs = md.load_wordlist(inputs["wordlist"])

    failures: list = []
    iterations = []
    start = time.perf_counter()
    while True:
        # Only the last outputs are checked; dropping the earlier ones
        # keeps peak RSS independent of the number of iterations.
        for it in iterations:
            it["out"] = None
        gc.collect()
        iterations.append(_iteration(args.workload, ctx, inputs, freqs, failures))
        elapsed = time.perf_counter() - start
        span = iterations[-1]["span"]
        if args.trace or elapsed + span[1] - span[0] > args.seconds:
            break
    meter.stop()
    times = [_times(meter, it) for it in iterations]
    result = {
        "iterations": times,
        "run_s": median([t["run_s"] for t in times]),
        "query_s": median([t["query_s"] for t in times]),
        "wall_run_s": median([t["wall_run_s"] for t in times]),
        "wall_query_s": median([t["wall_query_s"] for t in times]),
        "slowdown": slowdown(meter.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        iterations[-1]["out"] = None
        gc.collect()
        tracer.install()
        traced = _iteration(args.workload, ctx, inputs, freqs, failures)
        tracer.uninstall()
        iterations.append(traced)
        spans = tracer.export()
        args.out.with_name("spans.json").write_text(json.dumps(spans))
        result["layers"] = layer_metrics([spans])
        # Tracing runs without the meter, so both sides are wall times.
        traced_s = traced["span"][1] - traced["span"][0]
        result["layers"]["bench.trace_overhead_s"] = traced_s - result["wall_run_s"]

    try:
        found = checks.library(args.workload, iterations[-1]["out"], ctx, inputs, freqs,
                               ROOT, args.seed)
    except Exception:  # an output a check needs is missing: its op failed
        found = checks.Checks()
        found.run("checks", lambda: traceback.format_exc(limit=5))
    result["attempted"] = sum(it["attempted"] for it in iterations) + len(found.results)
    result["failed"] = len(failures) + found.failed
    result["failures"] = failures
    result["checks"] = found.results
    args.out.write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
