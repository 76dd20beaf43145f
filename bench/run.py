"""moraldrift benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {cli-pipeline,kde-fit,matrix-scan} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. The package is imported from ``src/``;
nothing is installed. The run generates seeded inputs (``gen.py``),
times ``setup_s`` over several fresh interpreters, runs the workload's
closed loop for about S seconds, checks every output and prints, as the
last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Times are host-speed corrected (see
``speed.py``); the report keeps the raw wall times next to them. ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer metrics.
A full report with provenance and input fingerprints goes to
``bench/_work/reports/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
from tracer import layer_metrics, median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
WORKLOADS = ("cli-pipeline", "kde-fit", "matrix-scan")
SETUP_RUNS = 3
IMPORT_RUNS = 5
DEADLINE_S = 170.0
CLI_COMMANDS = ("align", "matrix", "evaluate", "retrieve", "regress", "permute",
                "classify", "timecourse")


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _environment() -> dict:
    # One BLAS thread: a run then occupies one CPU of a small shared
    # machine, and thread hand-offs add no timing noise.
    threads = "1"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Runner:
    """Starts child processes, each bounded by the run's deadline."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def run(self, argv, stdout: Path, stderr: Path) -> tuple[int, float, float, float]:
        """Run to completion; returns (exit code, start, end, peak RSS in MB),
        start and end on the ``perf_counter`` clock.

        The child is reaped with ``wait4`` so its own peak RSS is known.
        """
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(self.remaining(), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, start, end, usage.ru_maxrss / 1024.0

    def time_to_ready(self, argv, samples: Path) -> tuple[float, float]:
        """Corrected and wall seconds from starting ``argv`` until it
        prints ``ready``; ``argv`` writes its speed samples to ``samples``."""
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=self.env, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.communicate(timeout=self.remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {argv}")
        samples_list = json.loads(samples.read_text())
        return speed.corrected(samples_list, start, start + ready), ready


def generate(workload: str, seed: int, work: Path) -> tuple[dict, dict]:
    import gen
    import workloads

    start = time.perf_counter()
    corpus = gen.generate(work / "inputs", seed, workloads.SHAPES[workload],
                          formats=(workloads.FORMAT[workload],))
    generate_s = time.perf_counter() - start
    inputs = {"manifest": str(corpus.manifests[workloads.FORMAT[workload]]),
              "mfd": str(corpus.mfd), "norms": str(corpus.norms),
              "wordlist": str(corpus.wordlist), "survey": str(corpus.survey),
              "risers": list(corpus.risers), "fallers": list(corpus.fallers),
              "changers": list(corpus.changers), "n_words": len(corpus.words)}
    info = {"generate_s": generate_s, "input_bytes": 8 * corpus.n_values,
            "sha256": {str(p.relative_to(corpus.root)): gen.sha256(p) for p in corpus.files()}}
    return inputs, info


def run_library(runner: Runner, workload: str, args, work: Path, inputs_path: Path) -> dict:
    result_path = work / "result.json"
    code, _, _, _ = runner.run(
        [sys.executable, str(BENCH / "worker.py"), "run", str(inputs_path),
         "--workload", workload, "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--seed", str(args.seed), "--out", str(result_path)],
        work / "worker.out", work / "worker.err")
    if code != 0 or not result_path.exists():
        raise RuntimeError(f"worker exited {code}: {(work / 'worker.err').read_text()[-2000:]}")
    return json.loads(result_path.read_text())


def _cli_iteration(runner: Runner, inputs: dict, work: Path, spans_dir: Path | None):
    import workloads

    out_dir = work / "cli_out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    logs = work / "cli_logs"
    logs.mkdir(exist_ok=True)
    commands, failures, stdout = [], [], {}
    start = time.perf_counter()
    for i, (label, argv) in enumerate(workloads.cli_commands(inputs, str(out_dir))):
        samples = logs / f"{i:02d}.speed.json"
        samples.unlink(missing_ok=True)
        if spans_dir is None:
            full = [sys.executable, str(BENCH / "cli_run.py"), str(samples), *argv]
        else:
            full = [sys.executable, str(BENCH / "cli_traced.py"),
                    str(spans_dir / f"{i:02d}.json"), *argv]
        code, t0, t1, rss = runner.run(full, logs / f"{i:02d}.out", logs / f"{i:02d}.err")
        seconds = (speed.corrected(json.loads(samples.read_text()), t0, t1)
                   if samples.exists() else t1 - t0)
        commands.append({"label": label, "command": argv[0], "exit": code,
                         "seconds": seconds, "wall_s": t1 - t0, "rss_mb": rss})
        if code != 0:
            failures.append({"op": label, "error": (logs / f"{i:02d}.err").read_text()[-2000:]})
        if label.startswith("query."):
            stdout[label] = (logs / f"{i:02d}.out").read_text()
    return time.perf_counter() - start, commands, failures, stdout, out_dir


def run_cli(runner: Runner, args, work: Path, inputs: dict) -> dict:
    import checks

    iterations, failures = [], []
    start = time.perf_counter()
    while True:
        wall, commands, failed, stdout, out_dir = _cli_iteration(runner, inputs, work, None)
        queries = [c for c in commands if c["label"].startswith("query.")]
        iterations.append({
            "run_s": sum(c["seconds"] for c in commands),
            "query_s": sum(c["seconds"] for c in queries) / len(queries),
            "wall_run_s": wall,
            "wall_query_s": sum(c["wall_s"] for c in queries) / len(queries),
            "commands": commands})
        failures += failed
        elapsed = time.perf_counter() - start
        if args.trace or elapsed + wall > args.seconds:
            break
    found = checks.cli(out_dir, stdout, inputs, inputs["n_words"])
    commands = [c for it in iterations for c in it["commands"]]
    result = {
        "iterations": iterations,
        "iterations_run_s": [it["run_s"] for it in iterations],
        "run_s": median([it["run_s"] for it in iterations]),
        "query_s": median([it["query_s"] for it in iterations]),
        "wall_run_s": median([it["wall_run_s"] for it in iterations]),
        "wall_query_s": median([it["wall_query_s"] for it in iterations]),
        "peak_rss_mb": max(c["rss_mb"] for c in commands),
    }
    attempted = len(commands) + len(found.results)
    if args.trace:
        spans_dir = work / "spans"
        spans_dir.mkdir()
        wall, traced, failed, _, _ = _cli_iteration(runner, inputs, work, spans_dir)
        failures += failed
        attempted += len(traced)
        span_lists = [json.loads(p.read_text()) for p in sorted(spans_dir.glob("*.json"))]
        layers = layer_metrics(span_lists)
        layers["bench.trace_overhead_s"] = wall - result["wall_run_s"]
        for name in CLI_COMMANDS:
            runs = [c for c in commands if c["command"] == name]
            layers[f"cli.{name}_s"] = median([c["wall_s"] for c in runs])
            layers[f"cli.{name}_rss_mb"] = max((c["rss_mb"] for c in runs), default=0.0)
        result["layers"] = layers
    result["attempted"] = attempted
    result["failed"] = len(failures) + found.failed
    result["failures"] = failures
    result["checks"] = found.results
    return result


def import_seconds(runner: Runner, work: Path) -> float:
    """Median time of ``import moraldrift`` over fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import moraldrift; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_RUNS):
        rc, _, _, _ = runner.run([sys.executable, "-c", code], work / "import.out",
                              work / "import.err")
        if rc != 0:
            raise RuntimeError((work / "import.err").read_text())
        times.append(float((work / "import.out").read_text()))
    return median(times)


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_revision() -> str | None:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(str(ROOT / ".git" / ref))
    if direct:
        return direct
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def provenance(seed: int, env: dict) -> dict:
    import hashlib

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        kind = _read(str(index / "type"))
        if kind in ("Unified", "Data"):
            caches[f"L{_read(str(index / 'level'))}"] = _read(str(index / "size"))
    meminfo = (_read("/proc/meminfo") or "").splitlines()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.read_bytes())
    model = next((line.split(":", 1)[1].strip()
                  for line in (_read("/proc/cpuinfo") or "").splitlines()
                  if line.startswith("model name")), None)
    return {
        "git_revision": _git_revision(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "memory": meminfo[0].split(":", 1)[1].strip() if meminfo else None,
        "caches_per_core": caches,
        "seed": seed,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description="moraldrift benchmark (one run)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    for needed in (ROOT / "BENCHMARK.json", ROOT / "src" / "moraldrift" / "__init__.py",
                   ROOT / "tests" / "reference.py"):
        if not needed.is_file():
            _fail(f"{needed.relative_to(ROOT)} not found; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = _environment()
    # Set before numpy is imported here, so generation uses the same
    # BLAS thread count as the children.
    os.environ.update({k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")})

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(env, deadline)

    inputs, info = generate(args.workload, args.seed, work)
    inputs_path = work / "inputs.json"
    inputs_path.write_text(json.dumps(inputs))

    samples = work / "setup.speed.json"
    setup_runs = [runner.time_to_ready([sys.executable, str(BENCH / "worker.py"), "setup",
                                        str(inputs_path), "--samples", str(samples)], samples)
                  for _ in range(SETUP_RUNS)]
    if args.workload == "cli-pipeline":
        result = run_cli(runner, args, work, inputs)
    else:
        result = run_library(runner, args.workload, args, work, inputs_path)

    end_to_end = {"setup_s": median([c for c, _ in setup_runs]), "run_s": result["run_s"],
                  "peak_rss_mb": result["peak_rss_mb"], "query_s": result["query_s"]}
    if args.trace:
        layers = dict(result["layers"])
        layers["cli.import_s"] = import_seconds(runner, work)
        layers["bench.input_bytes"] = info["input_bytes"]
        layers["bench.generate_s"] = info["generate_s"]
        wanted = spec["per_layer"]
        values = layers
    else:
        wanted = spec["end_to_end"]
        values = end_to_end
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(args.seed, env),
              "inputs_sha256": info["sha256"],
              "setup_runs_s": [c for c, _ in setup_runs],
              "wall_setup_runs_s": [w for _, w in setup_runs],
              "end_to_end": end_to_end, "metrics": metrics,
              **{k: v for k, v in result.items() if k != "layers"},
              "layers": result.get("layers")}
    reports = WORK / "reports"
    reports.mkdir(exist_ok=True)
    report_path = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"report {report_path.relative_to(ROOT)}")
    for check in result["checks"]:
        if not check["ok"]:
            print(f"  FAILED check {check['check']}: {check['detail']}")
    for failure in result["failures"]:
        print(f"  FAILED op {failure['op']}: {failure['error'].strip().splitlines()[-1]}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  uncorrected wall times: setup {median([w for _, w in setup_runs]):.6g} s, "
          f"run {result['wall_run_s']:.6g} s, query {result['wall_query_s']:.6g} s")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
