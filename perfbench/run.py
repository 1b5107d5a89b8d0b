"""Benchmark of the three ladderxx paper workloads.

    python3 perfbench/run.py --workload {levelstats,wavefront,decay} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The program is imported from ``src/`` next to
this directory; without it the benchmark exits with code 2 and prints no
result.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``wall_s``: median time of one workload unit (the workload's calls into
  ``ladderxx`` up to its physics result). Units are repeated while another
  one fits into ``--seconds``; there is always at least one.
* ``setup_s``: first line of this script to the end of the imports, plus
  the median of SETUP_REPEATS builds of the workload's inputs (basis,
  operator diagonals, disorder and initial-state draws).
* ``peak_rss_mib``: peak resident memory of this process, which runs one
  workload only.

``--trace 1`` runs one unit untraced and one traced (set-up included), then
the traced pass again in a child process at one BLAS thread; it prints the
per-layer metrics, the single-thread ones with the suffix ``.1t``, and writes
the spans to ``.perfbench-out/``.

Every unit's outputs are checked against the stored reference of its input
set. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
THREADS = min(2, os.cpu_count() or 1)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170.0
WORKLOAD_NAMES = ("levelstats", "wavefront", "decay")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=THREADS, help="BLAS threads (default %(default)s)")
    p.add_argument("--traced-pass-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not 1 <= args.threads <= (os.cpu_count() or 1):
        p.error(f"--threads must be in 1..{os.cpu_count()}")
    return args


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_config = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_config = "unknown"
    return {
        "threads": threads,
        "blas": blas_config,
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def traced_pass(bw, bench_trace, make_inputs, run, seed, reference, ledger):
    """Set-up and one unit under the tracer; returns the tracer with its spans."""
    tracer = bench_trace.Tracer(bw.TRACED_MODULES, bw.TRACED_CONSTRUCTORS, bw.SPAN_COUNTERS)
    with tracer:
        with tracer.span("bench.setup"):
            inputs = make_inputs(seed)
        with tracer.span("bench.unit"):
            outputs = run(inputs, ledger)
    bw.check_outputs(outputs, reference, ledger)
    return tracer


def single_thread_pass(args) -> dict | None:
    """The traced pass again in a child process pinned to one BLAS thread; None if it failed."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1", "--threads", "1", "--traced-pass-only",
    ]
    remaining = CHILD_TIMEOUT_S - (time.perf_counter() - START)
    try:
        child = subprocess.run(cmd, capture_output=True, text=True, timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired:
        return None
    if child.returncode != 0 or not child.stdout.strip():
        print(child.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(child.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(args.threads)
    if not (ROOT / "src" / "ladderxx").is_dir():
        print(f"ladderxx sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import bench_trace
    import bench_workloads as bw

    import_s = time.perf_counter() - START
    make_inputs, run = bw.WORKLOADS[args.workload]
    reference = bw.load_reference(args.workload, args.seed)
    ledger = bw.Ledger()

    if args.traced_pass_only:
        tracer = traced_pass(bw, bench_trace, make_inputs, run, args.seed, reference, ledger)
        metrics = {k: v for k, (v, _) in bw.layer_metrics(tracer.spans).items()}
        write_spans(args, tracer)
        print(json.dumps({"attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}))
        return 0

    env = environment(args.threads)
    print("env " + json.dumps(env))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = make_inputs(args.seed)
        setup_times.append(time.perf_counter() - t)

    if args.trace == 0:
        unit_times = []
        while True:
            t = time.perf_counter()
            outputs = run(inputs, ledger)
            unit_times.append(time.perf_counter() - t)
            bw.check_outputs(outputs, reference, ledger)
            if sum(unit_times) + statistics.median(unit_times) > args.seconds:
                break
        metrics = {
            "wall_s": (statistics.median(unit_times), "s"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        }
        print(f"units {len(unit_times)}: " + " ".join(f"{u:.4f}" for u in unit_times) + " s")
    else:
        t = time.perf_counter()
        outputs = run(inputs, ledger)
        untraced_wall = time.perf_counter() - t
        bw.check_outputs(outputs, reference, ledger)
        tracer = traced_pass(bw, bench_trace, make_inputs, run, args.seed, reference, ledger)
        write_spans(args, tracer)
        layers = bw.layer_metrics(tracer.spans)
        metrics = dict(layers)
        traced_wall = layers["bench.traced_wall_s"][0]
        metrics["bench.trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "frac")
        if args.threads > 1:
            child = single_thread_pass(args)
            if child is None:
                ledger.record("single-thread pass", False, "did not finish")
            else:
                ledger.attempted += child["attempted"]
                ledger.failed += child["failed"]
                if child["failed"]:
                    ledger.errors.append("single-thread pass: outputs differ from the reference")
            for name, (_, unit) in layers.items():
                if name.endswith(bw.TIMED_SUFFIXES):
                    metrics[f"{name}.1t"] = (child["metrics"][name] if child else 0.0, unit)

    for err in ledger.errors:
        print(f"FAILED {err}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {ledger.failed / max(ledger.attempted, 1):.6g} ({ledger.failed}/{ledger.attempted})")
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_spans(args, tracer) -> None:
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}-{args.threads}t.json"
    path.write_text(json.dumps(tracer.to_json()))


if __name__ == "__main__":
    sys.exit(main())
