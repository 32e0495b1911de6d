"""The bihom benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload catalog_small --seed 1 --seconds 25 --trace 0

`--trace 0` runs the workload as a closed loop with one client and no
think time, in one single-threaded worker process, and reports the
end-to-end metrics.  `--trace 1` runs one round of the same queries
untraced and then traced, and reports per-layer self times and counters
(see `tracing.py`).  Set-up (interpreter start, import with a cold
bytecode cache, input generation, warm-up) is measured SETUP_REPS times
in fresh processes, before and after the measured worker, and reported
as the median.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The line before it is a
`{"detail": ...}` object with everything else a reader needs: sample
counts, the tail percentile used, the error rate, per-module line
counts of `src/bihom`, the Python version and the processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
SPAWN_SAMPLES = 3
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import workloads as W  # noqa: E402


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def src_line_counts() -> dict[str, int]:
    out = {}
    for path in sorted((ROOT / "src" / "bihom").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            out[path.name] = sum(1 for line in fh if line.strip())
    return out


def fresh_build(k: int) -> Path:
    """A copy of the package with no bytecode cache, so import compiles."""
    dest = ROOT / ".bench_build" / "perfbench" / f"build-{os.getpid()}-{k}"
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(ROOT / "src" / "bihom", dest / "bihom",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def run_worker(args, mode: str, build: Path) -> tuple[float, float, dict | None]:
    """Spawn one worker; return its set-up seconds, spawn to ready line,
    raw and at the reference speed of `calibrate.spawn_kernel`, and its
    result, if any.  The kernel runs just before the spawn, so nothing
    else of the benchmark runs while set-up is timed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--build", str(build)]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    spawn = statistics.median(calibrate.spawn_kernel() for _ in range(SPAWN_SAMPLES))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        raw_setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or json.loads(ready or "{}").get("ready") is not True:
        fail(f"{mode} worker for {args.workload} exited with code {code}")
    setup_s = raw_setup_s * calibrate.SPAWN_REF_S / spawn
    if mode == "setup":
        return raw_setup_s, setup_s, None
    lines = [ln for ln in rest.splitlines() if ln.strip()]
    if not lines:
        fail(f"{mode} worker for {args.workload} printed no result")
    return raw_setup_s, setup_s, json.loads(lines[-1])["result"]


def main() -> None:
    ap = argparse.ArgumentParser(description="bihom benchmark")
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in (ROOT / "src" / "bihom" / "__init__.py", ROOT / "corpus", W.EXPECTED_PATH, W.GOLDEN_PATH):
        if not needed.exists():
            fail(f"{needed} is missing: run from the root of a bihom checkout")

    cpu = calibrate.pin_to_fastest_cpu()
    builds = [fresh_build(k) for k in range(SETUP_REPS)]
    try:
        # set-ups at both ends of the run, so that one slow spell of a
        # shared host does not set the median
        mid = SETUP_REPS // 2
        setups = [run_worker(args, "setup", b)[:2] for b in builds[:mid]]
        raw_setup_s, setup_s, result = run_worker(args, "trace" if args.trace else "run", builds[mid])
        setups.append((raw_setup_s, setup_s))
        setups += [run_worker(args, "setup", b)[:2] for b in builds[mid + 1:]]
    finally:
        for b in builds:
            shutil.rmtree(b, ignore_errors=True)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_raw_s": [raw for raw, _ in setups],
        "setup_scaled_s": [scaled for _, scaled in setups],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "src_lines": src_line_counts(),
    }
    if args.trace:
        detail.update({k: v for k, v in result.items() if k != "metrics"})
        out_metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(result["metrics"].items())}
        attempted, failed = result["attempted"], result["failed"]
        print(f"{args.workload} traced: top self-time layer {result['top_layer']} "
              f"({result['top_layer_s']:.3f} s), overhead {result['metrics']['trace.overhead_ratio']:.1%}")
    else:
        detail.update({k: v for k, v in result.items()
                       if k not in ("queries_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb")})
        values = {
            "queries_per_s": (result["queries_per_s"], "1/s"),
            "latency_p50_ms": (result["latency_p50_ms"], "ms"),
            "latency_tail_ms": (result["latency_tail_ms"], "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        }
        out_metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        attempted, failed = result["attempted"], result["failed"]
        for name, (v, u) in values.items():
            print(f"{args.workload} {name} = {v:.6g} {u}")
        print(f"{args.workload} error_rate = {result['error_rate']:.6g} ratio "
              f"({failed} of {attempted})")
        print(f"{args.workload} tail = p{result['tail_percentile']} of {result['samples']} samples, "
              f"{result['samples_beyond_tail']} beyond")
        if not result["tail_has_ten_beyond"]:
            print(f"{args.workload} warning: fewer than ten samples beyond the tail percentile")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))


def unit_of(name: str) -> str:
    if name.endswith("_s") or name == "trees.s":
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    main()
