"""One workload process: set up, then run the timed loop or the traced pass.

Started by `run.py`, never by hand:

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode {setup,run,trace} --build DIR

`DIR` holds a fresh copy of the `bihom` package with no bytecode cache,
so the import below pays the first compile, as a user's first run does.
The worker prints `{"ready": true}` once set-up (imports, input
generation, warm-up) is done; `run.py` times set-up from spawn to that
line.  In `run` and `trace` mode it then prints one JSON result line.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def run_child(argv: list, env: dict, timeout: float = 120) -> tuple[int, bytes]:
    """Run a child process from ROOT to its end; return its exit code and
    stdout.  A watchdog kills it after `timeout` seconds.  `subprocess`'s
    own timeout waits by polling with sleeps of up to 50 ms, which would
    quantise the measured time."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
    return proc.returncode, out


# -- library workloads ------------------------------------------------------------


class LibrarySession:
    def __init__(self, workload: str, seed: int):
        import workloads as W

        self.W = W
        self.api = W.import_api()
        self.table = W.load_json(W.EXPECTED_PATH)
        self.keys = W.round_keys(workload, seed, self.table["pools"])
        self.workload = workload
        self.prepare()

    def prepare(self) -> None:
        """Input generation: structures, cochains and query callables."""
        self.inputs = self.W.Inputs(self.api, self.table)
        self.queries = [self.W.library_query(k, self.inputs) for k in self.keys]

    def warm_up(self) -> None:
        """The same small queries on every seed, so set-up does not vary
        with the inputs; answers are checked but not counted."""
        for key in self.W.WARM_UP[self.workload]:
            q = self.W.library_query(key, self.inputs)
            if q.normalize(q.call()) != self.table["answers"][key]:
                sys.exit(f"warm-up query {key} gave a wrong answer")

    def run_round(self, timings: list, failures: list, tracer=None, deferred=None) -> None:
        """Run every query once and append (start, seconds) per query to
        `timings`.  With
        `deferred`, append (query, result) there and check later."""
        perf = time.perf_counter
        for i, q in enumerate(self.queries):
            t0 = perf()
            try:
                res = tracer.run_query(i, q.key, q.call) if tracer else q.call()
            except Exception as exc:  # a failed query is counted, the run goes on
                timings.append((t0, perf() - t0))
                failures.append(f"{q.key}: {type(exc).__name__}: {exc}")
                continue
            timings.append((t0, perf() - t0))
            if deferred is not None:
                deferred.append((q, res))
            else:
                self.check(q, res, failures)

    def check(self, q, res, failures: list) -> None:
        got, want = q.normalize(res), self.table["answers"].get(q.key)
        if got != want:
            failures.append(f"{q.key}: got {got!r}, expected {want!r}")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the CLI session ---------------------------------------------------------------


class CliSession:
    def __init__(self, seed: int, build: Path):
        import workloads as W

        import bihom.cli  # noqa: F401 - compiles the package into the build copy

        self.golden = W.load_json(W.GOLDEN_PATH)
        self.commands = W.cli_round(seed, self.golden)
        self.env = dict(os.environ, PYTHONPATH=str(build))
        self.env.pop("PYTHONSTARTUP", None)

    def warm_up(self) -> None:
        self._spawn(self.commands[0])

    def _spawn(self, cmd: dict):
        return run_child([sys.executable, "-m", "bihom.cli", *cmd["argv"]], self.env)

    def _check(self, cmd: dict, code: int, out: bytes, failures: list) -> None:
        if code != cmd["exit"] or out != cmd["stdout"].encode("utf-8"):
            failures.append(f"{cmd['name']}: exit {code} (golden {cmd['exit']}), "
                            f"{len(out)} stdout bytes differ from golden")

    def run_round(self, timings: list, failures: list, between=None) -> None:
        """Run every command once; `between` runs after each command."""
        perf = time.perf_counter
        for cmd in self.commands:
            t0 = perf()
            code, out = self._spawn(cmd)
            timings.append((t0, perf() - t0))
            self._check(cmd, code, out, failures)
            if between is not None:
                between()

    def in_process_round(self, failures: list, tracer=None) -> tuple[float, int]:
        """Every command through `bihom.cli.main` in this process."""
        import bihom.cli

        total, nbytes = 0.0, 0
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            for i, cmd in enumerate(self.commands):
                buf, err = io.StringIO(), io.StringIO()

                def call(argv=cmd["argv"]):
                    try:
                        bihom.cli.main.main(args=list(argv), prog_name="bihom", standalone_mode=False)
                    except SystemExit as e:
                        return e.code if isinstance(e.code, int) else 1
                    return 0

                t0 = time.perf_counter()
                with redirect_stdout(buf), redirect_stderr(err):
                    code = tracer.run_query(i, cmd["name"], call) if tracer else call()
                total += time.perf_counter() - t0
                out = buf.getvalue().encode("utf-8")
                nbytes += len(out)
                self._check(cmd, code, out, failures)
        finally:
            os.chdir(cwd)
        return total, nbytes

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- measurement ---------------------------------------------------------------------


def percentile(sorted_vals: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_vals:
        return 0.0
    rank = max(1, -(-len(sorted_vals) * p // 100))
    return sorted_vals[int(rank) - 1]


def timed_loop(session, seconds: float, tail_p: int) -> dict:
    """Closed loop over the seed's round of queries; times at the
    reference machine speed.

    Whole rounds only, and none that would end past `seconds`, judging
    by the round before it; the first round always runs.  Every round of
    a seed is the same, so the percentiles are taken over the same
    queries however many rounds fit, and the machine's speed cannot
    change which queries they are taken over.

    The calibration sampler (see `calibrate.py`) runs throughout; its own
    time is taken out of each query's wall time, and each query time is
    then scaled to the reference speed by the kernel samples around it.
    The timed phase is the sum of the query times: the loop's wall time
    less the sampler and the answer checks.  The raw figures go to the
    detail line.
    """
    timings: list[tuple[float, float]] = []
    failures: list[str] = []
    rounds = 0
    cli = isinstance(session, CliSession)
    if cli:
        cal = calibrate.Calibrator(calibrate.spawn_kernel, calibrate.SPAWN_REF_S, 1.0,
                                   calibrate.SPAWN_WINDOW_S, timer=False)
    else:
        cal = calibrate.Calibrator()
    with cal:
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            if cli:
                session.run_round(timings, failures, between=cal.sample)
            else:
                session.run_round(timings, failures)
            rounds += 1
            now = time.perf_counter()
            if now - start + (now - r0) > seconds:
                break
    raw = [(t0, dt - cal.spent_in(t0, t0 + dt)) for t0, dt in timings]
    scaled = sorted(dt * cal.scale_at(t0, t0 + dt) for t0, dt in raw)
    raw_sorted = sorted(dt for _, dt in raw)
    attempted = len(timings)
    failed = min(len(failures), attempted)
    tail = percentile(scaled, tail_p)
    beyond = sum(1 for x in scaled if x > tail)
    return {
        "rounds": rounds,
        "timed_phase_raw_s": sum(raw_sorted),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "queries_per_s": (attempted - failed) / sum(scaled),
        "latency_p50_ms": percentile(scaled, 50) * 1000.0,
        "latency_tail_ms": tail * 1000.0,
        "tail_percentile": tail_p,
        "samples": attempted,
        "samples_beyond_tail": beyond,
        "tail_has_ten_beyond": beyond >= 10,
        "error_rate": failed / attempted,
        "peak_rss_mb": session.peak_rss_mb(),
        "raw": {
            "queries_per_s": (attempted - failed) / sum(raw_sorted),
            "latency_p50_ms": percentile(raw_sorted, 50) * 1000.0,
            "latency_tail_ms": percentile(raw_sorted, tail_p) * 1000.0,
        },
        "calibration": cal.summary(),
    }


def traced_pass(session, workload: str, seed: int, build: Path) -> dict:
    import tracing

    failures: list[str] = []
    # answers of the traced pass are checked after the wrappers come off,
    # so the checks add no spans
    deferred: list = []
    def untraced_pass():
        if workload == "cli_session":
            session.in_process_round([])
        else:
            session.prepare()
            session.run_round([], [], deferred=[])

    # the untraced pass: the same round with no wrappers installed, run
    # once first so that neither pass pays first-call costs the other
    # does not
    untraced_pass()
    with tracing.GcMeter() as gcm:
        t0 = time.perf_counter()
        untraced_pass()
        untraced = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        if workload == "cli_session":
            command_s, nbytes = session.in_process_round(failures, tracer)
        else:
            tracer.run_query(-1, "setup", session.prepare)
            session.run_round([], failures, tracer, deferred)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    for q, res in deferred:
        session.check(q, res, failures)
    interp, imported = cli_startup(build)
    metrics = tracer.layer_metrics()
    metrics.update({
        "runtime.gc_s": gcm.seconds,
        "runtime.gc_collections": gcm.collections,
        "trace.untraced_pass_s": untraced,
        "trace.traced_pass_s": traced,
        "trace.overhead_ratio": traced / untraced - 1.0,
        "cli.interpreter_s": interp,
        "cli.import_s": imported - interp,
        "cli.command_s": command_s if workload == "cli_session" else 0.0,
        "cli.output_bytes": nbytes if workload == "cli_session" else 0,
    })
    notes = {
        "cli.command_s": "0 except on cli_session, the only workload that runs CLI commands",
        "scalars.useful_row_ratio": (
            "rank over rows for nullspace_rows and rank_rows; solve_rows returns no rank, "
            "so its rows count in scalars.rows_in only"
        ),
        "scalars.subspace_s": (
            "Subspace constructor (re-elimination of dense vectors); densifying the "
            "kernel happens inside nullspace_rows and counts as scalars.eliminate_s"
        ),
    }
    top, top_s = tracer.top_layer()
    spans_path = ROOT / ".bench_build" / "perfbench" / f"spans-{workload}-{seed}.jsonl"
    tracer.write_spans(spans_path)
    return {
        "metrics": metrics,
        "failures": failures[:10],
        "failed": len(failures),
        "attempted": len(session.commands) if workload == "cli_session" else len(session.queries),
        "top_layer": top,
        "top_layer_s": top_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "notes": notes,
    }


def cli_startup(build: Path, reps: int = 5) -> tuple[float, float]:
    """Median wall time of a bare interpreter and of `import bihom.cli`."""
    env = dict(os.environ, PYTHONPATH=str(build))

    def median_of(code: str) -> float:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            status, _ = run_child([sys.executable, "-c", code], env, timeout=60)
            times.append(time.perf_counter() - t0)
            if status != 0:
                sys.exit(f"python -c {code!r} exited with code {status}")
        return sorted(times)[reps // 2]

    return median_of("pass"), median_of("import bihom.cli")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--build", type=Path, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(args.build))
    sys.path.insert(1, str(HERE))
    import workloads as W

    import bihom

    if Path(bihom.__file__).resolve().parent != (args.build / "bihom").resolve():
        sys.exit(f"bihom imported from {bihom.__file__}, not from the fresh build copy")

    if args.workload == "cli_session":
        session = CliSession(args.seed, args.build)
    else:
        session = LibrarySession(args.workload, args.seed)
    session.warm_up()
    emit({"ready": True})
    if args.mode == "setup":
        return
    if args.mode == "run":
        emit({"result": timed_loop(session, args.seconds, W.TAIL_PERCENTILE[args.workload])})
    else:
        emit({"result": traced_pass(session, args.workload, args.seed, args.build)})


if __name__ == "__main__":
    main()
